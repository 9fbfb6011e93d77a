#![cfg(test)]
//! The node-local contract on the emulator hosts, as a test harness:
//! each host's request and reply protocols, run as they are, must agree
//! exactly with the same protocols forced onto the grouped process path.
//! Every host runs its phases through [`run`] (`emulator::run_phase`
//! under test), so [`assert_paths_agree`] drives each one through its
//! `EmuHost` entry points over a case matrix: serial and K = 2 engines,
//! combining on and off, hashed and `with_copies(3)` placement.
//!
//! Compared per case: every [`Metrics`](lnpram_simnet::Metrics) field of
//! both phases, the combining count, the served reads as `(module, key,
//! value, version)` (their tag names a pending entry, and entry ids are
//! handed out in creation order, which the path may change) and each
//! processor's reply sequence. The reply phase itself asserts that every
//! pending entry was consumed.

use crate::config::EmulatorConfig;
use crate::emulator::{EmuHost, PramEmulator};
use crate::memory::ModuleArray;
use lnpram_math::rng::SeedSeq;
use lnpram_pram::model::{AccessMode, MemOp, WritePolicy};
use lnpram_shard::AnyEngine;
use lnpram_simnet::{Outbox, Packet, Protocol, RunOutcome};
use rand::Rng;
use std::cell::RefCell;

/// `P` with every callback forwarded and `NODE_LOCAL` left `false`: the
/// same protocol on the grouped process path.
struct Grouped<'a, P>(&'a mut P);

impl<P: Protocol> Protocol for Grouped<'_, P> {
    fn on_packet(&mut self, node: usize, pkt: Packet, step: u32, out: &mut Outbox) {
        self.0.on_packet(node, pkt, step, out);
    }

    fn on_arrivals(&mut self, node: usize, pkts: &[Packet], step: u32, out: &mut Outbox) {
        self.0.on_arrivals(node, pkts, step, out);
    }

    fn on_step_end(&mut self, step: u32) {
        self.0.on_step_end(step);
    }
}

thread_local! {
    /// While [`observe`] watches this thread: whether to force the
    /// grouped path, and the fingerprint of every phase run since.
    static WATCH: RefCell<Option<(bool, Vec<Fingerprint>)>> = const { RefCell::new(None) };
}

/// Run one routing phase, on the grouped path if [`observe`] asks for
/// it, recording what the run showed while it watches.
pub(crate) fn run<P: Protocol>(engine: &mut AnyEngine, proto: &mut P) -> RunOutcome {
    let grouped = WATCH.with_borrow(|w| w.as_ref().is_some_and(|(grouped, _)| *grouped));
    let out = if grouped {
        engine.run(&mut Grouped(proto))
    } else {
        engine.run(proto)
    };
    WATCH.with_borrow_mut(|w| {
        if let Some((_, runs)) = w {
            runs.push(fingerprint(&out));
        }
    });
    out
}

/// Everything a run's metrics can differ in, flattened for comparison.
type Fingerprint = (bool, usize, u32, u32, usize, u64, Vec<(u64, u64)>, Vec<u32>);

fn fingerprint(out: &RunOutcome) -> Fingerprint {
    let m = &out.metrics;
    (
        out.completed,
        m.delivered,
        m.routing_time,
        m.steps,
        m.max_queue,
        m.queued_packet_steps,
        m.latency.buckets().collect(),
        m.link_loads.clone(),
    )
}

/// What one request phase plus one reply phase showed.
#[derive(Debug, PartialEq)]
struct Observed {
    /// The request run, then the reply run.
    runs: Vec<Fingerprint>,
    combined: u32,
    served: Vec<(usize, u64, u64, u64)>,
    per_proc: Vec<Vec<u32>>,
}

/// Cells the cases address: fewer than processors, so reads collide.
pub(crate) const SPACE: u64 = 12;
/// The write policy merges en route on the leveled host.
pub(crate) const MODE: AccessMode = AccessMode::Crcw(WritePolicy::Max);

/// One PRAM step's ops: a hot-spot read of cell 7 mixed with spread
/// reads, writes and idle processors.
fn ops(procs: usize, seed: u64) -> Vec<MemOp> {
    let mut rng = SeedSeq::new(seed).rng();
    (0..procs)
        .map(|q| match rng.gen_range(0u8..8) {
            0 | 1 => MemOp::Read(7),
            2..=4 => MemOp::Read(rng.gen_range(0..SPACE)),
            5 | 6 => MemOp::Write(rng.gen_range(0..SPACE), q as u64),
            _ => MemOp::None,
        })
        .collect()
}

/// Run `ops` through both phases of `emu`'s host on one path, against
/// modules whose copies hold distinct values at versions that sometimes
/// tie.
fn observe<H: EmuHost>(emu: &mut PramEmulator<H>, ops: &[MemOp], grouped: bool) -> Observed {
    let procs = emu.processors();
    let mut modules = ModuleArray::new(procs, MODE);
    for addr in 0..SPACE {
        for j in 0..emu.map.copies() {
            let (module, key) = emu.map.locate(addr, j, procs);
            modules.poke(
                module,
                key,
                100 * addr + j as u64,
                1 + (addr + j as u64) % 2,
            );
        }
    }
    let mut requests = Vec::new();
    emu.map.issue(ops, procs, &mut emu.homes, &mut requests);
    let budget = 16 * emu.host.phase_bound() as u32;
    WATCH.set(Some((grouped, Vec::new())));
    let requested = emu
        .host
        .route_requests(&requests, &mut modules, budget, SeedSeq::new(3))
        .expect("request phase within budget");
    let mut reads = Vec::new();
    modules.serve_batches(3, &mut reads);
    let mut replies = Vec::new();
    emu.host
        .route_replies(&reads, SeedSeq::new(4), &mut replies);
    let (_, runs) = WATCH.take().expect("watched");
    let mut per_proc = vec![Vec::new(); procs];
    for (proc, i) in replies {
        per_proc[proc].push(i);
    }
    Observed {
        runs,
        combined: requested.combined,
        served: reads
            .iter()
            .map(|r| (r.module, r.key, r.value, r.version))
            .collect(),
        per_proc,
    }
}

/// Both process paths agree on every case of the matrix; `build` makes
/// the hashed emulator for a config. On a host that `combines`, with
/// combining on, no `(module, key)` is served twice in a step: every
/// read of a cell after the first was absorbed on the way.
pub(crate) fn assert_paths_agree<H: EmuHost>(
    combines: bool,
    build: impl Fn(EmulatorConfig) -> PramEmulator<H>,
) {
    for shards in [0, 2] {
        for combining in [true, false] {
            for copies in [1, 3] {
                let cfg = EmulatorConfig {
                    shards,
                    combining,
                    ..EmulatorConfig::default()
                };
                let mut emu = build(cfg);
                if copies > 1 {
                    emu = emu.with_copies(copies).expect("odd copy count");
                }
                for seed in 0..3 {
                    let case = format!(
                        "shards {shards}, combining {combining}, copies {copies}, seed {seed}"
                    );
                    let ops = ops(emu.processors(), seed);
                    let node_local = observe(&mut emu, &ops, false);
                    if copies > 1 {
                        let ties = node_local.per_proc.iter().any(|r| r.len() > 1);
                        assert!(ties, "some reader resolves several replies");
                    }
                    if combines && combining {
                        let mut cells: Vec<_> =
                            node_local.served.iter().map(|r| (r.0, r.1)).collect();
                        cells.sort_unstable();
                        cells.dedup();
                        assert_eq!(
                            cells.len(),
                            node_local.served.len(),
                            "{case}: uncombined read"
                        );
                    }
                    let grouped = observe(&mut emu, &ops, true);
                    assert_eq!(node_local, grouped, "{case}");
                }
            }
        }
    }
}
