//! Theorems 2.5 and 2.6: PRAM emulation on a leveled network.
//!
//! The emulating network is an ℓ-level leveled network with the
//! unique-path property, traversed twice per routing phase (the
//! [`DoubledLeveled`] wrap): processors sit on the first column, memory
//! modules on the last. One emulated PRAM step is:
//!
//! 1. **Issue**: every processor's `MemOp` becomes a request packet for
//!    module `h(addr)` (`h` drawn from the Karlin–Upfal class with
//!    `S = c·L`, §2.1).
//! 2. **Request routing** (Algorithm 2.1): random intermediate column-ℓ
//!    node, then the unique path to the module. Read requests are
//!    combined en route through the pending tables of
//!    [`crate::combining`] (Theorem 2.6); writes travel individually and
//!    are resolved at the module.
//! 3. **Service**: modules serve their batch with read-before-write
//!    semantics ([`crate::memory`]).
//! 4. **Reply routing**: read replies retrace the request trees backward
//!    (the stored direction bits), fanning out at every combining point.
//! 5. **Rehash** (§2.1): if the request routing misses its `d(ℓ)` step
//!    budget, a designated processor draws a fresh hash function, all
//!    cells are remapped (an explicit remap charge), the budget doubles,
//!    and the step restarts.
//!
//! Results are bit-identical to `lnpram_pram::PramMachine` — enforced by
//! the tests here and the cross-crate integration tests.

use crate::combining::{PendingTables, Source};
use crate::config::{EmuReport, EmulatorConfig, StepStats};
use crate::memory::{ModuleArray, ModuleRequest};
use lnpram_hash::{HashFamily, PolyHash};
use lnpram_math::rng::SeedSeq;
use lnpram_pram::model::{AccessMode, MemOp, PramProgram, WritePolicy};
use lnpram_routing::DoubledLeveled;
use lnpram_shard::{AnyEngine, LevelCut};
use lnpram_simnet::{Outbox, Packet, Protocol, SimConfig};
use lnpram_topology::leveled::{Leveled, LeveledNet};
use lnpram_topology::Network;
use rand::Rng;
use std::collections::HashMap;

/// One issued request, kept by the emulator across rehash attempts.
#[derive(Debug, Clone, Copy)]
struct Request {
    proc: usize,
    addr: u64,
    /// `None` = read; `Some(v)` = write of `v`.
    write: Option<u64>,
}

/// The PRAM emulator over a leveled network (Theorems 2.5/2.6).
///
/// `L` is the *inner* ℓ-level network; processors and modules are its
/// `width()` first/last-column nodes. `Corollary 2.4/2.6` instances use
/// [`lnpram_topology::leveled::UnrolledShuffle`]; the classical host is
/// [`lnpram_topology::leveled::RadixButterfly`].
pub struct LeveledPramEmulator<L: Leveled + Copy> {
    inner: L,
    cfg: EmulatorConfig,
    family: HashFamily,
    hash: PolyHash,
    modules: ModuleArray,
    tables: PendingTables,
    seq: SeedSeq,
    hash_epoch: u64,
    report: EmuReport,
    /// Forward (request-phase) view of the doubled network.
    fwd: LeveledNet<DoubledLeveled<L>>,
    /// Backward (reply-phase) view of the doubled network.
    bwd: LeveledNet<DoubledLeveled<L>>,
    /// Request-phase engine, built once and recycled every attempt
    /// (serial or sharded per [`EmulatorConfig::shards`]).
    req_engine: AnyEngine,
    /// Reply-phase engine, likewise persistent.
    rep_engine: AnyEngine,
}

impl<L: Leveled + Copy> LeveledPramEmulator<L> {
    /// Build an emulator for programs over `address_space` cells.
    pub fn new(inner: L, mode: AccessMode, address_space: u64, cfg: EmulatorConfig) -> Self {
        let width = inner.width();
        // Path length per phase is 2ℓ (the doubled traversal) — that is
        // the "diameter" the paper's budgets and hash degree scale with.
        let diameter = 2 * inner.levels();
        let family = match cfg.hash_degree_override {
            Some(s_deg) => HashFamily::new(address_space, width as u64, s_deg.max(1)),
            None => HashFamily::for_diameter(
                address_space,
                width as u64,
                diameter,
                cfg.hash_degree_factor.max(1),
            ),
        };
        let seq = SeedSeq::new(cfg.seed);
        let hash = family.sample(&mut seq.child(0).rng());
        let nodes = (2 * inner.levels() + 1) * width;
        let doubled = DoubledLeveled::new(inner);
        let fwd = LeveledNet::forward(doubled);
        let bwd = LeveledNet::backward(doubled);
        // Engines are built once here and recycled with `reset` for
        // every attempt of every PRAM step: a T-step emulation builds
        // its per-link state once instead of T times. The reply phase
        // retraces an already-successful pattern, so it never times out.
        // With `cfg.shards ≥ 2` both phases run on the partitioned
        // lockstep path, column bands cut by `LevelCut` (bit-identical
        // outcomes — the lnpram-shard determinism contract).
        let part = LevelCut::new(width);
        let req_engine = AnyEngine::with_partitioner(
            &fwd,
            SimConfig {
                discipline: cfg.discipline,
                shards: cfg.shards,
                ..Default::default()
            },
            &part,
        );
        let rep_engine = AnyEngine::with_partitioner(
            &bwd,
            SimConfig {
                discipline: cfg.discipline,
                max_steps: u32::MAX,
                shards: cfg.shards,
                ..Default::default()
            },
            &part,
        );
        LeveledPramEmulator {
            inner,
            cfg,
            family,
            hash,
            modules: ModuleArray::new(width, mode),
            tables: PendingTables::new(nodes),
            seq,
            hash_epoch: 0,
            report: EmuReport::default(),
            fwd,
            bwd,
            req_engine,
            rep_engine,
        }
    }

    /// Number of processors (= memory modules = column width).
    pub fn processors(&self) -> usize {
        self.inner.width()
    }

    /// The per-phase path length `2ℓ` — the normalisation constant of the
    /// Õ(ℓ) theorems.
    pub fn diameter(&self) -> usize {
        2 * self.inner.levels()
    }

    /// Module owning `addr` under the current hash function.
    pub fn module_of(&self, addr: u64) -> usize {
        self.hash.eval(addr) as usize
    }

    /// Direct read of the emulated shared memory (for verification).
    pub fn peek(&self, addr: u64) -> u64 {
        self.modules.peek(self.module_of(addr), addr)
    }

    /// Snapshot the full memory image `0..address_space` (diffed against
    /// the reference machine by the tests).
    pub fn memory_image(&self, address_space: u64) -> Vec<u64> {
        (0..address_space).map(|a| self.peek(a)).collect()
    }

    /// The accumulated report.
    pub fn report(&self) -> &EmuReport {
        &self.report
    }

    /// Run `prog` to completion (every processor `Halt`s), mirroring
    /// [`lnpram_pram::PramMachine::run`]. Returns the final report clone.
    pub fn run_program<P: PramProgram>(&mut self, prog: &mut P, max_steps: usize) -> EmuReport {
        assert!(
            prog.processors() <= self.processors(),
            "program needs {} processors, network has {}",
            prog.processors(),
            self.processors()
        );
        assert!(prog.address_space() <= self.family.address_space);
        for (addr, val) in prog.initial_memory() {
            let m = self.module_of(addr);
            self.modules.poke(m, addr, val);
        }
        let p = prog.processors();
        let mut last_read: Vec<Option<u64>> = vec![None; p];
        for step in 0..max_steps {
            let ops: Vec<MemOp> = (0..p).map(|i| prog.op(i, step, last_read[i])).collect();
            if ops.iter().all(|o| matches!(o, MemOp::Halt)) {
                break;
            }
            let reads = self.emulate_step(&ops, step as u64);
            for (proc, value) in reads {
                last_read[proc] = Some(value);
            }
            self.report.pram_steps += 1;
        }
        self.report.clone()
    }

    /// Emulate one PRAM step; returns `(proc, value)` for every read.
    pub fn emulate_step(&mut self, ops: &[MemOp], step_label: u64) -> Vec<(usize, u64)> {
        let requests: Vec<Request> = ops
            .iter()
            .enumerate()
            .filter_map(|(proc, op)| match *op {
                MemOp::Read(addr) => Some(Request {
                    proc,
                    addr,
                    write: None,
                }),
                MemOp::Write(addr, v) => Some(Request {
                    proc,
                    addr,
                    write: Some(v),
                }),
                MemOp::None | MemOp::Halt => None,
            })
            .collect();

        let mut stats = StepStats {
            requests: requests.len() as u32,
            ..Default::default()
        };
        if requests.is_empty() {
            self.report.steps.push(stats);
            return Vec::new();
        }

        let step_seq = self.seq.child(1).child(step_label);
        let mut attempt = 0u32;
        let reads_out = loop {
            let budget = self.cfg.budget_factor * self.diameter() as u32 * (1 << attempt.min(8));
            match self.try_step(
                &requests,
                step_seq.child(attempt as u64),
                budget,
                &mut stats,
            ) {
                Some(reads) => break reads,
                None => {
                    attempt += 1;
                    assert!(
                        attempt <= self.cfg.max_rehashes,
                        "exceeded max_rehashes ({}) — budget_factor too small",
                        self.cfg.max_rehashes
                    );
                    self.rehash(&mut stats);
                }
            }
        };
        self.report.steps.push(stats);
        reads_out
    }

    /// One attempt at routing + serving a step. `None` = request-phase
    /// overrun (caller rehashes and retries).
    fn try_step(
        &mut self,
        requests: &[Request],
        attempt_seq: SeedSeq,
        budget: u32,
        stats: &mut StepStats,
    ) -> Option<Vec<(usize, u64)>> {
        let width = self.inner.width();
        self.tables.reset();
        self.modules.clear_batches();

        // ---- Request phase ----
        self.req_engine.reset();
        self.req_engine.set_max_steps(budget);
        let mut via_rng = attempt_seq.child(0).rng();
        let mut write_vals: HashMap<u32, (u64, usize)> = HashMap::new();
        for (id, req) in requests.iter().enumerate() {
            let module = self.hash.eval(req.addr) as u32;
            let via = via_rng.gen_range(0..width) as u32;
            let mut pkt = Packet::new(id as u32, req.proc as u32, module)
                .with_via(via)
                .with_tag(req.addr);
            pkt.phase = u8::from(req.write.is_some());
            if let Some(v) = req.write {
                write_vals.insert(id as u32, (v, req.proc));
            }
            self.req_engine.inject(self.fwd.node_id(0, req.proc), pkt);
        }
        let combining = self.cfg.combining;
        {
            let Self {
                fwd,
                tables,
                modules,
                req_engine,
                ..
            } = self;
            let mut proto = RequestProtocol {
                net: &*fwd,
                tables,
                modules,
                write_vals: &mut write_vals,
                combining,
                write_merges: 0,
            };
            let out = req_engine.run(&mut proto);
            if !out.completed {
                return None;
            }
            stats.request_steps = out.metrics.routing_time;
            stats.max_queue = stats.max_queue.max(out.metrics.max_queue as u32);
            stats.combined = proto.write_merges;
        }
        stats.combined += self.tables.combined();

        // ---- Service ----
        let (reads, busiest) = self.modules.serve_batches();
        stats.service_steps = busiest;

        // ---- Reply phase ----
        if reads.is_empty() {
            return Some(Vec::new());
        }
        self.rep_engine.reset();
        let mut read_values: HashMap<u64, u64> = HashMap::new();
        for &(module, addr, trail, value) in &reads {
            read_values.insert(addr, value);
            let mut pkt = Packet::new(0, trail, 0).with_tag(addr);
            pkt.via = trail;
            self.rep_engine
                .inject(self.bwd.node_id(2 * self.inner.levels(), module), pkt);
        }
        let mut deliveries: Vec<(usize, u64)> = Vec::new();
        {
            let Self {
                bwd,
                tables,
                rep_engine,
                ..
            } = self;
            let mut proto = ReplyProtocol {
                net: &*bwd,
                tables,
                read_values: &read_values,
                deliveries: &mut deliveries,
            };
            let out = rep_engine.run(&mut proto);
            debug_assert!(out.completed);
            stats.reply_steps = out.metrics.routing_time;
            stats.max_queue = stats.max_queue.max(out.metrics.max_queue as u32);
        }
        debug_assert!(self.tables.all_clear(), "unconsumed pending entries");
        Some(deliveries)
    }

    /// §2.1 rehashing: draw a fresh `h`, remap every stored cell, charge
    /// the redistribution.
    fn rehash(&mut self, stats: &mut StepStats) {
        self.hash_epoch += 1;
        self.hash = self
            .family
            .sample(&mut self.seq.child(2).child(self.hash_epoch).rng());
        let cells = self.modules.drain_cells();
        // Remap charge: the cells form ⌈cells/N⌉ batches, each an
        // h-relation costing one full traversal (2ℓ), plus broadcasting
        // the O(L log M)-bit description of h (ℓ steps).
        let batches = cells.len().div_ceil(self.processors().max(1)) as u64;
        self.report.remap_steps += batches * self.diameter() as u64 + self.inner.levels() as u64;
        for (addr, val) in cells {
            let m = self.hash.eval(addr) as usize;
            self.modules.poke(m, addr, val);
        }
        stats.rehashes += 1;
        self.report.rehashes += 1;
    }
}

/// Request-phase protocol: Algorithm 2.1 routing plus combining tables.
struct RequestProtocol<'a, L: Leveled> {
    net: &'a LeveledNet<DoubledLeveled<L>>,
    tables: &'a mut PendingTables,
    modules: &'a mut ModuleArray,
    write_vals: &'a mut HashMap<u32, (u64, usize)>,
    combining: bool,
    /// Same-step write merges performed (footnote 3 applied to writes).
    write_merges: u32,
}

impl<L: Leveled> RequestProtocol<'_, L> {
    fn trail_of(&self, pkt: &Packet) -> u32 {
        if self.combining {
            0
        } else {
            pkt.src
        }
    }

    /// The write policy if concurrent same-address writes can be merged
    /// en route without changing the module-level resolution: the policy
    /// must be associative with a representative writer (Sum, Max) or
    /// select the minimum processor (Priority, and our deterministic
    /// Arbitrary). Common must see every writer to detect mismatches;
    /// EREW/CREW writes are conflicts the modules must observe.
    fn mergeable_policy(&self) -> Option<WritePolicy> {
        match self.modules.mode() {
            AccessMode::Crcw(
                p @ (WritePolicy::Sum
                | WritePolicy::Max
                | WritePolicy::Priority
                | WritePolicy::Arbitrary),
            ) => Some(p),
            _ => None,
        }
    }

    /// Merge `(value, proc)` pairs under `policy` (the en-route version of
    /// [`resolve_write`](lnpram_pram::machine::resolve_write), restricted
    /// to the associative policies).
    fn merge(policy: WritePolicy, acc: (u64, usize), next: (u64, usize)) -> (u64, usize) {
        match policy {
            WritePolicy::Sum => (acc.0 + next.0, acc.1.min(next.1)),
            WritePolicy::Max => (acc.0.max(next.0), acc.1.min(next.1)),
            // Priority / deterministic Arbitrary: lowest processor's value.
            _ => {
                if next.1 < acc.1 {
                    next
                } else {
                    acc
                }
            }
        }
    }
}

impl<L: Leveled> Protocol for RequestProtocol<'_, L> {
    /// Footnote 3 for *writes*: all of a step's arrivals at one node that
    /// write the same address under an associative policy merge into one
    /// packet before forwarding. (Reads combine through the pending
    /// tables in `on_packet`; the merge here happens in the second,
    /// convergent half of the route where the remaining paths coincide.)
    fn on_arrivals(&mut self, node: usize, pkts: &[Packet], step: u32, out: &mut Outbox) {
        let lv = self.net.leveled();
        let half = lv.levels() / 2;
        let (col, _) = self.net.split(node);
        let policy = if self.combining && col >= half && col < lv.levels() && pkts.len() > 1 {
            self.mergeable_policy()
        } else {
            None
        };
        let Some(policy) = policy else {
            for &pkt in pkts {
                self.on_packet(node, pkt, step, out);
            }
            return;
        };
        // First same-address write in batch order becomes the
        // representative; later ones fold their (value, proc) into it.
        let mut rep_of: HashMap<u64, usize> = HashMap::new();
        let mut merged: Vec<Option<Packet>> = pkts.iter().copied().map(Some).collect();
        for (i, pkt) in pkts.iter().enumerate() {
            if pkt.phase != 1 {
                continue; // reads go through the pending tables as usual
            }
            match rep_of.entry(pkt.tag) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(i);
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    let rep = pkts[*e.get()];
                    let a = self.write_vals[&rep.id];
                    let b = self.write_vals[&pkt.id];
                    self.write_vals.insert(rep.id, Self::merge(policy, a, b));
                    merged[i] = None;
                    self.write_merges += 1;
                }
            }
        }
        for pkt in merged.into_iter().flatten() {
            self.on_packet(node, pkt, step, out);
        }
    }

    fn on_packet(&mut self, node: usize, mut pkt: Packet, step: u32, out: &mut Outbox) {
        let lv = self.net.leveled();
        let half = lv.levels() / 2;
        let (col, idx) = self.net.split(node);
        let is_write = pkt.phase == 1;
        let addr = pkt.tag;

        if col == lv.levels() {
            // Module column.
            if is_write {
                let (value, proc) = self.write_vals[&pkt.id];
                self.modules
                    .buffer(idx, ModuleRequest::Write { addr, value, proc });
                out.deliver(pkt);
            } else {
                let trail = self.trail_of(&pkt);
                let first = self
                    .tables
                    .register(node, addr, trail, Source::FromNode(pkt.prev));
                if first {
                    self.modules
                        .buffer(idx, ModuleRequest::Read { addr, trail });
                }
                out.deliver(pkt);
            }
            return;
        }

        if !is_write {
            let trail = self.trail_of(&pkt);
            let source = if step == 0 {
                Source::Local
            } else {
                Source::FromNode(pkt.prev)
            };
            let first = self.tables.register(node, addr, trail, source);
            if !first {
                out.absorb(pkt); // combined — the pending entry fans out later
                return;
            }
        }

        let target = if col < half { pkt.via } else { pkt.dest } as usize;
        let digit = lv.digit_toward(col, idx, target);
        pkt.prev = node as u32;
        out.send(digit, pkt);
    }
}

/// Reply-phase protocol: retrace the pending-table tree, fanning out.
struct ReplyProtocol<'a, L: Leveled> {
    net: &'a LeveledNet<DoubledLeveled<L>>,
    tables: &'a mut PendingTables,
    read_values: &'a HashMap<u64, u64>,
    deliveries: &'a mut Vec<(usize, u64)>,
}

impl<L: Leveled> Protocol for ReplyProtocol<'_, L> {
    fn on_packet(&mut self, node: usize, pkt: Packet, _step: u32, out: &mut Outbox) {
        let addr = pkt.tag;
        let trail = pkt.via;
        let entry = self.tables.take(node, addr, trail);
        if entry.local {
            let (col, idx) = self.net.split(node);
            debug_assert_eq!(col, 0, "local requests only originate in column 0");
            self.deliveries.push((idx, self.read_values[&addr]));
        }
        let mut sent = false;
        for to in self.tables.iter(entry.fanout) {
            let port = self
                .net
                .port_to(node, to as usize)
                .expect("fanout neighbor reachable on reply network");
            out.send(port, pkt);
            sent = true;
        }
        if !sent {
            out.deliver(pkt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnpram_pram::machine::PramMachine;
    use lnpram_pram::model::WritePolicy;
    use lnpram_pram::programs::{Broadcast, PrefixSum, ReductionMax};
    use lnpram_topology::leveled::{RadixButterfly, UnrolledShuffle};

    fn check_against_reference<P, Q>(
        mut prog_emu: P,
        mut prog_ref: Q,
        mode: AccessMode,
        inner: RadixButterfly,
    ) -> (EmuReport, Vec<u64>)
    where
        P: PramProgram,
        Q: PramProgram,
    {
        let space = prog_emu.address_space();
        let mut emu = LeveledPramEmulator::new(inner, mode, space, EmulatorConfig::default());
        let report = emu.run_program(&mut prog_emu, 100_000);
        let mut oracle = PramMachine::new(space, mode);
        oracle.run(&mut prog_ref, 100_000);
        let image = emu.memory_image(space);
        assert_eq!(image, oracle.memory(), "emulated memory must match oracle");
        (report, image)
    }

    #[test]
    fn reduction_max_matches_reference() {
        let values: Vec<u64> = (0..16).map(|i| (i * 37 + 11) % 100).collect();
        let inner = RadixButterfly::new(2, 3); // 8 processors for 8 pairs
        let (report, image) = check_against_reference(
            ReductionMax::new(values.clone()),
            ReductionMax::new(values.clone()),
            AccessMode::Erew,
            inner,
        );
        assert_eq!(image[0], *values.iter().max().unwrap());
        assert!(report.pram_steps > 0);
        assert_eq!(report.rehashes, 0, "default budget should not rehash");
    }

    #[test]
    fn prefix_sum_matches_reference() {
        let values: Vec<u64> = (0..8).map(|i| i + 1).collect();
        let inner = RadixButterfly::new(2, 3);
        let prog = PrefixSum::new(values.clone());
        let expected = prog.expected();
        let (_report, image) = check_against_reference(
            prog,
            PrefixSum::new(values.clone()),
            AccessMode::Erew,
            inner,
        );
        let check = PrefixSum::new(values);
        let base = check.result_base() as usize;
        assert_eq!(&image[base..base + 8], &expected[..]);
    }

    #[test]
    fn broadcast_hotspot_combines() {
        // 16 processors all read cell 0 — combining must collapse module
        // traffic: the module serves exactly 1 read per round.
        let inner = RadixButterfly::new(2, 4);
        let mut prog = Broadcast::new(16, 2, 777);
        let mut emu = LeveledPramEmulator::new(
            inner,
            AccessMode::Crew,
            prog.address_space(),
            EmulatorConfig::default(),
        );
        let report = emu.run_program(&mut prog, 1000);
        assert!(prog.verify(&emu.memory_image(17)));
        // Each read round: 16 requests collapse along the combining tree.
        let combined = report.total_combined();
        assert!(combined >= 15, "expected heavy combining, got {combined}");
        // Busiest module batch must stay 1 on read rounds (full combining).
        for s in report.steps.iter().filter(|s| s.combined > 0) {
            assert_eq!(s.service_steps, 1, "combining must collapse the batch");
        }
    }

    #[test]
    fn combining_off_floods_the_module() {
        let inner = RadixButterfly::new(2, 4);
        let mut prog = Broadcast::new(16, 1, 5);
        let mut emu = LeveledPramEmulator::new(
            inner,
            AccessMode::Crew,
            prog.address_space(),
            EmulatorConfig {
                combining: false,
                ..Default::default()
            },
        );
        let report = emu.run_program(&mut prog, 1000);
        assert!(prog.verify(&emu.memory_image(17)));
        assert_eq!(report.total_combined(), 0);
        // All 16 un-combined reads land on one module.
        let max_service = report.steps.iter().map(|s| s.service_steps).max().unwrap();
        assert_eq!(max_service, 16);
    }

    #[test]
    fn crcw_sum_histogram_on_shuffle_leveled() {
        use lnpram_pram::programs::Histogram;
        let shuffle = UnrolledShuffle::new(3, 3); // 27 processors
        let inputs: Vec<u64> = (0..27).map(|i| i % 4).collect();
        let mut prog = Histogram::new(inputs.clone(), 4);
        let space = prog.address_space();
        let mut emu = LeveledPramEmulator::new(
            shuffle,
            AccessMode::Crcw(WritePolicy::Sum),
            space,
            EmulatorConfig::default(),
        );
        emu.run_program(&mut prog, 1000);
        assert!(prog.verify(&emu.memory_image(space)));
        let mut oracle = PramMachine::new(space, AccessMode::Crcw(WritePolicy::Sum));
        oracle.run(&mut Histogram::new(inputs, 4), 1000);
        assert_eq!(emu.memory_image(space), oracle.memory());
    }

    #[test]
    fn write_hotspot_merges_en_route_and_stays_exact() {
        // All 32 processors CRCW-Sum into one cell (a 1-bucket histogram).
        // Footnote 3's write combining must shrink the busiest module
        // batch below the processor count while keeping the sum exact.
        use lnpram_pram::programs::Histogram;
        let inner = RadixButterfly::new(2, 5);
        let inputs: Vec<u64> = vec![0; 32]; // every key hits bucket 0
        let mode = AccessMode::Crcw(WritePolicy::Sum);
        let run = |combining: bool| {
            let mut prog = Histogram::new(inputs.clone(), 1);
            let space = prog.address_space();
            let mut emu = LeveledPramEmulator::new(
                inner,
                mode,
                space,
                EmulatorConfig {
                    combining,
                    ..Default::default()
                },
            );
            let rep = emu.run_program(&mut prog, 1000);
            let busiest = rep.steps.iter().map(|s| s.service_steps).max().unwrap();
            let image = emu.memory_image(space);
            (busiest, rep.total_combined(), image)
        };
        let (busy_on, merges_on, image_on) = run(true);
        let (busy_off, merges_off, image_off) = run(false);
        let space = Histogram::new(inputs.clone(), 1).address_space();
        let mut oracle = PramMachine::new(space, mode);
        oracle.run(&mut Histogram::new(inputs, 1), 1000);
        assert_eq!(image_on, oracle.memory(), "merged run must stay exact");
        assert_eq!(image_off, oracle.memory());
        assert_eq!(merges_off, 0);
        assert!(merges_on > 0, "expected en-route write merges");
        assert!(
            busy_on < busy_off,
            "combining should shrink the hot module batch: {busy_on} vs {busy_off}"
        );
    }

    #[test]
    fn write_merging_respects_priority_policy() {
        // Priority: lowest processor id wins. Merge en route and verify
        // the module still resolves to processor 0's value.
        let inner = RadixButterfly::new(2, 4);
        let mode = AccessMode::Crcw(WritePolicy::Priority);
        let mut emu = LeveledPramEmulator::new(inner, mode, 8, EmulatorConfig::default());
        // Every processor writes (100 + its id) into cell 3.
        let ops: Vec<MemOp> = (0..16).map(|p| MemOp::Write(3, 100 + p as u64)).collect();
        emu.emulate_step(&ops, 0);
        assert_eq!(emu.peek(3), 100, "priority resolution must survive merging");
    }

    #[test]
    fn tight_budget_forces_rehash_but_stays_correct() {
        let inner = RadixButterfly::new(2, 4);
        let values: Vec<u64> = (0..32).map(|i| (i * 13) % 64).collect();
        let mut prog = ReductionMax::new(values.clone());
        let mut emu = LeveledPramEmulator::new(
            inner,
            AccessMode::Erew,
            prog.address_space(),
            EmulatorConfig {
                budget_factor: 1, // 1×diameter is below 2ℓ + delay for some steps
                max_rehashes: 12,
                ..Default::default()
            },
        );
        let report = emu.run_program(&mut prog, 10_000);
        assert!(prog.verify(&emu.memory_image(32)));
        // With such a tight budget at least one step should have rehashed
        // (path length alone is 2ℓ = budget).
        assert!(report.rehashes > 0, "expected rehashes under 1x budget");
        assert!(report.remap_steps > 0);
    }

    #[test]
    fn slowdown_is_small_multiple_of_diameter() {
        // Theorem 2.5's claim, empirically: mean step time ≤ small × 2ℓ.
        let inner = RadixButterfly::new(2, 6); // 64 processors
        let perm: Vec<usize> = (0..64).map(|i| (i * 7 + 5) % 64).collect();
        let mut prog = lnpram_pram::programs::PermutationTraffic::new(perm, 4);
        let mut emu = LeveledPramEmulator::new(
            inner,
            AccessMode::Erew,
            prog.address_space(),
            EmulatorConfig::default(),
        );
        let report = emu.run_program(&mut prog, 1000);
        let c = report.slowdown_per_diameter(emu.diameter());
        assert!(c < 6.0, "slowdown constant {c:.2} too large");
        assert_eq!(report.rehashes, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let inner = RadixButterfly::new(2, 4);
        let run = || {
            let perm: Vec<usize> = (0..16).map(|i| (i * 3 + 1) % 16).collect();
            let mut prog = lnpram_pram::programs::PermutationTraffic::new(perm, 2);
            let mut emu = LeveledPramEmulator::new(
                inner,
                AccessMode::Erew,
                prog.address_space(),
                EmulatorConfig {
                    seed: 99,
                    ..Default::default()
                },
            );
            let rep = emu.run_program(&mut prog, 100);
            (rep.network_steps(), emu.memory_image(16))
        };
        assert_eq!(run(), run());
    }
}
