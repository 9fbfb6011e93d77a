//! Corollaries 2.3 and 2.5: PRAM emulation on the physical n-star graph.
//!
//! Every node of the n-star hosts one processor *and* one memory module
//! (the paper's parallel model). A PRAM step routes requests by
//! Algorithm 2.2 — random intermediate node along the canonical oblivious
//! path, then on to module `h(addr)` — and read replies retrace the
//! request trees backward (SWAP edges are involutions, so the reverse
//! port equals the forward port and the star needs no separate reply
//! network).
//!
//! **Combining safety.** On the leveled networks the request paths move
//! strictly forward by column, so pending entries can never form a cycle.
//! On the star, two packets travelling toward *different random
//! intermediates* could each get absorbed into the other's trail —
//! a deadlock. The canonical phase-2 route, however, decreases the
//! distance to the module by exactly one per hop, so phase-2 trails are
//! acyclic. We therefore keep phase-1 trails *private* (keyed by
//! requester) and let them join the shared phase-2 tree at the
//! intermediate node through a [`Source::Chain`] link; the reply unwinds
//! the shared tree and then each private trail. Combining across
//! requesters happens exactly where it is safe — the convergent phase —
//! which is also where the hot-spot traffic concentrates.

use crate::combining::{PendingTables, Source};
use crate::config::{EmuReport, EmulatorConfig, StepStats};
use crate::memory::{ModuleArray, ModuleRequest};
use lnpram_hash::{HashFamily, PolyHash};
use lnpram_math::rng::SeedSeq;
use lnpram_pram::model::{AccessMode, MemOp, PramProgram};
use lnpram_routing::star::star_table_engine;
use lnpram_shard::AnyEngine;
use lnpram_simnet::{Outbox, Packet, Protocol, SimConfig};
use lnpram_topology::{Network, StarGraph, StarTable};
use rand::Rng;

/// One memory request of the PRAM step being emulated; packet ids index
/// the step's request list.
#[derive(Clone, Copy)]
struct Req {
    proc: usize,
    addr: u64,
    write: Option<u64>,
}

/// The PRAM emulator on the n-star graph (Corollaries 2.3/2.5).
pub struct StarPramEmulator {
    /// Everything the protocols ask of the star per hop (next port,
    /// reverse port), tabulated once.
    table: StarTable,
    cfg: EmulatorConfig,
    family: HashFamily,
    hash: PolyHash,
    modules: ModuleArray,
    tables: PendingTables,
    seq: SeedSeq,
    hash_epoch: u64,
    report: EmuReport,
    /// One persistent engine serves both phases (the star is its own
    /// reply network); recycled with `reset` per phase. Serial or
    /// sharded (greedy edge-cut — the star has no level/row structure)
    /// per [`EmulatorConfig::shards`].
    engine: AnyEngine,
    /// The current step's requests, kept between steps for its capacity.
    requests: Vec<Req>,
}

impl StarPramEmulator {
    /// Emulator on the n-star for programs over `address_space` cells.
    pub fn new(n: usize, mode: AccessMode, address_space: u64, cfg: EmulatorConfig) -> Self {
        let star = StarGraph::new(n);
        let family = match cfg.hash_degree_override {
            Some(s_deg) => HashFamily::new(address_space, star.num_nodes() as u64, s_deg.max(1)),
            None => HashFamily::for_diameter(
                address_space,
                star.num_nodes() as u64,
                star.diameter().max(1),
                cfg.hash_degree_factor.max(1),
            ),
        };
        let seq = SeedSeq::new(cfg.seed);
        let hash = family.sample(&mut seq.child(0).rng());
        let table = StarTable::new(star);
        // Same construction as `StarRoutingSession` (greedy edge-cut on
        // the sharded path), built once and recycled per phase.
        let engine = star_table_engine(
            &table,
            SimConfig {
                discipline: cfg.discipline,
                shards: cfg.shards,
                ..Default::default()
            },
        );
        StarPramEmulator {
            table,
            cfg,
            family,
            hash,
            modules: ModuleArray::new(star.num_nodes(), mode),
            tables: PendingTables::new(star.num_nodes()),
            seq,
            hash_epoch: 0,
            report: EmuReport::default(),
            engine,
            requests: Vec::new(),
        }
    }

    /// Number of processors (= modules = n!).
    pub fn processors(&self) -> usize {
        self.table.num_nodes()
    }

    /// Star-graph diameter `⌊3(n−1)/2⌋` — the Õ(n) normalisation.
    pub fn diameter(&self) -> usize {
        self.table.star().diameter()
    }

    /// Module owning `addr` under the current hash.
    pub fn module_of(&self, addr: u64) -> usize {
        self.hash.eval(addr) as usize
    }

    /// Direct read of the emulated memory.
    pub fn peek(&self, addr: u64) -> u64 {
        self.modules.peek(self.module_of(addr), addr)
    }

    /// Full memory image for oracle diffing.
    pub fn memory_image(&self, address_space: u64) -> Vec<u64> {
        (0..address_space).map(|a| self.peek(a)).collect()
    }

    /// The accumulated report.
    pub fn report(&self) -> &EmuReport {
        &self.report
    }

    /// Run `prog` to completion, mirroring the reference machine.
    pub fn run_program<P: PramProgram>(&mut self, prog: &mut P, max_steps: usize) -> EmuReport {
        assert!(prog.processors() <= self.processors());
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

    /// Emulate one PRAM step; returns `(proc, value)` per read.
    pub fn emulate_step(&mut self, ops: &[MemOp], step_label: u64) -> Vec<(usize, u64)> {
        self.requests.clear();
        self.requests
            .extend(ops.iter().enumerate().filter_map(|(proc, op)| match *op {
                MemOp::Read(addr) => Some(Req {
                    proc,
                    addr,
                    write: None,
                }),
                MemOp::Write(addr, v) => Some(Req {
                    proc,
                    addr,
                    write: Some(v),
                }),
                _ => None,
            }));
        let mut stats = StepStats {
            requests: self.requests.len() as u32,
            ..Default::default()
        };
        if self.requests.is_empty() {
            self.report.steps.push(stats);
            return Vec::new();
        }

        let step_seq = self.seq.child(1).child(step_label);
        let mut attempt = 0u32;
        loop {
            // Request path length ≤ 2×diameter (via + dest legs).
            let budget =
                self.cfg.budget_factor * 2 * self.diameter() as u32 * (1 << attempt.min(8));
            let attempt_seq = step_seq.child(attempt as u64);
            self.tables.reset();
            self.modules.clear_batches();

            // ---- Request phase (Algorithm 2.2 + combining) ----
            self.engine.reset();
            self.engine.set_max_steps(budget);
            let mut via_rng = attempt_seq.child(0).rng();
            for id in 0..self.requests.len() {
                let req = self.requests[id];
                let module = self.module_of(req.addr) as u32;
                let via = via_rng.gen_range(0..self.processors()) as u32;
                let mut pkt = Packet::new(id as u32, req.proc as u32, module)
                    .with_via(via)
                    .with_tag(req.addr);
                pkt.hop = u8::from(req.write.is_some()); // request-kind flag
                self.engine.inject(req.proc, pkt);
            }
            {
                let mut proto = StarRequestProtocol {
                    table: &self.table,
                    tables: &mut self.tables,
                    modules: &mut self.modules,
                    requests: &self.requests,
                    combining: self.cfg.combining,
                };
                let out = self.engine.run(&mut proto);
                if !out.completed {
                    attempt += 1;
                    assert!(
                        attempt <= self.cfg.max_rehashes,
                        "exceeded max_rehashes on the star"
                    );
                    self.rehash(&mut stats);
                    continue;
                }
                stats.request_steps = out.metrics.routing_time;
                stats.max_queue = stats.max_queue.max(out.metrics.max_queue as u32);
            }
            stats.combined = self.tables.combined();

            // ---- Service ----
            let (reads, busiest) = self.modules.serve_batches();
            stats.service_steps = busiest;

            // ---- Reply phase (retrace trees; SWAP ports are involutions) ----
            // One delivery per read request at most, so the reply run
            // never grows the vector it fills.
            let mut deliveries: Vec<(usize, u64)> = Vec::new();
            if !reads.is_empty() {
                deliveries
                    .reserve_exact(self.requests.iter().filter(|r| r.write.is_none()).count());
                self.engine.reset();
                self.engine.set_max_steps(u32::MAX);
                // A reply packet's id is the index of the read it answers.
                for (i, &(module, addr, trail, _)) in reads.iter().enumerate() {
                    let mut pkt = Packet::new(i as u32, 0, 0).with_tag(addr);
                    pkt.via = trail;
                    self.engine.inject(module, pkt);
                }
                let mut proto = StarReplyProtocol {
                    table: &self.table,
                    tables: &mut self.tables,
                    reads: &reads,
                    deliveries: &mut deliveries,
                };
                let out = self.engine.run(&mut proto);
                debug_assert!(out.completed);
                stats.reply_steps = out.metrics.routing_time;
                stats.max_queue = stats.max_queue.max(out.metrics.max_queue as u32);
            }
            debug_assert!(self.tables.all_clear(), "unconsumed pending entries");

            self.report.steps.push(stats);
            return deliveries;
        }
    }

    fn rehash(&mut self, stats: &mut StepStats) {
        self.hash_epoch += 1;
        self.hash = self
            .family
            .sample(&mut self.seq.child(2).child(self.hash_epoch).rng());
        let cells = self.modules.drain_cells();
        let batches = cells.len().div_ceil(self.processors().max(1)) as u64;
        self.report.remap_steps += batches * 2 * self.diameter() as u64 + self.diameter() as u64;
        for (addr, val) in cells {
            let m = self.hash.eval(addr) as usize;
            self.modules.poke(m, addr, val);
        }
        stats.rehashes += 1;
        self.report.rehashes += 1;
    }
}

/// Request protocol: Algorithm 2.2 with phase-aware combining (see the
/// module docs for why phase-1 trails stay private).
struct StarRequestProtocol<'a> {
    table: &'a StarTable,
    tables: &'a mut PendingTables,
    modules: &'a mut ModuleArray,
    requests: &'a [Req],
    combining: bool,
}

impl StarRequestProtocol<'_> {
    /// Private phase-0 trail tag (0 is reserved for the shared tree, so
    /// processor ids are shifted by one).
    fn phase0_trail(pkt: &Packet) -> u32 {
        pkt.src + 1
    }

    /// Trail tag used after the intermediate node: the shared tree when
    /// combining, a second private trail otherwise (distinct from the
    /// phase-0 trail because the two legs of one request may cross).
    fn phase1_trail(&self, pkt: &Packet) -> u32 {
        if self.combining {
            0
        } else {
            (pkt.src + 1) | PHASE1_MARK
        }
    }
}

/// High bit distinguishing non-combining phase-1 trails from phase-0 ones.
const PHASE1_MARK: u32 = 1 << 30;

impl Protocol for StarRequestProtocol<'_> {
    fn on_packet(&mut self, node: usize, mut pkt: Packet, step: u32, out: &mut Outbox) {
        let addr = pkt.tag;
        let is_write = pkt.hop == 1;

        if is_write {
            if pkt.phase == 0 && node == pkt.via as usize {
                pkt.phase = 1;
            }
            if pkt.phase == 1 && node == pkt.dest as usize {
                let req = &self.requests[pkt.id as usize];
                let value = req.write.expect("write packets carry a write request's id");
                let proc = req.proc;
                self.modules
                    .buffer(node, ModuleRequest::Write { addr, value, proc });
                out.deliver(pkt);
                return;
            }
            let target = if pkt.phase == 0 { pkt.via } else { pkt.dest } as usize;
            let port = self
                .table
                .canonical_next_port(node, target)
                .expect("target not yet reached");
            pkt.prev = node as u32;
            out.send(port, pkt);
            return;
        }

        // --- Reads ---
        let arrived_on = if pkt.phase == 1 {
            self.phase1_trail(&pkt)
        } else {
            Self::phase0_trail(&pkt)
        };
        let source = if step == 0 {
            Source::Local
        } else {
            Source::FromNode(pkt.prev)
        };
        let first = self.tables.register(node, addr, arrived_on, source);
        if !first {
            out.absorb(pkt); // merged into the shared phase-2 tree
            return;
        }

        // Phase transition at the intermediate node: the phase-0 trail
        // joins (or opens) the phase-1 trail here via a chain link.
        if pkt.phase == 0 && node == pkt.via as usize {
            pkt.phase = 1;
            let p1 = self.phase1_trail(&pkt);
            let first_p1 =
                self.tables
                    .register(node, addr, p1, Source::Chain(Self::phase0_trail(&pkt)));
            if !first_p1 {
                debug_assert!(self.combining, "private trails never collide");
                out.absorb(pkt);
                return;
            }
        }

        let trail = if pkt.phase == 1 {
            self.phase1_trail(&pkt)
        } else {
            Self::phase0_trail(&pkt)
        };
        if pkt.phase == 1 && node == pkt.dest as usize {
            self.modules
                .buffer(node, ModuleRequest::Read { addr, trail });
            out.deliver(pkt);
            return;
        }
        let target = if pkt.phase == 0 { pkt.via } else { pkt.dest } as usize;
        let port = self
            .table
            .canonical_next_port(node, target)
            .expect("target not yet reached");
        pkt.prev = node as u32;
        out.send(port, pkt);
    }
}

/// Reply protocol: unwind the shared tree, then every chained private
/// trail, delivering at `local` marks.
struct StarReplyProtocol<'a> {
    table: &'a StarTable,
    tables: &'a mut PendingTables,
    /// The served reads `(module, addr, trail, value)`, indexed by the
    /// reply packets' ids.
    reads: &'a [(usize, u64, u32, u64)],
    deliveries: &'a mut Vec<(usize, u64)>,
}

impl StarReplyProtocol<'_> {
    fn process_trail(&mut self, node: usize, addr: u64, trail: u32, pkt: Packet, out: &mut Outbox) {
        let entry = self.tables.take(node, addr, trail);
        if entry.local {
            self.deliveries.push((node, self.reads[pkt.id as usize].3));
        }
        let mut chains = entry.chains;
        while let Some(t) = self.tables.next(&mut chains) {
            self.process_trail(node, addr, t, pkt, out);
        }
        for to in self.tables.iter(entry.fanout) {
            let port = self
                .table
                .port_to(node, to as usize)
                .expect("star is undirected");
            let mut p = pkt;
            p.via = trail;
            out.send(port, p);
        }
    }
}

impl Protocol for StarReplyProtocol<'_> {
    fn on_packet(&mut self, node: usize, pkt: Packet, _step: u32, out: &mut Outbox) {
        let before = out.pending_sends();
        self.process_trail(node, pkt.tag, pkt.via, pkt, out);
        if out.pending_sends() == before {
            out.deliver(pkt); // leaf: nothing forwarded
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnpram_pram::machine::PramMachine;
    use lnpram_pram::model::WritePolicy;
    use lnpram_pram::programs::{Broadcast, Histogram, PermutationTraffic, PrefixSum};
    use lnpram_routing::workloads;

    #[test]
    fn prefix_sum_matches_reference_on_4_star() {
        let values: Vec<u64> = (0..24).map(|i| i + 1).collect();
        let mut prog = PrefixSum::new(values.clone());
        let space = prog.address_space();
        let mut emu = StarPramEmulator::new(4, AccessMode::Erew, space, EmulatorConfig::default());
        emu.run_program(&mut prog, 10_000);
        let mut oracle = PramMachine::new(space, AccessMode::Erew);
        oracle.run(&mut PrefixSum::new(values), 10_000);
        assert_eq!(emu.memory_image(space), oracle.memory());
    }

    #[test]
    fn broadcast_hotspot_combines_on_star() {
        let mut prog = Broadcast::new(24, 2, 31);
        let space = prog.address_space();
        let mut emu = StarPramEmulator::new(4, AccessMode::Crew, space, EmulatorConfig::default());
        let report = emu.run_program(&mut prog, 1000);
        assert!(prog.verify(&emu.memory_image(space)));
        assert!(report.total_combined() > 0, "hot spot must combine");
        // Full read combining: the module's batch stays tiny on read steps.
        for s in report.steps.iter().filter(|s| s.combined > 0) {
            assert!(
                s.service_steps <= 2,
                "combining should collapse the batch, got {}",
                s.service_steps
            );
        }
    }

    #[test]
    fn crcw_histogram_on_star() {
        let inputs: Vec<u64> = (0..24).map(|i| i % 3).collect();
        let mut prog = Histogram::new(inputs, 3);
        let space = prog.address_space();
        let mut emu = StarPramEmulator::new(
            4,
            AccessMode::Crcw(WritePolicy::Sum),
            space,
            EmulatorConfig::default(),
        );
        emu.run_program(&mut prog, 1000);
        assert!(prog.verify(&emu.memory_image(space)));
    }

    #[test]
    fn permutation_traffic_slowdown_on_5_star() {
        // Corollary 2.3: Õ(n) per EREW step. Check a small multiple of
        // the diameter (request ≤ 2D, reply ≤ 2D ⇒ expect ≲ 6D).
        let mut rng = SeedSeq::new(3).rng();
        let perm = workloads::random_permutation(120, &mut rng);
        let mut prog = PermutationTraffic::new(perm, 3);
        let mut emu = StarPramEmulator::new(
            5,
            AccessMode::Erew,
            prog.address_space(),
            EmulatorConfig::default(),
        );
        let report = emu.run_program(&mut prog, 1000);
        assert_eq!(report.rehashes, 0);
        let c = report.slowdown_per_diameter(emu.diameter());
        assert!(c < 10.0, "star slowdown {c:.2}×diameter");
    }

    #[test]
    fn combining_off_is_correct_but_floods() {
        let mut prog = Broadcast::new(24, 1, 7);
        let space = prog.address_space();
        let mut emu = StarPramEmulator::new(
            4,
            AccessMode::Crew,
            space,
            EmulatorConfig {
                combining: false,
                ..Default::default()
            },
        );
        let report = emu.run_program(&mut prog, 1000);
        assert!(prog.verify(&emu.memory_image(space)));
        let max_service = report.steps.iter().map(|s| s.service_steps).max().unwrap();
        assert_eq!(max_service, 24, "uncombined hot spot floods the module");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let perm: Vec<usize> = (0..24).map(|i| (i * 7 + 3) % 24).collect();
            let mut prog = PermutationTraffic::new(perm, 2);
            let mut emu = StarPramEmulator::new(
                4,
                AccessMode::Erew,
                prog.address_space(),
                EmulatorConfig {
                    seed: 5,
                    ..Default::default()
                },
            );
            let rep = emu.run_program(&mut prog, 100);
            (rep.network_steps(), emu.memory_image(24))
        };
        assert_eq!(run(), run());
    }
}
