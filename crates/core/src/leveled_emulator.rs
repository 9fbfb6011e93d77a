//! Theorems 2.5 and 2.6: a leveled network as an emulation host
//! ([`LeveledHost`], driven by [`PramEmulator`]).
//!
//! The emulating network is an ℓ-level leveled network with the
//! unique-path property, traversed twice per routing phase (the
//! [`DoubledLeveled`] wrap): processors sit on the first column, memory
//! modules on the last.
//!
//! * **Requests** move by Algorithm 2.1 (random intermediate column-ℓ
//!   node, then the unique path to the module —
//!   [`UniversalLeveledRouter`]). Read requests are combined en route
//!   through the pending tables of [`crate::combining`] (Theorem 2.6);
//!   same-address writes under an associative policy merge where their
//!   paths converge (footnote 3), the rest travel individually and are
//!   resolved at the module.
//! * **Replies** retrace the request trees backward (the stored
//!   direction bits) on the reversed network, fanning out at every
//!   combining point. The request paths move strictly forward by
//!   column, so pending entries can never form a cycle.

use crate::combining::{EntryId, Hop, PendingTables, Source};
use crate::config::EmulatorConfig;
use crate::emulator::{EmuHost, PhaseOutcome, PramEmulator, Request};
use crate::memory::{ModuleArray, ModuleRequest, ServedRead};
use lnpram_math::rng::SeedSeq;
use lnpram_pram::model::{AccessMode, WritePolicy};
use lnpram_routing::leveled::UniversalLeveledRouter;
use lnpram_routing::DoubledLeveled;
use lnpram_shard::{AnyEngine, LevelCut};
use lnpram_simnet::{Outbox, Packet, Protocol, SimConfig};
use lnpram_topology::leveled::{Leveled, LeveledNet};
use lnpram_topology::Network;
use rand::Rng;

/// An ℓ-level leveled network as an emulation host: processors and
/// modules are the `width()` first/last-column nodes of `L`.
/// Both phases run through `AnyEngine::run`, the sharded engine's central
/// loop on the calling thread: their protocols keep cross-node state.
pub struct LeveledHost<L> {
    /// Forward (request-phase) view of the doubled network.
    fwd: LeveledNet<DoubledLeveled<L>>,
    /// Backward (reply-phase) view of the doubled network.
    bwd: LeveledNet<DoubledLeveled<L>>,
    tables: PendingTables,
    /// Request-phase engine, built once and recycled every attempt
    /// (serial or sharded per [`EmulatorConfig::shards`]).
    req_engine: AnyEngine,
    /// Reply-phase engine, likewise persistent.
    rep_engine: AnyEngine,
    combining: bool,
    /// `(value, proc)` of every request of the attempt being routed,
    /// indexed by packet id; en-route write merging folds into it.
    writes: Vec<(u64, usize)>,
}

/// The PRAM emulator over a leveled network (Theorems 2.5/2.6).
///
/// `L` is the *inner* ℓ-level network. `Corollary 2.4/2.6` instances use
/// [`lnpram_topology::leveled::UnrolledShuffle`]; the classical host is
/// [`lnpram_topology::leveled::RadixButterfly`].
pub type LeveledPramEmulator<L> = PramEmulator<LeveledHost<L>>;

impl<L: Leveled + Copy> LeveledPramEmulator<L> {
    /// Build an emulator for programs over `address_space` cells.
    pub fn new(inner: L, mode: AccessMode, address_space: u64, cfg: EmulatorConfig) -> Self {
        let width = inner.width();
        let doubled = DoubledLeveled::new(inner);
        let fwd = LeveledNet::forward(doubled);
        let bwd = LeveledNet::backward(doubled);
        // Engines are built once here and recycled with `reset` for
        // every attempt of every PRAM step: a T-step emulation builds
        // its per-link state once instead of T times. With
        // `cfg.shards ≥ 2` both phases run on the partitioned lockstep
        // path, column bands cut by `LevelCut` (bit-identical outcomes —
        // the lnpram-shard determinism contract).
        let part = LevelCut::new(width);
        // FIFO queues, which Theorems 2.1/2.4 assume.
        let sim = SimConfig {
            shards: cfg.shards,
            ..Default::default()
        };
        let host = LeveledHost {
            tables: PendingTables::new(fwd.num_nodes()),
            req_engine: AnyEngine::with_partitioner(&fwd, sim.clone(), &part),
            // The reply phase retraces an already-successful pattern, so
            // it never times out.
            rep_engine: AnyEngine::with_partitioner(
                &bwd,
                SimConfig {
                    max_steps: u32::MAX,
                    ..sim
                },
                &part,
            ),
            fwd,
            bwd,
            combining: cfg.combining,
            writes: Vec::new(),
        };
        PramEmulator::with_host(host, mode, address_space, cfg)
    }
}

impl<L: Leveled> LeveledHost<L> {
    /// ℓ of the inner network.
    fn levels(&self) -> usize {
        self.fwd.leveled().levels() / 2
    }
}

impl<L: Leveled> EmuHost for LeveledHost<L> {
    /// The column width.
    fn processors(&self) -> usize {
        self.fwd.leveled().width()
    }

    /// Path length per phase is 2ℓ (the doubled traversal) — that is the
    /// "diameter" the paper's budgets and hash degree scale with.
    fn diameter(&self) -> usize {
        2 * self.levels()
    }

    fn phase_bound(&self) -> usize {
        self.diameter()
    }

    fn broadcast_steps(&self) -> usize {
        self.levels()
    }

    fn route_requests(
        &mut self,
        requests: &[Request],
        modules: &mut ModuleArray,
        budget: u32,
        seq: SeedSeq,
    ) -> Option<PhaseOutcome> {
        let (engine, mut proto) = self.request_phase(requests, modules, budget, seq);
        let out = engine.run(&mut proto);
        let write_merges = proto.write_merges;
        out.completed.then(|| PhaseOutcome {
            combined: write_merges + self.tables.combined(),
            ..PhaseOutcome::of(&out.metrics)
        })
    }

    fn route_replies(
        &mut self,
        reads: &[ServedRead],
        _seq: SeedSeq,
        replies: &mut Vec<(usize, u32)>,
    ) -> PhaseOutcome {
        let (engine, mut proto) = self.reply_phase(reads, replies);
        let out = engine.run(&mut proto);
        debug_assert!(out.completed);
        debug_assert!(self.tables.all_clear(), "unconsumed pending entries");
        PhaseOutcome::of(&out.metrics)
    }
}

impl<L: Leveled> LeveledHost<L> {
    /// The request phase ready to run: tables, write slots and engine
    /// reset, the requests injected, and the protocol to drive them with.
    fn request_phase<'a>(
        &'a mut self,
        requests: &'a [Request],
        modules: &'a mut ModuleArray,
        budget: u32,
        seq: SeedSeq,
    ) -> (&'a mut AnyEngine, RequestProtocol<'a, L>) {
        let width = self.processors();
        self.tables.reset();
        self.req_engine.reset();
        self.req_engine.set_max_steps(budget);
        self.writes.clear();
        self.writes
            .extend(requests.iter().map(|r| (r.write.unwrap_or(0), r.proc)));
        let mut via_rng = seq.rng();
        for (id, req) in requests.iter().enumerate() {
            let via = via_rng.gen_range(0..width) as u32;
            let mut pkt = Packet::new(id as u32, req.proc as u32, req.module)
                .with_via(via)
                .with_tag(req.key);
            pkt.hop = u8::from(req.write.is_some());
            self.req_engine.inject(self.fwd.node_id(0, req.proc), pkt);
        }
        let proto = RequestProtocol {
            net: &self.fwd,
            bwd: &self.bwd,
            tables: &mut self.tables,
            modules,
            writes: &mut self.writes,
            combining: self.combining,
            write_merges: 0,
        };
        (&mut self.req_engine, proto)
    }

    /// The reply phase ready to run, likewise.
    fn reply_phase<'a>(
        &'a mut self,
        reads: &[ServedRead],
        replies: &'a mut Vec<(usize, u32)>,
    ) -> (&'a mut AnyEngine, ReplyProtocol<'a, L>) {
        self.rep_engine.reset();
        let modules_col = self.fwd.leveled().levels();
        for (i, read) in reads.iter().enumerate() {
            self.rep_engine.inject(
                self.bwd.node_id(modules_col, read.module),
                Packet::new(i as u32, 0, 0).with_via(read.tag),
            );
        }
        let proto = ReplyProtocol {
            net: &self.bwd,
            tables: &mut self.tables,
            replies,
        };
        (&mut self.rep_engine, proto)
    }
}

/// Request-phase protocol: Algorithm 2.1 routing plus combining tables.
/// A read request carries, in `via2`, the id of the entry it left at the
/// previous node.
struct RequestProtocol<'a, L: Leveled> {
    net: &'a LeveledNet<DoubledLeveled<L>>,
    /// The reply network, whose ports the pending entries record.
    bwd: &'a LeveledNet<DoubledLeveled<L>>,
    tables: &'a mut PendingTables,
    modules: &'a mut ModuleArray,
    writes: &'a mut [(u64, usize)],
    combining: bool,
    /// Same-step write merges performed (footnote 3 applied to writes).
    write_merges: u32,
}

impl<L: Leveled> RequestProtocol<'_, L> {
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

// Stays grouped (not `NODE_LOCAL`): `on_arrivals` merges a node's writes.
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
        // The first same-address write in batch order is the
        // representative; later ones fold their (value, proc) into it and
        // go no further. A batch is at most one packet per in-link, so
        // the scan is short.
        for (i, &pkt) in pkts.iter().enumerate() {
            let mut earlier_writes = pkts[..i].iter().filter(|q| q.hop == 1);
            let Some(rep) = earlier_writes.find(|q| pkt.hop == 1 && q.tag == pkt.tag) else {
                self.on_packet(node, pkt, step, out);
                continue;
            };
            let (rep, folded) = (rep.id as usize, pkt.id as usize);
            self.writes[rep] = Self::merge(policy, self.writes[rep], self.writes[folded]);
            self.write_merges += 1;
        }
    }

    fn on_packet(&mut self, node: usize, mut pkt: Packet, step: u32, out: &mut Outbox) {
        let (col, idx) = self.net.split(node);
        let at_module = col == self.net.leveled().levels();
        let key = pkt.tag;

        if pkt.hop == 1 {
            if at_module {
                let (value, proc) = self.writes[pkt.id as usize];
                self.modules
                    .buffer(idx, ModuleRequest::Write { key, value, proc });
                out.deliver(pkt);
                return;
            }
        } else {
            let source = if step == 0 {
                Source::Local
            } else {
                let port = self.bwd.port_to(node, pkt.prev as usize);
                Source::Link(Hop {
                    port: port.expect("request link reversed on the reply network") as u32,
                    entry: EntryId(pkt.via2),
                })
            };
            let entry = self.tables.register(self.combining, node, key, source);
            if at_module {
                if let Some(entry) = entry {
                    self.modules
                        .buffer(idx, ModuleRequest::Read { key, tag: entry.0 });
                }
                out.deliver(pkt);
                return;
            }
            let Some(entry) = entry else {
                out.absorb(pkt); // combined — the pending entry fans out later
                return;
            };
            pkt.via2 = entry.0;
        }

        pkt.prev = node as u32;
        UniversalLeveledRouter::new(self.net).on_packet(node, pkt, step, out);
    }
}

/// Reply-phase protocol: retrace the pending-table tree, fanning out. A
/// reply packet carries, in `via`, the id of the entry it is bound for.
struct ReplyProtocol<'a, L: Leveled> {
    net: &'a LeveledNet<DoubledLeveled<L>>,
    tables: &'a mut PendingTables,
    replies: &'a mut Vec<(usize, u32)>,
}

impl<L: Leveled> Protocol for ReplyProtocol<'_, L> {
    const NODE_LOCAL: bool = true;

    fn on_packet(&mut self, node: usize, pkt: Packet, _step: u32, out: &mut Outbox) {
        let entry = self.tables.take(EntryId(pkt.via));
        if entry.local {
            let (col, idx) = self.net.split(node);
            debug_assert_eq!(col, 0, "local requests only originate in column 0");
            self.replies.push((idx, pkt.id));
        }
        if entry.fanout.is_empty() {
            out.deliver(pkt);
        }
        for hop in self.tables.iter(entry.fanout) {
            out.send(hop.port as usize, pkt.with_via(hop.entry.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_local::{assert_paths_agree, drive, Phases, MODE, SPACE};
    use crate::EmuReport;
    use lnpram_pram::machine::PramMachine;
    use lnpram_pram::model::{MemOp, PramProgram};
    use lnpram_pram::programs::{Broadcast, PrefixSum, ReductionMax};
    use lnpram_simnet::RunOutcome;
    use lnpram_topology::leveled::{RadixButterfly, UnrolledShuffle};

    impl<L: Leveled> Phases for LeveledHost<L> {
        fn requests(
            &mut self,
            requests: &[Request],
            modules: &mut ModuleArray,
            budget: u32,
            seq: SeedSeq,
            grouped: bool,
        ) -> (RunOutcome, u32) {
            let (engine, mut proto) = self.request_phase(requests, modules, budget, seq);
            let out = drive(engine, &mut proto, grouped);
            (out, proto.write_merges + self.tables.combined())
        }

        fn replies(
            &mut self,
            reads: &[ServedRead],
            _seq: SeedSeq,
            replies: &mut Vec<(usize, u32)>,
            grouped: bool,
        ) -> (RunOutcome, bool) {
            let (engine, mut proto) = self.reply_phase(reads, replies);
            let out = drive(engine, &mut proto, grouped);
            (out, self.tables.all_clear())
        }
    }

    #[test]
    fn node_local_phases_match_the_grouped_path() {
        // The request protocol stays grouped; the reply protocol does not.
        assert_paths_agree(|cfg| {
            LeveledPramEmulator::new(RadixButterfly::new(2, 4), MODE, SPACE, cfg)
        });
    }

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
