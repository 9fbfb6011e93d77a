//! Theorems 2.5 and 2.6: a leveled network as an emulation host
//! ([`LeveledRoute`] under [`CombiningHost`], driven by
//! [`PramEmulator`]).
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
//!   paths converge (footnote 3) and fold into the module's buffered
//!   write of their address when they reach it; the rest travel
//!   individually and are resolved at the module.
//! * **Replies** retrace the request trees backward (the stored
//!   direction bits) on the reversed network, fanning out at every
//!   combining point. The request paths move strictly forward by
//!   column, so pending entries can never form a cycle.

use crate::combining_host::{CombiningHost, HostRoute};
use crate::config::EmulatorConfig;
use crate::emulator::PramEmulator;
use lnpram_pram::model::AccessMode;
use lnpram_routing::leveled::UniversalLeveledRouter;
use lnpram_routing::DoubledLeveled;
use lnpram_simnet::{Engine, Outbox, Packet, Protocol, SimConfig};
use lnpram_topology::leveled::{Leveled, LeveledNet};
use lnpram_topology::Network;

/// An ℓ-level leveled network as a [`HostRoute`]: processors and modules
/// are the `width()` first/last-column nodes of `L`'s doubled unrolling,
/// crossed forward by requests and backward by replies.
pub struct LeveledRoute<L> {
    /// Forward (request-phase) view of the doubled network.
    fwd: LeveledNet<DoubledLeveled<L>>,
    /// Backward (reply-phase) view of the doubled network.
    bwd: LeveledNet<DoubledLeveled<L>>,
}

/// The PRAM emulator over a leveled network (Theorems 2.5/2.6).
///
/// `L` is the *inner* ℓ-level network. `Corollary 2.4/2.6` instances use
/// [`lnpram_topology::leveled::UnrolledShuffle`]; the classical host is
/// [`lnpram_topology::leveled::RadixButterfly`].
pub type LeveledPramEmulator<L> = PramEmulator<CombiningHost<LeveledRoute<L>>>;

impl<L: Leveled + Copy> LeveledPramEmulator<L> {
    /// Build an emulator for programs over `address_space` cells.
    pub fn new(inner: L, mode: AccessMode, address_space: u64, cfg: EmulatorConfig) -> Self {
        let doubled = DoubledLeveled::new(inner);
        let route = LeveledRoute {
            fwd: LeveledNet::forward(doubled),
            bwd: LeveledNet::backward(doubled),
        };
        // Engines are built once here and recycled with `reset` for
        // every attempt of every PRAM step: a T-step emulation builds
        // its per-link state once instead of T times. FIFO queues,
        // which Theorems 2.1/2.4 assume.
        let requests = Engine::new(&route.fwd, SimConfig::default());
        let replies = Engine::new(&route.bwd, SimConfig::default());
        let host = CombiningHost::new(route, requests, Some(replies), cfg.combining);
        PramEmulator::with_host(host, mode, address_space, cfg)
    }
}

impl<L: Leveled> HostRoute for LeveledRoute<L> {
    /// The column width.
    fn processors(&self) -> usize {
        self.fwd.leveled().width()
    }

    /// Path length per phase is 2ℓ (the doubled traversal) — that is the
    /// "diameter" the paper's budgets and hash degree scale with.
    fn diameter(&self) -> usize {
        self.fwd.leveled().levels()
    }

    fn phase_bound(&self) -> usize {
        self.fwd.leveled().levels()
    }

    fn broadcast_steps(&self) -> usize {
        self.fwd.leveled().levels() / 2
    }

    /// Leaves the node it forwards from in `prev`.
    fn forward(&self, node: usize, mut pkt: Packet, step: u32, out: &mut Outbox) {
        pkt.prev = node as u32;
        UniversalLeveledRouter::new(&self.fwd).on_packet(node, pkt, step, out);
    }

    /// The reversed link to `prev`, the node the request came from.
    fn reply_port(&self, node: usize, prev: u32) -> usize {
        let port = self.bwd.port_to(node, prev as usize);
        port.expect("request link reversed on the reply network")
    }

    fn module_node(&self, module: usize) -> usize {
        self.fwd.node_id(self.fwd.leveled().levels(), module)
    }

    fn module_at(&self, node: usize, _pkt: &Packet) -> Option<usize> {
        let (col, idx) = self.fwd.split(node);
        (col == self.fwd.leveled().levels()).then_some(idx)
    }

    /// Footnote 3 for writes, in the second, convergent half of the
    /// route, where the remaining paths coincide.
    fn merges_writes_at(&self, node: usize) -> bool {
        let levels = self.fwd.leveled().levels();
        let (col, _) = self.fwd.split(node);
        col >= levels / 2 && col < levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EmuReport;
    use lnpram_pram::machine::PramMachine;
    use lnpram_pram::model::{MemOp, PramProgram, WritePolicy};
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
