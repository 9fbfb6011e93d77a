//! Corollaries 2.3 and 2.5: the physical n-star graph as an emulation
//! host (its [`StarTable`] as the [`HostRoute`] of a [`CombiningHost`],
//! driven by [`PramEmulator`]).
//!
//! Every node of the n-star hosts one processor *and* one memory module
//! (the paper's parallel model). Requests are routed by Algorithm 2.2 —
//! random intermediate node along the canonical oblivious path, then on
//! to the module — and read replies retrace the request trees backward
//! (SWAP edges are involutions, so the reverse port equals the forward
//! port and the star needs no separate reply network). Under a CRCW
//! policy that merges (Sum, Max, Priority, Arbitrary), with combining
//! on, writes skip the intermediate: each starts on the phase-2 route at
//! its source, same-address writes merge where they meet in a step, and
//! one that reaches its module folds into the write of its address
//! already in the module's queue, whatever step it arrives at. So each
//! module serves each written address once, which makes a
//! concurrent-write step cost Õ(n) too (Corollary 2.5).
//!
//! **Combining safety.** On the leveled networks the request paths move
//! strictly forward by column, so pending entries can never form a cycle.
//! On the star, two packets travelling toward *different random
//! intermediates* could each get absorbed into the other's trail —
//! a deadlock. The canonical phase-2 route, however, decreases the
//! distance to the module by exactly one per hop, so phase-2 trails are
//! acyclic. We therefore keep phase-1 trails *private* (opened without a
//! key, so no other request can join them) and let them join the shared
//! phase-2 tree, keyed by `(node, address)`, at the
//! intermediate node through a [`Source::Chain`] link; the reply unwinds
//! the shared tree and then each private trail. Combining across
//! requesters happens exactly where it is safe — the convergent phase —
//! which is also where the hot-spot traffic concentrates.
//!
//! Writes keep no trail: a merged write is folded into its
//! representative's value and opens no entry, so nothing waits on it
//! and no cycle can form. That is why a merging write may take the
//! phase-2 route from its source. The canonical route to a module is a
//! tree, so same-address writes converge on it, and those that arrive
//! apart in time meet in the module's queue; hashing already spreads
//! distinct addresses over the modules. EREW, CREW and Common writes,
//! and every write with combining off, keep the two-phase route, so
//! Theorem 2.5's setting is unchanged.
//!
//! [`Source::Chain`]: crate::combining::Source::Chain

use crate::combining_host::{CombiningHost, HostRoute, Trail};
use crate::config::EmulatorConfig;
use crate::emulator::PramEmulator;
use lnpram_pram::model::AccessMode;
use lnpram_routing::star::StarRouter;
use lnpram_simnet::{Engine, Outbox, Packet, SimConfig};
use lnpram_topology::{Network, StarGraph, StarTable};

/// The PRAM emulator on the n-star graph (Corollaries 2.3/2.5).
pub type StarPramEmulator = PramEmulator<CombiningHost<StarTable>>;

impl StarPramEmulator {
    /// Emulator on the n-star for programs over `address_space` cells.
    pub fn new(n: usize, mode: AccessMode, address_space: u64, cfg: EmulatorConfig) -> Self {
        let table = StarTable::new(StarGraph::new(n));
        // FIFO queues, as Theorems 2.1/2.4 assume, built once and
        // recycled per phase: the star is its own reply network.
        let engine = Engine::new(&table, SimConfig::default());
        let host = CombiningHost::new(table, engine, None, cfg.combining);
        PramEmulator::with_host(host, mode, address_space, cfg)
    }
}

impl HostRoute for StarTable {
    /// `n!` nodes, each a processor and a module.
    fn processors(&self) -> usize {
        self.num_nodes()
    }

    /// Star-graph diameter `⌊3(n−1)/2⌋` — the Õ(n) normalisation.
    fn diameter(&self) -> usize {
        self.star().diameter()
    }

    /// Request path length ≤ 2×diameter (via + dest legs).
    fn phase_bound(&self) -> usize {
        2 * self.star().diameter()
    }

    fn broadcast_steps(&self) -> usize {
        self.star().diameter()
    }

    /// Leaves its out-port in `prev`: the direction bits.
    #[inline(always)]
    fn forward(&self, node: usize, mut pkt: Packet, _step: u32, out: &mut Outbox) {
        match StarRouter::new(self).next_port(node, &mut pkt) {
            Some(port) => {
                pkt.prev = port as u32;
                out.send(port, pkt);
            }
            None => out.deliver(pkt),
        }
    }

    /// SWAP edges are involutions, so the port a request left its sender
    /// on, which it carries in `prev`, leads back there from here too.
    #[inline]
    fn reply_port(&self, _node: usize, prev: u32) -> usize {
        prev as usize
    }

    fn module_node(&self, module: usize) -> usize {
        module
    }

    fn module_at(&self, node: usize, pkt: &Packet) -> Option<usize> {
        (pkt.phase == 1 && node == pkt.dest as usize).then_some(node)
    }

    /// Phase 1 (toward the random intermediate) is private; at the
    /// intermediate the trail joins the shared phase-2 tree.
    fn trail(&self, node: usize, pkt: &mut Packet) -> Trail {
        if pkt.phase == 1 {
            Trail::Shared
        } else if node != pkt.via as usize {
            Trail::Private
        } else {
            pkt.phase = 1;
            Trail::Joins
        }
    }

    /// Every node: the phase-2 route is a tree toward each module.
    fn merges_writes_at(&self, _node: usize) -> bool {
        true
    }

    /// A merging write starts on its phase-2 route at its source.
    #[inline]
    fn route_direct(&self, pkt: &mut Packet) {
        pkt.phase = 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnpram_math::rng::SeedSeq;
    use lnpram_pram::machine::PramMachine;
    use lnpram_pram::model::{PramProgram, WritePolicy};
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
