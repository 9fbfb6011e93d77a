//! Algorithm 2.2: randomized permutation routing on the n-star graph.
//!
//! Phase 1 sends each packet to a uniformly random intermediate node along
//! the canonical oblivious path; phase 2 continues from there to the true
//! destination, again along the canonical path. Theorem 2.2 / Corollary 2.1:
//! Õ(n) routing time (the diameter is `⌊3(n−1)/2⌋`, so this is optimal),
//! FIFO queues of size Õ(n). The canonical path is the greedy
//! cycle-following route of Akers–Krishnamurthy, which is *memoryless*:
//! the next hop from `v` toward `t` depends only on `(v, t)`, so the
//! per-node protocol needs no per-packet route state.
//!
//! The public entry point is [`StarRoutingSession`] — the
//! [`Router`](crate::Router) instance for the star graph.

use crate::router::{RoutingSession, RunExtras};
use crate::two_phase::{CanonicalRouter, TwoPhase, TwoPhaseBackend};
use lnpram_shard::AnyEngine;
use lnpram_simnet::SimConfig;
use lnpram_topology::{StarGraph, StarTable};

/// Per-node program of Algorithm 2.2, reading the canonical next hop
/// from a [`StarTable`].
pub type StarRouter<'a> = CanonicalRouter<'a, StarTable>;

impl TwoPhase for StarTable {
    type Hop<'a> = StarRouter<'a>;

    fn extras(&self) -> RunExtras {
        RunExtras::Star {
            n: self.star().n(),
            diameter: self.star().diameter(),
        }
    }

    fn hop(&self) -> StarRouter<'_> {
        StarRouter::new(self)
    }
}

/// Build the star's simulation engine over its [`StarTable`] — serial
/// or sharded (balanced node-id ranges: the star has no level/row
/// structure to align a cut to) per [`SimConfig::shards`]. The same
/// engine [`StarRoutingSession`] builds through its backend.
pub fn star_engine(star: &StarGraph, cfg: SimConfig) -> AnyEngine {
    AnyEngine::new(&StarTable::new(*star), cfg)
}

/// [`RouteBackend`](crate::RouteBackend) for Algorithm 2.2 on the
/// n-star.
pub type StarBackend = TwoPhaseBackend<StarTable>;

impl StarBackend {
    /// Backend on the given star graph (tabulated here, once).
    pub fn new(star: StarGraph) -> Self {
        TwoPhaseBackend {
            topo: StarTable::new(star),
        }
    }
}

/// A reusable Algorithm 2.2 routing session: the [`Router`](crate::Router)
/// instance for the star graph. The graph, its partition plan and the
/// [`AnyEngine`] are built **once**, then any number of requests are
/// routed through it, recycling the engine with `reset` per run. On
/// small networks the per-run construction (partition + K engines on the
/// sharded path) dominates the routing itself — PR 3's sharded 5-star
/// ran at 0.57× serial for exactly this reason — so loops should hold
/// one session instead of building one per request. Outcomes are
/// bit-identical to a freshly built session's (pinned by property
/// tests): reuse is a cost optimisation, not a behaviour change.
pub type StarRoutingSession = RoutingSession<StarBackend>;

impl RoutingSession<StarBackend> {
    /// Session on the n-star (serial or sharded per `cfg.shards`).
    pub fn new(n: usize, cfg: SimConfig) -> Self {
        Self::from_graph(StarGraph::new(n), cfg)
    }

    /// Session over an already-built star graph.
    pub fn from_graph(star: StarGraph, cfg: SimConfig) -> Self {
        RoutingSession::with_backend(StarBackend::new(star), cfg)
    }

    /// The star graph this session routes on.
    pub fn star(&self) -> &StarGraph {
        self.backend().topology().star()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{RouteRequest, Router};
    use lnpram_math::rng::SeedSeq;
    use lnpram_simnet::Packet;
    use lnpram_topology::Network;

    /// Route one permutation *deterministically*: every packet follows
    /// its canonical path directly (no random intermediate). §2.3.3
    /// presents "efficient deterministic and randomized algorithms"; the
    /// deterministic variant halves the path length but carries no
    /// w.h.p. guarantee.
    fn route_star_deterministic(n: usize, seed: u64, cfg: SimConfig) -> crate::RunReport {
        let mut session = StarRoutingSession::new(n, cfg);
        let mut rng = SeedSeq::new(seed).child(0).rng();
        let dests = crate::workloads::random_permutation(session.star().num_nodes(), &mut rng);
        session.route_direct(&dests)
    }

    #[test]
    fn permutation_on_4_star_delivers_all() {
        let rep = StarRoutingSession::new(4, SimConfig::default()).route_permutation(1);
        assert!(rep.completed);
        assert_eq!(rep.metrics.delivered, 24);
        assert_eq!(rep.norm(), 4);
    }

    #[test]
    fn permutation_on_5_star_time_linear_in_diameter() {
        // Theorem 2.2: Õ(n). Expect a small multiple of the diameter
        // (2 canonical traversals + queueing).
        for seed in 0..3 {
            let rep = StarRoutingSession::new(5, SimConfig::default()).route_permutation(seed);
            assert!(rep.completed);
            assert_eq!(rep.metrics.delivered, 120);
            assert!(
                rep.time_per_norm() <= 8.0,
                "seed {seed}: {:.2}x diameter",
                rep.time_per_norm()
            );
        }
    }

    #[test]
    fn relation_routing_on_star() {
        let rep = StarRoutingSession::new(4, SimConfig::default()).route_relation(4, 3);
        assert!(rep.completed);
        assert_eq!(rep.metrics.delivered, 24 * 4);
    }

    #[test]
    fn via_equals_dest_edge_case() {
        // Force via == dest == src for every packet: everything delivers
        // at step 0.
        let star = StarGraph::new(4);
        let table = StarTable::new(star);
        let mut eng = star_engine(&star, SimConfig::default());
        for v in 0..table.num_nodes() {
            eng.inject(
                v,
                Packet::new(v as u32, v as u32, v as u32).with_via(v as u32),
            );
        }
        let mut router = StarRouter::new(&table);
        let out = eng.run(&mut router);
        assert!(out.completed);
        assert_eq!(out.metrics.delivered, 24);
        assert_eq!(out.metrics.routing_time, 0);
    }

    #[test]
    fn deterministic_variant_delivers_and_is_shorter() {
        let det = route_star_deterministic(5, 4, SimConfig::default());
        assert!(det.completed);
        assert_eq!(det.metrics.delivered, 120);
        // One canonical traversal instead of two: on random permutations
        // the deterministic variant is faster on average.
        let rnd = StarRoutingSession::new(5, SimConfig::default()).route_permutation(4);
        assert!(
            det.metrics.routing_time <= rnd.metrics.routing_time,
            "det {} vs randomized {}",
            det.metrics.routing_time,
            rnd.metrics.routing_time
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = StarRoutingSession::new(5, SimConfig::default()).route_permutation(77);
        let b = StarRoutingSession::new(5, SimConfig::default()).route_permutation(77);
        assert_eq!(a.metrics.routing_time, b.metrics.routing_time);
        assert_eq!(a.metrics.max_queue, b.metrics.max_queue);
    }

    #[test]
    fn queue_stays_modest() {
        // Õ(n) queues: with n = 5 expect far below N.
        let rep = StarRoutingSession::new(5, SimConfig::default()).route_permutation(9);
        assert!(
            rep.metrics.max_queue <= 6 * 5,
            "queue {}",
            rep.metrics.max_queue
        );
    }

    #[test]
    fn session_reuse_matches_one_shot() {
        let mut session = StarRoutingSession::new(5, SimConfig::default());
        for seed in 0..4u64 {
            let reused = session.route_permutation(seed);
            let fresh = StarRoutingSession::new(5, SimConfig::default()).route_permutation(seed);
            assert_eq!(reused.completed, fresh.completed);
            assert_eq!(reused.metrics.routing_time, fresh.metrics.routing_time);
            assert_eq!(reused.metrics.delivered, fresh.metrics.delivered);
            assert_eq!(reused.metrics.max_queue, fresh.metrics.max_queue);
        }
    }

    #[test]
    fn route_many_matches_sequential_permutations() {
        let seeds: Vec<u64> = (10..16).collect();
        let reqs = RouteRequest::permutations(&seeds);
        let mut batched_session = StarRoutingSession::new(4, SimConfig::default());
        let reports = batched_session.route_many(&reqs);
        assert_eq!(reports.len(), seeds.len());
        let mut sequential = StarRoutingSession::new(4, SimConfig::default());
        for (batched, &seed) in reports.iter().zip(&seeds) {
            let one = sequential.route_permutation(seed);
            assert!(batched.completed);
            assert_eq!(batched.metrics.routing_time, one.metrics.routing_time);
            assert_eq!(batched.metrics.max_queue, one.metrics.max_queue);
        }
    }

    #[test]
    fn deterministic_and_relation_honor_shards() {
        // The PR-4 satellite bugfix, kept pinned: these entry points used
        // to build a bare serial `Engine`, silently ignoring `cfg.shards`.
        let sharded = SimConfig {
            shards: 3,
            ..SimConfig::default()
        };
        for seed in 0..3u64 {
            let det_serial = route_star_deterministic(4, seed, SimConfig::default());
            let det_sharded = route_star_deterministic(4, seed, sharded.clone());
            assert_eq!(
                det_serial.metrics.routing_time,
                det_sharded.metrics.routing_time
            );
            assert_eq!(det_serial.metrics.max_queue, det_sharded.metrics.max_queue);
            let rel_serial =
                StarRoutingSession::new(4, SimConfig::default()).route_relation(3, seed);
            let rel_sharded = StarRoutingSession::new(4, sharded.clone()).route_relation(3, seed);
            assert_eq!(
                rel_serial.metrics.routing_time,
                rel_sharded.metrics.routing_time
            );
            assert_eq!(rel_serial.metrics.delivered, rel_sharded.metrics.delivered);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Session-reuse bit-identity: the N-th call on a warmed
            /// session equals a freshly built session with the same
            /// seed, on both the serial and the sharded path, including
            /// right after an incomplete (budget-exhausted) run.
            #[test]
            fn prop_star_session_reuse_bit_identity(
                n in 3usize..=4,
                base_seed: u64,
                runs in 1usize..4,
                shards in 0usize..=3,
            ) {
                let seeds: Vec<u64> =
                    (0..runs as u64).map(|i| base_seed.wrapping_add(i)).collect();
                let cfg = SimConfig { shards, ..SimConfig::default() };
                let mut session = StarRoutingSession::new(n, cfg.clone());
                // Poison attempt: exhaust the budget so queues are left
                // mid-flight, then restore it — reset must still give a
                // fresh-engine run.
                session.set_max_steps(1);
                let poisoned = session.route_permutation(u64::MAX);
                prop_assert!(!poisoned.completed);
                session.set_max_steps(cfg.max_steps);
                for &seed in &seeds {
                    let reused = session.route_permutation(seed);
                    let fresh = StarRoutingSession::new(n, cfg.clone()).route_permutation(seed);
                    prop_assert_eq!(reused.completed, fresh.completed);
                    prop_assert_eq!(reused.metrics.routing_time, fresh.metrics.routing_time);
                    prop_assert_eq!(reused.metrics.delivered, fresh.metrics.delivered);
                    prop_assert_eq!(reused.metrics.max_queue, fresh.metrics.max_queue);
                    prop_assert_eq!(
                        reused.metrics.queued_packet_steps,
                        fresh.metrics.queued_packet_steps
                    );
                }
            }

            /// Packet conservation on arbitrary (many-one allowed)
            /// destination maps: every injected packet is delivered, no
            /// packet is stranded, and queues never exceed the packet
            /// count.
            #[test]
            fn prop_star_delivers_any_dest_map(n in 3usize..=5, seed: u64) {
                let star = StarGraph::new(n);
                let total = star.num_nodes();
                let mut state = seed;
                let dests: Vec<usize> = (0..total)
                    .map(|_| (lnpram_math::rng::splitmix64(&mut state) as usize) % total)
                    .collect();
                let rep = StarRoutingSession::from_graph(star, SimConfig::default()).route_with_dests(&dests, SeedSeq::new(seed));
                prop_assert!(rep.completed);
                prop_assert_eq!(rep.metrics.delivered, total);
                prop_assert!(rep.metrics.max_queue <= total);
            }

            /// The randomized route is two canonical traversals, so the
            /// uncontended lower bound is the distance; time is at least
            /// the max canonical distance of any (src, via) or (via, dest)
            /// leg — checked loosely as routing_time ≥ 1 for any
            /// non-identity map, and ≤ a generous multiple of N.
            #[test]
            fn prop_star_time_bounds(n in 3usize..=5, seed: u64) {
                let rep = StarRoutingSession::new(n, SimConfig::default()).route_permutation(seed);
                prop_assert!(rep.completed);
                let nn = rep.metrics.delivered;
                prop_assert!(rep.metrics.routing_time as usize <= 4 * nn);
            }
        }
    }
}
