//! Two-phase randomized routing on cube-connected cycles.
//!
//! CCC(k) is the constant-degree classic of the paper's leveled family
//! (§2.3.1). Its canonical oblivious route (cycle sweep + cross edges)
//! is memoryless in `(current, target)` exactly like the star graph's
//! greedy route, so Algorithm 2.2's recipe applies verbatim: phase 1 to
//! a uniformly random node along the canonical path, phase 2 onward to
//! the destination. Expected: Õ(diameter) = Õ(k) routing — at **fixed
//! degree 3**, which is the trade CCC makes against the butterfly's
//! unbounded radix and the cube's log N degree.
//!
//! The public entry point is [`CccRoutingSession`] — the
//! [`Router`](crate::Router) instance for CCC; it routes through
//! [`AnyEngine`](lnpram_shard::AnyEngine), so `cfg.shards` is honored.

use crate::router::{RoutingSession, RunExtras};
use crate::two_phase::{CanonicalRouter, TwoPhase, TwoPhaseBackend};
use lnpram_simnet::SimConfig;
use lnpram_topology::CubeConnectedCycles;

/// Per-node program: phase 0 toward `via`, phase 1 toward `dest`, both
/// along the canonical sweep route.
pub type CccRouter<'a> = CanonicalRouter<'a, CubeConnectedCycles>;

impl TwoPhase for CubeConnectedCycles {
    type Hop<'a> = CccRouter<'a>;

    fn extras(&self) -> RunExtras {
        RunExtras::Ccc {
            k: self.k(),
            diameter: ccc_diameter(self.k()),
        }
    }

    fn hop(&self) -> CccRouter<'_> {
        CccRouter::new(self)
    }
}

/// Diameter of CCC(k): `2k + ⌊k/2⌋ − 2` for `k ≥ 4`, 6 for `k = 3`.
pub fn ccc_diameter(k: usize) -> usize {
    if k == 3 {
        6
    } else {
        2 * k + k / 2 - 2
    }
}

/// [`RouteBackend`](crate::RouteBackend) for two-phase routing on
/// CCC(k).
pub type CccBackend = TwoPhaseBackend<CubeConnectedCycles>;

impl CccBackend {
    /// Backend on CCC(k).
    pub fn new(k: usize) -> Self {
        TwoPhaseBackend {
            topo: CubeConnectedCycles::new(k),
        }
    }
}

/// A reusable two-phase routing session on CCC(k): the
/// [`Router`](crate::Router) instance for cube-connected cycles
/// (network + partition + engine built once, `cfg.shards` honored).
pub type CccRoutingSession = RoutingSession<CccBackend>;

impl RoutingSession<CccBackend> {
    /// Session on CCC(k) (serial or sharded per `cfg.shards`).
    pub fn new(k: usize, cfg: SimConfig) -> Self {
        RoutingSession::with_backend(CccBackend::new(k), cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Router;

    #[test]
    fn permutation_delivers_all() {
        for k in [3usize, 4, 5] {
            let rep = CccRoutingSession::new(k, SimConfig::default()).route_permutation(1);
            assert!(rep.completed, "k={k}");
            assert_eq!(rep.metrics.delivered, k << k);
            assert_eq!(rep.norm(), ccc_diameter(k));
        }
    }

    #[test]
    fn time_linear_in_diameter() {
        // Constant-degree host: expect a modest, flat multiple of the
        // diameter across sizes (the degree-3 links carry more load than
        // a butterfly's, so the constant is larger than 2).
        for (k, cap) in [(4usize, 8.0), (6, 8.0), (8, 8.0)] {
            let rep = CccRoutingSession::new(k, SimConfig::default()).route_permutation(2);
            assert!(rep.completed);
            assert!(
                rep.time_per_norm() <= cap,
                "k={k}: {:.2}x diameter",
                rep.time_per_norm()
            );
        }
    }

    #[test]
    fn queues_stay_modest() {
        let rep = CccRoutingSession::new(6, SimConfig::default()).route_permutation(3);
        // Degree 3, N = 384: queues should stay far below N (Fact 2.5's
        // O(T) bound at T = O(k) means tens at most).
        assert!(
            rep.metrics.max_queue <= 40,
            "queue {}",
            rep.metrics.max_queue
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = CccRoutingSession::new(5, SimConfig::default()).route_permutation(9);
        let b = CccRoutingSession::new(5, SimConfig::default()).route_permutation(9);
        assert_eq!(a.metrics.routing_time, b.metrics.routing_time);
        assert_eq!(a.metrics.max_queue, b.metrics.max_queue);
    }

    #[test]
    fn session_honors_shards_and_reuse() {
        // Pinned since a bugfix: CCC routing used to build a bare
        // serial `Engine`, silently ignoring `cfg.shards`.
        let sharded = SimConfig {
            shards: 4,
            ..SimConfig::default()
        };
        let mut session = CccRoutingSession::new(4, sharded);
        assert!(session.is_sharded());
        for seed in 0..3u64 {
            let s = session.route_permutation(seed);
            let fresh = CccRoutingSession::new(4, SimConfig::default()).route_permutation(seed);
            assert_eq!(s.completed, fresh.completed);
            assert_eq!(s.metrics.routing_time, fresh.metrics.routing_time);
            assert_eq!(s.metrics.delivered, fresh.metrics.delivered);
            assert_eq!(s.metrics.max_queue, fresh.metrics.max_queue);
        }
    }

    #[test]
    fn relation_routing_on_ccc() {
        let mut session = CccRoutingSession::new(3, SimConfig::default());
        let rep = session.route_relation(2, 5);
        assert!(rep.completed);
        assert_eq!(rep.metrics.delivered, 24 * 2);
    }
}
