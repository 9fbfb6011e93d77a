//! Randomized routing on the binary hypercube — Valiant's original
//! scheme, the paper's introduction's point of comparison.
//!
//! Valiant & Brebner's two-phase algorithm (route to a random node by
//! fixing differing bits lowest-first, then to the destination the same
//! way) gives Õ(log N) permutation routing on the n-cube. The paper's
//! point (§1, §2.3.4): the cube's degree *and* diameter are log N, while
//! the star graph achieves strictly smaller degree and diameter at the
//! same size — so the star's Õ(diameter) routing beats what any cube
//! algorithm can do. The `intro_star_vs_cube` experiment measures it.
//!
//! The public entry point is [`CubeRoutingSession`] — the
//! [`Router`](crate::Router) instance for the hypercube; it routes
//! through [`AnyEngine`](lnpram_shard::AnyEngine), so sharding works
//! here like on every other topology.

use crate::router::{RoutingSession, RunExtras};
use crate::two_phase::{TwoPhase, TwoPhaseBackend};
use lnpram_simnet::{Outbox, Packet, Protocol, Shardable, SimConfig};
use lnpram_topology::hypercube::Hypercube;

/// Per-node program: two-phase e-cube (dimension-ordered) routing.
/// (The route needs only bit arithmetic on node labels — no topology
/// state — so the struct is a unit.)
#[derive(Clone)]
pub struct CubeRouter;

impl Shardable for CubeRouter {
    fn merge(&mut self, _part: Self) {}
}

impl Protocol for CubeRouter {
    fn on_packet(&mut self, node: usize, mut pkt: Packet, _step: u32, out: &mut Outbox) {
        if pkt.phase == 0 && node == pkt.via as usize {
            pkt.phase = 1;
        }
        let target = if pkt.phase == 0 { pkt.via } else { pkt.dest } as usize;
        if node == target {
            debug_assert_eq!(pkt.phase, 1);
            out.deliver(pkt);
            return;
        }
        // e-cube: correct the lowest differing bit.
        let bit = (node ^ target).trailing_zeros() as usize;
        out.send(bit, pkt);
    }
}

impl TwoPhase for Hypercube {
    type Hop<'a> = CubeRouter;

    fn extras(&self) -> RunExtras {
        RunExtras::Cube { dims: self.dims() }
    }

    fn hop(&self) -> CubeRouter {
        CubeRouter
    }
}

/// [`RouteBackend`](crate::RouteBackend) for Valiant two-phase routing
/// on the k-cube.
pub type CubeBackend = TwoPhaseBackend<Hypercube>;

impl CubeBackend {
    /// Backend on the `dims`-cube.
    pub fn new(dims: usize) -> Self {
        TwoPhaseBackend {
            topo: Hypercube::new(dims),
        }
    }
}

/// A reusable Valiant-routing session on the k-cube: the
/// [`Router`](crate::Router) instance for the hypercube (network +
/// partition + engine built once, `cfg.shards` honored).
pub type CubeRoutingSession = RoutingSession<CubeBackend>;

impl RoutingSession<CubeBackend> {
    /// Session on the `dims`-cube (serial or sharded per `cfg.shards`).
    pub fn new(dims: usize, cfg: SimConfig) -> Self {
        RoutingSession::with_backend(CubeBackend::new(dims), cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Router;

    #[test]
    fn permutation_on_cube_delivers_all() {
        for dims in [3usize, 6, 8] {
            let rep = CubeRoutingSession::new(dims, SimConfig::default()).route_permutation(1);
            assert!(rep.completed, "dims={dims}");
            assert_eq!(rep.metrics.delivered, 1 << dims);
            assert_eq!(rep.norm(), dims);
        }
    }

    #[test]
    fn time_linear_in_dimension() {
        // Valiant: Õ(log N) = Õ(dims); constant should be small and flat.
        let c6 = CubeRoutingSession::new(6, SimConfig::default())
            .route_permutation(2)
            .time_per_norm();
        let c10 = CubeRoutingSession::new(10, SimConfig::default())
            .route_permutation(2)
            .time_per_norm();
        assert!(c6 < 6.0, "{c6:.2}");
        assert!(c10 < 1.8 * c6, "{c6:.2} -> {c10:.2}");
    }

    #[test]
    fn star_beats_cube_at_comparable_size() {
        // The introduction's comparison, measured: star(7) (5040 nodes,
        // diameter 9) routes faster in absolute steps than cube(13)
        // (8192 nodes, diameter 13).
        use crate::star::StarRoutingSession;
        let star = StarRoutingSession::new(7, SimConfig::default()).route_permutation(5);
        let cube = CubeRoutingSession::new(13, SimConfig::default()).route_permutation(5);
        assert!(star.completed && cube.completed);
        assert!(
            star.metrics.routing_time < cube.metrics.routing_time,
            "star {} vs cube {}",
            star.metrics.routing_time,
            cube.metrics.routing_time
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = CubeRoutingSession::new(8, SimConfig::default()).route_permutation(7);
        let b = CubeRoutingSession::new(8, SimConfig::default()).route_permutation(7);
        assert_eq!(a.metrics.routing_time, b.metrics.routing_time);
    }

    #[test]
    fn session_honors_shards_and_reuse() {
        // Pinned since a bugfix: cube routing used to build a bare
        // serial `Engine`, silently ignoring `cfg.shards`. The session
        // routes through `AnyEngine`; sharded == serial.
        let sharded = SimConfig {
            shards: 3,
            ..SimConfig::default()
        };
        let mut session = CubeRoutingSession::new(5, sharded);
        assert!(session.is_sharded());
        for seed in 0..3u64 {
            let s = session.route_permutation(seed);
            let fresh = CubeRoutingSession::new(5, SimConfig::default()).route_permutation(seed);
            assert_eq!(s.completed, fresh.completed);
            assert_eq!(s.metrics.routing_time, fresh.metrics.routing_time);
            assert_eq!(s.metrics.delivered, fresh.metrics.delivered);
            assert_eq!(s.metrics.max_queue, fresh.metrics.max_queue);
        }
    }

    #[test]
    fn relation_routing_on_cube() {
        let mut session = CubeRoutingSession::new(4, SimConfig::default());
        let rep = session.route_relation(3, 9);
        assert!(rep.completed);
        assert_eq!(rep.metrics.delivered, 16 * 3);
    }
}
