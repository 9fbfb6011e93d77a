//! Algorithm 2.3: randomized permutation routing on the d-way shuffle.
//!
//! Each packet goes to a uniformly random intermediate node along the
//! unique n-link path (phase 1), then to its true destination along the
//! unique path (phase 2) — 2n hops total. Theorem 2.3 / Corollary 2.2:
//! Õ(n) time with FIFO queues, which beats Valiant's
//! Õ(n log n / log log n) bound for the n-way shuffle and is optimal
//! (diameter n).
//!
//! Unlike the star route, the shuffle's unique path is *position
//! dependent*: the digit inserted at hop `s` of a phase is base-d digit
//! `s−1` of the phase target, so the packet carries a hop counter
//! ([`Packet::hop`]).
//!
//! The public entry point is [`ShuffleRoutingSession`] — the
//! [`Router`](crate::Router) instance for the shuffle; it routes
//! through [`AnyEngine`](lnpram_shard::AnyEngine), so `cfg.shards` is
//! honored.

use crate::router::{RoutingSession, RunExtras};
use crate::two_phase::{TwoPhase, TwoPhaseBackend};
use lnpram_simnet::{Outbox, Packet, Protocol, Shardable, SimConfig};
use lnpram_topology::DWayShuffle;

/// Per-node program of Algorithm 2.3.
#[derive(Clone)]
pub struct ShuffleRouter {
    shuffle: DWayShuffle,
}

// Stateless: every hop is a function of the node and the packet.
impl Shardable for ShuffleRouter {
    fn merge(&mut self, _part: Self) {}
}

impl ShuffleRouter {
    /// Router on the given shuffle network.
    pub fn new(shuffle: DWayShuffle) -> Self {
        ShuffleRouter { shuffle }
    }

    #[inline]
    fn digit(&self, target: usize, hop: u8) -> usize {
        let mut x = target;
        for _ in 0..hop {
            x /= self.shuffle.radix();
        }
        x % self.shuffle.radix()
    }
}

impl Protocol for ShuffleRouter {
    fn on_packet(&mut self, node: usize, mut pkt: Packet, _step: u32, out: &mut Outbox) {
        let n = self.shuffle.digits() as u8;
        // Finished phase 1 (hop count n): switch to phase 2.
        if pkt.phase == 0 && pkt.hop == n {
            debug_assert_eq!(node, pkt.via as usize);
            pkt.phase = 1;
            pkt.hop = 0;
        }
        if pkt.phase == 1 && pkt.hop == n {
            debug_assert_eq!(node, pkt.dest as usize);
            out.deliver(pkt);
            return;
        }
        let target = if pkt.phase == 0 { pkt.via } else { pkt.dest } as usize;
        let port = self.digit(target, pkt.hop);
        pkt.hop += 1;
        out.send(port, pkt);
    }
}

impl TwoPhase for DWayShuffle {
    type Hop<'a> = ShuffleRouter;

    fn extras(&self) -> RunExtras {
        RunExtras::Shuffle {
            digits: self.digits(),
        }
    }

    fn hop(&self) -> ShuffleRouter {
        ShuffleRouter::new(*self)
    }
}

/// [`RouteBackend`](crate::RouteBackend) for Algorithm 2.3 on the d-way
/// shuffle.
pub type ShuffleBackend = TwoPhaseBackend<DWayShuffle>;

impl ShuffleBackend {
    /// Backend on the given shuffle network.
    pub fn new(shuffle: DWayShuffle) -> Self {
        TwoPhaseBackend { topo: shuffle }
    }
}

/// A reusable Algorithm 2.3 routing session: the
/// [`Router`](crate::Router) instance for the d-way shuffle (network +
/// partition + engine built once, `cfg.shards` honored).
pub type ShuffleRoutingSession = RoutingSession<ShuffleBackend>;

impl RoutingSession<ShuffleBackend> {
    /// Session on the given shuffle (serial or sharded per `cfg.shards`).
    pub fn new(shuffle: DWayShuffle, cfg: SimConfig) -> Self {
        RoutingSession::with_backend(ShuffleBackend::new(shuffle), cfg)
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use lnpram_math::rng::SeedSeq;
    use lnpram_topology::Network;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Conservation on arbitrary destination maps across shuffle
        /// dimensions (d-way with d = n, the paper's n-way case, plus
        /// rectangular d ≠ n variants).
        #[test]
        fn prop_shuffle_delivers_any_dest_map(
            d in 2usize..=4,
            n in 2usize..=4,
            seed: u64,
        ) {
            let shuffle = DWayShuffle::new(d, n);
            let total = shuffle.num_nodes();
            let mut state = seed;
            let dests: Vec<usize> = (0..total)
                .map(|_| (lnpram_math::rng::splitmix64(&mut state) as usize) % total)
                .collect();
            let rep = ShuffleRoutingSession::new(shuffle, SimConfig::default()).route_with_dests(&dests, SeedSeq::new(seed));
            prop_assert!(rep.completed);
            prop_assert_eq!(rep.metrics.delivered, total);
            // The unique path has exactly n links per phase; 2n total.
            prop_assert!(rep.metrics.routing_time >= 1 || total == 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Router;
    use lnpram_math::rng::SeedSeq;
    use lnpram_topology::Network;

    #[test]
    fn permutation_on_3_way_shuffle() {
        let rep = ShuffleRoutingSession::new(DWayShuffle::n_way(3), SimConfig::default())
            .route_permutation(5);
        assert!(rep.completed);
        assert_eq!(rep.metrics.delivered, 27);
        // Every packet takes exactly 2n = 6 hops; time >= 6.
        assert!(rep.metrics.routing_time >= 6);
        assert_eq!(rep.norm(), 3);
    }

    #[test]
    fn permutation_on_4_way_shuffle_time() {
        for seed in 0..3 {
            let rep = ShuffleRoutingSession::new(DWayShuffle::n_way(4), SimConfig::default())
                .route_permutation(seed);
            assert!(rep.completed);
            assert_eq!(rep.metrics.delivered, 256);
            assert!(
                rep.time_per_norm() <= 10.0,
                "seed {seed}: {:.2}x n",
                rep.time_per_norm()
            );
        }
    }

    #[test]
    fn every_packet_takes_exactly_2n_plus_delay() {
        // Latency = 2n + queue delay; min latency must be exactly 2n.
        let rep = ShuffleRoutingSession::new(DWayShuffle::n_way(3), SimConfig::default())
            .route_permutation(2);
        let min_latency = rep
            .metrics
            .latency
            .buckets()
            .next()
            .map(|(lo, _)| lo)
            .unwrap();
        assert_eq!(min_latency, 6);
    }

    #[test]
    fn relation_routing_on_shuffle() {
        let s = DWayShuffle::new(3, 3);
        let rep = ShuffleRoutingSession::new(s, SimConfig::default()).route_relation(3, 1);
        assert!(rep.completed);
        assert_eq!(rep.metrics.delivered, 27 * 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let s = DWayShuffle::n_way(4);
        let a = ShuffleRoutingSession::new(s, SimConfig::default()).route_permutation(99);
        let b = ShuffleRoutingSession::new(s, SimConfig::default()).route_permutation(99);
        assert_eq!(a.metrics.routing_time, b.metrics.routing_time);
        assert_eq!(a.metrics.queued_packet_steps, b.metrics.queued_packet_steps);
    }

    #[test]
    fn self_loop_paths_still_work() {
        // Node 0's route to itself uses the self-loop d times; ensure the
        // protocol terminates even with degenerate via/dest choices.
        let s = DWayShuffle::new(2, 3);
        let dests: Vec<usize> = (0..8).collect(); // identity
        let rep = ShuffleRoutingSession::new(s, SimConfig::default())
            .route_with_dests(&dests, SeedSeq::new(0));
        assert!(rep.completed);
        assert_eq!(rep.metrics.delivered, 8);
    }

    #[test]
    fn session_honors_shards_and_reuse() {
        // Pinned since a bugfix: shuffle routing used to build a bare
        // serial `Engine`, silently ignoring `cfg.shards`.
        let sharded = SimConfig {
            shards: 3,
            ..SimConfig::default()
        };
        let s = DWayShuffle::new(3, 3);
        let mut session = ShuffleRoutingSession::new(s, sharded);
        assert!(session.is_sharded());
        for seed in 0..3u64 {
            let got = session.route_permutation(seed);
            let fresh = ShuffleRoutingSession::new(s, SimConfig::default()).route_permutation(seed);
            assert_eq!(got.completed, fresh.completed);
            assert_eq!(got.metrics.routing_time, fresh.metrics.routing_time);
            assert_eq!(got.metrics.delivered, fresh.metrics.delivered);
            assert_eq!(got.metrics.max_queue, fresh.metrics.max_queue);
        }
    }

    #[test]
    fn direct_routing_is_single_traversal() {
        let s = DWayShuffle::n_way(3);
        let mut session = ShuffleRoutingSession::new(s, SimConfig::default());
        let seq = SeedSeq::new(8);
        let dests = crate::workloads::random_permutation(s.num_nodes(), &mut seq.child(0).rng());
        let direct = session.route_direct(&dests);
        assert!(direct.completed);
        assert_eq!(direct.metrics.delivered, 27);
        // One n-hop traversal instead of two: min latency is exactly n.
        let min_latency = direct
            .metrics
            .latency
            .buckets()
            .next()
            .map(|(lo, _)| lo)
            .unwrap();
        assert_eq!(min_latency, 3);
    }
}
