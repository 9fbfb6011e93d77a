//! Algorithm 2.1: the universal randomized routing on leveled networks.
//!
//! Phase 1 sends each packet forward through the ℓ levels choosing a random
//! out-link at every node ("flip a d-sided coin"), which lands it on a
//! uniformly random last-column node — the delta property makes choosing a
//! uniformly random last-column node *up front* and following its unique
//! path exactly equivalent, so we pre-draw the intermediate node into
//! [`Packet::via`] and keep the per-node protocol deterministic.
//! Phase 2 re-enters the network (column ℓ wraps to column 0, as in a
//! multi-pass butterfly) and follows the unique path to the true
//! destination. Total path length 2ℓ; Theorem 2.1 shows total time Õ(ℓ)
//! with FIFO queues of size O(ℓ), and Theorem 2.4 extends this to partial
//! ℓ-relations.
//!
//! The wrap-around is expressed with [`DoubledLeveled`], the 2ℓ-level
//! leveled network whose second half repeats the first.
//!
//! The public entry point is [`LeveledRoutingSession`] — the
//! [`Router`](crate::Router) instance for leveled networks.

use crate::router::{inject_per_source, PatternRef, RouteBackend, RoutingSession, RunExtras};
use lnpram_math::rng::SeedSeq;
use lnpram_shard::{AnyEngine, LevelCut};
use lnpram_simnet::{Outbox, Packet, Protocol, Shardable, SimConfig};
use lnpram_topology::leveled::{Leveled, LeveledNet};

/// The 2ℓ-level unrolling of an ℓ-level leveled network: levels `ℓ..2ℓ`
/// repeat levels `0..ℓ` (the last column feeds back into the first). A
/// packet traverses the inner network twice: once to its random
/// intermediate node, once to its destination.
#[derive(Debug, Clone, Copy)]
pub struct DoubledLeveled<L> {
    inner: L,
}

impl<L: Leveled> DoubledLeveled<L> {
    /// Wrap an inner leveled network.
    pub fn new(inner: L) -> Self {
        DoubledLeveled { inner }
    }

    /// The wrapped network.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// The inner level a doubled level `0..2ℓ` repeats (`level mod ℓ`,
    /// without the divide — this runs once per routed hop).
    #[inline]
    fn inner_level(&self, level: usize) -> usize {
        let levels = self.inner.levels();
        debug_assert!(level < 2 * levels);
        if level >= levels {
            level - levels
        } else {
            level
        }
    }
}

impl<L: Leveled> Leveled for DoubledLeveled<L> {
    fn levels(&self) -> usize {
        2 * self.inner.levels()
    }
    fn width(&self) -> usize {
        self.inner.width()
    }
    fn degree(&self) -> usize {
        self.inner.degree()
    }
    fn succ(&self, level: usize, idx: usize, digit: usize) -> usize {
        self.inner.succ(self.inner_level(level), idx, digit)
    }
    fn digit_toward(&self, level: usize, idx: usize, dest: usize) -> usize {
        self.inner.digit_toward(self.inner_level(level), idx, dest)
    }
    fn pred(&self, level: usize, idx: usize, digit: usize) -> usize {
        self.inner.pred(self.inner_level(level), idx, digit)
    }
    fn name(&self) -> String {
        format!("doubled[{}]", self.inner.name())
    }
}

/// The per-node program of Algorithm 2.1 over a [`LeveledNet`] view of a
/// [`DoubledLeveled`] network: in the first ℓ levels route toward
/// [`Packet::via`]; in the second ℓ levels route toward [`Packet::dest`];
/// deliver at column 2ℓ.
pub struct UniversalLeveledRouter<'a, L> {
    net: &'a LeveledNet<DoubledLeveled<L>>,
}

impl<'a, L: Leveled> UniversalLeveledRouter<'a, L> {
    /// Router over the forward view of the doubled network.
    pub fn new(net: &'a LeveledNet<DoubledLeveled<L>>) -> Self {
        UniversalLeveledRouter { net }
    }
}

impl<L: Leveled> Protocol for UniversalLeveledRouter<'_, L> {
    fn on_packet(&mut self, node: usize, pkt: Packet, _step: u32, out: &mut Outbox) {
        let lv = self.net.leveled();
        let half = lv.levels() / 2;
        let (col, idx) = self.net.split(node);
        if col == lv.levels() {
            debug_assert_eq!(idx, pkt.dest as usize);
            out.deliver(pkt);
            return;
        }
        let target = if col < half {
            pkt.via as usize
        } else {
            pkt.dest as usize
        };
        let digit = lv.digit_toward(col, idx, target);
        out.send(digit, pkt);
    }
}

impl<L> Clone for UniversalLeveledRouter<'_, L> {
    fn clone(&self) -> Self {
        UniversalLeveledRouter { net: self.net }
    }
}

// Stateless: a shared borrow of the network.
impl<L: Leveled + Sync> Shardable for UniversalLeveledRouter<'_, L> {
    fn merge(&mut self, _part: Self) {}
}

/// [`RouteBackend`] for Algorithm 2.1: owns the doubled network; the
/// engine partitions into column bands ([`LevelCut`]).
pub struct LeveledBackend<L> {
    levels: usize,
    width: usize,
    net: LeveledNet<DoubledLeveled<L>>,
}

impl<L: Leveled + Copy> LeveledBackend<L> {
    /// Backend over the doubled unrolling of `inner`.
    pub fn new(inner: L) -> Self {
        let levels = inner.levels();
        let width = inner.width();
        LeveledBackend {
            levels,
            width,
            net: LeveledNet::forward(DoubledLeveled::new(inner)),
        }
    }

    /// ℓ of the inner network.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Nodes per column.
    pub fn width(&self) -> usize {
        self.width
    }
}

impl<L: Leveled + Copy + Sync> RouteBackend for LeveledBackend<L> {
    type Proto<'a>
        = UniversalLeveledRouter<'a, L>
    where
        L: 'a;

    fn sources(&self) -> usize {
        self.width
    }

    fn name(&self) -> String {
        self.net.leveled().inner().name()
    }

    fn extras(&self) -> RunExtras {
        RunExtras::Leveled {
            levels: self.levels,
        }
    }

    fn build_engine(&self, copies: usize, cfg: &SimConfig) -> AnyEngine {
        assert_eq!(copies, 1, "engines hold one copy of the topology");
        AnyEngine::with_partitioner(&self.net, cfg.clone(), &LevelCut::new(self.width))
    }

    fn inject(
        &mut self,
        eng: &mut AnyEngine,
        copy: usize,
        pattern: PatternRef<'_>,
        seq: SeedSeq,
        tag: u64,
    ) -> usize {
        assert_eq!(copy, 0, "engines hold one copy of the topology");
        let width = self.width;
        let net = &self.net;
        inject_per_source(
            eng,
            width,
            (pattern, seq, tag),
            &mut |src| net.node_id(0, src),
            &mut |pkt, rng| pkt.via = rng.gen_range(0..width) as u32,
            // via = dest: the derandomized ablation — the packet follows
            // the unique (deterministic, oblivious) path twice (the
            // Borodin–Hopcroft-prone variant of §2.2.1).
            &mut |pkt| pkt.via = pkt.dest,
        )
    }

    fn protocol(&mut self) -> Self::Proto<'_> {
        UniversalLeveledRouter::new(&self.net)
    }

    fn dest_node(&self, dest: usize) -> usize {
        // Delivery happens at the last column of the doubled network.
        self.net.node_id(2 * self.levels, dest)
    }
}

/// A reusable Algorithm 2.1 routing session: the [`Router`](crate::Router)
/// instance for leveled networks. The doubled network and the simulation
/// engine are built **once** (`cfg.shards ≥ 2` selects the partitioned
/// lockstep engine, column bands cut by [`LevelCut`] — outcomes are
/// bit-identical to the serial engine by the sharded determinism
/// contract), then any number of requests are served through it.
pub type LeveledRoutingSession<L> = RoutingSession<LeveledBackend<L>>;

impl<L: Leveled + Copy> RoutingSession<LeveledBackend<L>> {
    /// Build the doubled network and its engine for `inner`.
    pub fn new(inner: L, cfg: SimConfig) -> Self {
        RoutingSession::with_backend(LeveledBackend::new(inner), cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::Router;
    use crate::workloads;
    use crate::RunReport;
    use lnpram_topology::leveled::{audit_unique_paths, RadixButterfly, UnrolledShuffle};

    #[test]
    fn doubled_network_keeps_delta_property_per_half() {
        let d = DoubledLeveled::new(RadixButterfly::new(2, 3));
        // The doubled network as a whole has d^2ℓ / N = N paths per pair,
        // not 1; but each half must still be delta. Audit the halves by
        // checking digit_toward reaches the target at column ℓ and 2ℓ.
        let inner_levels = 3;
        for src in 0..8 {
            for dest in 0..8 {
                let mut cur = src;
                for level in 0..inner_levels {
                    cur = d.succ(level, cur, d.digit_toward(level, cur, dest));
                }
                assert_eq!(cur, dest);
                // second half
                let mut cur2 = dest;
                for level in inner_levels..2 * inner_levels {
                    cur2 = d.succ(level, cur2, d.digit_toward(level, cur2, src));
                }
                assert_eq!(cur2, src);
            }
        }
        audit_unique_paths(&RadixButterfly::new(2, 3)).unwrap();
    }

    #[test]
    fn permutation_routing_delivers_everything() {
        let inner = RadixButterfly::new(2, 6); // 64 rows
        let rep = LeveledRoutingSession::new(inner, SimConfig::default()).route_permutation(42);
        assert!(rep.completed);
        assert_eq!(rep.metrics.delivered, 64);
        // Path length is exactly 2ℓ = 12; with contention the routing time
        // is 2ℓ + delay. Sanity: it finished and is at least 2ℓ.
        assert!(rep.metrics.routing_time >= 12);
        assert!(rep.time_per_norm() >= 2.0);
        assert_eq!(rep.norm(), 6);
    }

    #[test]
    fn identity_permutation_no_delay_distribution() {
        // Even the identity permutation goes through random intermediates,
        // so time > 2ℓ is possible; but delivery count must be exact.
        let inner = UnrolledShuffle::new(3, 3); // 27 nodes
        let dests: Vec<usize> = (0..27).collect();
        let rep = LeveledRoutingSession::new(inner, SimConfig::default())
            .route_with_dests(&dests, SeedSeq::new(7));
        assert!(rep.completed);
        assert_eq!(rep.metrics.delivered, 27);
    }

    #[test]
    fn routing_time_scales_linearly_in_levels() {
        // Theorem 2.1: time = O(ℓ). Doubling ℓ (at fixed degree) should
        // roughly double the time, not square it. Use binary butterflies
        // ℓ = 5 and ℓ = 10 and allow generous slack.
        let t5: f64 = (0..5)
            .map(|s| {
                LeveledRoutingSession::new(RadixButterfly::new(2, 5), SimConfig::default())
                    .route_permutation(s)
                    .metrics
                    .routing_time as f64
            })
            .sum::<f64>()
            / 5.0;
        let t10: f64 = (0..5)
            .map(|s| {
                LeveledRoutingSession::new(RadixButterfly::new(2, 10), SimConfig::default())
                    .route_permutation(s)
                    .metrics
                    .routing_time as f64
            })
            .sum::<f64>()
            / 5.0;
        let ratio = t10 / t5;
        assert!(
            ratio < 3.5,
            "doubling levels should ~double time; ratio {ratio}"
        );
    }

    #[test]
    fn session_reuse_matches_one_shot() {
        // A warmed session must reproduce a freshly built one
        // bit-for-bit: engine reuse is a cost optimisation, not a
        // behaviour change (this is what lets Lemma 2.1's retry loop
        // recycle one engine).
        let inner = RadixButterfly::new(2, 5);
        let mut session = LeveledRoutingSession::new(inner, SimConfig::default());
        for seed in 0..6u64 {
            let seq = SeedSeq::new(seed);
            let mut rng = seq.child(0).rng();
            let dests = workloads::random_permutation(32, &mut rng);
            let reused = session.route_with_dests(&dests, SeedSeq::new(seed));
            let fresh = LeveledRoutingSession::new(inner, SimConfig::default())
                .route_with_dests(&dests, SeedSeq::new(seed));
            assert_eq!(reused.completed, fresh.completed);
            assert_eq!(reused.metrics.routing_time, fresh.metrics.routing_time);
            assert_eq!(reused.metrics.delivered, fresh.metrics.delivered);
            assert_eq!(reused.metrics.max_queue, fresh.metrics.max_queue);
        }
    }

    #[test]
    fn session_retry_budget_override_is_sticky_per_run() {
        // Tight budget fails, relaxed budget on the same session succeeds
        // — the Lemma 2.1 usage pattern.
        let inner = RadixButterfly::new(2, 5);
        let mut session = LeveledRoutingSession::new(inner, SimConfig::default());
        let seq = SeedSeq::new(3);
        let mut rng = seq.child(0).rng();
        let dests = workloads::random_permutation(32, &mut rng);
        session.set_max_steps(3); // below the 2l = 10 path length
        assert_eq!(session.step_budget(), 3);
        let tight = session.route_with_dests(&dests, SeedSeq::new(3));
        assert!(!tight.completed);
        session.set_max_steps(10_000);
        let relaxed = session.route_with_dests(&dests, SeedSeq::new(3));
        assert!(relaxed.completed);
        assert_eq!(relaxed.metrics.delivered, 32);
    }

    #[test]
    fn relation_routing_ell_relation() {
        // Theorem 2.4's regime: h = ℓ packets per node.
        let inner = RadixButterfly::new(4, 3); // ℓ=3, d=4, 64 nodes
        let rep = LeveledRoutingSession::new(inner, SimConfig::default()).route_relation(3, 11);
        assert!(rep.completed);
        assert_eq!(rep.metrics.delivered, 64 * 3);
        assert_eq!(rep.packets, 192);
    }

    #[test]
    fn queue_bound_o_of_ell() {
        // Theorem 2.1 promises FIFO queues of size O(ℓ). Check a generous
        // multiple over several seeds.
        let inner = RadixButterfly::new(2, 8);
        for seed in 0..5 {
            let rep =
                LeveledRoutingSession::new(inner, SimConfig::default()).route_permutation(seed);
            assert!(rep.completed);
            assert!(
                rep.metrics.max_queue <= 4 * 8,
                "seed {seed}: max queue {} > 4ℓ",
                rep.metrics.max_queue
            );
        }
    }

    #[test]
    fn direct_routing_congests_on_bit_reversal() {
        // The ablation's point: without the random intermediate, the
        // bit-reversal permutation funnels many fixed paths through the
        // same links of a binary butterfly, while Algorithm 2.1 spreads
        // the load. Compare the max per-link load.
        let k = 8usize;
        let inner = RadixButterfly::new(2, k);
        let n = 1usize << k;
        let dests: Vec<usize> = (0..n)
            .map(|v| (v.reverse_bits() >> (usize::BITS as usize - k)) & (n - 1))
            .collect();
        let cfg = SimConfig {
            record_link_loads: true,
            ..Default::default()
        };
        let direct = LeveledRoutingSession::new(inner, cfg.clone()).route_direct(&dests);
        let random =
            LeveledRoutingSession::new(inner, cfg).route_with_dests(&dests, SeedSeq::new(3));
        assert!(direct.completed && random.completed);
        let max_of = |rep: &RunReport| rep.metrics.link_loads.iter().copied().max().unwrap_or(0);
        assert!(
            max_of(&direct) >= 2 * max_of(&random),
            "direct max load {} should far exceed randomized {}",
            max_of(&direct),
            max_of(&random)
        );
        assert!(direct.metrics.routing_time > random.metrics.routing_time);
    }

    #[test]
    fn incomplete_when_budget_too_small() {
        let inner = RadixButterfly::new(2, 6);
        let cfg = SimConfig {
            max_steps: 3, // far below 2ℓ = 12
            ..Default::default()
        };
        let rep = LeveledRoutingSession::new(inner, cfg).route_permutation(1);
        assert!(!rep.completed);
        assert!(rep.metrics.delivered < 64);
    }

    #[test]
    fn deterministic_given_seed() {
        let inner = UnrolledShuffle::new(4, 4);
        let a = LeveledRoutingSession::new(inner, SimConfig::default()).route_permutation(123);
        let b = LeveledRoutingSession::new(inner, SimConfig::default()).route_permutation(123);
        assert_eq!(a.metrics.routing_time, b.metrics.routing_time);
        assert_eq!(a.metrics.max_queue, b.metrics.max_queue);
        let c = LeveledRoutingSession::new(inner, SimConfig::default()).route_permutation(124);
        // different seed will almost surely differ somewhere
        assert!(
            a.metrics.routing_time != c.metrics.routing_time
                || a.metrics.queued_packet_steps != c.metrics.queued_packet_steps
        );
    }
}
