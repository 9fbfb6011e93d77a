//! Batcher bitonic sort-routing on the hypercube — the *non-oblivious*
//! baseline of §2.2.1.
//!
//! "Batcher's sorting algorithms are examples of non-oblivious routing
//! algorithms. They require Θ(log² N) routing time for the cube class
//! networks … and hence are not optimal and only work for permutation
//! routing although they possess the advantage that they need not have
//! queues."
//!
//! Bitonic sort maps exactly onto the k-cube: the compare–exchange
//! between positions `i` and `i ^ 2^q` is one traversal of the dimension-
//! `q` link. Sorting the packets by destination places packet with
//! destination `v` at node `v` — permutation routing in exactly
//! `k(k+1)/2` steps, max queue 1, zero randomness. The trade, measured by
//! the `batcher_baseline` experiment: Θ(log² N) vs Valiant's Õ(log N), and no
//! extension to h-relations or many-one traffic — a
//! [`RoutePattern::Relation`](crate::RoutePattern::Relation) request panics here, exactly the
//! limitation §2.2.1 criticizes.
//!
//! The exchange is simulated on the engine: at every stage each node
//! sends a *copy* of its held packet across the scheduled dimension and,
//! on receiving its partner's copy, keeps the min or max by the bitonic
//! rule. Both directed channels of a dimension link carry exactly one
//! packet per stage — the paper's machine model, with every queue at its
//! floor of 1.
//!
//! The public entry point is [`BitonicRoutingSession`] — the
//! [`Router`](crate::Router) instance for sort-routing. The sorting
//! network's per-node state is kept per
//! *global* node, so batched multi-tenant runs sort each tenant's copy
//! independently.

use crate::router::{
    batch_engine, is_relation, pattern_dests, PatternRef, RouteBackend, RoutingSession, RunExtras,
};
use crate::workloads;
use lnpram_math::rng::SeedSeq;
use lnpram_shard::AnyEngine;
use lnpram_simnet::{Outbox, Packet, Protocol, SimConfig};
use lnpram_topology::hypercube::Hypercube;
use lnpram_topology::Network;

/// The full bitonic schedule for a k-cube: `(phase p, dimension q)` pairs,
/// `q` descending within each phase; `k(k+1)/2` stages total.
///
/// ```
/// use lnpram_routing::bitonic::bitonic_schedule;
/// assert_eq!(bitonic_schedule(2), vec![(0, 0), (1, 1), (1, 0)]);
/// assert_eq!(bitonic_schedule(10).len(), 55);
/// ```
pub fn bitonic_schedule(k: usize) -> Vec<(usize, usize)> {
    let mut stages = Vec::with_capacity(k * (k + 1) / 2);
    for p in 0..k {
        for q in (0..=p).rev() {
            stages.push((p, q));
        }
    }
    stages
}

/// Does position `pos` (a *base-cube* node id) keep the smaller of the
/// pair at stage `(p, q)`?
///
/// Ascending blocks are those whose bit `p+1` is 0 (the final phase
/// `p = k − 1` has that bit always 0, i.e. one fully ascending merge);
/// within a pair the low endpoint of dimension `q` keeps the min in an
/// ascending block and the max in a descending one.
fn keeps_min(pos: usize, p: usize, q: usize) -> bool {
    let ascending = pos & (1 << (p + 1)) == 0;
    let low_end = pos & (1 << q) == 0;
    ascending == low_end
}

/// Per-node program of the bitonic exchange. State (`held`, `stage`) is
/// indexed by **global** node id, so the same program drives a batched
/// union of tenant copies: the compare rule uses the node's base-cube
/// position (`node mod 2^k`), the state its global id.
pub struct BitonicRouter {
    /// Base-cube size `2^k` (position mask is `n − 1`).
    n: usize,
    schedule: Vec<(usize, usize)>,
    /// The packet each node currently holds.
    held: Vec<Packet>,
    /// Next stage index per node (incremented per received copy).
    stage: Vec<usize>,
}

impl BitonicRouter {
    fn new(k: usize, copies: usize) -> Self {
        let n = 1usize << k;
        BitonicRouter {
            n,
            schedule: bitonic_schedule(k),
            held: vec![Packet::new(0, 0, 0); copies * n],
            stage: vec![0; copies * n],
        }
    }

    /// Emit this node's copy for stage `s` (dimension port = q).
    fn send_stage(&self, node: usize, s: usize, out: &mut Outbox) {
        let (_, q) = self.schedule[s];
        out.send(q, self.held[node]);
    }
}

impl Protocol for BitonicRouter {
    fn on_packet(&mut self, node: usize, pkt: Packet, step: u32, out: &mut Outbox) {
        let pos = node % self.n;
        if step == 0 {
            // Injection: adopt the initial packet and start stage 0.
            self.held[node] = pkt;
            if self.schedule.is_empty() {
                out.deliver(pkt); // k = 0 degenerate cube
                return;
            }
            self.send_stage(node, 0, out);
            return;
        }
        // A partner copy for the current stage arrived.
        let s = self.stage[node];
        let (p, q) = self.schedule[s];
        debug_assert_eq!(
            pkt.src as usize ^ (1 << q),
            node,
            "partner mismatch: {} vs {node}",
            pkt.src
        );
        let mine = self.held[node];
        let take_min = keeps_min(pos, p, q);
        let mine_smaller = mine.dest <= pkt.dest;
        self.held[node] = if take_min == mine_smaller { mine } else { pkt };
        self.stage[node] = s + 1;
        if s + 1 == self.schedule.len() {
            debug_assert_eq!(
                self.held[node].dest as usize, pos,
                "bitonic sort must place each packet at its destination"
            );
            out.deliver(self.held[node]);
        } else {
            // `src` marks the copy's sender so the partner assert holds.
            let mut copy = self.held[node];
            copy.src = node as u32;
            self.held[node] = copy;
            self.send_stage(node, s + 1, out);
        }
    }
}

/// [`RouteBackend`] for bitonic sort-routing on the k-cube.
pub struct BitonicBackend {
    cube: Hypercube,
    k: usize,
}

impl BitonicBackend {
    /// Backend on the `k`-cube.
    pub fn new(k: usize) -> Self {
        BitonicBackend {
            cube: Hypercube::new(k),
            k,
        }
    }
}

impl RouteBackend for BitonicBackend {
    type Proto<'a> = BitonicRouter;

    fn sources(&self) -> usize {
        self.cube.num_nodes()
    }

    fn stride(&self) -> usize {
        self.cube.num_nodes()
    }

    fn name(&self) -> String {
        format!("bitonic[{}]", self.cube.name())
    }

    fn extras(&self) -> RunExtras {
        RunExtras::Bitonic {
            dims: self.k,
            stages: (self.k * (self.k + 1) / 2) as u32,
        }
    }

    fn step_local(&self) -> bool {
        // The comparator schedule is fixed at injection time: packets
        // cannot enter or re-enter mid-schedule, so streaming admission
        // and fault recovery would silently misroute. Decline with a
        // typed error instead.
        false
    }

    fn build_engine(&self, copies: usize, cfg: &SimConfig) -> AnyEngine {
        batch_engine(&self.cube, copies, cfg, AnyEngine::new)
    }

    fn inject(
        &mut self,
        eng: &mut AnyEngine,
        copy: usize,
        pattern: PatternRef<'_>,
        seq: SeedSeq,
        tag: u64,
    ) -> usize {
        assert!(
            !is_relation(pattern),
            "bitonic routing requires a permutation"
        );
        let total = self.cube.num_nodes();
        let offset = copy * total;
        // Direct and randomized are the same thing here: sorting uses no
        // random intermediate to begin with.
        let (dests, _direct) = pattern_dests(pattern, total, seq);
        assert!(
            workloads::is_permutation(&dests),
            "bitonic routing requires a permutation"
        );
        assert_eq!(dests.len(), total);
        for (src, &dest) in dests.iter().enumerate() {
            let node = offset + src;
            // `src` carries the *global* sender id (the partner assert
            // and the exchange protocol work per copy).
            let pkt = Packet::new(src as u32, node as u32, dest as u32).with_tag(tag);
            eng.inject(node, pkt);
        }
        dests.len()
    }

    fn protocol(&mut self, copies: usize) -> BitonicRouter {
        BitonicRouter::new(self.k, copies)
    }
}

/// A reusable bitonic sort-routing session: the
/// [`Router`](crate::Router) instance for Batcher sort-routing on the
/// k-cube (network + partition + engine built once, `cfg.shards`
/// honored). Only permutation-shaped requests are legal — relation
/// requests panic, which is §2.2.1's criticism made executable.
///
/// ```
/// use lnpram_routing::bitonic::BitonicRoutingSession;
/// use lnpram_routing::Router;
/// use lnpram_simnet::SimConfig;
/// let rep = BitonicRoutingSession::new(6, SimConfig::default()).route_permutation(1);
/// assert!(rep.completed);
/// assert_eq!(rep.metrics.routing_time, 21); // 6·7/2, input-independent
/// assert_eq!(rep.metrics.max_queue, 1);     // sorting needs no queues
/// ```
pub type BitonicRoutingSession = RoutingSession<BitonicBackend>;

impl RoutingSession<BitonicBackend> {
    /// Session on the `k`-cube (serial or sharded per `cfg.shards`).
    pub fn new(k: usize, cfg: SimConfig) -> Self {
        RoutingSession::with_backend(BitonicBackend::new(k), cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Router;

    /// The stage count `k(k+1)/2` a run must match.
    fn expected_steps(rep: &crate::RunReport) -> u32 {
        match rep.extras {
            RunExtras::Bitonic { stages, .. } => stages,
            _ => unreachable!("bitonic report"),
        }
    }

    #[test]
    fn schedule_length_is_k_choose() {
        for k in 1..=8 {
            assert_eq!(bitonic_schedule(k).len(), k * (k + 1) / 2);
        }
        assert_eq!(
            bitonic_schedule(3),
            vec![(0, 0), (1, 1), (1, 0), (2, 2), (2, 1), (2, 0)]
        );
    }

    #[test]
    fn sorts_any_permutation_in_exact_steps() {
        for k in [1usize, 2, 3, 5, 8] {
            for seed in 0..3u64 {
                let rep =
                    BitonicRoutingSession::new(k, SimConfig::default()).route_permutation(seed);
                assert!(rep.completed, "k={k} seed={seed}");
                assert_eq!(rep.metrics.delivered, 1 << k);
                assert_eq!(
                    rep.metrics.routing_time,
                    expected_steps(&rep),
                    "k={k}: bitonic time is deterministic"
                );
                assert_eq!(rep.metrics.max_queue, 1, "queue-free by design");
            }
        }
    }

    #[test]
    fn identity_and_reversal_permutations() {
        let k = 4;
        let n = 1 << k;
        let identity: Vec<usize> = (0..n).collect();
        let rep = BitonicRoutingSession::new(k, SimConfig::default()).route_direct(&identity);
        assert!(rep.completed);
        assert_eq!(rep.metrics.delivered, n);
        let reversal: Vec<usize> = (0..n).rev().collect();
        let rep = BitonicRoutingSession::new(k, SimConfig::default()).route_direct(&reversal);
        assert!(rep.completed);
        // Sorting time does not depend on the permutation at all.
        assert_eq!(rep.metrics.routing_time, expected_steps(&rep));
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn many_one_rejected() {
        let dests = vec![0usize; 8];
        let _ = BitonicRoutingSession::new(3, SimConfig::default()).route_direct(&dests);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn relation_rejected() {
        let mut session = BitonicRoutingSession::new(3, SimConfig::default());
        let _ = session.route_relation(2, 1);
    }

    #[test]
    fn slower_than_valiant_at_scale() {
        // §2.2.1's point: Θ(log² N) loses to Õ(log N) once log N is large
        // enough to dominate the constants.
        use crate::hypercube::CubeRoutingSession;
        let k = 10;
        let bitonic = BitonicRoutingSession::new(k, SimConfig::default()).route_permutation(1);
        let valiant = CubeRoutingSession::new(k, SimConfig::default()).route_permutation(1);
        assert!(bitonic.completed && valiant.completed);
        assert!(
            bitonic.metrics.routing_time > valiant.metrics.routing_time,
            "bitonic {} vs valiant {}",
            bitonic.metrics.routing_time,
            valiant.metrics.routing_time
        );
        // But bitonic's queues sit at the floor.
        assert_eq!(bitonic.metrics.max_queue, 1);
        assert!(valiant.metrics.max_queue > 1);
    }

    #[test]
    fn session_honors_shards_and_reuse() {
        // Pinned since a bugfix: bitonic routing used to build a bare
        // serial `Engine`, silently ignoring `cfg.shards`.
        let sharded = SimConfig {
            shards: 2,
            ..SimConfig::default()
        };
        let mut session = BitonicRoutingSession::new(4, sharded);
        assert!(session.is_sharded());
        for seed in 0..3u64 {
            let s = session.route_permutation(seed);
            let fresh = BitonicRoutingSession::new(4, SimConfig::default()).route_permutation(seed);
            assert_eq!(s.completed, fresh.completed);
            assert_eq!(s.metrics.routing_time, fresh.metrics.routing_time);
            assert_eq!(s.metrics.delivered, fresh.metrics.delivered);
            assert_eq!(s.metrics.max_queue, fresh.metrics.max_queue);
        }
    }
}
