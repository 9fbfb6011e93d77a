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
//! extension to h-relations or many-one traffic — a many-one map panics
//! here, exactly the limitation §2.2.1 criticizes.
//!
//! The exchange is simulated on the engine: at every stage each node
//! sends a *copy* of its held packet across the scheduled dimension and,
//! on receiving its partner's copy, keeps the min or max by the bitonic
//! rule. Both directed channels of a dimension link carry exactly one
//! packet per stage — the paper's machine model, with every queue at its
//! floor of 1.
//!
//! Like its siblings [`shearsort_route`](crate::mesh_sort::shearsort_route)
//! and [`ranade_route`](crate::ranade::ranade_route), the entry point is a
//! function of a destination map, [`bitonic_route`]: the comparator
//! schedule is fixed at injection, so packets cannot enter or re-enter
//! mid-run and the scheme has no place behind the [`Router`](crate::Router)
//! API.

use crate::workloads;
use lnpram_shard::AnyEngine;
use lnpram_simnet::{Outbox, Packet, Protocol, RunOutcome, SimConfig};
use lnpram_topology::hypercube::Hypercube;

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

/// Does node `pos` keep the smaller of the pair at stage `(p, q)`?
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

/// Per-node program of the bitonic exchange on the k-cube.
struct BitonicRouter {
    schedule: Vec<(usize, usize)>,
    /// The packet each node currently holds.
    held: Vec<Packet>,
    /// Next stage index per node (incremented per received copy).
    stage: Vec<usize>,
}

impl BitonicRouter {
    fn new(k: usize) -> Self {
        let n = 1usize << k;
        BitonicRouter {
            schedule: bitonic_schedule(k),
            held: vec![Packet::new(0, 0, 0); n],
            stage: vec![0; n],
        }
    }

    /// Emit this node's copy for stage `s` (dimension port = q).
    fn send_stage(&self, node: usize, s: usize, out: &mut Outbox) {
        let (_, q) = self.schedule[s];
        out.send(q, self.held[node]);
    }
}

impl Protocol for BitonicRouter {
    // `held` and `stage` are per node.
    fn on_packet(&mut self, node: usize, pkt: Packet, step: u32, out: &mut Outbox) {
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
        let take_min = keeps_min(node, p, q);
        let mine_smaller = mine.dest <= pkt.dest;
        self.held[node] = if take_min == mine_smaller { mine } else { pkt };
        self.stage[node] = s + 1;
        if s + 1 == self.schedule.len() {
            debug_assert_eq!(
                self.held[node].dest as usize, node,
                "bitonic sort must place each packet at its destination"
            );
            out.deliver(self.held[node]);
        } else {
            // `src` marks the copy's sender so the partner assert holds.
            self.held[node].src = node as u32;
            self.send_stage(node, s + 1, out);
        }
    }
}

/// Route the permutation `dests` on the `k`-cube by bitonic sorting:
/// packet `src → dests[src]` starts at node `src`, and every run takes
/// exactly `k(k+1)/2` steps with every queue at 1. The engine honours
/// `cfg.shards`. Many-one maps panic — §2.2.1's criticism made
/// executable.
///
/// ```
/// use lnpram_routing::bitonic::bitonic_route;
/// use lnpram_simnet::SimConfig;
/// let reversal: Vec<usize> = (0..64).rev().collect();
/// let out = bitonic_route(6, &reversal, SimConfig::default());
/// assert!(out.completed);
/// assert_eq!(out.metrics.routing_time, 21); // 6·7/2, input-independent
/// assert_eq!(out.metrics.max_queue, 1);     // sorting needs no queues
/// ```
pub fn bitonic_route(k: usize, dests: &[usize], cfg: SimConfig) -> RunOutcome {
    let cube = Hypercube::new(k);
    assert_eq!(dests.len(), 1 << k, "one destination per cube node");
    assert!(
        workloads::is_permutation(dests),
        "bitonic routing requires a permutation"
    );
    let mut eng = AnyEngine::new(&cube, cfg);
    for (src, &dest) in dests.iter().enumerate() {
        eng.inject(src, Packet::new(src as u32, src as u32, dest as u32));
    }
    eng.run(&mut BitonicRouter::new(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnpram_math::rng::SeedSeq;

    fn stages(k: usize) -> u32 {
        (k * (k + 1) / 2) as u32
    }

    fn permutation(k: usize, seed: u64) -> Vec<usize> {
        workloads::random_permutation(1 << k, &mut SeedSeq::new(seed).child(0).rng())
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
                let out = bitonic_route(k, &permutation(k, seed), SimConfig::default());
                assert!(out.completed, "k={k} seed={seed}");
                assert_eq!(out.metrics.delivered, 1 << k);
                assert_eq!(
                    out.metrics.routing_time,
                    stages(k),
                    "k={k}: bitonic time is deterministic"
                );
                assert_eq!(out.metrics.max_queue, 1, "queue-free by design");
            }
        }
    }

    #[test]
    fn identity_and_reversal_permutations() {
        let k = 4;
        let n = 1 << k;
        let identity: Vec<usize> = (0..n).collect();
        let out = bitonic_route(k, &identity, SimConfig::default());
        assert!(out.completed);
        assert_eq!(out.metrics.delivered, n);
        let reversal: Vec<usize> = (0..n).rev().collect();
        let out = bitonic_route(k, &reversal, SimConfig::default());
        assert!(out.completed);
        // Sorting time does not depend on the permutation at all.
        assert_eq!(out.metrics.routing_time, stages(k));
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn many_one_rejected() {
        let dests = vec![0usize; 8];
        let _ = bitonic_route(3, &dests, SimConfig::default());
    }

    #[test]
    fn slower_than_valiant_at_scale() {
        // §2.2.1's point: Θ(log² N) loses to Õ(log N) once log N is large
        // enough to dominate the constants.
        use crate::hypercube::CubeRoutingSession;
        use crate::Router;
        let k = 10;
        let bitonic = bitonic_route(k, &permutation(k, 1), SimConfig::default());
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
        for shards in [2usize, 4] {
            let sharded = SimConfig {
                shards,
                ..SimConfig::default()
            };
            for seed in 0..3u64 {
                let dests = permutation(4, seed);
                let s = bitonic_route(4, &dests, sharded.clone());
                let serial = bitonic_route(4, &dests, SimConfig::default());
                assert_eq!(s.completed, serial.completed);
                assert_eq!(s.metrics.routing_time, serial.metrics.routing_time);
                assert_eq!(s.metrics.delivered, serial.metrics.delivered);
                assert_eq!(s.metrics.max_queue, serial.metrics.max_queue);
            }
        }
    }
}
