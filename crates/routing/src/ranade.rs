//! Ranade-style combining routing on the binary butterfly.
//!
//! Ranade's FOCS'87 algorithm is the comparator of the paper's §3: it
//! emulates a CRCW PRAM step on a butterfly in `O(log N)` time, and
//! "can be applied to the mesh to obtain an asymptotically optimal
//! algorithm … \[but\] the underlying constant is roughly 100". We
//! reimplement its core mechanism so the constant can be *measured*:
//!
//! * every node merges its two input streams **in destination-sorted
//!   order**, forwarding the smaller-keyed packet (this is what makes
//!   combining possible: equal-key packets meet at the merge point);
//! * equal-keyed request packets are **combined** into one;
//! * when a node forwards a packet on one out-link it sends a **ghost**
//!   (a key-only marker) on the other, so downstream nodes know no
//!   smaller key can arrive there — without ghosts the merge stalls;
//! * streams are terminated by an **end-of-stream** token.
//!
//! A node consumes at most one item per step and each link carries at most
//! one item per step, matching the synchronous model of `lnpram-simnet`
//! (the implementation here is a dedicated dataflow simulator because the
//! both-inputs-ready merge does not fit the one-packet-at-a-time
//! [`Protocol`](lnpram_simnet::Protocol) shape).
//!
//! [`mesh_embedding_steps`] converts a measured butterfly time into the
//! §3 mesh cost model: embedding the `2·log₂ n`-level butterfly on an
//! `n×n` mesh dilates level-`k` links to mesh paths of length
//! `≈ 2^{⌊k/2⌋}`, so one traversal costs `Σ_k slowdown · 2^{⌊k/2⌋}` mesh
//! steps — this is where the paper's "constant ≈ 100" comes from.

use lnpram_math::rng::SeedSeq;
use std::collections::VecDeque;

/// Sort key of a request: (destination row, address within module).
pub type Key = (u32, u64);

const END_KEY: Key = (u32::MAX, u64::MAX);

/// One item flowing through the butterfly dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Item {
    /// A (possibly combined) request packet: key plus how many original
    /// requests it represents.
    Real(Key, u32),
    /// A ghost: promise that no item with a smaller key will follow here.
    Ghost(Key),
    /// End of stream.
    End,
}

impl Item {
    fn key(&self) -> Key {
        match self {
            Item::Real(k, _) | Item::Ghost(k) => *k,
            Item::End => END_KEY,
        }
    }
}

/// Result of one Ranade-style butterfly run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RanadeReport {
    /// Synchronous steps until every output column received end-of-stream.
    pub steps: usize,
    /// Butterfly levels traversed (`log₂ N`).
    pub levels: usize,
    /// Requests injected.
    pub injected: usize,
    /// Distinct requests delivered to memory modules (after combining).
    pub delivered: usize,
    /// Number of pairwise combine events.
    pub combined: usize,
    /// Maximum in-buffer length at any node.
    pub max_queue: usize,
}

impl RanadeReport {
    /// Measured time per level — the butterfly constant `c_b` that the
    /// mesh embedding multiplies.
    pub fn time_per_level(&self) -> f64 {
        self.steps as f64 / self.levels.max(1) as f64
    }
}

/// Route one request per processor through a `levels`-level binary
/// butterfly (`N = 2^levels` rows), with destination rows given by
/// `dests` and a synthetic per-request address in `addrs` (requests with
/// equal `(dest, addr)` are combinable — pass equal addresses to model
/// concurrent reads of the same cell).
pub fn ranade_route(levels: usize, dests: &[u32], addrs: &[u64]) -> RanadeReport {
    let n = 1usize << levels;
    assert_eq!(dests.len(), n);
    assert_eq!(addrs.len(), n);

    // Source streams, destination-sorted, one per row, ending with End.
    let mut sources: Vec<VecDeque<Item>> = (0..n)
        .map(|i| {
            let mut v = vec![Item::Real((dests[i], addrs[i]), 1)];
            v.sort_by_key(Item::key);
            let mut q: VecDeque<Item> = v.into();
            q.push_back(Item::End);
            q
        })
        .collect();

    // State per (level 1..=levels, row): two in-buffers; per out-edge of
    // (level, row): an out-queue of at most one in-flight item per step.
    // Buffer indexing: buf[level-1][row][side] — side = which in-edge.
    let mut bufs: Vec<Vec<[VecDeque<Item>; 2]>> = (0..levels)
        .map(|_| (0..n).map(|_| [VecDeque::new(), VecDeque::new()]).collect())
        .collect();
    // Out-queues of nodes at `level` (0 = sources): out[level][row] holds
    // items awaiting transmission, each tagged with its out-bit.
    let mut outq: Vec<Vec<VecDeque<(usize, Item)>>> = (0..levels)
        .map(|_| (0..n).map(|_| VecDeque::new()).collect())
        .collect();
    let mut ended_out: Vec<Vec<bool>> = (0..levels).map(|_| vec![false; n]).collect();

    let mut delivered = 0usize;
    let mut combined = 0usize;
    let mut max_queue = 0usize;
    let mut finished_outputs = vec![0usize; n]; // count of End received at final column
                                                // The memory module at each final-column row also combines: requests
                                                // for the same (module, address) arriving from its two in-edges are
                                                // served once (Ranade's modules read sorted streams).
    let mut module_seen: Vec<std::collections::BTreeSet<Key>> =
        (0..n).map(|_| std::collections::BTreeSet::new()).collect();
    let mut steps = 0usize;

    // Side of the in-edge at (level+1): straight edges arrive on side 0,
    // cross edges on side 1.
    let in_side = |from_row: usize, to_row: usize| usize::from(from_row != to_row);

    loop {
        // Everything arrived?
        if finished_outputs.iter().all(|&c| c >= 2) {
            break;
        }
        steps += 1;
        assert!(
            steps < 10_000 * (levels + 1),
            "ranade dataflow failed to converge"
        );

        // --- Transmit: one item per out-edge per step ---
        // Out-edges of (level, row): bit `level` set to 0 or 1. The
        // out-queue is FIFO but at most one item *per edge* may move, so
        // scan the first item for each distinct bit.
        for level in 0..levels {
            for (row, q) in outq[level].iter_mut().enumerate() {
                let mut sent = [false; 2];
                let mut i = 0;
                while i < q.len() {
                    let (bit, item) = q[i];
                    if sent[bit] {
                        i += 1;
                        continue;
                    }
                    sent[bit] = true;
                    let to_row = (row & !(1 << level)) | (bit << level);
                    let side = in_side(row, to_row);
                    q.remove(i);
                    if level + 1 == levels {
                        // Final column: memory modules consume directly.
                        // Each node's two in-edges deliver one End each.
                        match item {
                            Item::Real(k, _) => {
                                if module_seen[to_row].insert(k) {
                                    delivered += 1;
                                } else {
                                    combined += 1;
                                }
                            }
                            Item::Ghost(_) => {}
                            Item::End => finished_outputs[to_row] += 1,
                        }
                    } else {
                        // bufs[level] holds the in-buffers of column level+1.
                        bufs[level][to_row][side].push_back(item);
                        let l = bufs[level][to_row][side].len();
                        max_queue = max_queue.max(l);
                    }
                    if sent[0] && sent[1] {
                        break;
                    }
                }
            }
        }

        // --- Process: sources feed column-1 via their out-queues ---
        for row in 0..n {
            if let Some(item) = sources[row].pop_front() {
                let bit = match item {
                    Item::Real((d, _), _) => (d as usize) & 1,
                    _ => 0,
                };
                match item {
                    Item::End => {
                        // End goes out on *both* edges.
                        outq[0][row].push_back((0, Item::End));
                        outq[0][row].push_back((1, Item::End));
                    }
                    _ => {
                        outq[0][row].push_back((bit, item));
                        outq[0][row].push_back((1 - bit, Item::Ghost(item.key())));
                    }
                }
            }
        }

        // --- Process: interior nodes merge their two in-buffers ---
        for level in 1..levels {
            for row in 0..n {
                let [ref mut b0, ref mut b1] = bufs[level - 1][row];
                if b0.is_empty() || b1.is_empty() {
                    continue; // must see both heads to merge safely
                }
                if ended_out[level][row] {
                    continue;
                }
                let (h0, h1) = (
                    *b0.front().expect("b0 non-empty: checked above"),
                    *b1.front().expect("b1 non-empty: checked above"),
                );
                let item = match (h0, h1) {
                    (Item::End, Item::End) => {
                        b0.pop_front();
                        b1.pop_front();
                        ended_out[level][row] = true;
                        outq[level][row].push_back((0, Item::End));
                        outq[level][row].push_back((1, Item::End));
                        continue;
                    }
                    (Item::Real(k0, c0), Item::Real(k1, c1)) if k0 == k1 => {
                        // Combine equal-key requests (CRCW concurrent read).
                        b0.pop_front();
                        b1.pop_front();
                        combined += 1;
                        Item::Real(k0, c0 + c1)
                    }
                    _ => {
                        // Pop the smaller-keyed head.
                        if h0.key() <= h1.key() {
                            b0.pop_front().expect("b0 non-empty: h0 is its head")
                        } else {
                            b1.pop_front().expect("b1 non-empty: h1 is its head")
                        }
                    }
                };
                match item {
                    Item::Ghost(_) => {
                        // Consumed; forward ghost only if queues are idle
                        // (ghost hygiene keeps queues short).
                        let k = item.key();
                        let bit = ((k.0 as usize) >> level) & 1;
                        if outq[level][row].is_empty() {
                            outq[level][row].push_back((bit, Item::Ghost(k)));
                        }
                    }
                    Item::Real(k, c) => {
                        let bit = ((k.0 as usize) >> level) & 1;
                        outq[level][row].push_back((bit, Item::Real(k, c)));
                        if outq[level][row].iter().all(|&(b, _)| b == bit) {
                            outq[level][row].push_back((1 - bit, Item::Ghost(k)));
                        }
                    }
                    Item::End => unreachable!("End handled above"),
                }
            }
        }
    }

    RanadeReport {
        steps,
        levels,
        injected: n,
        delivered,
        combined,
        max_queue,
    }
}

/// Run with uniformly random destinations and distinct addresses
/// (a PRAM-step request pattern after hashing).
pub fn ranade_random(levels: usize, seed: u64) -> RanadeReport {
    let n = 1usize << levels;
    let mut rng = SeedSeq::new(seed).rng();
    let dests: Vec<u32> = (0..n).map(|_| rng.gen_range(0..n as u32)).collect();
    let addrs: Vec<u64> = (0..n as u64).collect();
    ranade_route(levels, &dests, &addrs)
}

/// Run a full-hotspot pattern: every processor reads the same cell —
/// combining must collapse all requests into one delivery per path merge.
pub fn ranade_hotspot(levels: usize) -> RanadeReport {
    let n = 1usize << levels;
    ranade_route(levels, &vec![0u32; n], &vec![42u64; n])
}

/// The §3 mesh cost model: embedding a `2·log₂ n`-level butterfly on the
/// `n×n` mesh dilates level-k links to mesh distance `2^{⌊k/2⌋}`; one
/// traversal at a measured per-level slowdown `c_b` costs
/// `c_b · Σ_k 2^{⌊k/2⌋}` mesh steps. A full PRAM step pays the traversal
/// twice (requests + replies).
pub fn mesh_embedding_steps(n: usize, time_per_level: f64) -> f64 {
    let levels = 2 * (n.max(2) as f64).log2().ceil() as usize;
    let dilation_sum: f64 = (0..levels).map(|k| (1u64 << (k / 2)) as f64).sum();
    2.0 * time_per_level * dilation_sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_delivers_all_distinct() {
        // Distinct destinations: nothing combines.
        let levels = 4;
        let n = 1 << levels;
        let dests: Vec<u32> = (0..n as u32).rev().collect();
        let addrs: Vec<u64> = (0..n as u64).collect();
        let rep = ranade_route(levels, &dests, &addrs);
        assert_eq!(rep.delivered, n);
        assert_eq!(rep.combined, 0);
        assert!(rep.steps >= levels);
    }

    #[test]
    fn hotspot_combines_everything() {
        // All-to-one same-address reads: exactly one request must reach the
        // module; combining count = n − 1 (a binary combining tree).
        let levels = 5;
        let rep = ranade_hotspot(levels);
        assert_eq!(rep.delivered, 1);
        assert_eq!(rep.combined, (1 << levels) - 1);
    }

    #[test]
    fn random_pattern_time_linear_in_levels() {
        let r6 = ranade_random(6, 1);
        let r10 = ranade_random(10, 1);
        assert_eq!(r6.injected, 64);
        assert!(r6.delivered <= 64);
        // time/level should be roughly flat (O(log N) total).
        let ratio = r10.time_per_level() / r6.time_per_level();
        assert!(
            ratio < 3.0,
            "per-level time should not blow up: {:.2} vs {:.2}",
            r10.time_per_level(),
            r6.time_per_level()
        );
    }

    #[test]
    fn deterministic() {
        let a = ranade_random(7, 3);
        let b = ranade_random(7, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn same_dest_distinct_addresses_not_combined() {
        // Concurrent access to the same module but different cells must
        // NOT combine (EREW-style requests to one module).
        let levels = 3;
        let n = 1 << levels;
        let dests = vec![0u32; n];
        let addrs: Vec<u64> = (0..n as u64).collect();
        let rep = ranade_route(levels, &dests, &addrs);
        assert_eq!(rep.delivered, n);
        assert_eq!(rep.combined, 0);
    }

    #[test]
    fn embedding_model_scale() {
        // The paper's claim: Ranade-on-mesh constant ≈ 100. With a measured
        // butterfly constant of ~4-8 steps/level the model lands in the
        // tens-to-hundreds×n range.
        let est = mesh_embedding_steps(64, 6.0);
        let per_n = est / 64.0;
        assert!(per_n > 20.0 && per_n < 400.0, "model gives {per_n:.0}n");
    }
}
