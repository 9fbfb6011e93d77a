//! The physical d-way shuffle network (paper §2.3.5).
//!
//! `N = dⁿ` nodes labelled by n-digit base-d strings; node `dₙ…d₁` has a
//! directed link to `l dₙ…d₂` for every digit `l` (shift right, insert `l`
//! on top). Between any ordered pair of nodes there is a *unique* walk of
//! exactly `n` links, so the network has diameter ≤ n and supports the
//! oblivious routing of Algorithm 2.3. With `d = n` this is the paper's
//! n-way shuffle, whose diameter `n` is sub-logarithmic in `N = nⁿ`.

use crate::graph::Network;

/// The d-way shuffle with `n` digits: `dⁿ` nodes, out-degree `d`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DWayShuffle {
    d: usize,
    n: usize,
    num_nodes: usize,
    top: usize, // d^(n-1)
}

impl DWayShuffle {
    /// Construct; panics if `dⁿ` overflows.
    pub fn new(d: usize, n: usize) -> Self {
        assert!(d >= 2 && n >= 1);
        let mut num = 1usize;
        for _ in 0..n {
            num = num.checked_mul(d).expect("d^n overflows usize");
        }
        DWayShuffle {
            d,
            n,
            num_nodes: num,
            top: num / d,
        }
    }

    /// The paper's n-way shuffle (`d = n`, `N = nⁿ`).
    pub fn n_way(n: usize) -> Self {
        Self::new(n, n)
    }

    /// Digit count n (= diameter upper bound).
    pub fn digits(&self) -> usize {
        self.n
    }

    /// Radix d.
    pub fn radix(&self) -> usize {
        self.d
    }

    /// The unique n-step walk from `u` to `v`, as the port (digit) sequence.
    ///
    /// Each step inserts a digit at the top and shifts everything right, so
    /// the digit inserted at step `s` (1-based) is shifted right by the
    /// `n − s` later steps and ends as base-d digit `s − 1` of `v` (the last
    /// inserted digit stays on top). Step `s` must therefore insert digit
    /// `⌊v / d^{s−1}⌋ mod d`.
    pub fn unique_route(&self, _u: usize, v: usize) -> Vec<usize> {
        let mut ports = Vec::with_capacity(self.n);
        let mut x = v;
        for _ in 0..self.n {
            ports.push(x % self.d);
            x /= self.d;
        }
        ports
    }

    /// Shortest-path distance: the least `k` such that the low `n−k` digits
    /// of `v` equal the high `n−k` digits of `u` (shift-overlap matching).
    pub fn distance(&self, u: usize, v: usize) -> usize {
        let mut modulus = self.num_nodes;
        let mut shift = 1usize;
        for k in 0..=self.n {
            // v mod d^(n-k) == u / d^k ?
            if v % modulus == u / shift {
                return k;
            }
            modulus /= self.d;
            shift *= self.d;
        }
        unreachable!("k = n always matches (empty overlap)")
    }
}

impl Network for DWayShuffle {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn out_degree(&self, _node: usize) -> usize {
        self.d
    }

    fn neighbor(&self, node: usize, port: usize) -> usize {
        debug_assert!(port < self.d);
        port * self.top + node / self.d
    }

    fn name(&self) -> String {
        format!("shuffle(d={},n={})", self.d, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{bfs_distances, diameter, strongly_connected};
    use lnpram_math::rng::SeedSeq;
    use proptest::prelude::*;

    #[test]
    fn figure4_two_way_shuffle() {
        // Paper Figure 4: n = 2, four nodes 00,01,10,11.
        let s = DWayShuffle::n_way(2);
        assert_eq!(s.num_nodes(), 4);
        // Node 10 (=2) connects to {01 (=1), 11 (=3)}.
        let nbrs: Vec<usize> = (0..2).map(|p| s.neighbor(2, p)).collect();
        assert_eq!(nbrs, vec![1, 3]);
        assert!(strongly_connected(&s));
    }

    #[test]
    fn unique_route_reaches_in_exactly_n() {
        for (d, n) in [(2usize, 3usize), (3, 3), (4, 2), (3, 4)] {
            let s = DWayShuffle::new(d, n);
            let mut rng = SeedSeq::new(4).child((d * 100 + n) as u64).rng();
            for _ in 0..100 {
                let u = rng.gen_range(0..s.num_nodes());
                let v = rng.gen_range(0..s.num_nodes());
                let route = s.unique_route(u, v);
                assert_eq!(route.len(), n);
                let mut cur = u;
                for &p in &route {
                    cur = s.neighbor(cur, p);
                }
                assert_eq!(cur, v, "d={d} n={n} u={u} v={v}");
            }
        }
    }

    #[test]
    fn exactly_one_walk_of_length_n() {
        // Count length-n walks u->v by DP; must be exactly 1 for all pairs.
        let s = DWayShuffle::new(3, 3);
        for u in 0..s.num_nodes() {
            let mut reach = vec![0u64; s.num_nodes()];
            reach[u] = 1;
            for _ in 0..s.digits() {
                let mut next = vec![0u64; s.num_nodes()];
                for v in 0..s.num_nodes() {
                    if reach[v] > 0 {
                        for p in 0..s.out_degree(v) {
                            next[s.neighbor(v, p)] += reach[v];
                        }
                    }
                }
                reach = next;
            }
            assert!(reach.iter().all(|&c| c == 1), "u={u}: {:?}", reach);
        }
    }

    #[test]
    fn distance_matches_bfs() {
        for (d, n) in [(2usize, 4usize), (3, 3), (4, 2)] {
            let s = DWayShuffle::new(d, n);
            for u in 0..s.num_nodes() {
                let bfs = bfs_distances(&s, u);
                for (v, &dist) in bfs.iter().enumerate() {
                    assert_eq!(s.distance(u, v), dist, "d={d} n={n} u={u} v={v}");
                }
            }
        }
    }

    #[test]
    fn diameter_is_n() {
        for (d, n) in [(2usize, 3usize), (3, 2), (3, 3)] {
            let s = DWayShuffle::new(d, n);
            assert_eq!(diameter(&s), Some(n), "d={d}");
        }
    }

    #[test]
    fn self_loops_exist_on_constant_strings() {
        // Node 00…0 has a self-loop (insert 0): the shuffle digraph allows it.
        let s = DWayShuffle::new(3, 3);
        assert_eq!(s.neighbor(0, 0), 0);
        let all2 = s.num_nodes() - 1; // "222"
        assert_eq!(s.neighbor(all2, 2), all2);
    }

    proptest! {
        #[test]
        fn prop_route_validity(seed: u64, d in 2usize..=5, n in 1usize..=5) {
            let s = DWayShuffle::new(d, n);
            let mut rng = SeedSeq::new(seed).rng();
            let u = rng.gen_range(0..s.num_nodes());
            let v = rng.gen_range(0..s.num_nodes());
            let mut cur = u;
            for &p in &s.unique_route(u, v) {
                prop_assert!(p < d);
                cur = s.neighbor(cur, p);
            }
            prop_assert_eq!(cur, v);
            prop_assert!(s.distance(u, v) <= n);
        }
    }
}
