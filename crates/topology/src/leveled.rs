//! The paper's *leveled network* class (§2.3.1).
//!
//! A leveled network has `ℓ+1` columns `c₀ … c_ℓ` of `N` nodes each; links
//! run only between consecutive columns, every node has at most `d`
//! outgoing links, and **from every column-0 node there is exactly one path
//! of length ℓ to every column-ℓ node** (the delta / unique-path property —
//! this is what makes Phase 2 of the universal routing algorithm
//! deterministic). The butterfly, the unrolled d-way shuffle, and the
//! logical network of the star graph (paper Figure 3) are all instances.
//!
//! [`Leveled`] captures the structure functionally (successor by digit,
//! digit toward a destination, predecessor by digit); [`LeveledNet`]
//! adapts an instance to the generic [`Network`]
//! view (forward or reversed) used by the simulator.

use crate::graph::Network;
use lnpram_math::Divisor;

/// A leveled network with the unique-path property.
///
/// Columns are `0..=levels()`; each of the `width()` nodes in column
/// `k < levels()` has `degree()` out-links ("digits") into column `k+1`.
pub trait Leveled: Sync {
    /// Number of link stages ℓ (columns are `0..=levels()`).
    fn levels(&self) -> usize;
    /// Nodes per column, N.
    fn width(&self) -> usize;
    /// Out-degree d between consecutive columns.
    fn degree(&self) -> usize;
    /// Node index in column `level+1` reached from `(level, idx)` on `digit`.
    fn succ(&self, level: usize, idx: usize, digit: usize) -> usize;
    /// The digit to take at `(level, idx)` on the unique path to the
    /// column-ℓ node `dest`.
    fn digit_toward(&self, level: usize, idx: usize, dest: usize) -> usize;
    /// Node index in column `level` that reaches `(level+1, idx)` on some
    /// link, enumerated by `digit ∈ 0..degree()` (the reverse adjacency).
    fn pred(&self, level: usize, idx: usize, digit: usize) -> usize;
    /// Short name, e.g. `butterfly(r=2,k=10)`.
    fn name(&self) -> String;

    /// Follow the unique path from `(0, src)` to `(levels, dest)`; returns
    /// the column-by-column node indices (length `levels()+1`).
    fn unique_path(&self, src: usize, dest: usize) -> Vec<usize> {
        let mut path = Vec::with_capacity(self.levels() + 1);
        let mut cur = src;
        path.push(cur);
        for level in 0..self.levels() {
            let digit = self.digit_toward(level, cur, dest);
            cur = self.succ(level, cur, digit);
            path.push(cur);
        }
        path
    }
}

/// Exhaustively verify the unique-path property and succ/pred consistency.
/// Quadratic in `width` — for tests and audits of small instances.
pub fn audit_unique_paths<L: Leveled + ?Sized>(lv: &L) -> Result<(), String> {
    let (w, d, ell) = (lv.width(), lv.degree(), lv.levels());
    // 1. digit_toward routes reach their destination.
    for src in 0..w {
        for dest in 0..w {
            let path = lv.unique_path(src, dest);
            let end = *path
                .last()
                .expect("unique_path always contains at least the source node");
            if end != dest {
                return Err(format!(
                    "digit_toward path from {src} aimed at {dest} ends at {end}"
                ));
            }
        }
    }
    // 2. Uniqueness: count paths src -> dest by DP over all digits.
    for src in 0..w {
        let mut reach = vec![0u64; w];
        reach[src] = 1;
        for level in 0..ell {
            let mut next = vec![0u64; w];
            for idx in 0..w {
                if reach[idx] > 0 {
                    for digit in 0..d {
                        next[lv.succ(level, idx, digit)] += reach[idx];
                    }
                }
            }
            reach = next;
        }
        for (dest, &count) in reach.iter().enumerate() {
            if count != 1 {
                return Err(format!(
                    "{count} paths from {src} to {dest}, want exactly 1"
                ));
            }
        }
    }
    // 3. pred is the reverse adjacency of succ.
    for level in 0..ell {
        let mut fwd: Vec<Vec<usize>> = vec![Vec::new(); w];
        for idx in 0..w {
            for digit in 0..d {
                fwd[lv.succ(level, idx, digit)].push(idx);
            }
        }
        for (idx, fwd_preds) in fwd.iter_mut().enumerate() {
            let mut back: Vec<usize> = (0..d).map(|g| lv.pred(level, idx, g)).collect();
            back.sort_unstable();
            fwd_preds.sort_unstable();
            if back != *fwd_preds {
                return Err(format!(
                    "pred mismatch at level {level}, node {idx}: {back:?} vs {fwd_preds:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Radix-r butterfly (indirect r-ary cube) with `k` dimensions:
/// `width = r^k`, `levels = k`, `degree = r`. Taking `digit` at level `j`
/// sets base-r digit `j` of the row index to `digit`.
///
/// With `r = 2` this is the classical butterfly Ranade emulates on; with
/// `r = k` it is a network in the paper's `ℓ = O(d)` regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RadixButterfly {
    radix: Divisor,
    dims: usize,
    width: usize,
    /// r^j for j in 0..=k, precomputed (1 beyond k) — as [`Divisor`]s:
    /// every routed hop extracts a digit.
    pow: [Divisor; 32],
}

impl RadixButterfly {
    /// Construct; panics if `r^k` overflows usize or `k > 31`.
    pub fn new(radix: usize, dims: usize) -> Self {
        assert!(radix >= 2, "radix must be >= 2");
        assert!((1..32).contains(&dims), "dims out of range");
        let mut pow = [Divisor::new(1); 32];
        for j in 1..=dims {
            pow[j] = Divisor::new(
                pow[j - 1]
                    .get()
                    .checked_mul(radix)
                    .expect("radix^dims overflows usize"),
            );
        }
        RadixButterfly {
            radix: Divisor::new(radix),
            dims,
            width: pow[dims].get(),
            pow,
        }
    }

    #[inline]
    fn digit_of(&self, idx: usize, j: usize) -> usize {
        self.radix.rem(self.pow[j].div(idx))
    }
}

impl Leveled for RadixButterfly {
    fn levels(&self) -> usize {
        self.dims
    }
    fn width(&self) -> usize {
        self.width
    }
    fn degree(&self) -> usize {
        self.radix.get()
    }
    #[inline]
    fn succ(&self, level: usize, idx: usize, digit: usize) -> usize {
        debug_assert!(level < self.dims && digit < self.radix.get());
        // Setting digit `level`: wrapping via isize would be UB-free but
        // convoluted; compute directly.
        let old = self.digit_of(idx, level);
        idx - old * self.pow[level].get() + digit * self.pow[level].get()
    }
    #[inline]
    fn digit_toward(&self, level: usize, _idx: usize, dest: usize) -> usize {
        self.digit_of(dest, level)
    }
    #[inline]
    fn pred(&self, level: usize, idx: usize, digit: usize) -> usize {
        // succ at a level is an involution family: the in-neighbors of idx
        // are exactly the nodes with any digit value at position `level`.
        let old = self.digit_of(idx, level);
        idx - old * self.pow[level].get() + digit * self.pow[level].get()
    }
    fn name(&self) -> String {
        format!("butterfly(r={},k={})", self.radix.get(), self.dims)
    }
}

/// The d-way shuffle unrolled into a leveled network: `width = dⁿ`,
/// `levels = n`, `degree = d`. One step maps node `u` (digits
/// `d_n … d_1`) to `t·d^{n-1} + ⌊u/d⌋` — shift right, insert new top digit
/// `t`. After n steps every original digit has been replaced, so the path
/// to any destination is unique (paper §2.3.5, Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnrolledShuffle {
    d: Divisor,
    n: usize,
    width: usize,
    top: Divisor, // d^(n-1)
    /// d^j for j in 0..n (1 beyond), as [`Divisor`]s: the digit a hop
    /// at level j inserts is `dest / d^j % d`.
    pow: [Divisor; 64],
}

impl UnrolledShuffle {
    /// Construct; panics on overflow.
    pub fn new(d: usize, n: usize) -> Self {
        assert!(d >= 2 && n >= 1);
        // 64 entries are enough: d ≥ 2, so the overflow check below
        // fires within the first 64 rounds whenever n > 63.
        let mut pow = [Divisor::new(1); 64];
        let mut width = 1usize;
        for slot in pow.iter_mut().take(n) {
            *slot = Divisor::new(width);
            width = width.checked_mul(d).expect("d^n overflows usize");
        }
        UnrolledShuffle {
            d: Divisor::new(d),
            n,
            width,
            top: Divisor::new(width / d),
            pow,
        }
    }

    /// The n-way shuffle (d = n) of the paper's headline result.
    pub fn n_way(n: usize) -> Self {
        Self::new(n, n)
    }
}

impl Leveled for UnrolledShuffle {
    fn levels(&self) -> usize {
        self.n
    }
    fn width(&self) -> usize {
        self.width
    }
    fn degree(&self) -> usize {
        self.d.get()
    }
    #[inline]
    fn succ(&self, _level: usize, idx: usize, digit: usize) -> usize {
        debug_assert!(digit < self.d.get());
        digit * self.top.get() + self.d.div(idx)
    }
    #[inline]
    fn digit_toward(&self, level: usize, _idx: usize, dest: usize) -> usize {
        // The digit chosen at level j ends up as base-d digit j of dest.
        self.d.rem(self.pow[level].div(dest))
    }
    #[inline]
    fn pred(&self, _level: usize, idx: usize, digit: usize) -> usize {
        // idx = t*top + u/d  =>  u = (idx mod top)*d + digit
        self.top.rem(idx) * self.d.get() + digit
    }
    fn name(&self) -> String {
        format!("shuffle-leveled(d={},n={})", self.d.get(), self.n)
    }
}

/// Direction of the [`LeveledNet`] adapter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Links from column k to k+1 (request phase).
    Forward,
    /// Links from column k+1 to k (reply phase).
    Backward,
}

/// Adapter exposing a [`Leveled`] instance as a flat [`Network`]:
/// node id = `column * width + idx` with columns `0..=levels`.
pub struct LeveledNet<L> {
    lv: L,
    dir: Direction,
    /// `lv.width()`, as the divisor [`split`](Self::split) uses per hop.
    width: Divisor,
}

impl<L: Leveled> LeveledNet<L> {
    fn new(lv: L, dir: Direction) -> Self {
        let width = Divisor::new(lv.width());
        LeveledNet { lv, dir, width }
    }

    /// Forward (request-phase) view.
    pub fn forward(lv: L) -> Self {
        Self::new(lv, Direction::Forward)
    }

    /// Backward (reply-phase) view.
    pub fn backward(lv: L) -> Self {
        Self::new(lv, Direction::Backward)
    }

    /// The underlying leveled structure.
    pub fn leveled(&self) -> &L {
        &self.lv
    }

    /// Flat node id of `(column, idx)`. Node ids are **column-major**
    /// (`column * width + idx`) — a public contract: `lnpram-shard`'s
    /// `LevelCut` partitioner aligns shard boundaries to multiples of
    /// `width` so cuts fall between consecutive columns.
    pub fn node_id(&self, column: usize, idx: usize) -> usize {
        debug_assert!(column <= self.lv.levels() && idx < self.lv.width());
        column * self.width.get() + idx
    }

    /// Inverse of [`Self::node_id`].
    #[inline]
    pub fn split(&self, node: usize) -> (usize, usize) {
        self.width.div_rem(node)
    }
}

impl<L: Leveled> Network for LeveledNet<L> {
    fn num_nodes(&self) -> usize {
        (self.lv.levels() + 1) * self.lv.width()
    }

    fn out_degree(&self, node: usize) -> usize {
        let (col, _) = self.split(node);
        match self.dir {
            Direction::Forward => {
                if col < self.lv.levels() {
                    self.lv.degree()
                } else {
                    0
                }
            }
            Direction::Backward => {
                if col > 0 {
                    self.lv.degree()
                } else {
                    0
                }
            }
        }
    }

    fn neighbor(&self, node: usize, port: usize) -> usize {
        let (col, idx) = self.split(node);
        match self.dir {
            Direction::Forward => self.node_id(col + 1, self.lv.succ(col, idx, port)),
            Direction::Backward => self.node_id(col - 1, self.lv.pred(col - 1, idx, port)),
        }
    }

    fn name(&self) -> String {
        let d = match self.dir {
            Direction::Forward => "fwd",
            Direction::Backward => "bwd",
        };
        format!("{}[{}]", self.lv.name(), d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{audit, bfs_distances};

    #[test]
    fn butterfly_small_audit() {
        for (r, k) in [(2usize, 2usize), (2, 4), (3, 2), (4, 2), (3, 3)] {
            let b = RadixButterfly::new(r, k);
            assert_eq!(b.width(), r.pow(k as u32));
            audit_unique_paths(&b).unwrap_or_else(|e| panic!("butterfly r={r} k={k}: {e}"));
        }
    }

    #[test]
    fn shuffle_small_audit() {
        for (d, n) in [(2usize, 2usize), (2, 3), (3, 2), (3, 3), (4, 2)] {
            let s = UnrolledShuffle::new(d, n);
            audit_unique_paths(&s).unwrap_or_else(|e| panic!("shuffle d={d} n={n}: {e}"));
        }
    }

    #[test]
    #[should_panic(expected = "d^n overflows usize")]
    fn shuffle_wider_than_the_digit_table_is_refused() {
        UnrolledShuffle::new(2, 70);
    }

    #[test]
    fn n_way_shuffle_paper_figure4() {
        // Figure 4: n = 2 — 4 nodes, unique path of length 2 between all.
        let s = UnrolledShuffle::n_way(2);
        assert_eq!(s.width(), 4);
        assert_eq!(s.levels(), 2);
        assert_eq!(s.degree(), 2);
        audit_unique_paths(&s).unwrap();
        // Node d2 d1 = "10" (=2) connects to l·2 + 1 for l∈{0,1}: {1, 3}.
        let succs: Vec<usize> = (0..2).map(|t| s.succ(0, 2, t)).collect();
        assert_eq!(succs, vec![1, 3]);
    }

    #[test]
    fn unique_path_endpoints() {
        let b = RadixButterfly::new(2, 5);
        for src in [0usize, 7, 31] {
            for dest in [0usize, 13, 31] {
                let p = b.unique_path(src, dest);
                assert_eq!(p.len(), 6);
                assert_eq!(p[0], src);
                assert_eq!(*p.last().unwrap(), dest);
            }
        }
    }

    #[test]
    fn leveled_net_forward_structure() {
        let b = RadixButterfly::new(2, 3);
        let net = LeveledNet::forward(b);
        let rep = audit(&net);
        assert_eq!(rep.nodes, 4 * 8);
        // Forward-only network: last column has no out links; not symmetric.
        assert!(!rep.symmetric);
        assert_eq!(rep.links, 3 * 8 * 2);
        // From (0, src), every column-3 node is at distance exactly 3.
        let dist = bfs_distances(&net, net.node_id(0, 0));
        for idx in 0..8 {
            assert_eq!(dist[net.node_id(3, idx)], 3);
        }
    }

    #[test]
    fn leveled_net_backward_mirrors_forward() {
        let s = UnrolledShuffle::new(3, 2);
        let fwd = LeveledNet::forward(s);
        let bwd = LeveledNet::backward(s);
        // Every forward edge (u -> v) appears as backward edge (v -> u).
        for node in 0..fwd.num_nodes() {
            for p in 0..fwd.out_degree(node) {
                let v = fwd.neighbor(node, p);
                assert!(
                    (0..bwd.out_degree(v)).any(|q| bwd.neighbor(v, q) == node),
                    "missing reverse of {node}->{v}"
                );
            }
        }
        assert_eq!(fwd.num_links(), bwd.num_links());
    }

    #[test]
    fn digit_toward_is_destination_digit() {
        let s = UnrolledShuffle::new(4, 3);
        // digit_toward must reconstruct dest base-4 digits lowest-first.
        let dest = 2 + 3 * 4 + 16;
        assert_eq!(s.digit_toward(0, 99, dest), 2);
        assert_eq!(s.digit_toward(1, 99, dest), 3);
        assert_eq!(s.digit_toward(2, 99, dest), 1);
    }

    #[test]
    fn butterfly_succ_is_set_digit() {
        let b = RadixButterfly::new(3, 3);
        // idx = digits (z y x) base 3; setting digit 1 (y) of 0 to 2 = 6.
        assert_eq!(b.succ(1, 0, 2), 6);
        assert_eq!(b.succ(0, 26, 0), 24);
        // Self-loop allowed: setting a digit to its current value.
        assert_eq!(b.succ(2, 5, 0), 5);
    }
}
