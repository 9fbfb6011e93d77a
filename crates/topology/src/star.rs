//! The n-star graph (paper §2.3.4, Definitions 2.4–2.5).
//!
//! Nodes are the `n!` permutations of `n` symbols; node `u` is adjacent to
//! `SWAP_j(u)` for every `2 ≤ j ≤ n` (exchange the first and j-th symbols).
//! The n-star has degree `n−1` and diameter `⌊3(n−1)/2⌋` — both grow
//! *sub-logarithmically* in the node count `n!`, which is exactly why the
//! paper's Õ(n) emulation beats the Ω(log N!) = Ω(n log n) one would get
//! from treating it as a generic network.
//!
//! Node ids are permutation ranks in the factorial number system
//! (`lnpram_math::perm`), so the simulator can address nodes densely.
//!
//! Two types share the work. [`StarGraph`] is the *definition*: a `Copy`
//! pair of numbers whose methods do the permutation arithmetic afresh on
//! every call. [`StarTable`] is what routers and engines read per hop:
//! the same answers precomputed per node, tested against the definition.

use crate::graph::Network;
use lnpram_math::perm::{Perm, FACTORIALS, MAX_N};

/// The requested alphabet size has no star graph this crate can build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StarSizeError {
    /// The rejected alphabet size.
    pub n: usize,
}

impl std::fmt::Display for StarSizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "star graph needs 2 <= n <= {MAX_N}, got {}", self.n)
    }
}

impl std::error::Error for StarSizeError {}

/// The n-star graph as a port-addressed network: port `p ∈ 0..n−1`
/// applies `SWAP_{p+2}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StarGraph {
    n: usize,
    num_nodes: usize,
}

impl StarGraph {
    /// Construct the n-star, `2 ≤ n ≤ 13`.
    ///
    /// # Panics
    /// If `n` is outside that range; [`Self::try_new`] returns the error
    /// instead.
    pub fn new(n: usize) -> Self {
        Self::try_new(n).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Construct the n-star, or say why not: `n` must satisfy
    /// `2 ≤ n ≤ MAX_N` (one symbol has no SWAP edge; the factorial
    /// table behind the node ids ends at `MAX_N!`).
    pub fn try_new(n: usize) -> Result<Self, StarSizeError> {
        if !(2..=MAX_N).contains(&n) {
            return Err(StarSizeError { n });
        }
        Ok(StarGraph {
            n,
            num_nodes: FACTORIALS[n] as usize,
        })
    }

    /// Alphabet size n.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Diameter `⌊3(n−1)/2⌋` (Akers–Harel–Krishnamurthy).
    pub fn diameter(&self) -> usize {
        3 * (self.n - 1) / 2
    }

    /// The permutation label of a node id.
    pub fn perm_of(&self, node: usize) -> Perm {
        Perm::unrank(self.n, node)
    }

    /// The node id of a permutation label.
    pub fn node_of(&self, p: &Perm) -> usize {
        debug_assert_eq!(p.n(), self.n);
        p.rank()
    }

    /// Exact distance between two nodes (via the cycle-structure formula).
    pub fn distance(&self, u: usize, v: usize) -> usize {
        if u == v {
            return 0;
        }
        // dist(u, v) = dist(v⁻¹∘u, id): relabel so that v becomes identity.
        let rel = self.perm_of(v).inverse().compose(&self.perm_of(u));
        rel.star_distance_to_identity()
    }

    /// The canonical oblivious route from `u` to `v` as a sequence of ports.
    ///
    /// This is the greedy cycle-following algorithm from Akers &
    /// Krishnamurthy \[2\]: repeatedly, if the front symbol is displaced send
    /// it home (`SWAP` to its home position); otherwise open the
    /// lowest-indexed unfinished cycle. The route depends only on the pair
    /// `(u, v)` — an *oblivious* path — and its length equals the exact
    /// distance, hence is at most the diameter.
    pub fn canonical_route(&self, u: usize, v: usize) -> Vec<usize> {
        let target = self.perm_of(v);
        let target_inv = target.inverse();
        // m = target⁻¹ ∘ current; route sorts m to the identity.
        let mut m = target_inv.compose(&self.perm_of(u));
        let mut ports = Vec::new();
        loop {
            let front = m.symbols()[0] as usize;
            if front != 0 {
                // Send the front symbol to its home position front+1 (1-based).
                let j = front + 1;
                m = m.swap(j);
                ports.push(j - 2);
            } else {
                // Front is home; find the lowest displaced position to open
                // its cycle, or stop if sorted.
                match (1..self.n).find(|&i| m.symbols()[i] as usize != i) {
                    Some(i) => {
                        let j = i + 1; // 1-based position
                        m = m.swap(j);
                        ports.push(j - 2);
                    }
                    None => break,
                }
            }
        }
        ports
    }

    /// First hop of the canonical route (`None` when already there);
    /// consistent with [`Self::canonical_route`] because the greedy rule
    /// is memoryless. Routers read [`StarTable::canonical_next_port`].
    pub fn canonical_next_port(&self, u: usize, v: usize) -> Option<usize> {
        if u == v {
            return None;
        }
        let m = self.perm_of(v).inverse().compose(&self.perm_of(u));
        let front = m.symbols()[0] as usize;
        let j = if front != 0 {
            front + 1
        } else {
            (1..self.n)
                .find(|&i| m.symbols()[i] as usize != i)
                .expect("m != identity")
                + 1
        };
        Some(j - 2)
    }

    /// Walk a port sequence from `u`, returning the node visited after each
    /// hop (excluding `u` itself).
    pub fn walk(&self, u: usize, ports: &[usize]) -> Vec<usize> {
        let mut out = Vec::with_capacity(ports.len());
        let mut cur = u;
        for &p in ports {
            cur = self.neighbor(cur, p);
            out.push(cur);
        }
        out
    }

    /// The i-th stage subgraph id of a node: the tuple of its last `i`
    /// symbols (Definition 2.6). Nodes with equal `stage_id(i)` lie in the
    /// same `(n−i)`-star `Gⁱ`.
    pub fn stage_id(&self, node: usize, i: usize) -> Vec<u8> {
        assert!(i < self.n);
        let p = self.perm_of(node);
        p.symbols()[self.n - i..].to_vec()
    }
}

impl Network for StarGraph {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn out_degree(&self, _node: usize) -> usize {
        self.n - 1
    }

    fn neighbor(&self, node: usize, port: usize) -> usize {
        debug_assert!(port < self.n - 1);
        self.perm_of(node).swap(port + 2).rank()
    }

    fn name(&self) -> String {
        format!("star({})", self.n)
    }

    /// SWAP edges are involutions, so the only port that can lead to
    /// `to` is the one that brings `to`'s front symbol to the front:
    /// one position lookup and one comparison, not `n − 1` neighbours.
    fn port_to(&self, from: usize, to: usize) -> Option<usize> {
        let (f, t) = (self.perm_of(from), self.perm_of(to));
        let j = f.position_of(t.symbols()[0]);
        (j >= 2 && f.swap(j) == t).then(|| j - 2)
    }
}

/// The n-star with every per-hop question answered by array reads.
///
/// Built once per star and shared by the router, the emulator's
/// protocols and the engine's link build. It holds, per node, the `n`
/// symbols of its label, the `n` entries of the label's inverse and its
/// `n − 1` neighbour ids: `n!·(3n − 1)` entries, each neighbour id one
/// O(n) [`Perm::rank`]. There is deliberately no `n! × n!` next-hop
/// matrix: [`Self::canonical_next_port`] needs only
/// `inverse[v][label[u][i]]` for at most `n` positions `i`, while the
/// matrix is quadratic in the node count (1.6 G entries on the 8-star)
/// and every entry costs a next-port computation to fill.
#[derive(Debug, Clone)]
pub struct StarTable {
    star: StarGraph,
    /// Label of node `u` at `u*n .. (u+1)*n`.
    labels: Vec<u8>,
    /// Inverse of node `u`'s label (position of each symbol), same layout.
    inverses: Vec<u8>,
    /// Neighbour of node `u` on port `p` at `u*(n−1) + p`.
    neighbors: Vec<u32>,
}

impl StarTable {
    /// Tabulate `star`.
    ///
    /// # Panics
    /// If the star has more than `u32::MAX` nodes (`n = 13`): packets
    /// address nodes by `u32`, so no engine can be built over it either.
    pub fn new(star: StarGraph) -> Self {
        let n = star.n;
        let nodes = star.num_nodes;
        assert!(
            u32::try_from(nodes).is_ok(),
            "star({n}) has {nodes} nodes; node ids must fit in u32"
        );
        let mut labels = Vec::with_capacity(nodes * n);
        let mut inverses = Vec::with_capacity(nodes * n);
        let mut neighbors = Vec::with_capacity(nodes * (n - 1));
        for u in 0..nodes {
            let p = star.perm_of(u);
            labels.extend_from_slice(p.symbols());
            inverses.extend_from_slice(p.inverse().symbols());
            neighbors.extend((2..=n).map(|j| p.swap(j).rank() as u32));
        }
        StarTable {
            star,
            labels,
            inverses,
            neighbors,
        }
    }

    /// The star graph this table describes.
    pub fn star(&self) -> &StarGraph {
        &self.star
    }

    #[inline]
    fn label(&self, node: usize) -> &[u8] {
        &self.labels[node * self.star.n..][..self.star.n]
    }

    #[inline]
    fn inverse(&self, node: usize) -> &[u8] {
        &self.inverses[node * self.star.n..][..self.star.n]
    }

    /// [`StarGraph::canonical_next_port`] without the arithmetic:
    /// `m = v⁻¹ ∘ u` is read symbol by symbol, and only as far as the
    /// greedy rule looks.
    #[inline]
    pub fn canonical_next_port(&self, u: usize, v: usize) -> Option<usize> {
        let (label, inv) = (self.label(u), self.inverse(v));
        let front = inv[label[0] as usize] as usize;
        if front != 0 {
            // Send the front symbol home: SWAP_{front+1}, port front − 1.
            return Some(front - 1);
        }
        // Front is home: open the lowest displaced position, if any.
        (1..self.star.n)
            .find(|&i| inv[label[i] as usize] as usize != i)
            .map(|i| i - 1)
    }
}

impl Network for StarTable {
    fn num_nodes(&self) -> usize {
        self.star.num_nodes
    }

    fn out_degree(&self, _node: usize) -> usize {
        self.star.n - 1
    }

    fn neighbor(&self, node: usize, port: usize) -> usize {
        debug_assert!(port < self.star.n - 1);
        self.neighbors[node * (self.star.n - 1) + port] as usize
    }

    fn name(&self) -> String {
        self.star.name()
    }

    /// See [`StarGraph`]'s `port_to`: the candidate port is where `to`'s
    /// front symbol sits in `from`.
    fn port_to(&self, from: usize, to: usize) -> Option<usize> {
        let i = self.inverse(from)[self.label(to)[0] as usize] as usize;
        (i >= 1 && self.neighbor(from, i - 1) == to).then(|| i - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{audit, bfs_distances};
    use lnpram_math::rng::SeedSeq;
    use proptest::prelude::*;

    #[test]
    fn three_star_matches_paper_figure2a() {
        // Figure 2(a): the 3-star is a 6-cycle.
        let s = StarGraph::new(3);
        let rep = audit(&s);
        assert_eq!(rep.nodes, 6);
        assert_eq!(rep.max_degree, 2);
        assert_eq!(rep.diameter, Some(3));
        assert!(rep.symmetric);
    }

    #[test]
    fn four_star_audit() {
        // n=4: 24 nodes, degree 3, diameter 4 (paper Figure 2(b)).
        let s = StarGraph::new(4);
        let rep = audit(&s);
        assert_eq!(rep.nodes, 24);
        assert_eq!(rep.max_degree, 3);
        assert_eq!(rep.diameter, Some(4));
        assert!(rep.symmetric);
    }

    #[test]
    fn five_star_diameter() {
        let s = StarGraph::new(5);
        assert_eq!(crate::graph::diameter(&s), Some(6));
        assert_eq!(s.diameter(), 6);
    }

    #[test]
    fn swap_edges_are_involutions() {
        let s = StarGraph::new(5);
        for node in [0usize, 17, 63, 119] {
            for port in 0..4 {
                let w = s.neighbor(node, port);
                assert_ne!(w, node);
                assert_eq!(s.neighbor(w, port), node);
            }
        }
    }

    #[test]
    fn distance_agrees_with_bfs() {
        for n in [3usize, 4, 5] {
            let s = StarGraph::new(n);
            for src in 0..s.num_nodes() {
                let bfs = bfs_distances(&s, src);
                for (dest, &d) in bfs.iter().enumerate() {
                    assert_eq!(s.distance(dest, src), d, "n={n} src={src} dest={dest}");
                    assert_eq!(s.distance(src, dest), d, "symmetry");
                }
            }
        }
    }

    #[test]
    fn canonical_route_reaches_and_is_shortest() {
        for n in [3usize, 4, 5] {
            let s = StarGraph::new(n);
            let mut rng = SeedSeq::new(9).child(n as u64).rng();
            for _ in 0..200 {
                let u = rng.gen_range(0..s.num_nodes());
                let v = rng.gen_range(0..s.num_nodes());
                let route = s.canonical_route(u, v);
                let visits = s.walk(u, &route);
                let arrived = visits.last().copied().unwrap_or(u);
                assert_eq!(arrived, v, "route must reach destination");
                assert_eq!(route.len(), s.distance(u, v), "route must be shortest");
            }
        }
    }

    #[test]
    fn next_port_agrees_with_full_route() {
        let s = StarGraph::new(5);
        let mut rng = SeedSeq::new(21).rng();
        for _ in 0..200 {
            let u = rng.gen_range(0..s.num_nodes());
            let v = rng.gen_range(0..s.num_nodes());
            if u == v {
                assert_eq!(s.canonical_next_port(u, v), None);
            } else {
                assert_eq!(
                    s.canonical_next_port(u, v),
                    Some(s.canonical_route(u, v)[0])
                );
            }
        }
    }

    #[test]
    fn try_new_rejects_sizes_without_a_star() {
        for n in [0usize, 1, MAX_N + 1, 14, usize::MAX] {
            assert_eq!(StarGraph::try_new(n), Err(StarSizeError { n }));
        }
        for n in 2..=MAX_N {
            let s = StarGraph::try_new(n).expect("supported size");
            assert_eq!(s.num_nodes(), (1..=n).product::<usize>());
        }
        let msg = StarGraph::try_new(14).unwrap_err().to_string();
        assert_eq!(msg, "star graph needs 2 <= n <= 13, got 14");
    }

    #[test]
    #[should_panic(expected = "star graph needs 2 <= n <= 13, got 1")]
    fn new_panics_where_try_new_errs() {
        StarGraph::new(1);
    }

    /// Table and arithmetic answers for the pair `(u, v)` against each
    /// other, and both `port_to`s against the trait's default (a scan
    /// of `u`'s neighbours, computed by the caller once per `u`).
    fn assert_table_agrees(s: &StarGraph, t: &StarTable, u: usize, nbrs: &[usize], v: usize) {
        assert_eq!(
            t.canonical_next_port(u, v),
            s.canonical_next_port(u, v),
            "next port {u}->{v} on {}",
            s.name()
        );
        let want = nbrs.iter().position(|&w| w == v);
        assert_eq!(s.port_to(u, v), want, "arithmetic port_to {u}->{v}");
        assert_eq!(t.port_to(u, v), want, "table port_to {u}->{v}");
    }

    fn neighbors_of(s: &StarGraph, u: usize) -> Vec<usize> {
        (0..s.out_degree(u)).map(|p| s.neighbor(u, p)).collect()
    }

    #[test]
    fn table_agrees_with_definition_exhaustively() {
        for n in 2..=6 {
            let s = StarGraph::new(n);
            let t = StarTable::new(s);
            assert_eq!(t.star(), &s);
            assert_eq!(t.num_nodes(), s.num_nodes());
            assert_eq!(t.name(), s.name());
            for u in 0..s.num_nodes() {
                assert_eq!(t.out_degree(u), s.out_degree(u));
                let nbrs = neighbors_of(&s, u);
                for (p, &w) in nbrs.iter().enumerate() {
                    assert_eq!(t.neighbor(u, p), w, "n={n} u={u} p={p}");
                }
                for v in 0..s.num_nodes() {
                    assert_table_agrees(&s, &t, u, &nbrs, v);
                }
            }
        }
    }

    #[test]
    fn table_agrees_with_definition_on_random_pairs_of_the_7_star() {
        let s = StarGraph::new(7);
        let t = StarTable::new(s);
        let mut rng = SeedSeq::new(77).rng();
        for _ in 0..2000 {
            let u = rng.gen_range(0..s.num_nodes());
            let v = rng.gen_range(0..s.num_nodes());
            let nbrs = neighbors_of(&s, u);
            assert_table_agrees(&s, &t, u, &nbrs, v);
            for (p, &w) in nbrs.iter().enumerate() {
                assert_eq!(t.neighbor(u, p), w);
                assert_table_agrees(&s, &t, u, &nbrs, w); // an actual edge
            }
            assert_table_agrees(&s, &t, u, &nbrs, u);
        }
    }

    #[test]
    fn table_walks_the_canonical_route() {
        // Following the table hop by hop reproduces `canonical_route`.
        let s = StarGraph::new(5);
        let t = StarTable::new(s);
        for (u, v) in [(0usize, 119usize), (17, 63), (101, 4), (55, 55)] {
            let mut cur = u;
            let mut ports = Vec::new();
            while let Some(p) = t.canonical_next_port(cur, v) {
                ports.push(p);
                cur = t.neighbor(cur, p);
            }
            assert_eq!(cur, v);
            assert_eq!(ports, s.canonical_route(u, v));
        }
    }

    #[test]
    fn paper_critical_point_example() {
        // Figure 2(b) discussion: BACD is a critical point of DACB at stage 1
        // — they differ by SWAP_4 and lie in different G¹ subgraphs.
        // Symbols: A=0, B=1, C=2, D=3.
        let s = StarGraph::new(4);
        let bacd = Perm::identity(4).swap(2);
        let dacb = bacd.swap(4);
        assert_eq!(
            (bacd.symbols(), dacb.symbols()),
            (&[1, 0, 2, 3][..], &[3, 0, 2, 1][..])
        );
        assert_ne!(
            s.stage_id(s.node_of(&bacd), 1),
            s.stage_id(s.node_of(&dacb), 1)
        );
    }

    #[test]
    fn stage_subgraphs_partition() {
        // The G¹ subgraphs of the 4-star partition it into 4 copies of the
        // 3-star (Definition 2.6).
        let s = StarGraph::new(4);
        let mut by_stage: std::collections::BTreeMap<Vec<u8>, usize> = Default::default();
        for v in 0..s.num_nodes() {
            *by_stage.entry(s.stage_id(v, 1)).or_default() += 1;
        }
        assert_eq!(by_stage.len(), 4);
        assert!(by_stage.values().all(|&c| c == 6));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_route_length_at_most_diameter(seed: u64, n in 3usize..=7) {
            let s = StarGraph::new(n);
            let mut rng = SeedSeq::new(seed).rng();
            let u = rng.gen_range(0..s.num_nodes());
            let v = rng.gen_range(0..s.num_nodes());
            prop_assert!(s.canonical_route(u, v).len() <= s.diameter());
        }

        #[test]
        fn prop_route_is_a_valid_walk(seed: u64, n in 3usize..=6) {
            let s = StarGraph::new(n);
            let mut rng = SeedSeq::new(seed).rng();
            let u = rng.gen_range(0..s.num_nodes());
            let v = rng.gen_range(0..s.num_nodes());
            let route = s.canonical_route(u, v);
            // every port must be in range; consecutive hops adjacent
            let mut cur = u;
            for &p in &route {
                prop_assert!(p < s.out_degree(cur));
                cur = s.neighbor(cur, p);
            }
            prop_assert_eq!(cur, v);
        }
    }
}
