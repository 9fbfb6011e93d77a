//! An owned CSR snapshot of any [`Network`]'s link graph.
//!
//! The adaptive router prices *links*, so it needs the whole graph in a
//! flat, index-addressed form: global link ids are `offset(v) + port` in
//! the same CSR order the engine uses for
//! [`Metrics::link_loads`](lnpram_simnet::Metrics), which makes the
//! router's predicted per-link loads directly comparable to the loads
//! the simulation observes. The snapshot also implements [`Network`]
//! itself, so the engine a session builds steps *exactly* the graph the
//! paths were priced on.

use lnpram_topology::Network;

/// A materialized, link-indexed view of a port-addressed network.
///
/// Link `l` is the directed edge from `tail(l)` to `target(l)`; links of
/// node `v` are the contiguous range `first_link(v) .. first_link(v + 1)`
/// in port order — identical to the engine's global link-id scheme.
#[derive(Debug, Clone)]
pub struct LinkGraph {
    base_name: String,
    /// CSR prefix sums: node `v`'s out-links are `offsets[v]..offsets[v+1]`.
    offsets: Vec<u32>,
    /// Head node per link, CSR order.
    targets: Vec<u32>,
    /// Tail node per link (denormalized for O(1) path reconstruction).
    tails: Vec<u32>,
    /// Reverse CSR prefix sums: node `w`'s in-links are
    /// `in_links[in_offsets[w]..in_offsets[w+1]]`.
    in_offsets: Vec<u32>,
    /// Link ids grouped by head node, ascending within a group.
    in_links: Vec<u32>,
}

impl LinkGraph {
    /// Snapshot `net` into CSR form. Node and port numbering — and
    /// therefore global link ids — are preserved verbatim.
    pub fn from_network<N: Network + ?Sized>(net: &N) -> Self {
        let n = net.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        let mut tails = Vec::new();
        offsets.push(0u32);
        for v in 0..n {
            let deg = net.out_degree(v);
            for p in 0..deg {
                targets.push(net.neighbor(v, p) as u32);
                tails.push(v as u32);
            }
            offsets.push(targets.len() as u32);
        }
        // Counting sort of the link ids by head node.
        let mut in_offsets = vec![0u32; n + 1];
        for &w in &targets {
            in_offsets[w as usize + 1] += 1;
        }
        for w in 0..n {
            in_offsets[w + 1] += in_offsets[w];
        }
        let mut next = in_offsets.clone();
        let mut in_links = vec![0u32; targets.len()];
        for (link, &w) in targets.iter().enumerate() {
            in_links[next[w as usize] as usize] = link as u32;
            next[w as usize] += 1;
        }
        LinkGraph {
            base_name: net.name(),
            offsets,
            targets,
            tails,
            in_offsets,
            in_links,
        }
    }

    /// The snapshotted topology's own name (e.g. `mesh(16x16)`).
    pub fn base_name(&self) -> &str {
        &self.base_name
    }

    /// Total directed links.
    pub fn link_count(&self) -> usize {
        self.targets.len()
    }

    /// First global link id of `node` (= the CSR offset).
    pub fn first_link(&self, node: usize) -> u32 {
        self.offsets[node]
    }

    /// Head node of link `link`.
    pub fn target(&self, link: u32) -> u32 {
        self.targets[link as usize]
    }

    /// Tail node of link `link`.
    pub fn tail(&self, link: u32) -> u32 {
        self.tails[link as usize]
    }

    /// Global link ids leaving `node`, in port order.
    pub fn out_links(&self, node: u32) -> std::ops::Range<u32> {
        self.offsets[node as usize]..self.offsets[node as usize + 1]
    }

    /// Global link ids entering `node`, ascending.
    pub fn in_links(&self, node: u32) -> &[u32] {
        let (lo, hi) = (
            self.in_offsets[node as usize],
            self.in_offsets[node as usize + 1],
        );
        &self.in_links[lo as usize..hi as usize]
    }

    /// Can every node reach every other? One forward and one reverse
    /// pass from node 0: `O(nodes + links)`.
    pub fn strongly_connected(&self) -> bool {
        self.spans_from_node_0(false) && self.spans_from_node_0(true)
    }

    /// Does a search from node 0 along out-links (against them if
    /// `reverse`) visit every node?
    fn spans_from_node_0(&self, reverse: bool) -> bool {
        let n = self.num_nodes();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        seen[0] = true;
        let mut stack = vec![0u32];
        let mut reached = 1;
        while let Some(v) = stack.pop() {
            let mut visit = |w: u32| {
                if !std::mem::replace(&mut seen[w as usize], true) {
                    stack.push(w);
                    reached += 1;
                }
            };
            if reverse {
                self.in_links(v).iter().for_each(|&l| visit(self.tail(l)));
            } else {
                self.out_links(v).for_each(|l| visit(self.target(l)));
            }
        }
        reached == n
    }
}

impl Network for LinkGraph {
    fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    fn out_degree(&self, node: usize) -> usize {
        (self.offsets[node + 1] - self.offsets[node]) as usize
    }

    fn neighbor(&self, node: usize, port: usize) -> usize {
        self.targets[self.offsets[node] as usize + port] as usize
    }

    fn name(&self) -> String {
        self.base_name.clone()
    }

    fn num_links(&self) -> usize {
        self.targets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnpram_topology::graph::ExplicitNetwork;
    use lnpram_topology::{DWayShuffle, Mesh};

    #[test]
    fn snapshot_matches_base() {
        let mesh = Mesh::new(4, 4);
        let g = LinkGraph::from_network(&mesh);
        assert_eq!(g.num_nodes(), mesh.num_nodes());
        assert_eq!(g.num_links(), mesh.num_links());
        for v in 0..mesh.num_nodes() {
            assert_eq!(g.out_degree(v), mesh.out_degree(v));
            for p in 0..mesh.out_degree(v) {
                assert_eq!(g.neighbor(v, p), mesh.neighbor(v, p));
                let link = g.first_link(v) + p as u32;
                assert_eq!(g.tail(link) as usize, v);
                assert_eq!(g.target(link) as usize, mesh.neighbor(v, p));
            }
        }
    }

    #[test]
    fn in_links_are_the_out_links_regrouped_by_head() {
        // Directed, with self-loops at the constant words.
        let g = LinkGraph::from_network(&DWayShuffle::new(3, 3));
        let mut seen = vec![false; g.link_count()];
        for w in 0..g.num_nodes() as u32 {
            let ins = g.in_links(w);
            assert!(ins.windows(2).all(|p| p[0] < p[1]), "ascending link ids");
            for &l in ins {
                assert_eq!(g.target(l), w);
                assert!(!std::mem::replace(&mut seen[l as usize], true));
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "every link enters exactly one node"
        );
    }

    #[test]
    fn strong_connectivity_needs_both_directions() {
        // A one-way path 0 → 1 → … → n-1, closed into a ring if `closed`.
        let ring = |n: usize, closed: bool| {
            let adj = (0..n)
                .map(|v| {
                    if closed || v + 1 < n {
                        vec![(v + 1) % n]
                    } else {
                        Vec::new()
                    }
                })
                .collect();
            LinkGraph::from_network(&ExplicitNetwork::new(adj, "one-way"))
        };
        assert!(ring(5, true).strongly_connected());
        // Node 0 reaches everyone, nobody reaches node 0.
        assert!(!ring(5, false).strongly_connected());
        assert!(ring(1, false).strongly_connected());
        assert!(ring(0, false).strongly_connected());
        assert!(LinkGraph::from_network(&DWayShuffle::new(3, 3)).strongly_connected());
        assert!(LinkGraph::from_network(&Mesh::new(4, 4)).strongly_connected());
    }
}
