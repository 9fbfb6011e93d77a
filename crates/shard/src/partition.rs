//! Network partitioning: node → shard assignment.
//!
//! A [`ShardPlan`] assigns every node of a [`Network`] to one of `k`
//! shards. The shard owning a node owns that node's *out-link queues*;
//! a directed link whose head lives in another shard is a **boundary
//! link** — its packets are handed to a node of another shard by the
//! central process phase of [`crate::ShardedEngine`].
//!
//! A shard is always an **ascending node-id range**: `node_shard` is
//! non-decreasing, checked once in [`ShardPlan::new`]. CSR link ids are
//! node-major, so the shards' link-id ranges are disjoint and ascending
//! too, and the shards' arrivals concatenate into the serial engine's
//! arrival order with no merge. The process phase is central, so the size of the
//! cut never enters the cost; what a strategy chooses is only where the
//! range boundaries fall:
//!
//! * [`ShardPlan::contiguous`] — balanced ranges with no alignment; what
//!   [`crate::AnyEngine::new`] uses for networks with no exploitable
//!   index structure (star graphs, hypercubes, arbitrary [`Network`]
//!   implementations).
//! * [`LevelCut`] — bands of whole columns for leveled networks (node id
//!   = `column * width + idx`), so cuts fall only between consecutive
//!   columns. On an ℓ-level network a packet crosses at most `k − 1`
//!   boundaries over its whole route.
//! * [`RowBlock`] — bands of whole rows for the row-major mesh; only the
//!   vertical links between adjacent bands are cut.

use lnpram_topology::Network;

/// Why [`ShardPlan::new`] refused an assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// `k == 0`: a plan needs at least one shard.
    NoShards,
    /// `node` is assigned to `shard`, but valid shard ids are `0..k`.
    ShardOutOfRange {
        /// The offending node.
        node: usize,
        /// The shard id it was given.
        shard: u32,
        /// The plan's shard count.
        k: usize,
    },
    /// `node` has a lower shard id than `node - 1`: the shards are not
    /// ascending node-id ranges.
    NotContiguous {
        /// The first node whose shard id decreases.
        node: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            PlanError::NoShards => f.write_str("a plan needs at least one shard"),
            PlanError::ShardOutOfRange { node, shard, k } => {
                write!(f, "node {node} is assigned to shard {shard}, but k = {k}")
            }
            PlanError::NotContiguous { node } => write!(
                f,
                "node {node} has a lower shard id than node {}: shards must be ascending \
                 node-id ranges",
                node - 1
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// A node → shard assignment for one network: shard ids are
/// non-decreasing in node id, so every shard is a (possibly empty)
/// contiguous node range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    node_shard: Vec<u32>,
    k: usize,
}

impl ShardPlan {
    /// Wrap an explicit assignment, indexed by node id. Shard ids must
    /// be `< k` and non-decreasing; empty shards are legal.
    pub fn new(node_shard: Vec<u32>, k: usize) -> Result<Self, PlanError> {
        if k == 0 {
            return Err(PlanError::NoShards);
        }
        for (node, &shard) in node_shard.iter().enumerate() {
            if shard as usize >= k {
                return Err(PlanError::ShardOutOfRange { node, shard, k });
            }
            if node > 0 && shard < node_shard[node - 1] {
                return Err(PlanError::NotContiguous { node });
            }
        }
        Ok(ShardPlan { node_shard, k })
    }

    /// Balanced contiguous node ranges (no alignment): shard `s` owns
    /// nodes `[s·n/k, (s+1)·n/k)`.
    pub fn contiguous(n: usize, k: usize) -> Self {
        Self::aligned(n, k, 1)
    }

    /// Contiguous ranges whose boundaries fall on multiples of `align`
    /// (the last unit may be shorter when `align ∤ n`). Units are dealt
    /// to shards as evenly as possible while staying contiguous.
    pub fn aligned(n: usize, k: usize, align: usize) -> Self {
        assert!(k >= 1 && align >= 1);
        let units = n.div_ceil(align).max(1);
        let mut node_shard = Vec::with_capacity(n);
        for v in 0..n {
            let unit = v / align;
            node_shard.push((unit * k / units) as u32);
        }
        ShardPlan { node_shard, k }
    }

    /// Number of shards `k`.
    pub fn shards(&self) -> usize {
        self.k
    }

    /// Number of nodes covered by the plan.
    pub fn num_nodes(&self) -> usize {
        self.node_shard.len()
    }

    /// Shard owning `node`.
    pub fn shard_of(&self, node: usize) -> usize {
        self.node_shard[node] as usize
    }

    /// Nodes per shard (empty shards are legal — `k` may exceed the
    /// node count on tiny networks).
    pub fn shard_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k];
        for &s in &self.node_shard {
            sizes[s as usize] += 1;
        }
        sizes
    }
}

/// A strategy producing a [`ShardPlan`] for a network.
pub trait Partitioner {
    /// Assign every node of `net` to one of `k` shards.
    fn partition<N: Network + ?Sized>(&self, net: &N, k: usize) -> ShardPlan;
}

/// Column-band partitioner for leveled networks: node id is
/// `column * width + idx` (the `LeveledNet` layout), so aligning the cut
/// to multiples of `width` puts every boundary between two consecutive
/// columns — the minimum-surface cut for forward-only traffic.
#[derive(Debug, Clone, Copy)]
pub struct LevelCut {
    width: usize,
}

impl LevelCut {
    /// Partitioner for a leveled network with `width` nodes per column.
    pub fn new(width: usize) -> Self {
        assert!(width >= 1);
        LevelCut { width }
    }
}

impl Partitioner for LevelCut {
    fn partition<N: Network + ?Sized>(&self, net: &N, k: usize) -> ShardPlan {
        ShardPlan::aligned(net.num_nodes(), k, self.width)
    }
}

/// Row-band partitioner for the row-major mesh: cuts aligned to
/// multiples of `cols` fall between mesh rows, so only the vertical
/// links between adjacent bands are boundary links.
#[derive(Debug, Clone, Copy)]
pub struct RowBlock {
    cols: usize,
}

impl RowBlock {
    /// Partitioner for a mesh with `cols` nodes per row.
    pub fn new(cols: usize) -> Self {
        assert!(cols >= 1);
        RowBlock { cols }
    }
}

impl Partitioner for RowBlock {
    fn partition<N: Network + ?Sized>(&self, net: &N, k: usize) -> ShardPlan {
        ShardPlan::aligned(net.num_nodes(), k, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnpram_topology::leveled::{LeveledNet, RadixButterfly};
    use lnpram_topology::Mesh;

    /// Directed links whose tail and head live in different shards.
    fn cut_links<N: Network>(plan: &ShardPlan, net: &N) -> usize {
        (0..net.num_nodes())
            .flat_map(|v| (0..net.out_degree(v)).map(move |p| (v, net.neighbor(v, p))))
            .filter(|&(v, w)| plan.shard_of(v) != plan.shard_of(w))
            .count()
    }

    #[test]
    fn aligned_blocks_are_contiguous_and_balanced() {
        let plan = ShardPlan::aligned(40, 4, 4); // 10 units of 4 nodes
        assert_eq!(plan.shards(), 4);
        let sizes = plan.shard_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 40);
        assert!(sizes.iter().all(|&s| s == 8 || s == 12), "{sizes:?}");
        // Contiguity and alignment: shard id is non-decreasing in node id
        // and constant within each 4-node unit.
        for v in 1..40 {
            assert!(plan.shard_of(v) >= plan.shard_of(v - 1));
            if v % 4 != 0 {
                assert_eq!(plan.shard_of(v), plan.shard_of(v - 1));
            }
        }
    }

    #[test]
    fn more_shards_than_units_leaves_some_empty() {
        let plan = ShardPlan::aligned(6, 7, 2); // 3 units, 7 shards
        let sizes = plan.shard_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 6);
        assert_eq!(sizes.iter().filter(|&&s| s > 0).count(), 3);
    }

    #[test]
    fn level_cut_only_cuts_between_columns() {
        let net = LeveledNet::forward(RadixButterfly::new(2, 4)); // 16 wide, 5 cols
        let plan = LevelCut::new(16).partition(&net, 3);
        // A column band cut severs exactly one column-to-column link layer
        // per boundary: 2 boundaries × width × degree.
        assert_eq!(cut_links(&plan, &net), 2 * 16 * 2);
        let largest = *plan.shard_sizes().iter().max().expect("k >= 1");
        assert!(largest <= 2 * 16, "largest band {largest}");
    }

    #[test]
    fn row_block_cuts_only_vertical_mesh_links() {
        let mesh = Mesh::square(8);
        let plan = RowBlock::new(8).partition(&mesh, 4);
        // 3 boundaries, each cutting 8 south links + 8 north links.
        assert_eq!(cut_links(&plan, &mesh), 3 * 16);
        assert_eq!(plan.shard_sizes(), vec![16; 4]);
    }

    #[test]
    fn explicit_plans_are_what_the_constructors_build() {
        let plan = ShardPlan::new(vec![0, 0, 1, 1, 2, 2], 3).expect("ascending ranges");
        assert_eq!(plan, ShardPlan::contiguous(6, 3));
        // An empty middle shard is still an ascending plan.
        let gap = ShardPlan::new(vec![0, 0, 2, 2], 3).expect("empty shard 1");
        assert_eq!(gap.shard_sizes(), vec![2, 0, 2]);
        // No nodes at all: every shard is empty.
        assert_eq!(ShardPlan::new(Vec::new(), 2).map(|p| p.num_nodes()), Ok(0));
    }

    #[test]
    fn plan_errors_are_typed() {
        assert_eq!(ShardPlan::new(vec![], 0), Err(PlanError::NoShards));
        assert_eq!(
            ShardPlan::new(vec![0, 2], 2),
            Err(PlanError::ShardOutOfRange {
                node: 1,
                shard: 2,
                k: 2
            })
        );
        // Round-robin striping: node 2 drops back to shard 0.
        let err = ShardPlan::new(vec![0, 1, 0, 1], 2).expect_err("striped");
        assert_eq!(err, PlanError::NotContiguous { node: 2 });
        assert!(err.to_string().contains("node 2"), "{err}");
    }

    /// What a caller that treats a bad plan as a bug sees.
    #[test]
    #[should_panic(expected = "ShardOutOfRange")]
    fn plan_rejects_out_of_range() {
        let _ = ShardPlan::new(vec![0, 2], 2).expect("shard ids below k");
    }
}
