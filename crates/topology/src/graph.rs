//! The network abstraction and structural audits.
//!
//! A [`Network`] is a directed graph whose out-edges are addressed by
//! *port number* — exactly the view a routing algorithm has of a physical
//! machine ("send this packet out link 3"). All topologies in this crate
//! implement it, and the simulator in `lnpram-simnet` runs against it.

/// A directed, port-addressed interconnection network.
///
/// Nodes are dense `0..num_nodes()`. The out-edges of node `v` are
/// `(v, 0..out_degree(v))`; `neighbor(v, p)` is the head of edge `(v, p)`.
/// Implementations must be *consistent*: the same call always returns the
/// same neighbor (networks are static).
pub trait Network: Sync {
    /// Number of nodes.
    fn num_nodes(&self) -> usize;
    /// Out-degree of `node`.
    fn out_degree(&self, node: usize) -> usize;
    /// The node reached by leaving `node` on `port` (< `out_degree(node)`).
    fn neighbor(&self, node: usize, port: usize) -> usize;
    /// Human-readable name, e.g. `star(4)` or `mesh(16x16)`.
    fn name(&self) -> String;

    /// Total number of directed links.
    fn num_links(&self) -> usize {
        (0..self.num_nodes()).map(|v| self.out_degree(v)).sum()
    }

    /// Maximum out-degree over all nodes.
    fn max_degree(&self) -> usize {
        (0..self.num_nodes())
            .map(|v| self.out_degree(v))
            .max()
            .unwrap_or(0)
    }

    /// The port on `from` that leads to `to`, if any (linear scan).
    fn port_to(&self, from: usize, to: usize) -> Option<usize> {
        (0..self.out_degree(from)).find(|&p| self.neighbor(from, p) == to)
    }
}

/// BFS distances from `src`; `usize::MAX` marks unreachable nodes.
pub fn bfs_distances<N: Network + ?Sized>(net: &N, src: usize) -> Vec<usize> {
    let n = net.num_nodes();
    let mut dist = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[src] = 0;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        for p in 0..net.out_degree(v) {
            let w = net.neighbor(v, p);
            if dist[w] == usize::MAX {
                dist[w] = dist[v] + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Directed eccentricity of `src` (max finite BFS distance); `None` if some
/// node is unreachable.
pub fn eccentricity<N: Network + ?Sized>(net: &N, src: usize) -> Option<usize> {
    let dist = bfs_distances(net, src);
    if dist.contains(&usize::MAX) {
        None
    } else {
        dist.into_iter().max()
    }
}

/// Exact diameter by all-pairs BFS. Quadratic — intended for audits of
/// small instances (tests, figure binaries), not for large networks.
pub fn diameter<N: Network + ?Sized>(net: &N) -> Option<usize> {
    let mut best = 0usize;
    for v in 0..net.num_nodes() {
        best = best.max(eccentricity(net, v)?);
    }
    Some(best)
}

/// Is every node reachable from every node?
pub fn strongly_connected<N: Network + ?Sized>(net: &N) -> bool {
    (0..net.num_nodes()).all(|v| eccentricity(net, v).is_some())
}

/// Check that the network is *undirected in effect*: every link `(u,v)` has
/// a reverse link `(v,u)`. The paper's mesh and star are bidirectional.
pub fn is_symmetric<N: Network + ?Sized>(net: &N) -> bool {
    for v in 0..net.num_nodes() {
        for p in 0..net.out_degree(v) {
            let w = net.neighbor(v, p);
            if net.port_to(w, v).is_none() {
                return false;
            }
        }
    }
    true
}

/// A structural audit report produced by [`audit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Node count.
    pub nodes: usize,
    /// Directed link count.
    pub links: usize,
    /// Maximum out-degree.
    pub max_degree: usize,
    /// Exact diameter (None if not strongly connected).
    pub diameter: Option<usize>,
    /// Whether every link has a reverse link.
    pub symmetric: bool,
}

/// Run the full (quadratic) structural audit.
pub fn audit<N: Network + ?Sized>(net: &N) -> AuditReport {
    AuditReport {
        nodes: net.num_nodes(),
        links: net.num_links(),
        max_degree: net.max_degree(),
        diameter: diameter(net),
        symmetric: is_symmetric(net),
    }
}

/// A tiny explicit adjacency-list network for tests and figures.
#[derive(Debug, Clone)]
pub struct ExplicitNetwork {
    adj: Vec<Vec<usize>>,
    label: String,
}

impl ExplicitNetwork {
    /// Build from adjacency lists.
    pub fn new(adj: Vec<Vec<usize>>, label: impl Into<String>) -> Self {
        let n = adj.len();
        for (v, outs) in adj.iter().enumerate() {
            for &w in outs {
                assert!(w < n, "edge ({v},{w}) out of range");
            }
        }
        ExplicitNetwork {
            adj,
            label: label.into(),
        }
    }

    /// Build an undirected graph from an edge list (adds both directions).
    pub fn undirected(n: usize, edges: &[(usize, usize)], label: impl Into<String>) -> Self {
        let mut adj = vec![Vec::new(); n];
        for &(u, v) in edges {
            adj[u].push(v);
            adj[v].push(u);
        }
        Self::new(adj, label)
    }
}

impl Network for ExplicitNetwork {
    fn num_nodes(&self) -> usize {
        self.adj.len()
    }
    fn out_degree(&self, node: usize) -> usize {
        self.adj[node].len()
    }
    fn neighbor(&self, node: usize, port: usize) -> usize {
        self.adj[node][port]
    }
    fn name(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> ExplicitNetwork {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        ExplicitNetwork::undirected(n, &edges, format!("ring({n})"))
    }

    #[test]
    fn ring_audit() {
        let r = ring(8);
        let a = audit(&r);
        assert_eq!(a.nodes, 8);
        assert_eq!(a.links, 16);
        assert_eq!(a.max_degree, 2);
        assert_eq!(a.diameter, Some(4));
        assert!(a.symmetric);
    }

    #[test]
    fn bfs_on_path() {
        let p = ExplicitNetwork::undirected(4, &[(0, 1), (1, 2), (2, 3)], "path");
        assert_eq!(bfs_distances(&p, 0), vec![0, 1, 2, 3]);
        assert_eq!(eccentricity(&p, 1), Some(2));
    }

    #[test]
    fn disconnected_detected() {
        let g = ExplicitNetwork::new(vec![vec![], vec![]], "two-isolated");
        assert_eq!(diameter(&g), None);
        assert!(!strongly_connected(&g));
    }

    #[test]
    fn directed_asymmetry_detected() {
        let g = ExplicitNetwork::new(vec![vec![1], vec![]], "one-way");
        assert!(!is_symmetric(&g));
    }

    #[test]
    fn port_to_finds_edge() {
        let r = ring(5);
        let p = r.port_to(0, 1).unwrap();
        assert_eq!(r.neighbor(0, p), 1);
        assert_eq!(r.port_to(0, 3), None);
    }
}
