//! The n×n mesh-connected computer (paper §3.1).
//!
//! A square grid of processors, each joined to its ≤ 4 neighbors by
//! bidirectional links; in one step a processor can perform a local
//! operation and communicate with all of its neighbors (the MIMD model of
//! Valiant–Brebner and Krizanc–Rajasekaran–Tsantilas). Diameter `2n − 2`.

use crate::graph::Network;
use lnpram_math::Divisor;

/// The four mesh directions. Port numbers on a node enumerate the *valid*
/// directions in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Row − 1.
    North,
    /// Column + 1.
    East,
    /// Row + 1.
    South,
    /// Column − 1.
    West,
}

impl Dir {
    /// All four directions in port order.
    pub const ALL: [Dir; 4] = [Dir::North, Dir::East, Dir::South, Dir::West];

    /// The opposite direction.
    pub fn opposite(self) -> Dir {
        match self {
            Dir::North => Dir::South,
            Dir::East => Dir::West,
            Dir::South => Dir::North,
            Dir::West => Dir::East,
        }
    }
}

/// An `rows × cols` mesh. Node id = `row * cols + col`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh {
    rows: usize,
    /// Columns, as the divisor [`coords`](Mesh::coords) uses per hop.
    cols: Divisor,
}

impl Mesh {
    /// A general rectangular mesh.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows >= 1 && cols >= 1);
        Mesh {
            rows,
            cols: Divisor::new(cols),
        }
    }

    /// The paper's square n×n mesh.
    pub fn square(n: usize) -> Self {
        Self::new(n, n)
    }

    /// A 1×n linear array (used by the stage-analysis lemma in §3.4.1).
    pub fn linear(n: usize) -> Self {
        Self::new(1, n)
    }

    /// Rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns.
    pub fn cols(&self) -> usize {
        self.cols.get()
    }

    /// Node id at `(row, col)`. Node ids are **row-major**
    /// (`row * cols + col`) — a public contract: `lnpram-shard`'s
    /// `RowBlock` partitioner aligns shard boundaries to multiples of
    /// `cols` so cuts fall between mesh rows.
    pub fn node_at(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.rows && col < self.cols());
        row * self.cols() + col
    }

    /// `(row, col)` of a node id.
    pub fn coords(&self, node: usize) -> (usize, usize) {
        debug_assert!(node < self.rows * self.cols());
        self.cols.div_rem(node)
    }

    /// The neighbor in direction `dir`, if it exists.
    pub fn step(&self, node: usize, dir: Dir) -> Option<usize> {
        let (r, c) = self.coords(node);
        let (nr, nc) = match dir {
            Dir::North => (r.checked_sub(1)?, c),
            Dir::South => {
                if r + 1 >= self.rows {
                    return None;
                }
                (r + 1, c)
            }
            Dir::East => {
                if c + 1 >= self.cols() {
                    return None;
                }
                (r, c + 1)
            }
            Dir::West => (r, c.checked_sub(1)?),
        };
        Some(self.node_at(nr, nc))
    }

    /// Valid directions out of `node`, in port order.
    pub fn dirs(&self, node: usize) -> impl Iterator<Item = Dir> + '_ {
        Dir::ALL
            .into_iter()
            .filter(move |&d| self.step(node, d).is_some())
    }

    /// Which of North, East, South, West exist at `(r, c)`, in port
    /// order.
    fn links_at(&self, (r, c): (usize, usize)) -> [bool; 4] {
        [r > 0, c + 1 < self.cols(), r + 1 < self.rows, c > 0]
    }

    /// The port corresponding to `dir` at `node`, if that link exists.
    pub fn port_of_dir(&self, node: usize, dir: Dir) -> Option<usize> {
        self.port_at(self.coords(node), dir)
    }

    /// [`Mesh::port_of_dir`] at the node with coordinates `at`, for a
    /// caller that has them: the number of existing directions before
    /// `dir` in port order.
    pub fn port_at(&self, at: (usize, usize), dir: Dir) -> Option<usize> {
        let links = self.links_at(at);
        let d = dir as usize;
        links[d].then(|| links[..d].iter().filter(|&&l| l).count())
    }

    /// The direction of `port` at `node`.
    pub fn dir_of_port(&self, node: usize, port: usize) -> Dir {
        self.dir_at(self.coords(node), port)
    }

    /// [`Mesh::dir_of_port`] at the node with coordinates `at`: the
    /// `port`-th existing direction in port order.
    fn dir_at(&self, at: (usize, usize), port: usize) -> Dir {
        let mut left = port;
        for (dir, exists) in Dir::ALL.into_iter().zip(self.links_at(at)) {
            if exists {
                if left == 0 {
                    return dir;
                }
                left -= 1;
            }
        }
        panic!("port {port} out of range at {at:?}")
    }

    /// Manhattan (= shortest-path) distance.
    pub fn manhattan(&self, u: usize, v: usize) -> usize {
        let (ur, uc) = self.coords(u);
        let (vr, vc) = self.coords(v);
        ur.abs_diff(vr) + uc.abs_diff(vc)
    }

    /// Network diameter `rows + cols − 2`.
    pub fn diameter(&self) -> usize {
        self.rows + self.cols() - 2
    }
}

impl Network for Mesh {
    fn num_nodes(&self) -> usize {
        self.rows * self.cols()
    }

    fn out_degree(&self, node: usize) -> usize {
        let links = self.links_at(self.coords(node));
        links.iter().filter(|&&l| l).count()
    }

    fn neighbor(&self, node: usize, port: usize) -> usize {
        match self.dir_at(self.coords(node), port) {
            Dir::North => node - self.cols(),
            Dir::East => node + 1,
            Dir::South => node + self.cols(),
            Dir::West => node - 1,
        }
    }

    fn name(&self) -> String {
        format!("mesh({}x{})", self.rows, self.cols())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{audit, bfs_distances};
    use proptest::prelude::*;

    #[test]
    fn square_mesh_audit() {
        let m = Mesh::square(4);
        let rep = audit(&m);
        assert_eq!(rep.nodes, 16);
        assert_eq!(rep.max_degree, 4);
        assert_eq!(rep.diameter, Some(6)); // 2n-2
        assert!(rep.symmetric);
        // link count: 2 * (2 * n * (n-1)) directed
        assert_eq!(rep.links, 2 * 2 * 4 * 3);
    }

    #[test]
    fn corner_edge_center_degrees() {
        let m = Mesh::square(3);
        assert_eq!(m.out_degree(m.node_at(0, 0)), 2);
        assert_eq!(m.out_degree(m.node_at(0, 1)), 3);
        assert_eq!(m.out_degree(m.node_at(1, 1)), 4);
    }

    #[test]
    fn manhattan_matches_bfs() {
        let m = Mesh::new(5, 7);
        for src in [0usize, 12, 34] {
            let bfs = bfs_distances(&m, src);
            for (v, &d) in bfs.iter().enumerate() {
                assert_eq!(d, m.manhattan(src, v));
            }
        }
    }

    #[test]
    fn step_and_opposite_roundtrip() {
        let m = Mesh::square(4);
        let v = m.node_at(2, 1);
        for d in Dir::ALL {
            if let Some(w) = m.step(v, d) {
                assert_eq!(m.step(w, d.opposite()), Some(v));
            }
        }
    }

    #[test]
    fn linear_array_is_path() {
        let l = Mesh::linear(6);
        let rep = audit(&l);
        assert_eq!(rep.diameter, Some(5));
        assert_eq!(rep.max_degree, 2);
    }

    /// The O(1) port arithmetic equals enumerating `dirs()`, on every
    /// node of degenerate, thin, odd and full-size meshes.
    #[test]
    fn ports_equal_the_dirs_enumeration() {
        for (rows, cols) in [(1, 1), (1, 7), (7, 1), (3, 5), (32, 32)] {
            let m = Mesh::new(rows, cols);
            for v in 0..m.num_nodes() {
                let dirs: Vec<Dir> = m.dirs(v).collect();
                assert_eq!(m.out_degree(v), dirs.len(), "{rows}x{cols} node {v}");
                for d in Dir::ALL {
                    let want = dirs.iter().position(|&x| x == d);
                    assert_eq!(m.port_of_dir(v, d), want, "{rows}x{cols} node {v} {d:?}");
                    assert_eq!(m.port_at(m.coords(v), d), want);
                }
                for (p, &d) in dirs.iter().enumerate() {
                    assert_eq!(m.dir_of_port(v, p), d, "{rows}x{cols} node {v} port {p}");
                    assert_eq!(Some(m.neighbor(v, p)), m.step(v, d));
                }
            }
        }
    }

    #[test]
    fn port_dir_bijection() {
        let m = Mesh::square(3);
        for v in 0..m.num_nodes() {
            for p in 0..m.out_degree(v) {
                let d = m.dir_of_port(v, p);
                assert_eq!(m.port_of_dir(v, d), Some(p));
            }
        }
    }

    proptest! {
        #[test]
        fn prop_coords_roundtrip(r in 1usize..20, c in 1usize..20, node_frac in 0.0f64..1.0) {
            let m = Mesh::new(r, c);
            let node = ((r * c - 1) as f64 * node_frac) as usize;
            let (row, col) = m.coords(node);
            prop_assert_eq!(m.node_at(row, col), node);
        }

        #[test]
        fn prop_manhattan_triangle_inequality(
            r in 2usize..12, c in 2usize..12, a_f in 0.0f64..1.0, b_f in 0.0f64..1.0, m_f in 0.0f64..1.0
        ) {
            let mesh = Mesh::new(r, c);
            let n = mesh.num_nodes();
            let pick = |f: f64| ((n - 1) as f64 * f) as usize;
            let (a, b, mid) = (pick(a_f), pick(b_f), pick(m_f));
            prop_assert!(mesh.manhattan(a, b) <= mesh.manhattan(a, mid) + mesh.manhattan(mid, b));
            prop_assert_eq!(mesh.manhattan(a, b), mesh.manhattan(b, a));
        }
    }
}
