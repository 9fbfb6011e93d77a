//! Renderers that regenerate the paper's figures.
//!
//! The 1991 technical report contains five figures, all structural
//! diagrams. The `figure1` … `figure5` experiments of `reproduce` print
//! these renderings together with the structural audits that verify the
//! properties each figure illustrates.
//!
//! * Figure 1 — a leveled network of ℓ levels and degree d ([`leveled_ascii`]).
//! * Figure 2 — the 3-star and 4-star graphs ([`to_dot`]).
//! * Figure 3 — the logical (leveled) network of the 3-star
//!   ([`star_logical_network`], [`leveled_explicit_ascii`]).
//! * Figure 4 — the n-way shuffle for n = 2 ([`to_dot`]).
//! * Figure 5 — the mesh partitioned into horizontal slices
//!   ([`mesh_slices_ascii`]).

use crate::graph::Network;
use crate::leveled::Leveled;
use crate::star::StarGraph;
use lnpram_math::perm::Perm;

/// Render any [`Network`] as Graphviz DOT. When `undirected` is set, each
/// symmetric pair of links is emitted once as an undirected edge.
pub fn to_dot<N: Network + ?Sized>(
    net: &N,
    undirected: bool,
    label: impl Fn(usize) -> String,
) -> String {
    let mut out = String::new();
    let (kind, arrow) = if undirected {
        ("graph", "--")
    } else {
        ("digraph", "->")
    };
    out.push_str(&format!("{} \"{}\" {{\n", kind, net.name()));
    for v in 0..net.num_nodes() {
        out.push_str(&format!("  n{} [label=\"{}\"];\n", v, label(v)));
    }
    for v in 0..net.num_nodes() {
        for p in 0..net.out_degree(v) {
            let w = net.neighbor(v, p);
            if undirected && w < v {
                continue; // emit each undirected edge once
            }
            if undirected && w == v {
                continue;
            }
            out.push_str(&format!("  n{} {} n{};\n", v, arrow, w));
        }
    }
    out.push_str("}\n");
    out
}

/// DOT for a star graph with paper-style permutation labels (`ABCD`, …).
pub fn star_dot(star: &StarGraph) -> String {
    to_dot(star, true, |v| perm_letters(&star.perm_of(v)))
}

/// Letters rendering of a permutation: 0 ↦ A, 1 ↦ B, … (paper Figure 2).
pub fn perm_letters(p: &Perm) -> String {
    p.symbols().iter().map(|&s| (b'A' + s) as char).collect()
}

/// ASCII schematic of a leveled network (paper Figure 1): columns of
/// nodes with `d` links from each node to the next column. For width ≤ 10
/// the actual link pattern is drawn; otherwise a summary header only.
pub fn leveled_ascii<L: Leveled + ?Sized>(lv: &L) -> String {
    let (w, ell, d) = (lv.width(), lv.levels(), lv.degree());
    let mut out = format!("{}: {} levels, width {}, degree {}\n", lv.name(), ell, w, d);
    out.push_str(&format!(
        "columns: {} (level 1) .. {} (level {})\n",
        "c0", "cL", ell
    ));
    if w > 10 {
        out.push_str("(width > 10: links elided)\n");
        return out;
    }
    for level in 0..ell {
        out.push_str(&format!("level {level} -> {}:\n", level + 1));
        for idx in 0..w {
            let succs: Vec<String> = (0..d).map(|g| lv.succ(level, idx, g).to_string()).collect();
            out.push_str(&format!("  node {idx} -> {{{}}}\n", succs.join(", ")));
        }
    }
    out
}

/// One level of an explicitly-listed leveled network: for each node of the
/// column, the set of next-column nodes it links to.
pub type ExplicitLevel = Vec<Vec<usize>>;

/// The logical (leveled) network of the n-star (paper Figure 3).
///
/// The star-graph routing of §2.3.4 proceeds in `n−1` stages; stage `i`
/// moves every packet into its correct `(n−i)`-sub-star using at most two
/// SWAP moves (bring the wanted symbol to the front, then place it). The
/// logical network therefore has `2(n−1)` levels, each column holding all
/// `n!` nodes, and each node linking to itself (the packet may stand still)
/// and to its `n−1` SWAP neighbors — degree `n`, levels `O(n)`, exactly the
/// `ℓ = O(d)` regime of Theorem 2.4.
pub fn star_logical_network(n: usize) -> Vec<ExplicitLevel> {
    let star = StarGraph::new(n);
    let num = star.num_nodes();
    let mut levels = Vec::with_capacity(2 * (n - 1));
    for _stage in 1..n {
        for _half in 0..2 {
            let mut level: ExplicitLevel = Vec::with_capacity(num);
            for v in 0..num {
                let mut outs = vec![v]; // stand still
                for p in 0..star.out_degree(v) {
                    outs.push(star.neighbor(v, p));
                }
                level.push(outs);
            }
            levels.push(level);
        }
    }
    levels
}

/// ASCII listing of an explicit leveled network (used for Figure 3 with
/// the 3-star: 6-node columns, 4 levels).
pub fn leveled_explicit_ascii(levels: &[ExplicitLevel], label: impl Fn(usize) -> String) -> String {
    let mut out = String::new();
    for (k, level) in levels.iter().enumerate() {
        out.push_str(&format!("level {} -> {}:\n", k, k + 1));
        for (v, outs) in level.iter().enumerate() {
            let targets: Vec<String> = outs.iter().map(|&w| label(w)).collect();
            out.push_str(&format!("  {} -> {{{}}}\n", label(v), targets.join(", ")));
        }
    }
    out
}

/// ASCII picture of an n×n mesh partitioned into horizontal slices of
/// `slice_rows` rows each (paper Figure 5; §3.4 uses εn rows per slice).
pub fn mesh_slices_ascii(n: usize, slice_rows: usize) -> String {
    assert!(slice_rows >= 1);
    let mut out = format!("n = {n}, slice height = {slice_rows} rows\n");
    for r in 0..n {
        if r > 0 && r % slice_rows == 0 {
            out.push_str(&"=".repeat(2 * n - 1));
            out.push('\n');
        }
        let row: Vec<&str> = (0..n).map(|_| "o").collect();
        out.push_str(&row.join("-"));
        out.push('\n');
    }
    out.push_str(&format!(
        "{} slices of {} rows (last slice may be short)\n",
        n.div_ceil(slice_rows),
        slice_rows
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leveled::UnrolledShuffle;
    use crate::shuffle::DWayShuffle;

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let s = DWayShuffle::n_way(2);
        let dot = to_dot(&s, false, |v| format!("{v:02b}"));
        assert!(dot.starts_with("digraph"));
        for v in 0..4 {
            assert!(dot.contains(&format!("n{v} [label=")));
        }
        // 4 nodes x 2 ports = 8 directed edges
        assert_eq!(dot.matches("->").count(), 8);
    }

    #[test]
    fn star_dot_undirected_edge_count() {
        let star = StarGraph::new(3);
        let dot = star_dot(&star);
        // 3-star is a 6-cycle: 6 undirected edges.
        assert_eq!(dot.matches("--").count(), 6);
        assert!(dot.contains("ABC"));
        assert!(dot.contains("CBA"));
    }

    #[test]
    fn perm_letters_examples() {
        assert_eq!(perm_letters(&Perm::identity(4)), "ABCD");
        assert_eq!(perm_letters(&Perm::identity(4).swap(2).swap(4)), "DACB");
    }

    #[test]
    fn leveled_ascii_small_lists_links() {
        let s = UnrolledShuffle::new(2, 2);
        let art = leveled_ascii(&s);
        assert!(art.contains("2 levels, width 4, degree 2"));
        assert!(art.contains("node 0 -> {0, 2}"));
    }

    #[test]
    fn star_logical_structure() {
        // Figure 3: the 3-star's logical network has 2(n-1) = 4 levels of
        // 6-node columns, degree n = 3 (self + 2 swaps).
        let levels = star_logical_network(3);
        assert_eq!(levels.len(), 4);
        for level in &levels {
            assert_eq!(level.len(), 6);
            for outs in level {
                assert_eq!(outs.len(), 3);
            }
        }
    }

    #[test]
    fn mesh_slices_drawing() {
        let art = mesh_slices_ascii(8, 2);
        // 8 rows of nodes + 3 separators between 4 slices.
        let rows = art.lines().filter(|l| l.starts_with('o')).count();
        let seps = art.lines().filter(|l| l.starts_with('=')).count();
        assert_eq!(rows, 8);
        assert_eq!(seps, 3);
    }
}
