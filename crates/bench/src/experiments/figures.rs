//! Figures 1–5: renderings of the paper's networks, each with the audit
//! of the property the figure illustrates.

use crate::{Report, Trials};
use lnpram_math::perm::Perm;
use lnpram_routing::mesh::default_slice_rows;
use lnpram_topology::graph::audit;
use lnpram_topology::leveled::{audit_unique_paths, Leveled, RadixButterfly, UnrolledShuffle};
use lnpram_topology::render::{
    leveled_ascii, leveled_explicit_ascii, mesh_slices_ascii, perm_letters, star_dot,
    star_logical_network, to_dot,
};
use lnpram_topology::{DWayShuffle, Network, StarGraph};

/// Figure 1: a leveled network of ℓ levels with degree d.
///
/// Renders a small leveled network (the paper draws ℓ columns of N nodes
/// with degree-d links) and audits the properties the figure illustrates:
/// links only between consecutive columns, out-degree ≤ d, and the
/// unique-path property the routing algorithm depends on.
pub fn figure1(r: &mut Report, _: Trials) {
    r.note("# Figure 1 — leveled networks\n");
    let b = RadixButterfly::new(2, 3);
    r.note(leveled_ascii(&b));
    audit_unique_paths(&b).expect("butterfly is a valid leveled network");
    r.note(format!(
        "audit: unique-path property holds for {}\n",
        b.levels()
    ));

    let s = UnrolledShuffle::new(2, 3);
    r.note(leveled_ascii(&s));
    audit_unique_paths(&s).expect("shuffle is a valid leveled network");
    r.note("audit: unique-path property holds (8 nodes/column, 3 levels, degree 2)");
}

/// Figure 2: the 3-star and 4-star graphs.
///
/// Emits Graphviz DOT for both graphs with the paper's letter labels
/// (`ABC`, `ABCD`, …) and audits node count, degree, diameter and
/// symmetry against §2.3.4.
pub fn figure2(r: &mut Report, _: Trials) {
    r.note("# Figure 2 — star graphs\n");
    for n in [3usize, 4] {
        let star = StarGraph::new(n);
        let rep = audit(&star);
        let diameter = rep.diameter.expect("the star graph is connected");
        r.note(format!(
            "## {n}-star: {} nodes, degree {}, diameter {diameter}, symmetric: {}",
            rep.nodes, rep.max_degree, rep.symmetric
        ));
        assert_eq!(rep.nodes, (1..=n).product::<usize>());
        assert_eq!(rep.max_degree, n - 1);
        assert_eq!(diameter, 3 * (n - 1) / 2);
        r.note(star_dot(&star));
    }
}

/// Figure 3: the logical (leveled) network of the 3-star.
///
/// The star routing of §2.3.4 unrolls into `2(n−1)` levels of `n!`-node
/// columns with degree n (self + the n−1 SWAP links) — the leveled form
/// that Theorem 2.4's `ℓ = O(d)` analysis applies to.
pub fn figure3(r: &mut Report, _: Trials) {
    r.note("# Figure 3 — logical network of the 3-star\n");
    let levels = star_logical_network(3);
    r.note(format!(
        "{} levels, {} nodes per column, degree {} (self + 2 swaps)\n",
        levels.len(),
        levels[0].len(),
        levels[0][0].len()
    ));
    let label = |v: usize| perm_letters(&Perm::unrank(3, v));
    r.note(leveled_explicit_ascii(&levels, label));
}

/// Figure 4: the n-way shuffle for n = 2.
///
/// Emits the 4-node 2-way shuffle digraph of the paper's figure and
/// verifies the unique-path property: exactly one length-n walk between
/// every ordered pair of nodes.
pub fn figure4(r: &mut Report, _: Trials) {
    r.note("# Figure 4 — 2-way shuffle\n");
    let s = DWayShuffle::n_way(2);
    r.note(to_dot(&s, false, |v| format!("{v:02b}")));
    for u in 0..4 {
        for v in 0..4 {
            let walks: usize = (0..2)
                .flat_map(|p1| (0..2).map(move |p2| (p1, p2)))
                .filter(|&(p1, p2)| s.neighbor(s.neighbor(u, p1), p2) == v)
                .count();
            assert_eq!(walks, 1, "{u}->{v}");
        }
    }
    r.note("audit: exactly one length-2 walk between every ordered pair");
}

/// Figure 5: partitioning the mesh into horizontal slices (§3.4).
///
/// Draws the n×n grid with the εn-row slice boundaries the three-stage
/// routing algorithm uses for its stage-1 randomization.
pub fn figure5(r: &mut Report, _: Trials) {
    r.note("# Figure 5 — mesh slice partitioning\n");
    for n in [16usize, 32] {
        r.note(mesh_slices_ascii(n, default_slice_rows(n)));
    }
}
