//! Request-pattern generators for the routing experiments.
//!
//! §2.2.1 of the paper defines the routing problems these generate:
//! permutation routing, partial routing, partial h-relations, and many-one
//! routing; §3 (Theorem 3.3) additionally needs locality-bounded patterns
//! where every request travels at most distance `d`.

use lnpram_math::rng::Rng;
use lnpram_topology::{Mesh, Network};

/// A uniformly random permutation destination map: `dests[i]` is the
/// destination of the packet originating at node `i`.
pub fn random_permutation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut dests: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut dests);
    dests
}

/// A partial h-relation: every source originates at most `h` packets and
/// every destination receives at most `h`. Built from `h` independent
/// random permutations (the standard construction), so it is in fact an
/// exact h-relation.
///
/// Returns the packets' `(src, dest)` pairs, source ascending, and a
/// source's `h` destinations in permutation order.
pub fn h_relation(n: usize, h: usize, rng: &mut Rng) -> Vec<(usize, usize)> {
    let perms: Vec<Vec<usize>> = (0..h).map(|_| random_permutation(n, rng)).collect();
    (0..n)
        .flat_map(|src| perms.iter().map(move |perm| (src, perm[src])))
        .collect()
}

/// Many-one routing: every source picks an independent uniformly random
/// destination (collisions allowed). The CRCW hot-spot experiments sharpen
/// this to Zipf or single-cell patterns at the PRAM layer.
pub fn many_one(n: usize, rng: &mut Rng) -> Vec<usize> {
    (0..n).map(|_| rng.gen_range(0..n)).collect()
}

/// Hot-spot many-one routing on **any** network node count (this used to
/// exist only as mesh/PRAM-specific helpers): each of the `n` sources
/// independently targets a uniformly random member of `hot` with
/// probability `p_hot`, and a uniformly random node otherwise. With
/// `p_hot = 0` this degrades to [`many_one`]; with `p_hot = 1` all
/// traffic converges on the hot set — the router-level version of the
/// CRCW hot-spot stressors.
pub fn hot_spot(n: usize, hot: &[usize], p_hot: f64, rng: &mut Rng) -> Vec<usize> {
    assert!((0.0..=1.0).contains(&p_hot));
    assert!(
        !hot.is_empty() || p_hot == 0.0,
        "hot set empty with p_hot > 0"
    );
    assert!(hot.iter().all(|&h| h < n), "hot node out of range");
    (0..n)
        .map(|_| {
            if p_hot > 0.0 && rng.gen_bool(p_hot) {
                hot[rng.gen_range(0..hot.len())]
            } else {
                rng.gen_range(0..n)
            }
        })
        .collect()
}

/// The full broadcast/gather pattern on any node count: every source
/// targets `root` (the degenerate hot spot, `p_hot = 1`, one hot node).
/// This is the routing-layer shape of the paper's footnote-3 combining
/// stressor — without combining it serialises at `root`'s in-links.
pub fn broadcast(n: usize, root: usize) -> Vec<usize> {
    assert!(root < n);
    vec![root; n]
}

/// The transpose permutation on **any** node count that is a perfect
/// square (this used to exist only mesh-specific as
/// [`mesh_transpose`]): node id `r·s + c` maps to `c·s + r` where
/// `s = √n`. On the mesh this is the classic matrix transpose; on other
/// flat topologies (hypercube, star in factorial-radix id order) it is
/// the same id-space shear and remains a worst case for routers that
/// serialize on the id digits.
pub fn transpose(n: usize) -> Vec<usize> {
    let s = (n as f64).sqrt().round() as usize;
    assert_eq!(s * s, n, "transpose needs a perfect-square node count");
    (0..n).map(|v| (v % s) * s + v / s).collect()
}

/// The bit-reversal permutation on **any** power-of-two node count
/// (the generic form of [`mesh_bit_reversal`]): node id `v` maps to
/// the id with its `log₂ n` bits reversed. On the hypercube this is a
/// dimension reversal; on meshes it defeats dimension-ordered routing —
/// the standard adversarial pattern for oblivious deterministic
/// routers.
pub fn bit_reversal(n: usize) -> Vec<usize> {
    assert!(n.is_power_of_two(), "bit reversal needs power-of-two size");
    let bits = n.trailing_zeros();
    (0..n)
        .map(|v| (v.reverse_bits() >> (usize::BITS - bits)) & (n - 1))
        .collect()
}

/// A locality-bounded permutation on a mesh: destinations are a permutation
/// in which every packet travels Manhattan distance ≤ `d` (Theorem 3.3's
/// premise). Built by tiling the mesh into `⌈d/2⌉ × ⌈d/2⌉` blocks and
/// permuting within each block (all block-internal moves have distance
/// < d), so the bound holds by construction.
pub fn local_permutation(mesh: &Mesh, d: usize, rng: &mut Rng) -> Vec<usize> {
    assert!(d >= 1);
    let block = d.div_ceil(2).max(1);
    let (rows, cols) = (mesh.rows(), mesh.cols());
    let mut dests = vec![0usize; rows * cols];
    let mut cells = Vec::new();
    for br in (0..rows).step_by(block) {
        for bc in (0..cols).step_by(block) {
            cells.clear();
            for r in br..(br + block).min(rows) {
                for c in bc..(bc + block).min(cols) {
                    cells.push(mesh.node_at(r, c));
                }
            }
            let mut perm = cells.clone();
            rng.shuffle(&mut perm);
            for (i, &src) in cells.iter().enumerate() {
                dests[src] = perm[i];
            }
        }
    }
    dests
}

/// The transpose permutation on an n×n mesh: `(r, c) → (c, r)` — the
/// classic "structured" pattern for routing studies (it turns out benign
/// for row-first dimension order: the east/west convoys split at the
/// diagonal; see the `adversarial_mesh` experiment).
///
/// ```
/// use lnpram_routing::workloads::{is_permutation, mesh_transpose};
/// use lnpram_topology::Mesh;
/// let t = mesh_transpose(&Mesh::square(4));
/// assert!(is_permutation(&t));
/// assert_eq!(t[1], 4); // (0,1) → (1,0)
/// ```
pub fn mesh_transpose(mesh: &Mesh) -> Vec<usize> {
    assert_eq!(mesh.rows(), mesh.cols(), "transpose needs a square mesh");
    (0..mesh.num_nodes())
        .map(|v| {
            let (r, c) = mesh.coords(v);
            mesh.node_at(c, r)
        })
        .collect()
}

/// The bit-reversal permutation on an n×n mesh with n a power of two:
/// node index `v` (in row-major order) maps to the index with its
/// `log₂ n²` bits reversed. Another standard worst case for oblivious
/// deterministic routers.
pub fn mesh_bit_reversal(mesh: &Mesh) -> Vec<usize> {
    bit_reversal(mesh.num_nodes())
}

/// The tornado permutation on an n×n mesh: every packet moves just under
/// half the ring in its row (`(r, c) → (r, (c + ⌈n/2⌉ − 1) mod n)`).
/// Maximises sustained horizontal link load.
pub fn mesh_tornado(mesh: &Mesh) -> Vec<usize> {
    let cols = mesh.cols();
    let shift = cols.div_ceil(2).saturating_sub(1);
    (0..mesh.num_nodes())
        .map(|v| {
            let (r, c) = mesh.coords(v);
            mesh.node_at(r, (c + shift) % cols)
        })
        .collect()
}

/// Check that `dests` is a permutation of `0..n`.
pub fn is_permutation(dests: &[usize]) -> bool {
    let n = dests.len();
    let mut seen = vec![false; n];
    for &d in dests {
        if d >= n || seen[d] {
            return false;
        }
        seen[d] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnpram_math::rng::SeedSeq;
    use proptest::prelude::*;

    #[test]
    fn random_permutation_is_permutation() {
        let mut rng = SeedSeq::new(1).rng();
        for n in [1usize, 2, 10, 100] {
            assert!(is_permutation(&random_permutation(n, &mut rng)));
        }
    }

    #[test]
    fn h_relation_bounds_hold() {
        let mut rng = SeedSeq::new(3).rng();
        let (n, h) = (64usize, 5usize);
        let rel = h_relation(n, h, &mut rng);
        assert_eq!(rel.len(), n * h);
        assert!(rel.is_sorted_by_key(|&(src, _)| src));
        let (mut outdeg, mut indeg) = (vec![0usize; n], vec![0usize; n]);
        for &(s, d) in &rel {
            outdeg[s] += 1;
            indeg[d] += 1;
        }
        assert!(outdeg.iter().chain(&indeg).all(|&c| c == h));
    }

    #[test]
    fn many_one_in_range() {
        let mut rng = SeedSeq::new(4).rng();
        let dests = many_one(50, &mut rng);
        assert!(dests.iter().all(|&d| d < 50));
    }

    #[test]
    fn hot_spot_load_shape_follows_p_hot() {
        // Generic in n: use a star graph's node count (no mesh anywhere).
        let n = lnpram_topology::StarGraph::new(5).num_nodes(); // 120
        let hot = [3usize, 7];
        let mut rng = SeedSeq::new(6).rng();
        let mut hot_hits = 0usize;
        let trials = 50usize;
        for _ in 0..trials {
            let dests = hot_spot(n, &hot, 0.75, &mut rng);
            assert_eq!(dests.len(), n);
            assert!(dests.iter().all(|&d| d < n));
            hot_hits += dests.iter().filter(|d| hot.contains(d)).count();
        }
        // Expected fraction ≈ p_hot + (1 − p_hot)·|hot|/n ≈ 0.754.
        let frac = hot_hits as f64 / (n * trials) as f64;
        assert!(
            (0.70..0.81).contains(&frac),
            "hot fraction {frac:.3} far from 0.754"
        );
    }

    #[test]
    fn hot_spot_extremes() {
        let mut rng = SeedSeq::new(7).rng();
        // p_hot = 1: everything lands on the hot set.
        let all_hot = hot_spot(64, &[5], 1.0, &mut rng);
        assert_eq!(all_hot, broadcast(64, 5));
        assert!(!is_permutation(&all_hot));
        // p_hot = 0 with an empty hot set is plain many-one.
        let none = hot_spot(64, &[], 0.0, &mut rng);
        assert!(none.iter().all(|&d| d < 64));
    }

    #[test]
    fn broadcast_is_single_target() {
        let b = broadcast(10, 9);
        assert_eq!(b.len(), 10);
        assert!(b.iter().all(|&d| d == 9));
        assert!(!is_permutation(&b));
        // Degenerate single-node network: the identity "permutation".
        assert!(is_permutation(&broadcast(1, 0)));
    }

    #[test]
    #[should_panic(expected = "hot node out of range")]
    fn hot_spot_rejects_out_of_range_hot_node() {
        let mut rng = SeedSeq::new(8).rng();
        let _ = hot_spot(4, &[4], 0.5, &mut rng);
    }

    #[test]
    fn local_permutation_respects_distance() {
        let mesh = Mesh::square(16);
        let mut rng = SeedSeq::new(5).rng();
        for d in [1usize, 2, 4, 7] {
            let dests = local_permutation(&mesh, d, &mut rng);
            assert!(is_permutation(&dests), "d={d}");
            for (src, &dst) in dests.iter().enumerate() {
                assert!(
                    mesh.manhattan(src, dst) <= d,
                    "d={d}: {src}->{dst} dist {}",
                    mesh.manhattan(src, dst)
                );
            }
        }
    }

    #[test]
    fn is_permutation_rejects() {
        assert!(!is_permutation(&[0, 0]));
        assert!(!is_permutation(&[2, 0])); // out of range for n=2
        assert!(is_permutation(&[1, 0]));
        assert!(is_permutation(&[]));
    }

    #[test]
    fn generic_transpose_shape() {
        let t = transpose(64);
        assert!(is_permutation(&t));
        // Involution with exactly √n fixed points (the diagonal).
        for (v, &img) in t.iter().enumerate() {
            assert_eq!(t[img], v);
        }
        assert_eq!(t.iter().enumerate().filter(|&(v, &d)| v == d).count(), 8);
        // Agrees with the mesh-specific generator on the square mesh.
        assert_eq!(t, mesh_transpose(&Mesh::square(8)));
        // Row r's off-diagonal traffic all crosses the diagonal: every
        // source in row 0 (ids 1..8) targets column 0 (ids ≡ 0 mod 8) —
        // the column-convoy load shape that makes transpose adversarial.
        for (c, &d) in t.iter().enumerate().take(8).skip(1) {
            assert_eq!(d, c * 8);
        }
    }

    #[test]
    #[should_panic(expected = "perfect-square")]
    fn generic_transpose_rejects_non_square() {
        let _ = transpose(48);
    }

    #[test]
    fn generic_bit_reversal_shape() {
        let b = bit_reversal(64);
        assert!(is_permutation(&b));
        // Involution: reversing twice is the identity.
        for (v, &img) in b.iter().enumerate() {
            assert_eq!(b[img], v);
        }
        assert_eq!(b[1], 32); // 000001 → 100000
        assert_eq!(b[3], 48); // 000011 → 110000
                              // Same code path as the mesh wrapper.
        assert_eq!(b, mesh_bit_reversal(&Mesh::square(8)));
        // Low-id sources scatter to high ids: on a row-major mesh every
        // source in row 0 except the two palindromes crosses at least
        // half the rows — the anti-local load shape.
        let mesh = Mesh::square(8);
        let far = (1..8).filter(|&v| mesh.manhattan(v, b[v]) >= 4).count();
        assert!(far >= 5, "only {far} of row 0 travel far");
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn generic_bit_reversal_rejects_non_power() {
        let _ = bit_reversal(48);
    }

    #[test]
    fn transpose_is_permutation_and_involution() {
        let mesh = Mesh::square(8);
        let t = mesh_transpose(&mesh);
        assert!(is_permutation(&t));
        for (v, &img) in t.iter().enumerate() {
            assert_eq!(t[img], v, "transpose must be an involution");
        }
        // (1, 3) → (3, 1)
        assert_eq!(t[mesh.node_at(1, 3)], mesh.node_at(3, 1));
    }

    #[test]
    fn bit_reversal_is_permutation_and_involution() {
        let mesh = Mesh::square(8); // 64 nodes = 2^6
        let b = mesh_bit_reversal(&mesh);
        assert!(is_permutation(&b));
        for (v, &img) in b.iter().enumerate() {
            assert_eq!(b[img], v);
        }
        // 0b000001 → 0b100000
        assert_eq!(b[1], 32);
    }

    #[test]
    fn tornado_shifts_rows() {
        let mesh = Mesh::square(8);
        let t = mesh_tornado(&mesh);
        assert!(is_permutation(&t));
        assert_eq!(t[mesh.node_at(2, 0)], mesh.node_at(2, 3));
        assert_eq!(t[mesh.node_at(2, 6)], mesh.node_at(2, 1));
    }

    proptest! {
        #[test]
        fn prop_adversarial_patterns_are_permutations(n in 1usize..=5) {
            let mesh = Mesh::square(1 << n); // power-of-two side
            prop_assert!(is_permutation(&mesh_transpose(&mesh)));
            prop_assert!(is_permutation(&mesh_bit_reversal(&mesh)));
            prop_assert!(is_permutation(&mesh_tornado(&mesh)));
        }

        #[test]
        fn prop_local_permutation_all_d(seed: u64, n in 2usize..=12, d in 1usize..=10) {
            let mesh = Mesh::square(n);
            let mut rng = SeedSeq::new(seed).rng();
            let dests = local_permutation(&mesh, d, &mut rng);
            prop_assert!(is_permutation(&dests));
            for (src, &dst) in dests.iter().enumerate() {
                prop_assert!(mesh.manhattan(src, dst) <= d);
            }
        }
    }
}
