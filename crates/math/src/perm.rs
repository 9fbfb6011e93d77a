//! Permutations of a small alphabet.
//!
//! The n-star graph (paper §2.3.4) has one node per permutation of the
//! symbols `1..=n`; an edge joins `u` and `SWAP_j(u)` — the permutation with
//! the first and j-th symbols exchanged. This module provides the
//! permutation type used for star-graph node labels, including
//! *ranking/unranking* in the factorial number system so node labels map to
//! dense `0..n!` indices (the simulator addresses nodes by `usize`).
//!
//! Symbols are stored 0-based (`0..n`), so the identity permutation of
//! `n = 4` is `[0, 1, 2, 3]` (printed as `1234` in paper notation).

use crate::rng::Rng;

/// Maximum supported alphabet size. `13! > 6·10⁹` already exceeds any
/// network we can simulate, so `u8` symbols and `usize` ranks are ample.
pub const MAX_N: usize = 13;

/// Table of factorials `0! ..= 13!` (fits in `u64`).
pub const FACTORIALS: [u64; MAX_N + 1] = {
    let mut t = [1u64; MAX_N + 1];
    let mut i = 1;
    while i <= MAX_N {
        t[i] = t[i - 1] * i as u64;
        i += 1;
    }
    t
};

/// `n!` as usize, panicking if `n > MAX_N`.
pub fn factorial(n: usize) -> usize {
    assert!(n <= MAX_N, "factorial({n}) exceeds supported range");
    FACTORIALS[n] as usize
}

/// A permutation of `0..n` for small `n`, used as a star-graph node label.
///
/// An inline `Copy` value (`MAX_N` symbol bytes and a length), so none
/// of its operations touches the heap — the star-graph routers build
/// several per hop. Equality, ordering and hashing look at the live
/// prefix only and agree with those of the symbol slice.
#[derive(Clone, Copy)]
pub struct Perm {
    symbols: [u8; MAX_N],
    len: u8,
}

impl PartialEq for Perm {
    fn eq(&self, other: &Self) -> bool {
        self.symbols() == other.symbols()
    }
}

impl Eq for Perm {}

impl PartialOrd for Perm {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Perm {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.symbols().cmp(other.symbols())
    }
}

impl std::hash::Hash for Perm {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.symbols().hash(state);
    }
}

impl std::fmt::Debug for Perm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Perm(")?;
        for (i, &s) in self.symbols().iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            // Paper prints symbols 1-based.
            write!(f, "{}", s + 1)?;
        }
        write!(f, ")")
    }
}

impl Perm {
    /// The identity permutation of `0..n`.
    pub fn identity(n: usize) -> Self {
        assert!((1..=MAX_N).contains(&n), "n={n} out of range 1..={MAX_N}");
        let mut symbols = [0u8; MAX_N];
        for (i, s) in symbols[..n].iter_mut().enumerate() {
            *s = i as u8;
        }
        Perm {
            symbols,
            len: n as u8,
        }
    }

    /// Alphabet size `n`.
    pub fn n(&self) -> usize {
        self.len as usize
    }

    /// The underlying symbols (0-based).
    pub fn symbols(&self) -> &[u8] {
        &self.symbols[..self.len as usize]
    }

    /// 1-based position of `symbol`.
    pub fn position_of(&self, symbol: u8) -> usize {
        self.symbols()
            .iter()
            .position(|&s| s == symbol)
            .map(|i| i + 1)
            .expect("symbol not present")
    }

    /// `SWAP_j`: exchange the first symbol with the j-th (1-based, `j ≥ 2`).
    ///
    /// This is the star-graph generator from Definition 2.4 of the paper.
    #[must_use]
    pub fn swap(&self, j: usize) -> Self {
        assert!(
            j >= 2 && j <= self.n(),
            "SWAP_j needs 2 <= j <= n, got j={j}"
        );
        let mut p = *self;
        p.symbols.swap(0, j - 1);
        p
    }

    /// Rank in the factorial number system: a bijection onto `0..n!`
    /// with `rank(identity) = 0`, consistent with [`Perm::unrank`].
    pub fn rank(&self) -> usize {
        let n = self.n();
        let mut rank = 0usize;
        // Lehmer code: digit i counts the smaller symbols to the right of
        // position i, which is the symbol's value minus the smaller ones
        // already seen on its left — one popcount per position.
        let mut seen = 0u32;
        for (i, &s) in self.symbols().iter().enumerate() {
            let smaller_left = (seen & ((1u32 << s) - 1)).count_ones();
            rank += (u32::from(s) - smaller_left) as usize * FACTORIALS[n - 1 - i] as usize;
            seen |= 1 << s;
        }
        rank
    }

    /// Inverse of [`Perm::rank`].
    pub fn unrank(n: usize, mut rank: usize) -> Self {
        assert!((1..=MAX_N).contains(&n));
        assert!(rank < factorial(n), "rank {rank} out of range for n={n}");
        // `available` holds the unused symbols in increasing order.
        let mut available = Perm::identity(n).symbols;
        let mut p = Perm {
            symbols: [0; MAX_N],
            len: n as u8,
        };
        for i in 0..n {
            let f = FACTORIALS[n - 1 - i] as usize;
            let idx = rank / f;
            rank %= f;
            p.symbols[i] = available[idx];
            available.copy_within(idx + 1..n - i, idx);
        }
        p
    }

    /// Composition `self ∘ other` (apply `other` first): the permutation
    /// mapping `i ↦ self[other[i]]`.
    #[must_use]
    pub fn compose(&self, other: &Perm) -> Self {
        assert_eq!(self.n(), other.n());
        let mut p = *other;
        for s in &mut p.symbols[..other.len as usize] {
            *s = self.symbols[*s as usize];
        }
        p
    }

    /// The inverse permutation.
    #[must_use]
    pub fn inverse(&self) -> Self {
        let mut inv = *self;
        for (i, &s) in self.symbols().iter().enumerate() {
            inv.symbols[s as usize] = i as u8;
        }
        inv
    }

    /// A uniformly random permutation of `0..n`.
    pub fn random(n: usize, rng: &mut Rng) -> Self {
        let mut p = Perm::identity(n);
        rng.shuffle(&mut p.symbols[..n]);
        p
    }

    /// Cycle decomposition on symbol values, as sorted cycles; fixed points
    /// included as singleton cycles. Used by the star-graph routing proofs
    /// (the greedy route length is `c + m` where `m` counts displaced
    /// symbols in `c` nontrivial cycles).
    pub fn cycles(&self) -> Vec<Vec<u8>> {
        let n = self.n();
        let mut seen = [false; MAX_N];
        let mut cycles = Vec::new();
        for start in 0..n as u8 {
            if seen[start as usize] {
                continue;
            }
            let mut cycle = vec![start];
            seen[start as usize] = true;
            // Follow i -> symbols[i] (position i holds symbols[i]).
            let mut cur = self.symbols[start as usize];
            while cur != start {
                seen[cur as usize] = true;
                cycle.push(cur);
                cur = self.symbols[cur as usize];
            }
            cycles.push(cycle);
        }
        cycles
    }

    /// Number of symbols not in their home position.
    pub fn displaced(&self) -> usize {
        self.symbols()
            .iter()
            .enumerate()
            .filter(|&(i, &s)| s as usize != i)
            .count()
    }

    /// Exact star-graph distance of this label from the identity:
    /// `m + c` where `m` is the number of displaced symbols and `c` the
    /// number of nontrivial cycles *not containing symbol 0*, plus `m + c − 2`
    /// adjustment when symbol 0 is itself displaced (Akers–Krishnamurthy).
    ///
    /// Concretely: `dist = m + c` if position 1 holds symbol 0 (0 fixed),
    /// else `dist = m + c − 2` where `c` counts all nontrivial cycles.
    pub fn star_distance_to_identity(&self) -> usize {
        let m = self.displaced();
        if m == 0 {
            return 0;
        }
        let c = self.cycles().iter().filter(|c| c.len() > 1).count();
        let zero_displaced = self.symbols[0] != 0;
        if zero_displaced {
            m + c - 2
        } else {
            m + c
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedSeq;
    use proptest::prelude::*;

    /// The permutation with these symbols; panics unless they are a
    /// permutation of `0..len`.
    fn from_slice(symbols: &[u8]) -> Perm {
        let mut sorted = symbols.to_vec();
        sorted.sort_unstable();
        assert!(sorted.iter().enumerate().all(|(i, &s)| s as usize == i));
        let mut p = Perm::identity(symbols.len());
        p.symbols[..symbols.len()].copy_from_slice(symbols);
        p
    }

    #[test]
    fn identity_roundtrip() {
        for n in 1..=8 {
            let id = Perm::identity(n);
            assert_eq!(id.symbols(), (0..n as u8).collect::<Vec<_>>());
            assert_eq!(id.rank(), 0);
            assert_eq!(Perm::unrank(n, 0), id);
            assert_eq!(id.star_distance_to_identity(), 0);
        }
    }

    #[test]
    fn rank_unrank_bijection_small() {
        for n in 1..=6 {
            let mut seen = vec![false; factorial(n)];
            for (r, was_seen) in seen.iter_mut().enumerate() {
                let p = Perm::unrank(n, r);
                assert_eq!(p.rank(), r);
                assert!(!*was_seen);
                *was_seen = true;
            }
        }
    }

    #[test]
    fn swap_is_involution_and_generator() {
        let p = from_slice(&[2, 0, 3, 1]);
        for j in 2..=4 {
            let q = p.swap(j);
            assert_ne!(q, p);
            assert_eq!(q.swap(j), p);
        }
    }

    #[test]
    fn swap_matches_paper_example() {
        // Paper: SWAP_j(d1 d2 … dn) = dj d2 … dj-1 d1 dj+1 … dn.
        // ABCD with SWAP_2 -> BACD (0-based: [0,1,2,3] -> [1,0,2,3]).
        let abcd = from_slice(&[0, 1, 2, 3]);
        assert_eq!(abcd.swap(2), from_slice(&[1, 0, 2, 3]));
        assert_eq!(abcd.swap(4), from_slice(&[3, 1, 2, 0]));
    }

    #[test]
    fn compose_and_inverse() {
        let mut rng = SeedSeq::new(1).rng();
        for _ in 0..50 {
            let p = Perm::random(7, &mut rng);
            let q = Perm::random(7, &mut rng);
            let pq = p.compose(&q);
            // (p∘q)⁻¹ = q⁻¹∘p⁻¹
            assert_eq!(pq.inverse(), q.inverse().compose(&p.inverse()));
            assert_eq!(p.compose(&p.inverse()), Perm::identity(7));
            assert_eq!(p.inverse().compose(&p), Perm::identity(7));
        }
    }

    #[test]
    fn cycles_cover_all_symbols() {
        let p = from_slice(&[1, 2, 0, 4, 3, 5]);
        let cycles = p.cycles();
        let total: usize = cycles.iter().map(|c| c.len()).sum();
        assert_eq!(total, 6);
        assert_eq!(cycles.iter().filter(|c| c.len() > 1).count(), 2);
        assert_eq!(p.displaced(), 5);
    }

    #[test]
    fn star_distance_formula_examples() {
        // One transposition not involving symbol 0: (1 2) on n=4:
        // m=2, c=1, 0 fixed => dist 3.
        let p = from_slice(&[0, 2, 1, 3]);
        assert_eq!(p.star_distance_to_identity(), 3);
        // Transposition involving position 1: [1,0,2,3]: m=2,c=1, 0 displaced
        // => 2+1-2 = 1 (one SWAP_2 away). Correct.
        let q = from_slice(&[1, 0, 2, 3]);
        assert_eq!(q.star_distance_to_identity(), 1);
    }

    #[test]
    fn star_diameter_matches_paper() {
        // Diameter of the n-star is ⌊3(n−1)/2⌋ (paper §2.3.4). Check by
        // exhaustive search for n = 3, 4, 5.
        for (n, want) in [(3usize, 3usize), (4, 4), (5, 6)] {
            let max = (0..factorial(n))
                .map(|r| Perm::unrank(n, r).star_distance_to_identity())
                .max()
                .unwrap();
            assert_eq!(max, want, "n={n}");
            assert_eq!(want, 3 * (n - 1) / 2);
        }
    }

    #[test]
    fn rank_covers_the_whole_supported_range() {
        // The last permutation of MAX_N symbols has rank MAX_N! − 1.
        for n in [9usize, 12, MAX_N] {
            let last: Vec<u8> = (0..n as u8).rev().collect();
            let p = from_slice(&last);
            assert_eq!(p.rank(), factorial(n) - 1);
            assert_eq!(Perm::unrank(n, p.rank()), p);
        }
    }

    proptest! {
        /// The inline representation compares and hashes exactly like
        /// the `Vec<u8>` of symbols it replaced, also across lengths.
        #[test]
        fn prop_eq_ord_hash_match_symbol_vectors(
            n in 1usize..=MAX_N,
            m in 1usize..=MAX_N,
            seed: u64,
            same_length: bool,
        ) {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            fn hash_of<T: Hash>(t: &T) -> u64 {
                let mut h = DefaultHasher::new();
                t.hash(&mut h);
                h.finish()
            }
            let mut rng = SeedSeq::new(seed).rng();
            let p = Perm::random(n, &mut rng);
            let q = Perm::random(if same_length { n } else { m }, &mut rng);
            for (a, b) in [(p, q), (p, p), (q, p)] {
                let (va, vb) = (a.symbols().to_vec(), b.symbols().to_vec());
                prop_assert_eq!(a == b, va == vb);
                prop_assert_eq!(a.cmp(&b), va.cmp(&vb));
                prop_assert_eq!(a.partial_cmp(&b), va.partial_cmp(&vb));
                prop_assert_eq!(hash_of(&a), hash_of(&va));
            }
        }

        #[test]
        fn prop_rank_unrank_roundtrip(n in 1usize..=8, seed: u64) {
            let mut rng = SeedSeq::new(seed).rng();
            let p = Perm::random(n, &mut rng);
            prop_assert_eq!(Perm::unrank(n, p.rank()), p);
        }

        #[test]
        fn prop_star_distance_symmetric_under_inverse(seed: u64) {
            // Vertex symmetry: dist(p, id) should equal dist(p⁻¹, id).
            let mut rng = SeedSeq::new(seed).rng();
            let p = Perm::random(6, &mut rng);
            prop_assert_eq!(
                p.star_distance_to_identity(),
                p.inverse().star_distance_to_identity()
            );
        }

        #[test]
        fn prop_distance_at_most_diameter(seed: u64, n in 2usize..=7) {
            let mut rng = SeedSeq::new(seed).rng();
            let p = Perm::random(n, &mut rng);
            prop_assert!(p.star_distance_to_identity() <= 3 * (n - 1) / 2);
        }
    }
}
