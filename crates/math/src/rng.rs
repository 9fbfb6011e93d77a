//! Deterministic, splittable random streams.
//!
//! Every randomized experiment in this repository (two-phase routing, hash
//! sampling, workload generation) takes a `u64` seed. To avoid accidental
//! correlation between the many independent random streams an experiment
//! needs (one per trial, per phase, per packet batch …) we derive child
//! seeds with SplitMix64, the standard seed-expansion function
//! ([`SeedSeq`]). Each seed's stream is an [`Rng`]: xoshiro256++ (Blackman
//! & Vigna, *Scrambled linear pseudorandom number generators*, ACM TOMS
//! 2021) with its state expanded from the seed by SplitMix64. Nothing here
//! reads a clock or an operating-system entropy source, so a seed fixes
//! every stream, and every golden and digest in the repository is a
//! function of these streams: the known-answer tests below pin them.

use core::ops::Range;

/// SplitMix64 step: maps any `u64` to a well-mixed `u64`.
///
/// This is the finalizer from Steele, Lea & Flood's SplitMix generator and
/// is the canonical way to expand a single user seed into many independent
/// seeds.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic tree of seeds.
///
/// `SeedSeq::new(root)` is the root of the tree; [`SeedSeq::child`] derives a
/// labelled child, and [`SeedSeq::rng`] materialises an [`Rng`] for this
/// node. Children with distinct labels yield independent streams; the same
/// `(root, path-of-labels)` always yields the same stream.
///
/// ```
/// use lnpram_math::rng::SeedSeq;
/// let mut a = SeedSeq::new(42).child(1).rng();
/// let mut b = SeedSeq::new(42).child(1).rng();
/// // identical construction paths => identical streams
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// assert_eq!(a.gen_range(0..10usize), b.gen_range(0..10usize));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSeq {
    state: u64,
}

impl SeedSeq {
    /// Root of a seed tree.
    pub fn new(root: u64) -> Self {
        // Mix the root once so that small user seeds (0, 1, 2, …) are far
        // apart in state space.
        let mut s = root ^ 0xA076_1D64_78BD_642F;
        let _ = splitmix64(&mut s);
        SeedSeq { state: s }
    }

    /// Derive the child stream with the given label.
    #[must_use]
    pub fn child(self, label: u64) -> Self {
        let mut s = self.state ^ label.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let _ = splitmix64(&mut s);
        SeedSeq { state: s }
    }

    /// The raw 64-bit seed value at this node.
    pub fn value(self) -> u64 {
        self.state
    }

    /// Materialise the generator for this node.
    pub fn rng(self) -> Rng {
        Rng::seed_from_u64(self.state)
    }
}

/// The repository's one random generator: xoshiro256++.
///
/// Its methods are the value mappings the workspace draws with, each a
/// fixed function of the raw words [`Rng::next_u64`] returns, so a stream
/// of values is as reproducible as the stream of words.
#[derive(Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator whose state is the next four SplitMix64 outputs from
    /// `state`. They are four distinct inputs through a bijective mix, so
    /// at most one is zero and the state is never xoshiro's all-zero
    /// fixed point.
    pub fn seed_from_u64(mut state: u64) -> Self {
        let mut next = || splitmix64(&mut state);
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64-bit word of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform value over `T`'s whole domain; an `f64` is uniform in
    /// `[0, 1)`.
    #[inline]
    pub fn gen<T: Uniform>(&mut self) -> T {
        T::from_word(self.next_u64())
    }

    /// A uniform value in `[range.start, range.end)`; panics if the range
    /// is empty.
    #[inline]
    pub fn gen_range<T: Uniform>(&mut self, range: Range<T>) -> T {
        assert!(range.start < range.end, "gen_range: empty range");
        T::in_range(self.next_u64(), range.start, range.end)
    }

    /// `true` with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of [0,1]");
        self.gen::<f64>() < p
    }

    /// Shuffle `items` in place (Fisher–Yates, from the back).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.gen_range(0..i + 1));
        }
    }
}

/// The value types of [`Rng::gen`] and [`Rng::gen_range`]: each draw maps
/// one raw word to a value.
pub trait Uniform: Copy + PartialOrd {
    /// The whole-domain value of the word `w`.
    fn from_word(w: u64) -> Self;
    /// The value of the word `w` in `[lo, hi)`, for `lo < hi`.
    fn in_range(w: u64, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            #[inline]
            fn from_word(w: u64) -> Self {
                w as $t
            }

            #[inline]
            fn in_range(w: u64, lo: Self, hi: Self) -> Self {
                // Lemire's multiply-shift over the span as a u64; the bias
                // is below 2^-64 per draw, far under anything these
                // simulations can observe.
                let span = (hi as i64).wrapping_sub(lo as i64) as u64;
                let draw = ((w as u128 * span as u128) >> 64) as u64;
                (lo as i64).wrapping_add(draw as i64) as $t
            }
        }
    )*};
}
impl_uniform_int!(u8, u32, u64, usize, i32, i64);

impl Uniform for f64 {
    /// 53 uniform mantissa bits in `[0, 1)`.
    #[inline]
    fn from_word(w: u64) -> Self {
        (w >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    #[inline]
    fn in_range(w: u64, lo: Self, hi: Self) -> Self {
        lo + (hi - lo) * f64::from_word(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_path_same_stream() {
        let mut a = SeedSeq::new(7).child(3).child(9).rng();
        let mut b = SeedSeq::new(7).child(3).child(9).rng();
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_labels_different_streams() {
        let mut a = SeedSeq::new(7).child(0).rng();
        let mut b = SeedSeq::new(7).child(1).rng();
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn different_roots_different_streams() {
        let mut a = SeedSeq::new(0).rng();
        let mut b = SeedSeq::new(1).rng();
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn splitmix_known_vector() {
        // Known-answer vectors from the reference SplitMix64
        // implementation (Vigna's splitmix64.c; also Java's
        // SplittableRandom): the first three outputs from state 0.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
        assert_eq!(s, 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(3));
    }

    #[test]
    fn splitmix_known_vector_nonzero_seed() {
        let mut s = 0x0123_4567_89AB_CDEFu64;
        assert_eq!(splitmix64(&mut s), 0x157A_3807_A48F_AA9D);
        assert_eq!(splitmix64(&mut s), 0xD573_529B_34A1_D093);
        assert_eq!(splitmix64(&mut s), 0x2F90_B72E_996D_CCBE);
    }

    #[test]
    fn seedseq_values_are_frozen() {
        // Snapshots of the seed tree. These pin the derivation scheme: a
        // change here silently re-seeds every experiment in the repo, so
        // it must be deliberate (and noted in CHANGES.md).
        assert_eq!(SeedSeq::new(42).value(), 0x3EAD_971D_F807_E01A);
        assert_eq!(SeedSeq::new(42).child(7).value(), 0x7D2A_D9D0_B3BC_8B34);
        assert_eq!(
            SeedSeq::new(42).child(7).child(0).value(),
            0x1B62_538A_3307_0749
        );
    }

    #[test]
    fn rng_stream_is_frozen() {
        // First outputs of the materialised generator for root seed 1 —
        // the same pin as above, one level further down: a change to the
        // xoshiro256++ step or its SplitMix64 seeding re-randomizes every
        // experiment and must be noticed.
        let mut r = SeedSeq::new(1).rng();
        assert_eq!(r.gen::<u64>(), 0x561F_73F1_9AFF_630C);
        assert_eq!(r.gen::<u64>(), 0x834F_3F56_6437_A070);
        assert_eq!(r.gen::<u64>(), 0xBA43_9ED9_DEDF_0059);
    }

    #[test]
    fn rng_mappings_are_frozen() {
        // The value mappings over the frozen stream above: integer and
        // `f64` ranges (Lemire's multiply-shift on u64 / i64 spans), the
        // 53-bit `f64`, `gen_bool` and the Fisher–Yates shuffle. Like the
        // raw words, a change here re-seeds every experiment.
        let mut r = SeedSeq::new(1).rng();
        let u8s: Vec<u8> = (0..4).map(|_| r.gen_range(3u8..200)).collect();
        assert_eq!(u8s, [69, 104, 146, 42]);
        let u32s: Vec<u32> = (0..3).map(|_| r.gen_range(7u32..1_000_003)).collect();
        assert_eq!(u32s, [598_812, 325_832, 963_142]);
        let u64s: Vec<u64> = (0..3).map(|_| r.gen_range(1u64 << 20..u64::MAX)).collect();
        assert_eq!(
            u64s,
            [
                6_516_300_931_574_054_358,
                3_633_810_813_766_063_516,
                12_970_083_501_492_592_192
            ]
        );
        let usizes: Vec<usize> = (0..3).map(|_| r.gen_range(0usize..1000)).collect();
        assert_eq!(usizes, [735, 667, 765]);
        let i64s: Vec<i64> = (0..4).map(|_| r.gen_range(-50i64..50)).collect();
        assert_eq!(i64s, [35, 13, -8, 25]);
        assert_eq!(
            r.gen_range(i64::MIN / 2..i64::MAX / 2),
            -1_632_940_698_078_955_541
        );
        let f64s: Vec<u64> = (0..2)
            .map(|_| r.gen_range(0.25f64..0.75).to_bits())
            .collect();
        assert_eq!(f64s, [0x3FD8_8DD9_06F0_4820, 0x3FE4_083B_F154_A50D]);
        let bools: Vec<bool> = (0..8).map(|_| r.gen_bool(0.3)).collect();
        assert_eq!(
            bools,
            [false, false, false, false, true, false, false, true]
        );
        assert_eq!(r.gen::<f64>().to_bits(), 0x3FC9_9C07_85B6_9CE8);
        let mut v: Vec<u32> = (0..10).collect();
        r.shuffle(&mut v);
        assert_eq!(v, [8, 4, 1, 2, 0, 3, 6, 5, 7, 9]);
        assert_eq!(r.gen::<u64>(), 0x5ACD_93CD_BE38_BD2B);
    }

    #[test]
    fn rngs_iterator_is_stable() {
        // Children labelled 0..4 of one node: stable and pairwise distinct.
        let words = || -> Vec<u64> {
            (0..4)
                .map(|i| SeedSeq::new(5).child(i).rng().gen())
                .collect()
        };
        let (first, second) = (words(), words());
        assert_eq!(first, second);
        // and pairwise distinct
        for i in 0..first.len() {
            for j in i + 1..first.len() {
                assert_ne!(first[i], first[j]);
            }
        }
    }
}
