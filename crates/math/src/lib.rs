//! # lnpram-math
//!
//! Foundational mathematics for the PRAM-on-leveled-networks reproduction
//! (Palis, Rajasekaran & Wei, 1991):
//!
//! * [`rng`] — the one random generator (xoshiro256++) and deterministic,
//!   splittable seed plumbing, so that every randomized routing/hashing
//!   experiment is exactly reproducible.
//! * [`modmath`] — overflow-safe modular arithmetic over `u64` (the field
//!   `Z_P` used by the Karlin–Upfal hash family).
//! * [`divisor`] — division by a divisor fixed at construction, as one
//!   multiply (the routers split flattened node ids on every hop).
//! * [`primes`] — deterministic Miller–Rabin primality and next-prime search
//!   (the hash family needs a prime `P ≥ M`).
//! * [`perm`] — permutations of small alphabets: ranking/unranking in the
//!   factorial number system (star-graph node labels), composition, cycle
//!   structure.
//! * [`stats`] — descriptive statistics and histograms for experiment
//!   reporting.
//! * [`bounds`] — Chernoff/Hoeffding tail bounds and binomial tails (Facts
//!   2.2 and 2.3 of the paper) used to compare measured tails against the
//!   analysis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod divisor;
pub mod modmath;
pub mod perm;
pub mod primes;
pub mod rng;
pub mod stats;

pub use divisor::Divisor;
pub use perm::Perm;
pub use rng::SeedSeq;
pub use stats::Summary;

/// Distribution checks of [`rng::Rng`]'s value mappings; the streams
/// themselves are pinned by `rng`'s known-answer tests.
#[cfg(test)]
mod tests {
    use crate::rng::Rng;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seed_from_u64_distinct() {
        let mut a = Rng::seed_from_u64(0);
        let mut b = Rng::seed_from_u64(1);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn gen_range_in_bounds() {
        let mut r = Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = r.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = r.gen_range(-5i64..5);
            assert!((-5..5).contains(&w));
            let f = r.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_domain() {
        let mut r = Rng::seed_from_u64(9);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = Rng::seed_from_u64(4);
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "astronomically unlikely identity shuffle");
    }

    #[test]
    fn f64_unit_interval() {
        let mut r = Rng::seed_from_u64(8);
        for _ in 0..10_000 {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
