//! # lnpram-math
//!
//! Foundational mathematics for the PRAM-on-leveled-networks reproduction
//! (Palis, Rajasekaran & Wei, 1991):
//!
//! * [`rng`] — deterministic, splittable random-seed plumbing so that every
//!   randomized routing/hashing experiment is exactly reproducible.
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
