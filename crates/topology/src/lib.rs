//! # lnpram-topology
//!
//! Interconnection-network topologies for the PRAM-emulation reproduction:
//!
//! * [`graph`] — the [`Network`] abstraction (directed
//!   port-addressed graphs) plus structural audits (BFS distances, diameter,
//!   degree profile, strong connectivity).
//! * [`leveled`] — the paper's *leveled network* class (§2.3.1): ℓ+1 columns
//!   of N nodes, degree-d forward links, and the unique-path (delta)
//!   property, with radix-butterfly and unrolled-shuffle instances.
//! * [`star`] — the n-star graph (Definition 2.5): `n!` nodes, degree
//!   `n−1`, diameter `⌊3(n−1)/2⌋`, with canonical oblivious routes.
//! * [`shuffle`] — the d-way shuffle (§2.3.5): `dⁿ` nodes, a unique
//!   length-n path between every pair.
//! * [`mesh`] — the n×n MIMD mesh of §3 (bidirectional links, 4 ports).
//! * [`hypercube`] — the binary n-cube (classical comparison point).
//! * [`ccc`] — cube-connected cycles, the constant-degree classic of the
//!   leveled family (§2.3.1's "hypercube, butterfly, etc.").
//! * [`render`] — DOT/ASCII renderers that regenerate the paper's
//!   Figures 1–5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ccc;
pub mod graph;
pub mod hypercube;
pub mod leveled;
pub mod mesh;
pub mod render;
pub mod shuffle;
pub mod star;

pub use ccc::CubeConnectedCycles;
pub use graph::Network;
pub use leveled::{Leveled, LeveledNet, RadixButterfly, UnrolledShuffle};
pub use mesh::Mesh;
pub use shuffle::DWayShuffle;
pub use star::{StarGraph, StarSizeError, StarTable};
