//! # lnpram — PRAM emulation on leveled networks
//!
//! A from-scratch reproduction of Palis, Rajasekaran & Wei, *Emulation of
//! a PRAM on Leveled Networks* (Univ. of Pennsylvania TR MS-CIS-91-06 /
//! ICPP 1991): optimal (diameter-time) emulation of a CRCW PRAM on
//! sub-logarithmic-diameter networks — the n-star graph and the n-way
//! shuffle — via universal randomized routing on leveled networks, plus a
//! practical `4n + o(n)` emulation on the n×n mesh.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`math`] — RNG plumbing, modular arithmetic, primes, permutations,
//!   statistics, tail bounds.
//! * [`topology`] — leveled networks, star graph, d-way shuffle, mesh,
//!   hypercube, butterfly; structural audits; figure renderers.
//! * [`simnet`] — the synchronous packet-routing simulator (the paper's
//!   machine model).
//! * [`hash`] — the Karlin–Upfal polynomial hash family `H`.
//! * [`routing`] — Algorithms 2.1/2.2/2.3, the mesh three-stage
//!   algorithm and its constant-queue refinement, the Valiant–Brebner
//!   and greedy baselines, the Lemma 2.1 retry wrapper — all behind
//!   the topology-generic [`routing::Router`] trait (`RouteRequest`
//!   in, `RunReport` out, multi-tenant `route_batch` folding isolated
//!   per-tenant runs into one report) — and the
//!   non-oblivious comparators (shearsort, Batcher bitonic,
//!   Ranade-style butterfly) as functions of a destination map.
//! * [`pram`] — the PRAM model, reference executor and program library.
//! * [`shard`] — the sharded simulation subsystem: partitioned engines
//!   stepped in lockstep with deterministic boundary exchange
//!   ([`shard::ShardedEngine`], bit-identical to the serial engine),
//!   selected via [`simnet::SimConfig::shards`].
//! * [`core`] — the emulators: [`core::LeveledPramEmulator`],
//!   [`core::StarPramEmulator`], [`core::MeshPramEmulator`], each hashed
//!   or, through [`core::PramEmulator::with_copies`], the deterministic
//!   replicated-memory baseline.
//! * [`adaptive`] — the non-oblivious counterpoint: congestion-priced
//!   source routing with deterministic Dijkstra and
//!   rip-up-and-reroute ([`adaptive::AdaptiveRoutingSession`], the
//!   seventh `Router` backend), for adaptive-vs-oblivious comparisons
//!   on adversarial workloads.
//!
//! ## Quickstart
//!
//! ```
//! use lnpram::prelude::*;
//!
//! // Emulate a 27-processor EREW PRAM prefix sum on the 3-way shuffle
//! // (unrolled to its leveled form), and check against the reference.
//! let values: Vec<u64> = (1..=27).collect();
//! let mut prog = PrefixSum::new(values.clone());
//! let space = prog.address_space();
//! let network = UnrolledShuffle::n_way(3);
//! let mut emu = LeveledPramEmulator::new(
//!     network, AccessMode::Erew, space, EmulatorConfig::default());
//! let report = emu.run_program(&mut prog, 10_000);
//!
//! let mut oracle = PramMachine::new(space, AccessMode::Erew);
//! oracle.run(&mut PrefixSum::new(values), 10_000);
//! assert_eq!(emu.memory_image(space), oracle.memory());
//! assert!(report.pram_steps > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lnpram_adaptive as adaptive;
pub use lnpram_core as core;
pub use lnpram_hash as hash;
pub use lnpram_math as math;
pub use lnpram_pram as pram;
pub use lnpram_routing as routing;
pub use lnpram_shard as shard;
pub use lnpram_simnet as simnet;
pub use lnpram_topology as topology;

/// The most common imports in one place.
pub mod prelude {
    pub use lnpram_core::{
        EmuReport, EmulatorConfig, LeveledPramEmulator, MeshPramEmulator, StarPramEmulator,
    };
    pub use lnpram_hash::{HashFamily, PolyHash};
    pub use lnpram_math::rng::SeedSeq;
    pub use lnpram_math::stats::Summary;
    pub use lnpram_pram::machine::PramMachine;
    pub use lnpram_pram::model::{AccessMode, MemOp, PramProgram, WritePolicy};
    pub use lnpram_pram::programs::{
        Broadcast, ConnectedComponents, Histogram, ListRankingProgram, MatVec, OddEvenSort,
        PermutationTraffic, PrefixSum, ReductionMax,
    };
    pub use lnpram_routing::{
        BatchReport, LeveledRoutingSession, MeshAlgorithm, MeshRoutingSession, RoutePattern,
        RouteRequest, Router, RoutingSession, RunReport, ShuffleRoutingSession, StarRoutingSession,
        TenantReport,
    };
    pub use lnpram_shard::{AnyEngine, LevelCut, Partitioner, RowBlock, ShardedEngine};
    pub use lnpram_simnet::{Discipline, SimConfig};
    pub use lnpram_topology::leveled::{RadixButterfly, UnrolledShuffle};
    pub use lnpram_topology::{DWayShuffle, Mesh, Network, StarGraph};
}
