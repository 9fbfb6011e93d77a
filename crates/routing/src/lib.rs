//! # lnpram-routing
//!
//! The routing algorithms of Palis–Rajasekaran–Wei (1991) and the baselines
//! they are compared against. The routers are
//! [`Protocol`](lnpram_simnet::Protocol) implementations over the
//! synchronous simulator:
//!
//! * [`leveled`] — **Algorithm 2.1**, the universal two-phase randomized
//!   routing on any leveled network with the unique-path property
//!   (Theorems 2.1 and 2.4: permutation and partial ℓ-relation routing in
//!   Õ(ℓ) with FIFO queues).
//! * [`star`] — **Algorithm 2.2** on the physical n-star graph
//!   (Theorem 2.2 / Corollary 2.1: Õ(n)).
//! * [`shuffle`] — **Algorithm 2.3** on the physical d-way shuffle
//!   (Theorem 2.3 / Corollary 2.2: Õ(n)).
//! * [`mesh`] — the three-stage slice algorithm of §3.4 (Theorem 3.1:
//!   `2n + o(n)` with furthest-destination-first priority), plus the
//!   greedy and Valiant–Brebner baselines.
//! * [`linear`] — the §3.4.1 linear-array lemma (`n′ + o(n)` with
//!   furthest-destination-first), the engine of the mesh analysis.
//! * [`hypercube`] — Valiant's two-phase e-cube routing, the classical
//!   Õ(log N) comparison point of the paper's introduction.
//! * [`ccc`] — two-phase randomized routing on cube-connected cycles,
//!   the constant-degree classic of the leveled family.
//! * [`two_phase`] — the scheme the star, shuffle, hypercube and CCC
//!   routers share (canonical path to a random intermediate, then on to
//!   the destination), written once as a backend over any
//!   [`TwoPhase`](two_phase::TwoPhase) topology.
//! * [`retry`] — the Lemma 2.1 wrapper: repeat a randomized routing a
//!   constant number of times to amplify the success probability.
//! * [`workloads`] — permutations, partial h-relations and
//!   locality-bounded request patterns used by the experiments.
//!
//! Three non-oblivious comparators are plain functions of a destination
//! map rather than backends, because their schedules are fixed at
//! injection:
//!
//! * [`bitonic`] — Batcher bitonic sort-routing on the hypercube, the
//!   Θ(log² N) queue-free baseline §2.2.1 names.
//! * [`mesh_sort`] — a sorting-based comparator on the mesh (shearsort),
//!   the kind of scheme §2.2.1 argues against.
//! * [`ranade`] — a Ranade-style combining routing on the binary butterfly
//!   (the §3 comparator whose constant the paper calls impractically
//!   large), including the standard mesh-embedding cost model.
//!
//! # The unified routing API
//!
//! The routers of the first list sit behind one topology-generic surface in
//! [`router`]: a [`Router`] trait (`route`/`route_many`/`route_batch`),
//! one [`RouteRequest`] builder (permutation / explicit dests / direct /
//! h-relation, plus a tenant tag) and one [`RunReport`] with typed
//! per-topology [`RunExtras`]. A topology plugs in as a
//! [`RouteBackend`]: sizes, engine construction, injection and **one**
//! protocol hook; running, tracing, batching, fault recovery and
//! serving are provided from it. Each topology contributes a cached
//! session — [`LeveledRoutingSession`], [`StarRoutingSession`],
//! [`MeshRoutingSession`], [`CubeRoutingSession`](hypercube::CubeRoutingSession),
//! [`CccRoutingSession`](ccc::CccRoutingSession),
//! [`ShuffleRoutingSession`], and the seventh, `lnpram-adaptive`'s
//! `AdaptiveRoutingSession` — that builds network + partition plan +
//! engine **once** and honors `cfg.shards` everywhere.
//! [`Router::route_batch`] routes several tenants' requests one after
//! another on that engine and folds the isolated runs into one
//! [`BatchReport`].
//!
//! The [`serve`] module turns any backend into an always-on service:
//! a [`ServeSession`] keeps one engine stepping continuously, admits
//! requests at arbitrary global steps with configurable backpressure,
//! and reports per-request latency plus per-tenant fairness on a
//! **shared** topology copy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitonic;
pub mod ccc;
pub mod fault;
pub mod hypercube;
pub mod leveled;
pub mod linear;
pub mod mesh;
pub mod mesh_sort;
pub mod ranade;
pub mod retry;
pub mod router;
pub mod serve;
pub mod shuffle;
pub mod star;
pub mod two_phase;
pub mod workloads;

pub use fault::{FaultReport, LostPacket};
pub use leveled::{DoubledLeveled, LeveledRoutingSession};
pub use mesh::{MeshAlgorithm, MeshRoutingSession};
pub use router::{
    BatchReport, RouteBackend, RoutePattern, RouteRequest, Router, RoutingSession, RunExtras,
    RunReport, TenantReport,
};
pub use serve::{
    AdmissionEntry, OpenLoopWorkload, OverloadPolicy, RequestOutcome, RequestStatus, Serve,
    ServeConfig, ServeError, ServeReport, ServeSession, TenantServeStats,
};
pub use shuffle::ShuffleRoutingSession;
pub use star::{star_engine, StarRoutingSession};
