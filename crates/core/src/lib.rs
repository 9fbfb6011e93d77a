//! # lnpram-core
//!
//! The paper's contribution: emulating a CRCW PRAM on leveled networks
//! (Theorems 2.5 and 2.6 with Corollaries 2.3–2.6) and on the n×n mesh
//! (Theorems 3.2 and 3.3).
//!
//! One emulated PRAM step is: hash every shared-memory address onto a
//! memory module with a random `h ∈ H` (`lnpram-hash`); route read/write
//! request packets from the processors to the modules; serve the batch at
//! each module with PRAM read-before-write semantics; route read replies
//! back. If a routing phase overruns its step budget, pick a fresh hash
//! function, pay an explicit remap charge, and retry — the paper's
//! rehashing rule (§2.1). That step is written once, in [`emulator`];
//! the hosts below supply only their two routing phases. The paper's
//! foil, deterministic replication in the style of its reference \[3\]
//! (Alt–Hagerup–Mehlhorn–Preparata: fixed copy placement, quorum
//! reads/writes with version stamps, no rehash), is a third address map
//! beside hashing and the mesh's direct map, so it runs on every host
//! ([`PramEmulator::with_copies`]).
//!
//! * [`config`] — emulator parameters and per-step/aggregate statistics.
//! * [`emulator`] — [`PramEmulator<H>`]: the emulation step, the rehash
//!   rule, the program driver and the accessors, over any [`EmuHost`];
//!   the address maps (hashed, direct, replicated) and quorum
//!   resolution.
//! * [`combining`] — the CRCW packet-combining tables: per-node pending
//!   entries with fan-out "direction bits" (footnote 3 of the paper);
//!   concurrent reads of one cell collapse to a single request and the
//!   reply fans back out along the recorded ports.
//! * [`combining_host`] — `CombiningHost<R>`: the one request/reply
//!   protocol pair over those tables (Theorem 2.6), shared by the
//!   leveled and star hosts; a topology joins by answering
//!   [`HostRoute`](combining_host::HostRoute) (next hop, reply port,
//!   module, private trails, write merging).
//! * [`memory`] — the distributed memory modules: versioned cells, batch
//!   service and CRCW write resolution identical to the reference
//!   machine, with a queue that folds same-key writes.
//! * [`leveled_emulator`] — the `HostRoute` of Theorems 2.5/2.6: any
//!   delta leveled network (radix butterflies, the unrolled d-way/n-way
//!   shuffle), Algorithm 2.1 with read combining and write merging.
//! * [`star_emulator`] — the `HostRoute` of Corollaries 2.3/2.5: the
//!   physical n-star graph (Algorithm 2.2 routing, private phase-1
//!   trails joining the shared phase-2 tree, merging writes sent on
//!   that tree from their source).
//! * [`mesh_emulator`] — the host of Theorems 3.2/3.3: the n×n mesh via
//!   the three-stage routing of §3.4 (4n + o(n) per EREW step; 6d + o(d)
//!   under d-local request patterns), without combining; its replies
//!   travel forward instead of retracing.
//!
//! The integration contract: running any `PramProgram` through an emulator
//! must produce the same final memory image and read trace as
//! `lnpram_pram::PramMachine`. The tests in `tests/` enforce this.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combining;
pub mod combining_host;
pub mod config;
pub mod emulator;
pub mod leveled_emulator;
pub mod memory;
pub mod mesh_emulator;
pub mod star_emulator;

pub use config::{EmuReport, EmulatorConfig, StepStats};
pub use emulator::{EmuHost, InvalidCopies, PramEmulator};
pub use leveled_emulator::LeveledPramEmulator;
pub use mesh_emulator::{DirectMapTooLarge, MeshPramEmulator};
pub use star_emulator::StarPramEmulator;
