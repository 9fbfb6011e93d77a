//! # lnpram-simnet
//!
//! A synchronous, discrete-time packet-routing simulator implementing the
//! machine model every bound in Palis–Rajasekaran–Wei (1991) refers to:
//!
//! * the network is a static directed graph of point-to-point links
//!   ([`Network`](lnpram_topology::Network));
//! * in one **step**, every directed link transmits at most one packet,
//!   every node receives on all of its in-links, performs free local
//!   computation, and enqueues packets on its out-link queues;
//! * contention on a link is resolved by a pluggable **queueing
//!   discipline** (§2.2.1: FIFO for the leveled-network algorithms,
//!   furthest-destination-first for the mesh algorithm of §3.4);
//! * any number of same-destination arrivals can be combined in unit time
//!   (footnote 3) — expressed here by letting the per-node
//!   [`Protocol`] absorb or emit any number of packets.
//!
//! The engine is [`engine::Engine`], the step loop [`step::step_loop`]; routing algorithms and the
//! PRAM emulators are `Protocol` implementations in `lnpram-routing` and
//! `lnpram-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod demux;
pub mod engine;
pub mod fault;
mod groups;
pub mod metrics;
pub mod packet;
pub mod protocol;
pub mod queue;
pub mod step;
pub mod trace;

pub use demux::{TagDemux, TagMetrics};
pub use engine::{Engine, InvariantViolation, RunOutcome, SimConfig};
pub use fault::{Fault, FaultError, FaultEvent, FaultPlan, FaultSchedule};
pub use metrics::Metrics;
pub use packet::Packet;
pub use protocol::{Outbox, Protocol, Shardable};
pub use queue::Discipline;
pub use step::{close_step, run_ends, step_loop, Admission, EngineState, NoAdmission, StepEngine};
pub use trace::{
    Fanout, FlightRecorder, NoopSink, Phase, PhaseProfiler, ServeEvent, ServeEventLog,
    ServeEventParseError, StepSample, TraceSink,
};
