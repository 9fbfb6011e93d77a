//! The always-on routing service: streaming admission over one
//! long-lived engine.
//!
//! Everything else in this crate is batch — inject a request, run the
//! engine to completion, read the report. A [`ServeSession`] instead
//! keeps **one** engine (serial or sharded, per [`SimConfig::shards`])
//! stepping continuously and admits requests from many tenants at
//! arbitrary global steps, the shared-network co-routing mode: tenants
//! contend on ONE topology copy, so the service reports fairness and
//! interference per tenant instead of the isolation contract of
//! [`Router::route_batch`](crate::Router::route_batch).
//!
//! # The serve loop
//!
//! The loop *is* the engine's run loop —
//! [`step_loop`](lnpram_simnet::step_loop), the one function every run
//! goes through, reached by [`AnyEngine::run_split`] (so a sharded
//! session steps its shards on threads) — with one addition: its
//! [`Admission`] hook. At each step boundary, requests whose arrival
//! step has come are **admitted** — their pre-materialized packets
//! injected, stamped `injected_at = admission step` — so a [`TagDemux`]
//! over request slots measures true admission-to-delivery latency per
//! request.
//!
//! # Admission control and backpressure
//!
//! Before a request is admitted, the loop checks the configured
//! watermarks ([`ServeConfig::high_water_in_flight`],
//! [`ServeConfig::high_water_queue`]) against the engine's live state.
//! While a watermark is exceeded, requests wait in a FIFO admission
//! buffer (head-of-line blocking keeps the admission order — and hence
//! the whole delivery schedule — deterministic). Under
//! [`OverloadPolicy::Reject`], arrivals that would grow the buffer past
//! [`ServeConfig::admission_capacity`] are refused with a typed
//! [`ServeError::Overloaded`] instead. Once admitted, packets are never
//! dropped: they stay in the engine until delivered (or until the step
//! budget expires, in which case they remain queued and the report says
//! `completed = false`).
//!
//! # Determinism contract
//!
//! Given a fixed admission trace (a `(step, request)` list), the full
//! delivery schedule — per-request admission steps, delivered counts,
//! routing times and latency histograms — is bit-identical across runs
//! and across serial vs sharded engines for any shard count, because
//! every admission decision reads only engine state that the sharded
//! determinism contract already makes identical (`in_flight`, current
//! queue occupancy). Pinned by the property tests in
//! `tests/serve_determinism.rs`.

use crate::router::{RouteBackend, RoutePattern, RouteRequest, RunExtras};
use lnpram_math::rng::{splitmix64, SeedSeq};
use lnpram_math::stats::Histogram;
use lnpram_shard::AnyEngine;
use lnpram_simnet::fault::FaultError;
use lnpram_simnet::trace::{Phase, ServeEvent, TraceSink};
use lnpram_simnet::Fault as SimFault;
use lnpram_simnet::{
    Admission, EngineState, FaultEvent, FaultPlan, Metrics, NoopSink, Packet, SimConfig, TagDemux,
    TagMetrics,
};
use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;

/// What to do with arrivals that would overflow the admission buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Queue without bound: every request is eventually admitted (the
    /// buffer is FIFO, so backpressure delays but never reorders).
    Queue,
    /// Refuse arrivals while the buffer holds
    /// [`ServeConfig::admission_capacity`] requests, recording a typed
    /// [`ServeError::Overloaded`] on the refused request.
    Reject,
}

/// Serve-loop configuration: step budget, backpressure watermarks and
/// overload policy.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Hard cap on total serve steps (the drain budget); hitting it
    /// reports `completed = false` with the undelivered packets still
    /// queued in the engine.
    pub max_steps: u32,
    /// Admission pauses while the engine's in-flight packet count (plus
    /// packets admitted earlier in the same step) is at or above this.
    /// `0` disables the watermark.
    pub high_water_in_flight: usize,
    /// Admission pauses while any link queue's current occupancy is at
    /// or above this. `0` disables the watermark.
    pub high_water_queue: usize,
    /// Admission-buffer capacity at which [`OverloadPolicy`] applies
    /// (`usize::MAX` = unbounded).
    pub admission_capacity: usize,
    /// What to do with arrivals past the capacity.
    pub policy: OverloadPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_steps: 1_000_000,
            high_water_in_flight: 0,
            high_water_queue: 0,
            admission_capacity: usize::MAX,
            policy: OverloadPolicy::Queue,
        }
    }
}

/// Typed serve errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The admission buffer was full under [`OverloadPolicy::Reject`]
    /// when this request arrived.
    Overloaded {
        /// Global step of the refused arrival.
        step: u32,
        /// Requests waiting in the admission buffer at that moment.
        backlog: usize,
        /// The configured [`ServeConfig::admission_capacity`].
        capacity: usize,
    },
    /// The request's tenant had left the service (an
    /// [`AdmissionEntry::TenantLeave`] without a later rejoin) when the
    /// request arrived.
    TenantInactive {
        /// The inactive tenant.
        tenant: u64,
        /// Global step of the refused arrival.
        step: u32,
    },
    /// The trace's fault entries could not be installed on the engine
    /// (out-of-range link/node id or zero degrade period).
    Fault(FaultError),
    /// The admission trace is not sorted by non-decreasing step.
    UnsortedTrace {
        /// Index of the first entry whose step is below its
        /// predecessor's.
        index: usize,
    },
    /// A request names a destination (or source) outside the served
    /// topology's `0..sources`.
    DestinationOutOfRange {
        /// Index of the request's entry in the trace.
        index: usize,
        /// The first offending endpoint of the request.
        dest: usize,
        /// The topology's source count.
        sources: usize,
    },
    /// A request's relation map, or its destination vector, was made
    /// for a source count other than the served topology's.
    SourceCountMismatch {
        /// Index of the request's entry in the trace.
        index: usize,
        /// The map's source count, or the vector's length.
        got: usize,
        /// The topology's source count.
        sources: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded {
                step,
                backlog,
                capacity,
            } => write!(
                f,
                "overloaded at step {step}: admission buffer holds {backlog} \
                 of {capacity} requests"
            ),
            ServeError::TenantInactive { tenant, step } => {
                write!(f, "tenant {tenant} was inactive at step {step}")
            }
            ServeError::Fault(err) => write!(f, "fault plan rejected: {err}"),
            ServeError::UnsortedTrace { index } => write!(
                f,
                "admission trace is not sorted by step: entry {index} arrives before entry {}",
                index - 1
            ),
            ServeError::DestinationOutOfRange {
                index,
                dest,
                sources,
            } => write!(
                f,
                "trace entry {index} routes to {dest}, outside the topology's {sources} sources"
            ),
            ServeError::SourceCountMismatch {
                index,
                got,
                sources,
            } => write!(
                f,
                "trace entry {index} is made for {got} sources, but the topology has {sources}"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// One admission-trace entry. Traces must be sorted by non-decreasing
/// [`AdmissionEntry::step`]; same-step entries apply in trace order.
///
/// Beyond request arrivals, a trace scripts **tenant churn** (join /
/// leave) and **mid-trace faults** — the elasticity surface: tenants
/// come and go and links fail while the engine keeps stepping, and the
/// fixed-trace ⇒ bit-identical-schedule contract covers all of it.
#[derive(Debug, Clone)]
pub enum AdmissionEntry {
    /// `req` arrives at global step `step`.
    Request {
        /// Global step at which the request arrives at the service.
        step: u32,
        /// The request itself (pattern, seed, tenant label).
        req: RouteRequest,
    },
    /// Tenant `tenant` (re)joins at `step`: its arrivals are admissible
    /// from this step on. Tenants are active by default — a join is
    /// only needed after a [`AdmissionEntry::TenantLeave`].
    TenantJoin {
        /// Step from which the tenant's arrivals are admissible again.
        step: u32,
        /// The tenant label.
        tenant: u64,
    },
    /// Tenant `tenant` leaves at `step`: arrivals from it at or after
    /// this step are rejected with [`ServeError::TenantInactive`].
    /// Packets the tenant already has in flight (or waiting in the
    /// admission buffer) are **still delivered** — leaving stops new
    /// work, it never drops admitted work.
    TenantLeave {
        /// First step whose arrivals from this tenant are refused.
        step: u32,
        /// The tenant label.
        tenant: u64,
    },
    /// Inject `fault` at `step` (it gates the transmit phase of that
    /// step onwards). All fault entries of a trace form one
    /// [`FaultPlan`] installed on the engine for the run; an engine that
    /// cannot honor it yields a typed [`ServeError::Fault`].
    Fault {
        /// First step whose transmit phase observes the fault.
        step: u32,
        /// The link/node failure or repair.
        fault: SimFault,
    },
}

impl AdmissionEntry {
    /// A request arrival (the plain pre-elasticity trace entry).
    pub fn request(step: u32, req: RouteRequest) -> Self {
        AdmissionEntry::Request { step, req }
    }

    /// A tenant join.
    pub fn join(step: u32, tenant: u64) -> Self {
        AdmissionEntry::TenantJoin { step, tenant }
    }

    /// A tenant leave.
    pub fn leave(step: u32, tenant: u64) -> Self {
        AdmissionEntry::TenantLeave { step, tenant }
    }

    /// A mid-trace fault injection.
    pub fn fault(step: u32, fault: SimFault) -> Self {
        AdmissionEntry::Fault { step, fault }
    }

    /// The global step this entry takes effect at.
    pub fn step(&self) -> u32 {
        match self {
            AdmissionEntry::Request { step, .. }
            | AdmissionEntry::TenantJoin { step, .. }
            | AdmissionEntry::TenantLeave { step, .. }
            | AdmissionEntry::Fault { step, .. } => *step,
        }
    }
}

/// How one served request ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestStatus {
    /// Injected into the engine at the recorded global step (≥ the
    /// arrival step; the difference is time spent under backpressure).
    Admitted {
        /// Admission step.
        step: u32,
    },
    /// Refused with the carried [`ServeError::Overloaded`].
    Rejected(ServeError),
    /// Still waiting — buffered or not yet arrived — when the step
    /// budget expired (only possible on `completed = false` runs).
    Pending,
}

/// One request's end-to-end outcome.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// Trace slot (= packet tag) of this request.
    pub slot: usize,
    /// The request's tenant label.
    pub tenant: u64,
    /// Global step at which the request arrived.
    pub arrival_step: u32,
    /// Admitted (and when) or rejected.
    pub status: RequestStatus,
    /// Packets the request materializes.
    pub packets: usize,
    /// Packets actually injected (0 for rejected requests).
    pub injected: usize,
    /// Delivery metrics demuxed by tag; the latency histogram measures
    /// admission step → delivery step per packet.
    pub metrics: TagMetrics,
}

impl RequestOutcome {
    /// Was this request admitted and every packet delivered?
    pub fn completed(&self) -> bool {
        matches!(self.status, RequestStatus::Admitted { .. })
            && self.metrics.delivered == self.injected
    }

    /// Steps spent waiting in the admission buffer (0 unless
    /// backpressure deferred the request).
    pub fn queue_wait(&self) -> u32 {
        match self.status {
            RequestStatus::Admitted { step } => step - self.arrival_step,
            RequestStatus::Rejected(_) | RequestStatus::Pending => 0,
        }
    }

    /// Arrival-to-last-delivery time — queue wait plus routing time
    /// relative to arrival. `None` unless the request completed.
    pub fn completion_latency(&self) -> Option<u32> {
        if self.completed() && self.metrics.delivered > 0 {
            Some(self.metrics.routing_time - self.arrival_step)
        } else {
            None
        }
    }
}

/// One tenant's aggregate slice of a serve run — the fairness /
/// interference view of shared-network co-routing.
#[derive(Debug, Clone)]
pub struct TenantServeStats {
    /// Tenant label.
    pub tenant: u64,
    /// Requests this tenant submitted.
    pub requests: usize,
    /// Requests fully delivered.
    pub completed: usize,
    /// Requests refused under overload.
    pub rejected: usize,
    /// Packets injected.
    pub injected: usize,
    /// Packets delivered.
    pub delivered: usize,
    /// Merged admission-to-delivery latency histogram.
    pub latency: Histogram,
}

impl TenantServeStats {
    /// Mean admission-to-delivery latency of this tenant's packets.
    pub fn mean_latency(&self) -> f64 {
        if self.latency.total() == 0 {
            return 0.0;
        }
        let sum: u64 = self.latency.buckets().map(|(lo, c)| lo * c).sum();
        sum as f64 / self.latency.total() as f64
    }
}

/// Outcome of one serve run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Global steps executed.
    pub steps: u32,
    /// Every admitted packet delivered within the step budget?
    pub completed: bool,
    /// Packets injected across all admitted requests.
    pub packets: usize,
    /// Engine-level aggregate metrics; the latency histogram is the
    /// merged admission-to-delivery distribution over all packets.
    pub metrics: Metrics,
    /// Per-request outcomes in trace order.
    pub requests: Vec<RequestOutcome>,
    /// Requests admitted.
    pub admitted: usize,
    /// Requests refused under overload.
    pub rejected: usize,
    /// Total request-steps spent waiting in the admission buffer — the
    /// backpressure-engagement measure (0 = watermarks never bit).
    pub deferred_request_steps: u64,
    /// Largest admission-buffer backlog observed.
    pub max_backlog: usize,
    /// Topology context (the theorem normalizer).
    pub extras: RunExtras,
}

impl ServeReport {
    /// Admission-to-delivery latency percentile over all delivered
    /// packets (`q` in `0.0..=1.0`; p50 = `quantile(0.5)`).
    pub fn latency_quantile(&self, q: f64) -> u64 {
        self.metrics.latency.percentile(q)
    }

    /// Delivered packets per executed step — the sustained throughput
    /// the service achieved.
    pub fn throughput_per_step(&self) -> f64 {
        if self.steps == 0 {
            return 0.0;
        }
        self.metrics.delivered as f64 / f64::from(self.steps)
    }

    /// Fraction of delivered packets whose admission-to-delivery latency
    /// is at most `slo` steps.
    pub fn slo_attainment(&self, slo: u64) -> f64 {
        if self.metrics.latency.total() == 0 {
            return 1.0;
        }
        1.0 - self.metrics.latency.tail_fraction(slo)
    }

    /// Per-tenant aggregates in ascending tenant order.
    pub fn tenant_stats(&self) -> Vec<TenantServeStats> {
        let mut stats: Vec<TenantServeStats> = Vec::new();
        for req in &self.requests {
            let entry = match stats.iter_mut().find(|s| s.tenant == req.tenant) {
                Some(s) => s,
                None => {
                    stats.push(TenantServeStats {
                        tenant: req.tenant,
                        requests: 0,
                        completed: 0,
                        rejected: 0,
                        injected: 0,
                        delivered: 0,
                        latency: Histogram::new(1),
                    });
                    stats.last_mut().expect("just pushed")
                }
            };
            entry.requests += 1;
            entry.completed += usize::from(req.completed());
            entry.rejected += usize::from(matches!(req.status, RequestStatus::Rejected(_)));
            entry.injected += req.injected;
            entry.delivered += req.metrics.delivered;
            entry.latency.absorb(&req.metrics.latency);
        }
        stats.sort_by_key(|s| s.tenant);
        stats
    }

    /// Jain's fairness index over per-tenant delivered packet counts:
    /// `(Σx)² / (n·Σx²)`, 1.0 = perfectly fair, `1/n` = one tenant got
    /// everything. 1.0 on degenerate inputs (≤ 1 tenant, no traffic).
    pub fn fairness_index(&self) -> f64 {
        let stats = self.tenant_stats();
        if stats.len() <= 1 {
            return 1.0;
        }
        let sum: f64 = stats.iter().map(|s| s.delivered as f64).sum();
        let sum_sq: f64 = stats.iter().map(|s| (s.delivered as f64).powi(2)).sum();
        if sum_sq == 0.0 {
            1.0
        } else {
            sum * sum / (stats.len() as f64 * sum_sq)
        }
    }

    /// The full delivery schedule as comparable values — what the
    /// determinism property tests compare bit-for-bit across serial and
    /// sharded runs: per request, the admission step (or `None` if
    /// rejected), delivered count, routing time and the exact latency
    /// histogram.
    #[expect(
        clippy::type_complexity,
        reason = "a tuple compares with `==` for free, which is all its callers do with it"
    )]
    pub fn schedule(&self) -> Vec<(usize, Option<u32>, usize, u32, Vec<(u64, u64)>)> {
        self.requests
            .iter()
            .map(|r| {
                let admitted = match r.status {
                    RequestStatus::Admitted { step } => Some(step),
                    RequestStatus::Rejected(_) | RequestStatus::Pending => None,
                };
                (
                    r.slot,
                    admitted,
                    r.metrics.delivered,
                    r.metrics.routing_time,
                    r.metrics.latency.buckets().collect(),
                )
            })
            .collect()
    }
}

/// A synthetic open-loop arrival process: `requests` requests arrive at
/// a fixed rate (one every `interval` steps), round-robin over
/// `tenants` tenants, each routing `packets_per_request` random
/// source→destination pairs (a sparse relation map) drawn
/// deterministically from `seed`.
#[derive(Debug, Clone)]
pub struct OpenLoopWorkload {
    /// Number of tenants (round-robin request attribution).
    pub tenants: u64,
    /// Total requests in the trace.
    pub requests: usize,
    /// Steps between consecutive arrivals (0 = all at step 0).
    pub interval: u32,
    /// Random source→destination pairs per request.
    pub packets_per_request: usize,
    /// Root seed for the whole trace.
    pub seed: u64,
}

impl OpenLoopWorkload {
    /// Materialize the admission trace for a topology with `sources`
    /// packet sources. Deterministic in `self` and `sources`.
    pub fn trace(&self, sources: usize) -> Vec<AdmissionEntry> {
        assert!(sources > 0, "workload needs a non-empty topology");
        let mut state = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut entries = Vec::with_capacity(self.requests);
        for j in 0..self.requests {
            let mut pairs: Vec<(usize, usize)> = (0..self.packets_per_request)
                .map(|_| {
                    let src = (splitmix64(&mut state) as usize) % sources;
                    (src, (splitmix64(&mut state) as usize) % sources)
                })
                .collect();
            // Source ascending, draw order within a source: the order
            // `RouteRequest::relation_map` gives a dense map.
            pairs.sort_by_key(|&(src, _)| src);
            let req = RouteRequest {
                pattern: RoutePattern::RelationMap { pairs, sources },
                seed: splitmix64(&mut state),
                tenant: j as u64 % self.tenants.max(1),
            };
            entries.push(AdmissionEntry::request(j as u32 * self.interval, req));
        }
        entries
    }
}

/// One materialized request waiting for admission.
struct QueuedRequest {
    slot: usize,
    tenant: u64,
    arrival: u32,
    /// Its `(node, packet)` injections in [`Admitter::packets`].
    packets: Range<usize>,
}

/// One step-boundary trace operation, kept in trace order (request
/// arrivals interleaved with tenant churn at the same granularity the
/// trace scripts them).
enum TraceOp {
    /// Process the arrival of `queue[i]` (tenant-activity check, then
    /// the overload policy).
    Arrive(usize),
    /// Reactivate a tenant.
    Join(u64),
    /// Deactivate a tenant.
    Leave(u64),
}

/// The admission side of a serve run — the [`Admission`] hook of the
/// step loop. Built by [`ServeSession`] from the materialized trace; at
/// every step boundary it applies the due trace ops and admits from the
/// buffer head while the watermarks allow.
struct Admitter {
    cfg: ServeConfig,
    /// All materialized requests, slot order.
    queue: Vec<QueuedRequest>,
    /// Every request's injections, one range per request, slot order.
    packets: Vec<(usize, Packet)>,
    /// Arrivals and tenant churn in trace order (steps non-decreasing).
    ops: Vec<(u32, TraceOp)>,
    /// Next op not yet processed.
    next: usize,
    /// Arrivals not yet processed (trailing churn ops never extend the
    /// run on their own).
    remaining_arrivals: usize,
    /// Tenants currently inactive (left and not rejoined). Tenants are
    /// active by default.
    inactive: Vec<u64>,
    /// FIFO admission buffer of indices into `queue`.
    buffer: VecDeque<usize>,
    /// Per-slot admission step (`None` until admitted).
    admitted_at: Vec<Option<u32>>,
    /// Per-slot rejection record.
    rejected_at: Vec<Option<ServeError>>,
    deferred_request_steps: u64,
    max_backlog: usize,
}

impl Admitter {
    fn new(
        cfg: ServeConfig,
        queue: Vec<QueuedRequest>,
        packets: Vec<(usize, Packet)>,
        ops: Vec<(u32, TraceOp)>,
    ) -> Self {
        let slots = queue.len();
        let remaining_arrivals = ops
            .iter()
            .filter(|(_, op)| matches!(op, TraceOp::Arrive(_)))
            .count();
        Admitter {
            cfg,
            queue,
            packets,
            ops,
            next: 0,
            remaining_arrivals,
            inactive: Vec::new(),
            buffer: VecDeque::new(),
            admitted_at: vec![None; slots],
            rejected_at: vec![None; slots],
            deferred_request_steps: 0,
            max_backlog: 0,
        }
    }
}

impl Admission for Admitter {
    const ACTIVE: bool = true;

    /// Step-boundary admission: process due trace ops in order —
    /// tenant churn takes effect, arrivals from inactive tenants are
    /// refused, the rest enter the buffer under the overload policy —
    /// then admit from the buffer head while the watermarks allow.
    /// Runs after the step's arrivals are processed, so the watermark
    /// reads see the settled engine state — identical across serial
    /// and sharded engines.
    ///
    /// Every admission decision is reported to `sink`: tenant churn,
    /// typed rejections, admissions with their packet counts, and one
    /// [`ServeEvent::Defer`] per request left in the buffer at this
    /// boundary (the event-level counterpart of
    /// `deferred_request_steps`).
    fn admit<E, S>(&mut self, eng: &mut E, step: u32, sink: &mut S)
    where
        E: EngineState + ?Sized,
        S: TraceSink + ?Sized,
    {
        sink.on_phase_start(Phase::Admit);
        while self.next < self.ops.len() && self.ops[self.next].0 <= step {
            match self.ops[self.next].1 {
                TraceOp::Join(t) => {
                    self.inactive.retain(|&x| x != t);
                    if sink.enabled() {
                        sink.on_serve_event(&ServeEvent::TenantJoin { step, tenant: t });
                    }
                }
                TraceOp::Leave(t) => {
                    if !self.inactive.contains(&t) {
                        self.inactive.push(t);
                    }
                    if sink.enabled() {
                        sink.on_serve_event(&ServeEvent::TenantLeave { step, tenant: t });
                    }
                }
                TraceOp::Arrive(qi) => {
                    self.remaining_arrivals -= 1;
                    let req = &self.queue[qi];
                    if self.inactive.contains(&req.tenant) {
                        self.rejected_at[req.slot] = Some(ServeError::TenantInactive {
                            tenant: req.tenant,
                            step,
                        });
                        if sink.enabled() {
                            sink.on_serve_event(&ServeEvent::Reject {
                                step,
                                slot: req.slot,
                                tenant: req.tenant,
                                reason: "tenant_inactive",
                            });
                        }
                    } else if self.cfg.policy == OverloadPolicy::Reject
                        && self.buffer.len() >= self.cfg.admission_capacity
                    {
                        self.rejected_at[req.slot] = Some(ServeError::Overloaded {
                            step,
                            backlog: self.buffer.len(),
                            capacity: self.cfg.admission_capacity,
                        });
                        if sink.enabled() {
                            sink.on_serve_event(&ServeEvent::Reject {
                                step,
                                slot: req.slot,
                                tenant: req.tenant,
                                reason: "overloaded",
                            });
                        }
                    } else {
                        // Once buffered, the request is owed service:
                        // a later leave stops new arrivals only.
                        self.buffer.push_back(qi);
                    }
                }
            }
            self.next += 1;
        }
        // Packets admitted this boundary sit in the engine's pending
        // list (in_flight does not see them yet), so count them here to
        // keep the in-flight watermark honest within one step.
        let mut admitted_now = 0usize;
        while let Some(&qi) = self.buffer.front() {
            let hw_flight = self.cfg.high_water_in_flight;
            let hw_queue = self.cfg.high_water_queue;
            let over_flight = hw_flight != 0 && eng.in_flight() + admitted_now >= hw_flight;
            let over_queue = hw_queue != 0 && eng.max_queue_len() >= hw_queue;
            if over_flight || over_queue {
                break;
            }
            let req = &self.queue[qi];
            for &(node, pkt) in &self.packets[req.packets.clone()] {
                eng.inject(node, pkt);
            }
            admitted_now += req.packets.len();
            self.admitted_at[req.slot] = Some(step);
            if sink.enabled() {
                sink.on_serve_event(&ServeEvent::Admit {
                    step,
                    slot: req.slot,
                    tenant: req.tenant,
                    packets: req.packets.len(),
                });
            }
            self.buffer.pop_front();
        }
        self.max_backlog = self.max_backlog.max(self.buffer.len());
        self.deferred_request_steps += self.buffer.len() as u64;
        if sink.enabled() {
            for &qi in &self.buffer {
                let req = &self.queue[qi];
                sink.on_serve_event(&ServeEvent::Defer {
                    step,
                    slot: req.slot,
                    tenant: req.tenant,
                });
            }
        }
        sink.on_phase_end(Phase::Admit);
    }

    /// Requests not yet admitted or rejected (buffered or still in the
    /// future of the trace).
    fn outstanding(&self) -> bool {
        self.remaining_arrivals > 0 || !self.buffer.is_empty()
    }

    fn backlog(&self) -> usize {
        self.buffer.len()
    }
}

/// An object-safe serve interface — the serving counterpart of
/// [`Router`](crate::Router), so the CLI dispatches `Box<dyn Serve>`
/// over topologies.
pub trait Serve {
    /// Serve a fixed admission trace. The entries must be sorted by
    /// non-decreasing step ([`ServeError::UnsortedTrace`] otherwise).
    fn run_trace(&mut self, trace: &[AdmissionEntry]) -> Result<ServeReport, ServeError>;

    /// [`Serve::run_trace`] reporting serve events (admissions,
    /// deferrals, typed rejections, tenant churn, scripted faults,
    /// per-request completions), phase windows and per-step samples to
    /// `sink` — same report, same schedule.
    fn run_trace_traced(
        &mut self,
        trace: &[AdmissionEntry],
        sink: &mut dyn TraceSink,
    ) -> Result<ServeReport, ServeError>;

    /// Packet sources of the served topology.
    fn num_sources(&self) -> usize;

    /// Human-readable topology name.
    fn topology(&self) -> String;

    /// Is the long-lived engine sharded?
    fn is_sharded(&self) -> bool;

    /// Serve a synthetic open-loop workload (its trace materialized for
    /// this topology's source count).
    fn run_open_loop(&mut self, workload: &OpenLoopWorkload) -> Result<ServeReport, ServeError> {
        let trace = workload.trace(self.num_sources());
        self.run_trace(&trace)
    }
}

/// A long-lived serving session over any [`RouteBackend`]: topology,
/// partition plan and [`AnyEngine`] built **once**, then any number of
/// admission traces served through [`Serve::run_trace`], recycling the
/// engine per trace.
pub struct ServeSession<B: RouteBackend> {
    backend: B,
    engine: AnyEngine,
    cfg: ServeConfig,
}

impl<B: RouteBackend> ServeSession<B> {
    /// Session over `backend` (serial or sharded per `sim.shards`).
    /// `sim.max_steps` is superseded by [`ServeConfig::max_steps`] — the
    /// serve loop owns the step budget.
    pub fn new(backend: B, sim: &SimConfig, cfg: ServeConfig) -> Self {
        let engine = backend.build_engine(1, sim);
        ServeSession {
            backend,
            engine,
            cfg,
        }
    }

    /// The topology-side backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The serve configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Replace the serve configuration (budget, watermarks, policy) for
    /// subsequent traces; the long-lived engine is kept.
    pub fn set_config(&mut self, cfg: ServeConfig) {
        self.cfg = cfg;
    }

    /// Packets still queued in the engine (non-zero only after an
    /// incomplete trace: admitted packets are never dropped, they stay
    /// queued when the step budget expires).
    pub fn in_flight(&self) -> usize {
        self.engine.in_flight()
    }

    /// Nodes of the served engine — valid node ids for
    /// [`AdmissionEntry::Fault`] entries are `0..num_nodes`.
    pub fn num_nodes(&self) -> usize {
        self.engine.num_nodes()
    }

    /// Links of the served engine — valid link ids for
    /// [`AdmissionEntry::Fault`] entries are `0..num_links`.
    pub fn num_links(&self) -> usize {
        self.engine.num_links()
    }

    /// One trace on the long-lived engine. Generic over the sink, so
    /// [`Serve::run_trace`]'s [`NoopSink`] instance is the
    /// uninstrumented loop.
    fn serve_trace<S: TraceSink + ?Sized>(
        &mut self,
        trace: &[AdmissionEntry],
        sink: &mut S,
    ) -> Result<ServeReport, ServeError> {
        if let Some(i) = trace.windows(2).position(|w| w[0].step() > w[1].step()) {
            return Err(ServeError::UnsortedTrace { index: i + 1 });
        }
        self.engine.reset();
        // Materialize every request's packets up front: the backend's
        // injection routine writes into the engine's pending list, which
        // is immediately drained into the trace's one packet buffer — so
        // packets exist before the protocol (which may borrow the backend)
        // is constructed, and admission later is a plain re-inject at the
        // admission step.
        // Churn entries become admission ops, fault entries one FaultPlan
        // installed for the whole run.
        let mut queue = Vec::new();
        let mut packets = Vec::new();
        let mut ops = Vec::with_capacity(trace.len());
        let mut fault_events = Vec::new();
        let sources = self.backend.sources();
        for (index, entry) in trace.iter().enumerate() {
            match entry {
                AdmissionEntry::Request { step, req } => {
                    if let Some(got) = req.pattern.source_count().filter(|&n| n != sources) {
                        return Err(ServeError::SourceCountMismatch {
                            index,
                            got,
                            sources,
                        });
                    }
                    if let Some(dest) = req.pattern.out_of_range(sources) {
                        return Err(ServeError::DestinationOutOfRange {
                            index,
                            dest,
                            sources,
                        });
                    }
                    let slot = queue.len();
                    let count = self.backend.inject(
                        &mut self.engine,
                        0,
                        req.pattern.as_ref(),
                        SeedSeq::new(req.seed),
                        slot as u64,
                    );
                    let start = packets.len();
                    self.engine.drain_pending_into(&mut packets);
                    debug_assert_eq!(packets.len() - start, count, "inject count mismatch");
                    ops.push((*step, TraceOp::Arrive(slot)));
                    queue.push(QueuedRequest {
                        slot,
                        tenant: req.tenant,
                        arrival: *step,
                        packets: start..packets.len(),
                    });
                }
                AdmissionEntry::TenantJoin { step, tenant } => {
                    ops.push((*step, TraceOp::Join(*tenant)));
                }
                AdmissionEntry::TenantLeave { step, tenant } => {
                    ops.push((*step, TraceOp::Leave(*tenant)));
                }
                AdmissionEntry::Fault { step, fault } => {
                    if sink.enabled() {
                        sink.on_serve_event(&ServeEvent::fault(*step, fault));
                    }
                    fault_events.push(FaultEvent {
                        step: *step,
                        fault: *fault,
                    });
                }
            }
        }
        if !fault_events.is_empty() {
            // The engine clock counts transmit phases since reset(),
            // which in the serve loop is exactly the global step — a
            // fault at trace step s gates the transmit of serve step s.
            let plan = FaultPlan::new(fault_events);
            self.engine
                .set_fault_plan(&plan)
                .map_err(ServeError::Fault)?;
        }
        let mut admit = Admitter::new(self.cfg.clone(), queue, packets, ops);
        let mut demux = TagDemux::new(self.backend.protocol(), admit.queue.len());
        let run = self
            .engine
            .run_split(&mut demux, sink, &mut admit, self.cfg.max_steps);

        let requests: Vec<RequestOutcome> = demux
            .into_metrics()
            .into_iter()
            .enumerate()
            .map(|(slot, metrics)| {
                let size = admit.queue[slot].packets.len();
                let status = match (&admit.admitted_at[slot], &admit.rejected_at[slot]) {
                    (Some(step), _) => RequestStatus::Admitted { step: *step },
                    (None, Some(err)) => RequestStatus::Rejected(err.clone()),
                    // Only a budget-exhausted loop leaves a request
                    // neither admitted nor rejected.
                    (None, None) => {
                        debug_assert!(!run.completed);
                        RequestStatus::Pending
                    }
                };
                let injected = match status {
                    RequestStatus::Admitted { .. } => size,
                    RequestStatus::Rejected(_) | RequestStatus::Pending => 0,
                };
                RequestOutcome {
                    slot,
                    tenant: admit.queue[slot].tenant,
                    arrival_step: admit.queue[slot].arrival,
                    status,
                    packets: size,
                    injected,
                    metrics,
                }
            })
            .collect();
        if sink.enabled() {
            // Completions are known only once the demuxed metrics are
            // in; appended post-run in slot order, each stamped with its
            // last-delivery step.
            for req in &requests {
                if let Some(latency) = req.completion_latency() {
                    sink.on_serve_event(&ServeEvent::Complete {
                        step: req.metrics.routing_time,
                        slot: req.slot,
                        tenant: req.tenant,
                        latency,
                    });
                }
            }
        }
        let admitted = requests
            .iter()
            .filter(|r| matches!(r.status, RequestStatus::Admitted { .. }))
            .count();
        Ok(ServeReport {
            steps: run.metrics.steps,
            completed: run.completed,
            packets: requests.iter().map(|r| r.injected).sum(),
            metrics: run.metrics,
            rejected: requests
                .iter()
                .filter(|r| matches!(r.status, RequestStatus::Rejected(_)))
                .count(),
            admitted,
            deferred_request_steps: admit.deferred_request_steps,
            max_backlog: admit.max_backlog,
            requests,
            extras: self.backend.extras(),
        })
    }
}

impl<B: RouteBackend> Serve for ServeSession<B> {
    fn run_trace(&mut self, trace: &[AdmissionEntry]) -> Result<ServeReport, ServeError> {
        self.serve_trace(trace, &mut NoopSink)
    }

    fn run_trace_traced(
        &mut self,
        trace: &[AdmissionEntry],
        sink: &mut dyn TraceSink,
    ) -> Result<ServeReport, ServeError> {
        self.serve_trace(trace, sink)
    }

    fn num_sources(&self) -> usize {
        self.backend.sources()
    }

    fn topology(&self) -> String {
        self.backend.name()
    }

    fn is_sharded(&self) -> bool {
        self.engine.is_sharded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leveled::LeveledBackend;
    use crate::router::Router;
    use lnpram_topology::RadixButterfly;

    fn session(shards: usize, cfg: ServeConfig) -> ServeSession<LeveledBackend<RadixButterfly>> {
        let sim = SimConfig {
            shards,
            ..SimConfig::default()
        };
        ServeSession::new(LeveledBackend::new(RadixButterfly::new(2, 6)), &sim, cfg)
    }

    #[test]
    fn all_at_step_zero_matches_batch_route() {
        // A trace with every request at step 0 and no watermarks is the
        // batch path: the aggregate metrics must match Router::route of
        // the same single request.
        let mut serve = session(0, ServeConfig::default());
        let req = RouteRequest::permutation(42);
        let report = serve
            .run_trace(&[AdmissionEntry::request(0, req.clone())])
            .expect("leveled serves");
        let sim = SimConfig::default();
        let mut router = crate::LeveledRoutingSession::with_backend(
            LeveledBackend::new(RadixButterfly::new(2, 6)),
            sim,
        );
        let batch = router.route(&req);
        assert!(report.completed);
        assert_eq!(report.metrics.routing_time, batch.metrics.routing_time);
        assert_eq!(report.metrics.delivered, batch.metrics.delivered);
        assert_eq!(report.packets, batch.packets);
        assert!(report
            .metrics
            .latency
            .buckets()
            .eq(batch.metrics.latency.buckets()));
    }

    /// A destination past the topology's last source is a typed error
    /// of the trace, found while it is materialized — not a packet
    /// routed somewhere and counted delivered.
    #[test]
    fn out_of_range_destination_is_a_typed_error() {
        let mut serve = session(0, ServeConfig::default());
        let mut relation = vec![Vec::new(); 64];
        relation[3] = vec![5, 64];
        let trace = [
            AdmissionEntry::request(0, RouteRequest::permutation(1)),
            AdmissionEntry::request(4, RouteRequest::relation_map(relation, 2)),
        ];
        let err = serve.run_trace(&trace).expect_err("destination 64 of 64");
        assert_eq!(
            err,
            ServeError::DestinationOutOfRange {
                index: 1,
                dest: 64,
                sources: 64
            }
        );
        assert_eq!(
            err.to_string(),
            "trace entry 1 routes to 64, outside the topology's 64 sources"
        );
        let dests = RouteRequest::dests((0..64).map(|d| d * 2).collect(), 3);
        let err = serve.run_trace(&[AdmissionEntry::request(0, dests)]);
        assert_eq!(
            err.expect_err("destinations up to 126"),
            ServeError::DestinationOutOfRange {
                index: 0,
                dest: 64,
                sources: 64
            }
        );
        // The session is still usable.
        let ok = serve.run_trace(&trace[..1]).expect("in range");
        assert!(ok.completed);
    }

    /// A relation map drawn over another topology's source count, or a
    /// destination vector of another length, is a typed error of the
    /// trace too, not a panic inside the backend.
    #[test]
    fn explicit_pattern_over_the_wrong_source_count_is_a_typed_error() {
        let mut serve = session(0, ServeConfig::default());
        let mut relation = vec![Vec::new(); 32];
        relation[3] = vec![5, 31];
        let trace = [
            AdmissionEntry::request(0, RouteRequest::permutation(1)),
            AdmissionEntry::request(4, RouteRequest::relation_map(relation, 2)),
        ];
        let err = serve.run_trace(&trace).expect_err("32 sources of 64");
        assert_eq!(
            err,
            ServeError::SourceCountMismatch {
                index: 1,
                got: 32,
                sources: 64
            }
        );
        assert_eq!(
            err.to_string(),
            "trace entry 1 is made for 32 sources, but the topology has 64"
        );
        let short = RouteRequest::dests((0..63).collect(), 3);
        let err = serve.run_trace(&[AdmissionEntry::request(0, short)]);
        assert_eq!(
            err.expect_err("63 destinations for 64 sources"),
            ServeError::SourceCountMismatch {
                index: 0,
                got: 63,
                sources: 64
            }
        );
        let ok = serve.run_trace(&trace[..1]).expect("no explicit pattern");
        assert!(ok.completed);
    }

    #[test]
    fn staggered_admission_measures_latency_from_admission() {
        let mut serve = session(0, ServeConfig::default());
        let late = 50u32;
        let report = serve
            .run_trace(&[
                AdmissionEntry::request(0, RouteRequest::permutation(1).with_tenant(0)),
                AdmissionEntry::request(late, RouteRequest::permutation(2).with_tenant(1)),
            ])
            .expect("leveled serves");
        assert!(report.completed);
        assert_eq!(report.admitted, 2);
        let second = &report.requests[1];
        assert_eq!(second.status, RequestStatus::Admitted { step: late });
        // Latency counts from admission, not from step 0: the late
        // request's deliveries land after step `late`, yet its latency
        // histogram must look like an uncongested fresh run (max far
        // below `late`).
        assert!(second.metrics.routing_time > late);
        assert!(second.metrics.latency.max() < u64::from(late));
    }

    #[test]
    fn backpressure_defers_but_never_drops() {
        // Tiny watermark: only a handful of packets may be in flight, so
        // later requests must wait in the admission buffer; every
        // admitted packet is still delivered.
        let cfg = ServeConfig {
            high_water_in_flight: 8,
            ..ServeConfig::default()
        };
        let mut serve = session(0, cfg);
        let trace: Vec<AdmissionEntry> = (0..4)
            .map(|i| AdmissionEntry::request(0, RouteRequest::permutation(100 + i).with_tenant(i)))
            .collect();
        let report = serve.run_trace(&trace).expect("leveled serves");
        assert!(report.completed);
        assert_eq!(report.rejected, 0);
        assert!(
            report.deferred_request_steps > 0,
            "watermark must defer admissions"
        );
        assert!(report.max_backlog > 0);
        for req in &report.requests {
            assert!(req.completed(), "admitted packets are never dropped");
            assert_eq!(req.metrics.delivered, req.injected);
        }
        assert_eq!(serve.in_flight(), 0);
        // Admission order is FIFO: admission steps are non-decreasing
        // in trace order.
        let steps: Vec<u32> = report
            .requests
            .iter()
            .map(|r| match r.status {
                RequestStatus::Admitted { step } => step,
                _ => unreachable!(),
            })
            .collect();
        assert!(steps.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn reject_policy_returns_typed_overload() {
        let cfg = ServeConfig {
            high_water_in_flight: 4,
            admission_capacity: 1,
            policy: OverloadPolicy::Reject,
            ..ServeConfig::default()
        };
        let mut serve = session(0, cfg);
        let trace: Vec<AdmissionEntry> = (0..6)
            .map(|i| AdmissionEntry::request(0, RouteRequest::permutation(7 + i).with_tenant(i)))
            .collect();
        let report = serve.run_trace(&trace).expect("leveled serves");
        assert!(report.rejected > 0, "capacity 1 must refuse arrivals");
        assert_eq!(report.admitted + report.rejected, trace.len());
        let rejected = report
            .requests
            .iter()
            .find(|r| matches!(r.status, RequestStatus::Rejected(_)))
            .expect("at least one rejection");
        match &rejected.status {
            RequestStatus::Rejected(ServeError::Overloaded { capacity, .. }) => {
                assert_eq!(*capacity, 1usize);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(rejected.injected, 0);
        assert_eq!(rejected.metrics.delivered, 0);
        // Admitted requests still complete.
        for req in &report.requests {
            if matches!(req.status, RequestStatus::Admitted { .. }) {
                assert!(req.completed());
            }
        }
    }

    #[test]
    fn open_loop_workload_is_deterministic_and_fair() {
        let wl = OpenLoopWorkload {
            tenants: 3,
            requests: 12,
            interval: 2,
            packets_per_request: 4,
            seed: 9,
        };
        let t1 = wl.trace(64);
        let t2 = wl.trace(64);
        assert_eq!(t1.len(), 12);
        for (a, b) in t1.iter().zip(&t2) {
            let (
                AdmissionEntry::Request { step: s1, req: r1 },
                AdmissionEntry::Request { step: s2, req: r2 },
            ) = (a, b)
            else {
                panic!("open-loop traces hold only request entries");
            };
            assert_eq!(s1, s2);
            assert_eq!(r1, r2);
        }
        assert_eq!(t1[5].step(), 10);
        let AdmissionEntry::Request { req, .. } = &t1[5] else {
            unreachable!()
        };
        assert_eq!(req.tenant, 5 % 3);

        let mut serve = session(0, ServeConfig::default());
        let report = serve.run_open_loop(&wl).expect("leveled serves");
        assert!(report.completed);
        assert_eq!(report.admitted, 12);
        let stats = report.tenant_stats();
        assert_eq!(stats.len(), 3);
        assert_eq!(
            stats.iter().map(|s| s.requests).sum::<usize>(),
            report.requests.len()
        );
        let fairness = report.fairness_index();
        assert!(fairness > 0.0 && fairness <= 1.0 + 1e-12);
    }
}
