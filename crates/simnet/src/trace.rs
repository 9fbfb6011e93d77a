//! Deterministic telemetry: the [`TraceSink`] hook and its built-in
//! sinks.
//!
//! The engine's step loop reports what it does — phase boundaries,
//! transmitted arrivals, fault applications, per-step state samples —
//! to a [`TraceSink`]. Three properties make this safe to leave wired
//! into the hot path:
//!
//! * **Zero cost when off.** The step loop
//!   ([`step_loop`](crate::step_loop)) and everything that calls it —
//!   engine `run`, backend `run`, `Router::route`, `Serve::run_trace`
//!   — is generic over `S: TraceSink`; the untraced entry points
//!   instantiate it with [`NoopSink`], whose
//!   [`enabled`](TraceSink::enabled) returns a compile-time `false`.
//!   After monomorphization the no-op calls and every
//!   `sink.enabled()`-gated block constant-fold away, so the untraced
//!   loop compiles to exactly the uninstrumented code. Only the
//!   object-safe `route_traced` / `run_trace_traced` trait methods
//!   pass `&mut dyn TraceSink`.
//! * **Observation only.** A sink receives copies of counters and
//!   samples; it cannot mutate engine state, so any run is bit-identical
//!   with any sink installed (property-pinned in
//!   `tests/trace_neutrality.rs` of `lnpram-routing`).
//! * **Sinks own their clocks.** Wall-clock reads happen inside the
//!   [`PhaseProfiler`]'s callbacks, not in the engine, so sinks that
//!   don't profile never touch `Instant`.
//!
//! Built-in sinks: [`FlightRecorder`] (bounded ring buffer of per-step
//! [`StepSample`]s + per-shard boundary counts, JSON export),
//! [`PhaseProfiler`] (wall-clock per [`Phase`], total and per shard),
//! and [`ServeEventLog`] (JSONL log of [`ServeEvent`]s from the serve
//! layer). [`Fanout`] tees one run into two sinks.

#![expect(
    clippy::disallowed_types,
    reason = "the PhaseProfiler is the one place engine crates read the clock: inside its own callbacks, never in the engine"
)]

use crate::fault::Fault;
use std::collections::VecDeque;
use std::time::Instant;

/// The engine phases a [`TraceSink`] can time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Link transmit: every active link pops ≤ 1 packet.
    Transmit,
    /// Nothing emits this phase any more: shard plans are contiguous, so
    /// the shards' arrivals need no merge. The variant stays because
    /// `bench_layers/src/workloads/serve.rs` names it; removing it waits
    /// for an issue that may touch `bench_layers/`.
    Exchange,
    /// Protocol callbacks over this step's arrivals (and injections).
    Process,
    /// Serve-only: the admission boundary (due ops + buffered requests).
    Admit,
}

impl Phase {
    /// All phases, in [`Phase::index`] order.
    pub const ALL: [Phase; 4] = [
        Phase::Transmit,
        Phase::Exchange,
        Phase::Process,
        Phase::Admit,
    ];

    /// Dense index (for per-phase accumulator arrays).
    pub fn index(self) -> usize {
        match self {
            Phase::Transmit => 0,
            Phase::Exchange => 1,
            Phase::Process => 2,
            Phase::Admit => 3,
        }
    }

    /// Stable lowercase name (used in reports and JSON).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Transmit => "transmit",
            Phase::Exchange => "exchange",
            Phase::Process => "process",
            Phase::Admit => "admit",
        }
    }
}

/// One step's state snapshot, emitted at the end of every step by the
/// step loop (and sampled by the [`FlightRecorder`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepSample {
    /// Global step number (0 = the injection step).
    pub step: u32,
    /// Packets still queued after this step.
    pub in_flight: usize,
    /// Packets that traversed a link this step.
    pub arrivals: usize,
    /// Packets delivered this step.
    pub deliveries: usize,
    /// Longest link queue after this step.
    pub max_queue_len: usize,
    /// Serve-only: requests waiting in the admission buffer (0 outside
    /// the serve loop).
    pub backlog: usize,
}

/// One serve-layer event (see [`ServeEventLog`] for the JSONL schema).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEvent {
    /// Request `slot` of `tenant` was admitted: `packets` packets
    /// injected at `step`.
    Admit {
        /// Admission step.
        step: u32,
        /// Request slot (index into the trace's requests).
        slot: usize,
        /// Owning tenant.
        tenant: u64,
        /// Packets the request injected.
        packets: usize,
    },
    /// Request `slot` stayed in the admission buffer at `step`'s
    /// boundary (backpressure deferral; emitted once per deferred step).
    Defer {
        /// Step whose admission boundary deferred the request.
        step: u32,
        /// Request slot.
        slot: usize,
        /// Owning tenant.
        tenant: u64,
    },
    /// Request `slot` was rejected with a typed reason.
    Reject {
        /// Rejection step.
        step: u32,
        /// Request slot.
        slot: usize,
        /// Owning tenant.
        tenant: u64,
        /// `"tenant_inactive"` or `"overloaded"`.
        reason: &'static str,
    },
    /// Tenant joined (became admissible) at `step`.
    TenantJoin {
        /// Join step.
        step: u32,
        /// Tenant id.
        tenant: u64,
    },
    /// Tenant left at `step` (in-flight work still delivers).
    TenantLeave {
        /// Leave step.
        step: u32,
        /// Tenant id.
        tenant: u64,
    },
    /// A scripted fault entry (scheduled at `step`; `kind` names the
    /// [`Fault`] variant, `target` the link or node id, `period` the
    /// degrade duty cycle — 0 for non-degrade faults).
    Fault {
        /// Scheduled step.
        step: u32,
        /// Fault variant name.
        kind: &'static str,
        /// Link or node id the fault targets.
        target: usize,
        /// Degrade period (0 unless `kind == "link_degrade"`).
        period: u32,
    },
    /// All of request `slot`'s packets delivered; `latency` is the
    /// admission-to-last-delivery step count.
    Complete {
        /// Step of the request's last delivery.
        step: u32,
        /// Request slot.
        slot: usize,
        /// Owning tenant.
        tenant: u64,
        /// Admission-to-delivery latency in steps.
        latency: u32,
    },
    /// One rip-up iteration of an adaptive pricing run (emitted by
    /// `route_traced` before stepping begins — pricing happens at
    /// injection time, so the step is always 0). The per-`iter`
    /// `max_load` series is the router's convergence curve.
    RouteIteration {
        /// Pricing iteration index (0 = initial pass).
        iter: u32,
        /// Max link load after the iteration.
        max_load: u32,
        /// Paths (re-)routed in the iteration.
        rerouted: u32,
    },
}

impl ServeEvent {
    /// The [`ServeEvent::Fault`] record for a scripted `fault` at `step`.
    pub fn fault(step: u32, fault: &Fault) -> Self {
        let (kind, target, period) = match *fault {
            Fault::LinkFail { link } => ("link_fail", link, 0),
            Fault::LinkDegrade { link, period } => ("link_degrade", link, period),
            Fault::LinkRecover { link } => ("link_recover", link, 0),
            Fault::NodeFail { node } => ("node_fail", node, 0),
            Fault::NodeRecover { node } => ("node_recover", node, 0),
        };
        ServeEvent::Fault {
            step,
            kind,
            target,
            period,
        }
    }

    /// Every event name, in declaration order (the order reports list
    /// them in).
    pub const NAMES: [&'static str; 8] = [
        "admit",
        "defer",
        "reject",
        "tenant_join",
        "tenant_leave",
        "fault",
        "complete",
        "route_iteration",
    ];

    /// Stable lowercase event name (the JSONL `"event"` field).
    pub fn name(&self) -> &'static str {
        match self {
            ServeEvent::Admit { .. } => "admit",
            ServeEvent::Defer { .. } => "defer",
            ServeEvent::Reject { .. } => "reject",
            ServeEvent::TenantJoin { .. } => "tenant_join",
            ServeEvent::TenantLeave { .. } => "tenant_leave",
            ServeEvent::Fault { .. } => "fault",
            ServeEvent::Complete { .. } => "complete",
            ServeEvent::RouteIteration { .. } => "route_iteration",
        }
    }

    /// The event's step field.
    pub fn step(&self) -> u32 {
        match *self {
            ServeEvent::Admit { step, .. }
            | ServeEvent::Defer { step, .. }
            | ServeEvent::Reject { step, .. }
            | ServeEvent::TenantJoin { step, .. }
            | ServeEvent::TenantLeave { step, .. }
            | ServeEvent::Fault { step, .. }
            | ServeEvent::Complete { step, .. } => step,
            // Pricing precedes stepping, so the whole series is step 0.
            ServeEvent::RouteIteration { .. } => 0,
        }
    }

    /// One JSONL line (no trailing newline). Every value is a number or
    /// a fixed identifier, so no string escaping is needed.
    pub fn to_json_line(&self) -> String {
        match *self {
            ServeEvent::Admit {
                step,
                slot,
                tenant,
                packets,
            } => format!(
                "{{\"event\": \"admit\", \"step\": {step}, \"slot\": {slot}, \
                 \"tenant\": {tenant}, \"packets\": {packets}}}"
            ),
            ServeEvent::Defer { step, slot, tenant } => format!(
                "{{\"event\": \"defer\", \"step\": {step}, \"slot\": {slot}, \
                 \"tenant\": {tenant}}}"
            ),
            ServeEvent::Reject {
                step,
                slot,
                tenant,
                reason,
            } => format!(
                "{{\"event\": \"reject\", \"step\": {step}, \"slot\": {slot}, \
                 \"tenant\": {tenant}, \"reason\": \"{reason}\"}}"
            ),
            ServeEvent::TenantJoin { step, tenant } => {
                format!("{{\"event\": \"tenant_join\", \"step\": {step}, \"tenant\": {tenant}}}")
            }
            ServeEvent::TenantLeave { step, tenant } => {
                format!("{{\"event\": \"tenant_leave\", \"step\": {step}, \"tenant\": {tenant}}}")
            }
            ServeEvent::Fault {
                step,
                kind,
                target,
                period,
            } => format!(
                "{{\"event\": \"fault\", \"step\": {step}, \"kind\": \"{kind}\", \
                 \"target\": {target}, \"period\": {period}}}"
            ),
            ServeEvent::Complete {
                step,
                slot,
                tenant,
                latency,
            } => format!(
                "{{\"event\": \"complete\", \"step\": {step}, \"slot\": {slot}, \
                 \"tenant\": {tenant}, \"latency\": {latency}}}"
            ),
            ServeEvent::RouteIteration {
                iter,
                max_load,
                rerouted,
            } => format!(
                "{{\"event\": \"route_iteration\", \"step\": 0, \"iter\": {iter}, \
                 \"max_load\": {max_load}, \"rerouted\": {rerouted}}}"
            ),
        }
    }

    /// Read back one line written by [`to_json_line`](Self::to_json_line):
    /// a flat object whose values are numbers or fixed identifiers, so
    /// none contains `,`, `:` or an escape. Fields may come in any order
    /// and ones the variant does not hold are ignored.
    pub fn from_json_line(line: &str) -> Result<Self, ServeEventParseError> {
        let line = line.trim();
        let line = line.strip_prefix('{').unwrap_or(line);
        let f = Fields(line.strip_suffix('}').unwrap_or(line));
        Ok(match f.raw("event")? {
            "admit" => ServeEvent::Admit {
                step: f.num("step")?,
                slot: f.num("slot")?,
                tenant: f.num("tenant")?,
                packets: f.num("packets")?,
            },
            "defer" => ServeEvent::Defer {
                step: f.num("step")?,
                slot: f.num("slot")?,
                tenant: f.num("tenant")?,
            },
            "reject" => ServeEvent::Reject {
                step: f.num("step")?,
                slot: f.num("slot")?,
                tenant: f.num("tenant")?,
                reason: f.ident("reason", &REJECT_REASONS)?,
            },
            "tenant_join" => ServeEvent::TenantJoin {
                step: f.num("step")?,
                tenant: f.num("tenant")?,
            },
            "tenant_leave" => ServeEvent::TenantLeave {
                step: f.num("step")?,
                tenant: f.num("tenant")?,
            },
            "fault" => ServeEvent::Fault {
                step: f.num("step")?,
                kind: f.ident("kind", &FAULT_KINDS)?,
                target: f.num("target")?,
                period: f.num("period")?,
            },
            "complete" => ServeEvent::Complete {
                step: f.num("step")?,
                slot: f.num("slot")?,
                tenant: f.num("tenant")?,
                latency: f.num("latency")?,
            },
            "route_iteration" => ServeEvent::RouteIteration {
                iter: f.num("iter")?,
                max_load: f.num("max_load")?,
                rerouted: f.num("rerouted")?,
            },
            _ => return Err(ServeEventParseError::UnknownEvent),
        })
    }
}

/// The identifiers a `Reject`'s `reason` and a `Fault`'s `kind` can hold.
const REJECT_REASONS: [&str; 2] = ["tenant_inactive", "overloaded"];
const FAULT_KINDS: [&str; 5] = [
    "link_fail",
    "link_degrade",
    "link_recover",
    "node_fail",
    "node_recover",
];

/// The `key: value` fields between the braces of one event line.
struct Fields<'a>(&'a str);

impl<'a> Fields<'a> {
    fn raw(&self, key: &'static str) -> Result<&'a str, ServeEventParseError> {
        self.0
            .split(',')
            .filter_map(|field| field.split_once(':'))
            .find(|(k, _)| k.trim().trim_matches('"') == key)
            .map(|(_, v)| v.trim().trim_matches('"'))
            .ok_or(ServeEventParseError::MissingField(key))
    }

    fn num<T: std::str::FromStr>(&self, key: &'static str) -> Result<T, ServeEventParseError> {
        let value = self.raw(key)?;
        value
            .parse()
            .map_err(|_| ServeEventParseError::MissingField(key))
    }

    fn ident(
        &self,
        key: &'static str,
        names: &[&'static str],
    ) -> Result<&'static str, ServeEventParseError> {
        let value = self.raw(key)?;
        let known = names.iter().find(|&&name| name == value);
        known
            .copied()
            .ok_or(ServeEventParseError::MissingField(key))
    }
}

/// Why a line is not a [`ServeEvent`] (see
/// [`ServeEvent::from_json_line`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEventParseError {
    /// The named field is absent, or its value is not one the field can
    /// hold (not a number, not a known identifier).
    MissingField(&'static str),
    /// The `"event"` field names no variant.
    UnknownEvent,
}

impl std::fmt::Display for ServeEventParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeEventParseError::MissingField(field) => write!(f, "missing {field} field"),
            ServeEventParseError::UnknownEvent => write!(f, "unknown event"),
        }
    }
}

/// Observer of a traced run. Every method has an empty default, so a
/// sink implements only what it consumes; all callbacks are
/// observation-only (no way to mutate the run).
///
/// The trait is object-safe — `&mut dyn TraceSink` flows through the
/// object-safe `Router`/`Serve` traits into the generic engine methods
/// via the blanket `impl TraceSink for &mut T`.
pub trait TraceSink {
    /// `false` lets the instrumented loop skip sample assembly entirely
    /// ([`NoopSink`] returns a compile-time `false`, so the gated blocks
    /// constant-fold away under monomorphization). Default: `true`.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// A new step is starting (called before its transmit phase).
    #[inline]
    fn on_step_begin(&mut self, step: u32) {
        let _ = step;
    }

    /// `phase` is starting (whole-engine scope).
    #[inline]
    fn on_phase_start(&mut self, phase: Phase) {
        let _ = phase;
    }

    /// `phase` finished (whole-engine scope).
    #[inline]
    fn on_phase_end(&mut self, phase: Phase) {
        let _ = phase;
    }

    /// `phase` is starting on one shard (the sharded engine's transmit).
    #[inline]
    fn on_shard_phase_start(&mut self, shard: usize, phase: Phase) {
        let _ = (shard, phase);
    }

    /// `phase` finished on one shard.
    #[inline]
    fn on_shard_phase_end(&mut self, shard: usize, phase: Phase) {
        let _ = (shard, phase);
    }

    /// A fault schedule flipped `link` to `blocked` at `step`.
    #[inline]
    fn on_fault(&mut self, step: u32, link: usize, blocked: bool) {
        let _ = (step, link, blocked);
    }

    /// `packets` of shard `shard`'s arrivals this step are headed for a
    /// node another shard owns.
    #[inline]
    fn on_boundary(&mut self, shard: usize, packets: usize) {
        let _ = (shard, packets);
    }

    /// End-of-step snapshot (only emitted when [`enabled`](Self::enabled)
    /// — assembling the sample costs a queue scan).
    #[inline]
    fn on_step_end(&mut self, sample: &StepSample) {
        let _ = sample;
    }

    /// A serve-layer event (admissions, deferrals, faults, completions).
    #[inline]
    fn on_serve_event(&mut self, event: &ServeEvent) {
        let _ = event;
    }
}

/// The disabled sink: every callback is empty and
/// [`enabled`](TraceSink::enabled) is a compile-time `false`, so the
/// untraced entry points (which delegate to the traced ones with this
/// sink) compile to exactly the uninstrumented loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }
}

/// Forward through mutable references, so `&mut dyn TraceSink` (and
/// `&mut ConcreteSink`) can be passed anywhere an `S: TraceSink` is
/// expected.
impl<T: TraceSink + ?Sized> TraceSink for &mut T {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
    #[inline]
    fn on_step_begin(&mut self, step: u32) {
        (**self).on_step_begin(step);
    }
    #[inline]
    fn on_phase_start(&mut self, phase: Phase) {
        (**self).on_phase_start(phase);
    }
    #[inline]
    fn on_phase_end(&mut self, phase: Phase) {
        (**self).on_phase_end(phase);
    }
    #[inline]
    fn on_shard_phase_start(&mut self, shard: usize, phase: Phase) {
        (**self).on_shard_phase_start(shard, phase);
    }
    #[inline]
    fn on_shard_phase_end(&mut self, shard: usize, phase: Phase) {
        (**self).on_shard_phase_end(shard, phase);
    }
    #[inline]
    fn on_fault(&mut self, step: u32, link: usize, blocked: bool) {
        (**self).on_fault(step, link, blocked);
    }
    #[inline]
    fn on_boundary(&mut self, shard: usize, packets: usize) {
        (**self).on_boundary(shard, packets);
    }
    #[inline]
    fn on_step_end(&mut self, sample: &StepSample) {
        (**self).on_step_end(sample);
    }
    #[inline]
    fn on_serve_event(&mut self, event: &ServeEvent) {
        (**self).on_serve_event(event);
    }
}

/// Tee: forwards every callback to both sinks (e.g. a
/// [`FlightRecorder`] and a [`PhaseProfiler`] over one run).
#[derive(Debug, Default)]
pub struct Fanout<A, B> {
    /// First sink.
    pub a: A,
    /// Second sink.
    pub b: B,
}

impl<A: TraceSink, B: TraceSink> Fanout<A, B> {
    /// Tee `a` and `b`.
    pub fn new(a: A, b: B) -> Self {
        Fanout { a, b }
    }
}

impl<A: TraceSink, B: TraceSink> TraceSink for Fanout<A, B> {
    #[inline]
    fn enabled(&self) -> bool {
        self.a.enabled() || self.b.enabled()
    }
    #[inline]
    fn on_step_begin(&mut self, step: u32) {
        self.a.on_step_begin(step);
        self.b.on_step_begin(step);
    }
    #[inline]
    fn on_phase_start(&mut self, phase: Phase) {
        self.a.on_phase_start(phase);
        self.b.on_phase_start(phase);
    }
    #[inline]
    fn on_phase_end(&mut self, phase: Phase) {
        self.a.on_phase_end(phase);
        self.b.on_phase_end(phase);
    }
    #[inline]
    fn on_shard_phase_start(&mut self, shard: usize, phase: Phase) {
        self.a.on_shard_phase_start(shard, phase);
        self.b.on_shard_phase_start(shard, phase);
    }
    #[inline]
    fn on_shard_phase_end(&mut self, shard: usize, phase: Phase) {
        self.a.on_shard_phase_end(shard, phase);
        self.b.on_shard_phase_end(shard, phase);
    }
    #[inline]
    fn on_fault(&mut self, step: u32, link: usize, blocked: bool) {
        self.a.on_fault(step, link, blocked);
        self.b.on_fault(step, link, blocked);
    }
    #[inline]
    fn on_boundary(&mut self, shard: usize, packets: usize) {
        self.a.on_boundary(shard, packets);
        self.b.on_boundary(shard, packets);
    }
    #[inline]
    fn on_step_end(&mut self, sample: &StepSample) {
        self.a.on_step_end(sample);
        self.b.on_step_end(sample);
    }
    #[inline]
    fn on_serve_event(&mut self, event: &ServeEvent) {
        self.a.on_serve_event(event);
        self.b.on_serve_event(event);
    }
}

/// Bounded ring-buffer flight recorder: keeps the last `capacity`
/// sampled [`StepSample`]s (every `stride`-th step), cumulative
/// per-shard boundary-packet counts and the fault-application count.
/// [`to_json`](FlightRecorder::to_json) exports the whole recording.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    stride: u32,
    capacity: usize,
    samples: VecDeque<StepSample>,
    /// Samples dropped off the front of the ring (so exports are honest
    /// about truncation).
    dropped: u64,
    /// Cumulative boundary packets per shard (index = shard id).
    boundary: Vec<u64>,
    faults: u64,
    /// Adaptive pricing convergence: per-iteration max link load, in
    /// iteration order (empty unless the run emitted
    /// [`ServeEvent::RouteIteration`]).
    route_max_load: Vec<u32>,
}

impl FlightRecorder {
    /// Recorder sampling every `stride`-th step (`stride >= 1`), keeping
    /// the most recent `capacity` samples (`capacity >= 1`).
    pub fn new(stride: u32, capacity: usize) -> Self {
        FlightRecorder {
            stride: stride.max(1),
            capacity: capacity.max(1),
            samples: VecDeque::new(),
            dropped: 0,
            boundary: Vec::new(),
            faults: 0,
            route_max_load: Vec::new(),
        }
    }

    /// The recorded samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &StepSample> {
        self.samples.iter()
    }

    /// Cumulative boundary packets per shard (empty for serial runs).
    pub fn boundary_packets(&self) -> &[u64] {
        &self.boundary
    }

    /// Fault applications observed.
    pub fn fault_count(&self) -> u64 {
        self.faults
    }

    /// Samples evicted from the ring (recording ran longer than
    /// `capacity × stride` steps).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The adaptive router's convergence curve — max link load per
    /// pricing iteration (empty for oblivious runs).
    pub fn route_max_loads(&self) -> &[u32] {
        &self.route_max_load
    }

    /// Reset the recording (stride/capacity kept) for reuse across runs.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.dropped = 0;
        self.boundary.clear();
        self.faults = 0;
        self.route_max_load.clear();
    }

    /// Export the recording as one JSON object: sampling parameters,
    /// the per-step series (arrays per field, index-aligned), per-shard
    /// boundary totals and the fault count. All values are numbers.
    pub fn to_json(&self) -> String {
        let col = |f: &dyn Fn(&StepSample) -> u64| {
            let vals: Vec<String> = self.samples.iter().map(|s| f(s).to_string()).collect();
            vals.join(", ")
        };
        let boundary: Vec<String> = self.boundary.iter().map(|b| b.to_string()).collect();
        let route: Vec<String> = self.route_max_load.iter().map(|l| l.to_string()).collect();
        format!(
            "{{\n  \"stride\": {},\n  \"capacity\": {},\n  \"dropped\": {},\n  \
             \"steps\": [{}],\n  \"in_flight\": [{}],\n  \"arrivals\": [{}],\n  \
             \"deliveries\": [{}],\n  \"max_queue_len\": [{}],\n  \"backlog\": [{}],\n  \
             \"boundary_packets\": [{}],\n  \"route_max_load\": [{}],\n  \"faults\": {}\n}}\n",
            self.stride,
            self.capacity,
            self.dropped,
            col(&|s| u64::from(s.step)),
            col(&|s| s.in_flight as u64),
            col(&|s| s.arrivals as u64),
            col(&|s| s.deliveries as u64),
            col(&|s| s.max_queue_len as u64),
            col(&|s| s.backlog as u64),
            boundary.join(", "),
            route.join(", "),
            self.faults
        )
    }
}

impl TraceSink for FlightRecorder {
    fn on_step_end(&mut self, sample: &StepSample) {
        if !sample.step.is_multiple_of(self.stride) {
            return;
        }
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(*sample);
    }

    fn on_boundary(&mut self, shard: usize, packets: usize) {
        if shard >= self.boundary.len() {
            self.boundary.resize(shard + 1, 0);
        }
        self.boundary[shard] += packets as u64;
    }

    fn on_fault(&mut self, _step: u32, _link: usize, _blocked: bool) {
        self.faults += 1;
    }

    fn on_serve_event(&mut self, event: &ServeEvent) {
        if let ServeEvent::RouteIteration { max_load, .. } = *event {
            self.route_max_load.push(max_load);
        }
    }
}

/// Wall-clock profile of the engine phases, total and per shard — the
/// tool for localizing where a sharded run's time goes (transmit vs
/// exchange vs process; which shard's transmit dominates).
///
/// The profiler reads `Instant::now()` inside its own callbacks, so
/// unprofiled runs never touch the clock. Phase windows nest per scope
/// (whole-engine vs per-shard), not across scopes.
///
/// The phase windows do not tile a step: closing it (restoring the
/// active-link order, occupancy accounting, the protocol's
/// `on_step_end`, building the step sample) lies in none of them. The
/// profiler therefore also times each step from `on_step_begin` to
/// `on_step_end` and reports the remainder as
/// [`unattributed_nanos`](PhaseProfiler::unattributed_nanos), so phase
/// shares cannot silently add up to 1 over a part of the run.
#[derive(Debug, Clone, Default)]
pub struct PhaseProfiler {
    phase_ns: [u64; 4],
    open: [Option<Instant>; 4],
    shard_ns: Vec<[u64; 4]>,
    shard_open: Vec<[Option<Instant>; 4]>,
    steps: u64,
    /// Start of the step window in progress (`on_step_begin` seen, its
    /// `on_step_end` not yet).
    step_open: Option<Instant>,
    /// Accumulated step windows, and the whole-engine phase time that
    /// fell inside them (the injection pass of step 0 has phase windows
    /// but no step window).
    step_ns: u64,
    in_step_phase_ns: u64,
}

impl PhaseProfiler {
    /// Fresh profiler (all accumulators zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulated nanoseconds in `phase` (whole-engine scope).
    pub fn phase_nanos(&self, phase: Phase) -> u64 {
        self.phase_ns[phase.index()]
    }

    /// Shards observed (0 for serial runs).
    pub fn num_shards(&self) -> usize {
        self.shard_ns.len()
    }

    /// Steps observed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Wall time of the observed steps (`on_step_begin` →
    /// `on_step_end`) that no whole-engine phase window covers.
    pub fn unattributed_nanos(&self) -> u64 {
        self.step_ns.saturating_sub(self.in_step_phase_ns)
    }

    /// Human-readable per-phase breakdown, the unattributed remainder,
    /// and the per-shard transmit split when shards were observed.
    pub fn report(&self) -> String {
        let unattributed = self.unattributed_nanos();
        let total = self.phase_ns.iter().sum::<u64>() + unattributed;
        let mut out = format!("phase profile over {} steps:\n", self.steps);
        let rows = Phase::ALL
            .map(|phase| (phase.name(), self.phase_ns[phase.index()]))
            .into_iter()
            .chain([("unattributed", unattributed)]);
        for (name, ns) in rows {
            if ns == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {:<12} {:>10.3} ms  {:>5.1}%\n",
                name,
                ns as f64 / 1e6,
                ns as f64 * 100.0 / total as f64
            ));
        }
        for (shard, ns) in self.shard_ns.iter().enumerate() {
            let shard_total: u64 = ns.iter().sum();
            if shard_total == 0 {
                continue;
            }
            out.push_str(&format!(
                "  shard {:<6} {:>10.3} ms\n",
                shard,
                shard_total as f64 / 1e6
            ));
        }
        out
    }
}

impl TraceSink for PhaseProfiler {
    fn on_step_begin(&mut self, _step: u32) {
        self.steps += 1;
        self.step_open = Some(Instant::now());
    }

    fn on_step_end(&mut self, _sample: &StepSample) {
        if let Some(start) = self.step_open.take() {
            self.step_ns += start.elapsed().as_nanos() as u64;
        }
    }

    fn on_phase_start(&mut self, phase: Phase) {
        self.open[phase.index()] = Some(Instant::now());
    }

    fn on_phase_end(&mut self, phase: Phase) {
        if let Some(start) = self.open[phase.index()].take() {
            let ns = start.elapsed().as_nanos() as u64;
            self.phase_ns[phase.index()] += ns;
            if self.step_open.is_some() {
                self.in_step_phase_ns += ns;
            }
        }
    }

    fn on_shard_phase_start(&mut self, shard: usize, phase: Phase) {
        if shard >= self.shard_open.len() {
            self.shard_open.resize(shard + 1, [None; 4]);
            self.shard_ns.resize(shard + 1, [0; 4]);
        }
        self.shard_open[shard][phase.index()] = Some(Instant::now());
    }

    fn on_shard_phase_end(&mut self, shard: usize, phase: Phase) {
        if let Some(start) = self
            .shard_open
            .get_mut(shard)
            .and_then(|o| o[phase.index()].take())
        {
            self.shard_ns[shard][phase.index()] += start.elapsed().as_nanos() as u64;
        }
    }
}

/// In-memory serve event log: collects every [`ServeEvent`] of a run
/// and exports the documented JSONL schema (one object per line, fixed
/// `"event"` discriminator — see [`ServeEvent::to_json_line`]).
#[derive(Debug, Clone, Default)]
pub struct ServeEventLog {
    events: Vec<ServeEvent>,
}

impl ServeEventLog {
    /// Fresh, empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// The collected events, in emission order.
    pub fn events(&self) -> &[ServeEvent] {
        &self.events
    }

    /// Drop all collected events (for reuse across runs).
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// The whole log as JSONL (one event per line, trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json_line());
            out.push('\n');
        }
        out
    }
}

impl TraceSink for ServeEventLog {
    fn on_serve_event(&mut self, event: &ServeEvent) {
        self.events.push(*event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn noop_sink_is_disabled() {
        assert!(!NoopSink.enabled());
        // The blanket &mut impl forwards `enabled`.
        let mut sink = NoopSink;
        let via_ref: &mut dyn TraceSink = &mut sink;
        assert!(!via_ref.enabled());
        assert!(FlightRecorder::new(1, 4).enabled());
    }

    #[test]
    fn flight_recorder_ring_and_stride() {
        let mut rec = FlightRecorder::new(2, 3);
        for step in 0..10u32 {
            rec.on_step_end(&StepSample {
                step,
                in_flight: step as usize,
                ..StepSample::default()
            });
        }
        // Steps 0,2,4,6,8 sampled; ring keeps the last 3 (4,6,8).
        let steps: Vec<u32> = rec.samples().map(|s| s.step).collect();
        assert_eq!(steps, vec![4, 6, 8]);
        assert_eq!(rec.dropped(), 2);
        rec.on_boundary(1, 5);
        rec.on_boundary(1, 2);
        rec.on_fault(3, 0, true);
        assert_eq!(rec.boundary_packets(), &[0, 7]);
        assert_eq!(rec.fault_count(), 1);
        let json = rec.to_json();
        assert!(json.contains("\"steps\": [4, 6, 8]"));
        assert!(json.contains("\"boundary_packets\": [0, 7]"));
        rec.clear();
        assert_eq!(rec.samples().count(), 0);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn profiler_accumulates_phase_windows() {
        let mut prof = PhaseProfiler::new();
        prof.on_step_begin(1);
        prof.on_phase_start(Phase::Transmit);
        prof.on_phase_end(Phase::Transmit);
        prof.on_shard_phase_start(2, Phase::Transmit);
        prof.on_shard_phase_end(2, Phase::Transmit);
        // Unmatched end is ignored, not a panic.
        prof.on_phase_end(Phase::Process);
        assert_eq!(prof.steps(), 1);
        assert_eq!(prof.num_shards(), 3);
        assert_eq!(prof.phase_nanos(Phase::Process), 0);
        assert!(prof.report().contains("phase profile over 1 steps"));
    }

    #[test]
    fn profiler_reports_step_time_outside_every_phase_window() {
        let mut prof = PhaseProfiler::new();
        let pause = || std::thread::sleep(std::time::Duration::from_millis(2));
        // Step 0's injection pass has a phase window but no step window:
        // it is attributed, and outside what `unattributed` measures.
        prof.on_phase_start(Phase::Process);
        pause();
        prof.on_phase_end(Phase::Process);
        prof.on_step_end(&StepSample::default());
        assert_eq!(prof.unattributed_nanos(), 0);
        for step in 1..=2 {
            prof.on_step_begin(step);
            prof.on_phase_start(Phase::Transmit);
            pause();
            prof.on_phase_end(Phase::Transmit);
            pause(); // closing the step: in no window
            prof.on_step_end(&StepSample::default());
        }
        pause(); // between runs: in no step either
        let unattributed = prof.unattributed_nanos();
        let transmit = prof.phase_nanos(Phase::Transmit);
        assert!(unattributed >= 4_000_000, "{unattributed}");
        assert!(transmit >= 4_000_000, "{transmit}");
        assert!(prof.phase_nanos(Phase::Process) >= 2_000_000);
        assert_eq!(prof.unattributed_nanos(), unattributed, "idle profiler");
        let report = prof.report();
        assert!(report.contains("unattributed"), "{report}");
    }

    #[test]
    fn serve_event_jsonl_schema() {
        let mut log = ServeEventLog::new();
        log.on_serve_event(&ServeEvent::Admit {
            step: 3,
            slot: 0,
            tenant: 7,
            packets: 16,
        });
        log.on_serve_event(&ServeEvent::fault(
            1,
            &Fault::LinkDegrade { link: 9, period: 2 },
        ));
        log.on_serve_event(&ServeEvent::Complete {
            step: 20,
            slot: 0,
            tenant: 7,
            latency: 17,
        });
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"event\": \"admit\""));
        assert!(lines[1].contains("\"kind\": \"link_degrade\""));
        assert!(lines[1].contains("\"period\": 2"));
        assert!(lines[2].contains("\"latency\": 17"));
        assert_eq!(log.events()[1].name(), "fault");
        assert_eq!(log.events()[1].step(), 1);
    }

    /// One event of variant `variant % 8` over the given field values.
    fn event(variant: usize, step: u32, slot: usize, tenant: u64, x: u32) -> ServeEvent {
        let pick = x as usize;
        match variant % 8 {
            0 => ServeEvent::Admit {
                step,
                slot,
                tenant,
                packets: pick,
            },
            1 => ServeEvent::Defer { step, slot, tenant },
            2 => ServeEvent::Reject {
                step,
                slot,
                tenant,
                reason: REJECT_REASONS[pick % 2],
            },
            3 => ServeEvent::TenantJoin { step, tenant },
            4 => ServeEvent::TenantLeave { step, tenant },
            5 => {
                let (link, node, period) = (slot, slot, x);
                let faults = [
                    Fault::LinkFail { link },
                    Fault::LinkDegrade { link, period },
                    Fault::LinkRecover { link },
                    Fault::NodeFail { node },
                    Fault::NodeRecover { node },
                ];
                ServeEvent::fault(step, &faults[tenant as usize % 5])
            }
            6 => ServeEvent::Complete {
                step,
                slot,
                tenant,
                latency: x,
            },
            _ => ServeEvent::RouteIteration {
                iter: step,
                max_load: x,
                rerouted: tenant as u32,
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The reader inverts the writer on every variant and every
        /// field value, and every name is one reports know.
        #[test]
        fn prop_json_line_round_trips(
            variant in 0usize..8,
            step: u32,
            slot: usize,
            tenant: u64,
            x: u32,
        ) {
            let e = event(variant, step, slot, tenant, x);
            prop_assert_eq!(ServeEvent::from_json_line(&e.to_json_line()), Ok(e));
            prop_assert!(ServeEvent::NAMES.contains(&e.name()));
        }

        /// Arbitrary text is an `Err`, never a panic: a valid line cut
        /// and spliced at random char positions with characters of the
        /// schema's own alphabet (and two multi-byte ones).
        #[test]
        fn prop_from_json_line_never_panics(
            variant in 0usize..8,
            seed: u64,
            edits in 0usize..12,
        ) {
            let mut rng = lnpram_math::rng::SeedSeq::new(seed).rng();
            let alphabet: Vec<char> = "{}\":, \t-+.e0123456789stepventadmi_é√".chars().collect();
            let mut line: Vec<char> = event(variant, 3, 1, 2, 4).to_json_line().chars().collect();
            for _ in 0..edits {
                let at = rng.gen_range(0..line.len() + 1);
                match rng.gen_range(0..4) {
                    0 => line.truncate(at),
                    1 if at < line.len() => drop(line.remove(at)),
                    _ => line.insert(at, alphabet[rng.gen_range(0..alphabet.len())]),
                }
            }
            let line: String = line.into_iter().collect();
            let _ = ServeEvent::from_json_line(&line);
        }
    }

    #[test]
    fn unreadable_lines_say_why() {
        use ServeEventParseError::{MissingField, UnknownEvent};
        let read = ServeEvent::from_json_line;
        assert_eq!(read("not json"), Err(MissingField("event")));
        assert_eq!(
            read("{\"event\": \"teleport\", \"step\": 1}"),
            Err(UnknownEvent)
        );
        let no_latency = "{\"event\": \"complete\", \"step\": 20, \"slot\": 2, \"tenant\": 2}";
        assert_eq!(read(no_latency), Err(MissingField("latency")));
        assert_eq!(
            read("{\"event\": \"tenant_join\", \"step\": -1, \"tenant\": 2}"),
            Err(MissingField("step")),
            "a value the field cannot hold reads as missing"
        );
        assert_eq!(MissingField("step").to_string(), "missing step field");
        // Field order is free and fields the variant lacks are skipped.
        assert_eq!(
            read("{\"tenant\": 2, \"extra\": 9, \"step\": 5, \"event\": \"tenant_leave\"}"),
            Ok(ServeEvent::TenantLeave { step: 5, tenant: 2 })
        );
    }

    #[test]
    fn fanout_tees_both_sinks() {
        let mut tee = Fanout::new(FlightRecorder::new(1, 8), ServeEventLog::new());
        tee.on_step_end(&StepSample {
            step: 1,
            ..StepSample::default()
        });
        tee.on_serve_event(&ServeEvent::TenantJoin { step: 0, tenant: 1 });
        assert_eq!(tee.a.samples().count(), 1);
        assert_eq!(tee.b.events().len(), 1);
        assert!(tee.enabled());
    }
}
