//! The phase-stepping surface every engine shares, and the one step
//! loop written over it.
//!
//! A run is the same sequence on every engine — serial [`Engine`],
//! the lockstep sharded coordinator, the serial/sharded dispatch enum —
//! and for every driver: process the injections, then per step
//! transmit, process the arrivals, close the step. [`StepEngine`] names
//! those phases; [`step_loop`] is the only place that sequences them
//! and the only caller of [`TraceSink::on_step_begin`]. The serve loop
//! is the same function with an [`Admission`] hook that injects
//! requests at step boundaries; [`NoAdmission`] compiles the boundary
//! out, so a plain run pays nothing for it and a sink sees no admission
//! phase.
//!
//! [`Engine`]: crate::Engine

use crate::engine::RunOutcome;
use crate::metrics::Metrics;
use crate::protocol::Protocol;
use crate::trace::{Phase, StepSample, TraceSink};

/// One simulated network that can be stepped phase by phase. Driving an
/// engine through these methods in [`step_loop`]'s order is what a run
/// *is*; an external coordinator (the sharded engine over its shard
/// engines) uses the same methods to interleave several.
pub trait StepEngine {
    /// Feed every pending injection to the protocol at `step`, stamping
    /// each packet's `injected_at` with it, so latency measures
    /// admission-to-delivery even for packets admitted mid-run. Forwards
    /// enqueued here become eligible to traverse links at `step + 1`.
    fn process_pending<P: Protocol>(&mut self, proto: &mut P, step: u32);

    /// One transmit phase: apply the fault schedule, then every active
    /// link extracts at most one packet under the queueing discipline.
    /// Fault applications, the phase window(s) and the arrival count go
    /// to `sink` ([`NoopSink`](crate::NoopSink) compiles them away).
    fn step_transmit<S: TraceSink + ?Sized>(&mut self, sink: &mut S);

    /// Hand the last transmit's arrivals to the protocol: grouped by
    /// destination node, nodes ascending, link-id order within a node
    /// (footnote 3's unit-time combining — the leveled emulator host's
    /// write merge — sees a node's whole batch). A
    /// [`Protocol::NODE_LOCAL`] protocol (every router, the other
    /// emulator-host protocols) gets them ungrouped instead, one
    /// [`Protocol::on_packet`] per arrival in link-id order.
    fn process_arrivals<P: Protocol>(&mut self, proto: &mut P, step: u32);

    /// Close the step (and re-verify invariants when checking is on).
    fn step_finish(&mut self);

    /// Charge every still-queued packet one packet-step of occupancy.
    fn note_queued_step(&mut self);

    /// Finalise and move the accumulated metrics out after `steps`
    /// executed steps, leaving fresh ones behind.
    fn finish_metrics(&mut self, steps: u32) -> Metrics;

    /// Packets currently queued on links.
    fn in_flight(&self) -> usize;

    /// Packets delivered since the last reset (live mid-run).
    fn delivered(&self) -> usize;

    /// Packets the last transmit phase moved (valid until the next).
    fn arrivals_len(&self) -> usize;

    /// Longest link queue right now — unlike the `max_queue` metric this
    /// falls again once congestion drains, so it serves as a
    /// backpressure watermark.
    fn max_queue_len(&self) -> usize;
}

/// What happens at a step boundary besides the protocol: the serve
/// layer admits waiting requests here. The loop calls
/// [`admit`](Admission::admit) once before the injections of step 0 and
/// once per step after the arrivals are processed, then feeds whatever
/// was injected to the protocol in a second process window.
pub trait Admission<E: StepEngine> {
    /// `false` removes the boundary from the loop at compile time: no
    /// call, no second process window.
    const ACTIVE: bool;

    /// Inject what is due at `step` into `eng`, reading only settled
    /// engine state.
    fn admit<S: TraceSink + ?Sized>(&mut self, eng: &mut E, step: u32, sink: &mut S);

    /// Is anything still waiting to be admitted? The loop keeps stepping
    /// an empty network while this holds.
    fn outstanding(&self) -> bool;

    /// Requests waiting right now (reported in each [`StepSample`]).
    fn backlog(&self) -> usize;
}

/// The admission hook of a plain run: nothing arrives after step 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoAdmission;

impl<E: StepEngine> Admission<E> for NoAdmission {
    const ACTIVE: bool = false;

    #[inline]
    fn admit<S: TraceSink + ?Sized>(&mut self, _eng: &mut E, _step: u32, _sink: &mut S) {}

    #[inline]
    fn outstanding(&self) -> bool {
        false
    }

    #[inline]
    fn backlog(&self) -> usize {
        0
    }
}

/// Run `proto` on `eng` until the network is empty and `admit` has
/// nothing outstanding, or `max_steps` steps have run (`completed =
/// false`; the undelivered packets stay queued). The returned metrics'
/// `steps` is the number of steps executed. Every callback answers
/// through an [`Outbox`](crate::Outbox) onto the engine's links, so its
/// sends are queued as it makes them and nothing is buffered per run.
///
/// Generic over the sink, so with [`NoopSink`](crate::NoopSink) every
/// callback and every `sink.enabled()` block folds away and this is the
/// uninstrumented loop.
pub fn step_loop<E, P, S, A>(
    eng: &mut E,
    proto: &mut P,
    sink: &mut S,
    admit: &mut A,
    max_steps: u32,
) -> RunOutcome
where
    E: StepEngine,
    P: Protocol,
    S: TraceSink + ?Sized,
    A: Admission<E>,
{
    let mut last_delivered = eng.delivered();
    let mut sample = |eng: &E, admit: &A, sink: &mut S, step: u32| {
        if sink.enabled() {
            let delivered = eng.delivered();
            sink.on_step_end(&StepSample {
                step,
                in_flight: eng.in_flight(),
                // Nothing has been transmitted yet at step 0 (a reset
                // engine may still hold its previous run's buffer).
                arrivals: if step == 0 { 0 } else { eng.arrivals_len() },
                deliveries: delivered - last_delivered,
                max_queue_len: eng.max_queue_len(),
                backlog: admit.backlog(),
            });
            last_delivered = delivered;
        }
    };

    // Step 0: the injections.
    if A::ACTIVE {
        admit.admit(eng, 0, sink);
    }
    sink.on_phase_start(Phase::Process);
    eng.process_pending(proto, 0);
    sink.on_phase_end(Phase::Process);
    eng.step_finish();
    proto.on_step_end(0);
    sample(eng, admit, sink, 0);

    let mut step: u32 = 0;
    let mut completed = true;
    while eng.in_flight() > 0 || admit.outstanding() {
        if step >= max_steps {
            completed = false;
            break;
        }
        step += 1;
        sink.on_step_begin(step);
        eng.step_transmit(sink);
        sink.on_phase_start(Phase::Process);
        eng.process_arrivals(proto, step);
        sink.on_phase_end(Phase::Process);
        if A::ACTIVE {
            admit.admit(eng, step, sink);
            sink.on_phase_start(Phase::Process);
            eng.process_pending(proto, step);
            sink.on_phase_end(Phase::Process);
        }
        proto.on_step_end(step);
        eng.step_finish();
        eng.note_queued_step();
        sample(eng, admit, sink, step);
    }

    RunOutcome {
        metrics: eng.finish_metrics(step),
        completed,
    }
}
