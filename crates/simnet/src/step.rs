//! The phase-stepping surface every engine shares, and the one step
//! loop written over it.
//!
//! A run is the same sequence on every engine — serial [`Engine`],
//! the lockstep sharded coordinator, the serial/sharded dispatch enum —
//! and for every driver: process the injections, then per step
//! transmit, process the arrivals, close the step. [`StepEngine`] names
//! those phases; [`step_loop`] sequences them, and is the only caller of
//! [`TraceSink::on_step_begin`]. The serve loop is the same function
//! with an [`Admission`] hook that injects requests at step boundaries;
//! [`NoAdmission`] compiles the boundary out, so a plain run pays
//! nothing for it and a sink sees no admission phase.
//!
//! There is one other sequencer: the sharded engine's threaded loop
//! (`lnpram_shard`, `ShardedEngine::lead` in `engine/threaded.rs`),
//! which steps the shards on scoped threads and closes each step at the
//! start of the next one to save a rendezvous. Both loops end a step
//! with [`close_step`] and stop on [`run_ends`], so those two are
//! defined here once; a change to the order of the phases themselves
//! has to be made in both loops.
//!
//! [`Engine`]: crate::Engine

use crate::engine::RunOutcome;
use crate::metrics::Metrics;
use crate::packet::Packet;
use crate::protocol::Protocol;
use crate::trace::{Phase, StepSample, TraceSink};

/// What a step boundary may read of an engine, and injection: the
/// surface an [`Admission`] hook is handed. Every engine is one; so is
/// the view the sharded engine's threaded loop lends its admission hook
/// while its shard engines sit with the worker threads.
pub trait EngineState {
    /// Schedule `pkt` for injection at `node`: the next
    /// [`StepEngine::process_pending`] feeds it to the protocol.
    fn inject(&mut self, node: usize, pkt: Packet);

    /// Packets currently queued on links.
    fn in_flight(&self) -> usize;

    /// Longest link queue right now — unlike the `max_queue` metric this
    /// falls again once congestion drains, so it serves as a
    /// backpressure watermark.
    fn max_queue_len(&self) -> usize;
}

/// One simulated network that can be stepped phase by phase. Driving an
/// engine through these methods in [`step_loop`]'s order is what a run
/// *is*; an external coordinator (the sharded engine over its shard
/// engines) uses the same methods to interleave several.
pub trait StepEngine: EngineState {
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

    /// Hand the last transmit's arrivals to the protocol, one
    /// [`Protocol::on_packet`] per arrival, in ascending link id (the
    /// order [`Protocol`] states).
    fn process_arrivals<P: Protocol>(&mut self, proto: &mut P, step: u32);

    /// Close the step (and re-verify invariants when checking is on).
    fn step_finish(&mut self);

    /// Add `packet_steps` packet-steps of queue occupancy to the metrics
    /// (what [`close_step`] counts).
    fn charge_queued(&mut self, packet_steps: u64);

    /// Finalise and move the accumulated metrics out after `steps`
    /// executed steps, leaving fresh ones behind.
    fn finish_metrics(&mut self, steps: u32) -> Metrics;

    /// Packets delivered since the last reset (live mid-run).
    fn delivered(&self) -> usize;

    /// Packets the last transmit phase moved (valid until the next).
    fn arrivals_len(&self) -> usize;
}

/// What happens at a step boundary besides the protocol: the serve
/// layer admits waiting requests here. The loop calls
/// [`admit`](Admission::admit) once before the injections of step 0 and
/// once per step after the arrivals are processed, then feeds whatever
/// was injected to the protocol in a second process window.
pub trait Admission {
    /// `false` removes the boundary from the loop at compile time: no
    /// call, no second process window.
    const ACTIVE: bool;

    /// Inject what is due at `step` into `eng`, reading only settled
    /// engine state.
    fn admit<E, S>(&mut self, eng: &mut E, step: u32, sink: &mut S)
    where
        E: EngineState + ?Sized,
        S: TraceSink + ?Sized;

    /// Is anything still waiting to be admitted? The loop keeps stepping
    /// an empty network while this holds.
    fn outstanding(&self) -> bool;

    /// Requests waiting right now (reported in each [`StepSample`]).
    fn backlog(&self) -> usize;
}

/// The admission hook of a plain run: nothing arrives after step 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoAdmission;

impl Admission for NoAdmission {
    const ACTIVE: bool = false;

    #[inline]
    fn admit<E, S>(&mut self, _eng: &mut E, _step: u32, _sink: &mut S)
    where
        E: EngineState + ?Sized,
        S: TraceSink + ?Sized,
    {
    }

    #[inline]
    fn outstanding(&self) -> bool {
        false
    }

    #[inline]
    fn backlog(&self) -> usize {
        0
    }
}

/// Close `step`, once its arrivals and the injections admitted at it
/// have been fed to `proto`: the protocol's step-end hook, then each
/// engine's step close, then — past step 0 — one packet-step of
/// occupancy per packet still queued on `engines`, returned for the
/// caller to [charge](StepEngine::charge_queued). The one definition of a
/// step's end: [`step_loop`] closes its engine here, and the sharded
/// engine's threaded loop each thread's shard engines with that thread's
/// copy of the protocol.
pub fn close_step<P, E>(proto: &mut P, engines: &mut [E], step: u32) -> u64
where
    P: Protocol,
    E: StepEngine,
{
    proto.on_step_end(step);
    let mut queued = 0;
    for eng in engines {
        eng.step_finish();
        if step > 0 {
            queued += eng.in_flight() as u64;
        }
    }
    queued
}

/// The loop test at a closed step boundary, `step` steps into a run with
/// `in_flight` packets queued: `Some(true)` once nothing is queued and
/// `admit` has nothing outstanding, `Some(false)` once the budget of
/// `max_steps` steps is spent instead, `None` while another step is due.
/// Both step loops stop on it.
pub fn run_ends<A: Admission>(
    in_flight: usize,
    admit: &A,
    step: u32,
    max_steps: u32,
) -> Option<bool> {
    if in_flight == 0 && !admit.outstanding() {
        Some(true)
    } else if step >= max_steps {
        Some(false)
    } else {
        None
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
    A: Admission,
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
    close_step(proto, std::slice::from_mut(eng), 0);
    sample(eng, admit, sink, 0);

    let mut step: u32 = 0;
    let completed = loop {
        if let Some(completed) = run_ends(eng.in_flight(), admit, step, max_steps) {
            break completed;
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
        let queued = close_step(proto, std::slice::from_mut(eng), step);
        eng.charge_queued(queued);
        sample(eng, admit, sink, step);
    };

    RunOutcome {
        metrics: eng.finish_metrics(step),
        completed,
    }
}
