//! The step loop must not touch the heap once the engine is warm.
//!
//! A counting global allocator (per thread, so the test harness's other
//! threads do not disturb it) wraps the system one, as in
//! `crates/core/tests/alloc_free.rs`; the test asserts that a warmed-up
//! `reset` + inject + `run` allocates only the growth of the latency
//! histogram the run hands back — nothing per run, per step, per packet
//! or per node — bare and wrapped in the per-tag demux every serve run
//! goes through, and that a run under a fail-then-recover fault plan adds only what
//! installing the plan allocates: parking a blocked link's queue and
//! bringing it back allocate nothing.

use lnpram_math::stats::Histogram;
use lnpram_simnet::{
    Engine, Fault, FaultEvent, FaultPlan, Outbox, Packet, Protocol, SimConfig, TagDemux,
};
use lnpram_topology::leveled::{Leveled, LeveledNet, RadixButterfly};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

#[expect(
    unsafe_code,
    reason = "a counting GlobalAlloc is the only way to observe allocations, and its methods are unsafe fns by signature; test-only, forwards to System"
)]
// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local
// counter with a constant initialiser and no destructor, so touching it
// neither allocates nor runs code during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) made by `f` on this thread.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (r, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn the_counter_counts() {
    let (v, n) = allocations_in(|| black_box(vec![1u8; 100]));
    assert_eq!(n, 1);
    drop(v);
}

/// Unique-path routing on the forward butterfly.
struct ButterflyRouter(LeveledNet<RadixButterfly>);

impl Protocol for ButterflyRouter {
    fn on_packet(&mut self, node: usize, pkt: Packet, _step: u32, out: &mut Outbox) {
        let lv = self.0.leveled();
        let (col, idx) = self.0.split(node);
        if col == lv.levels() {
            return out.deliver(pkt);
        }
        out.send(lv.digit_toward(col, idx, pkt.dest as usize), pkt);
    }
}

/// Allocations a run spends on growing the latency histogram it
/// returns: every packet is injected at step 0, so deliveries arrive in
/// ascending latency and replaying the non-empty buckets in order grows
/// a fresh histogram exactly as the run did.
fn histogram_growth(latency: &Histogram) -> u64 {
    allocations_in(|| {
        let mut replay = Histogram::new(1);
        for (value, _) in latency.buckets() {
            replay.record(value);
        }
        black_box(replay);
    })
    .1
}

#[test]
fn warmed_up_run_allocates_nothing_per_step_or_per_packet() {
    assert_warm_runs_allocate_only_their_histogram(|router| router);
}

/// The demux, kept across runs as the router is, reads each callback's
/// deliveries and records them into per-tag histograms that are warm
/// after the first round.
#[test]
fn warmed_up_node_local_run_allocates_nothing_per_step_or_per_packet() {
    assert_warm_runs_allocate_only_their_histogram(|router| TagDemux::new(router, 1));
}

/// A warmed-up `reset` + inject + `run` of `wrap(ButterflyRouter)`
/// allocates only the growth of the latency histogram it returns.
fn assert_warm_runs_allocate_only_their_histogram<P: Protocol>(
    wrap: impl Fn(ButterflyRouter) -> P,
) {
    if std::env::var_os("LNPRAM_CHECK_INVARIANTS").is_some_and(|v| v == "1") {
        return; // the per-step state checker allocates its own scratch
    }
    for dims in [6usize, 10] {
        let bf = RadixButterfly::new(2, dims);
        let net = LeveledNet::forward(bf);
        let mut eng = Engine::new(&net, SimConfig::default());
        let mut proto = wrap(ButterflyRouter(LeveledNet::forward(bf)));
        let width = bf.width();
        let mut round = |eng: &mut Engine| {
            eng.reset();
            for src in 0..width {
                // Bit reversal, the butterfly's bad permutation: √N packets
                // share a link, so queues build, links stay active across
                // steps and bitmap words join the active list out of order.
                let dest = src.reverse_bits() >> (usize::BITS as usize - dims);
                eng.inject(
                    net.node_id(0, src),
                    Packet::new(src as u32, src as u32, dest as u32),
                );
            }
            let out = eng.run(&mut proto);
            assert!(out.completed);
            assert_eq!(out.metrics.delivered, width);
            out
        };
        // Two warm-up rounds: `active` and its swap buffer trade places
        // every step, so each has to have held the injection burst once.
        round(&mut eng);
        let warm = round(&mut eng);
        assert!(warm.metrics.max_queue > 1 && warm.metrics.steps as usize > dims);
        let (out, n) = allocations_in(|| round(&mut eng));
        // Per run, however long: the histogram the run hands back (the
        // engine keeps its `Outbox` across runs).
        let per_run = histogram_growth(&out.metrics.latency);
        assert_eq!(
            n, per_run,
            "a warmed-up run of {width} packets over {} steps allocated {n} times",
            out.metrics.steps
        );
    }
}

/// A warmed-up `reset` + fault plan + inject + `run` in which a quarter
/// of the butterfly's second-column links fail at step 1 and recover at
/// step `recover` (one of them degraded instead, open every third step)
/// allocates what installing the plan allocates plus the histogram
/// growth, at two outage lengths: parking and un-parking allocate
/// nothing per step or per park.
#[test]
fn warmed_up_faulted_run_allocates_only_its_plan_and_histogram() {
    if std::env::var_os("LNPRAM_CHECK_INVARIANTS").is_some_and(|v| v == "1") {
        return; // the per-step state checker allocates its own scratch
    }
    let dims = 6;
    let bf = RadixButterfly::new(2, dims);
    let net = LeveledNet::forward(bf);
    let width = bf.width();
    let mut eng = Engine::new(&net, SimConfig::default());
    let mut proto = ButterflyRouter(LeveledNet::forward(bf));
    let plan = |recover: u32| {
        let mut events = Vec::new();
        for idx in 0..width / 4 {
            for port in 0..2 {
                let link = eng.link_id(net.node_id(1, 4 * idx), port);
                let down = if idx == 0 && port == 0 {
                    Fault::LinkDegrade { link, period: 3 }
                } else {
                    Fault::LinkFail { link }
                };
                events.push(FaultEvent {
                    step: 1,
                    fault: down,
                });
                events.push(FaultEvent {
                    step: recover,
                    fault: Fault::LinkRecover { link },
                });
            }
        }
        FaultPlan::new(events)
    };
    let plans = [plan(8), plan(40)];
    let mut round = |eng: &mut Engine, plan: &FaultPlan| {
        eng.reset();
        eng.set_fault_plan(plan).expect("plan in range");
        for src in 0..width {
            let dest = src.reverse_bits() >> (usize::BITS as usize - dims);
            eng.inject(
                net.node_id(0, src),
                Packet::new(src as u32, src as u32, dest as u32),
            );
        }
        let out = eng.run(&mut proto);
        assert!(out.completed);
        assert_eq!(out.metrics.delivered, width);
        out
    };
    for plan in &plans {
        round(&mut eng, plan);
    }
    let mut steps = Vec::new();
    for plan in &plans {
        // What installing this plan allocates, on an engine of its own.
        let mut probe = Engine::new(&net, SimConfig::default());
        let ((), install) = allocations_in(|| probe.set_fault_plan(plan).expect("plan in range"));
        let (out, n) = allocations_in(|| round(&mut eng, plan));
        let per_run = install + histogram_growth(&out.metrics.latency);
        assert_eq!(
            n, per_run,
            "a warmed-up faulted run of {width} packets over {} steps allocated {n} times",
            out.metrics.steps
        );
        steps.push(out.metrics.steps);
    }
    // The outage held traffic back: the later recovery ends later.
    assert!(steps[0] > 8 && steps[1] > 40, "{steps:?}");
}
