//! Pricing must not touch the heap once the backend is warm.
//!
//! A counting global allocator (per thread, so the test harness's other
//! threads do not disturb it) wraps the system one, as in
//! `crates/simnet/tests/alloc_free.rs`; the test asserts that a warmed-up
//! `Router::route` allocates only what belongs to the run as a whole —
//! nothing per pair, per path, per search or per rip-up iteration.

use lnpram_adaptive::AdaptiveRoutingSession;
use lnpram_math::rng::SeedSeq;
use lnpram_math::stats::Histogram;
use lnpram_routing::router::{RouteRequest, Router};
use lnpram_routing::workloads::{hot_spot, random_permutation};
use lnpram_simnet::SimConfig;
use lnpram_topology::Mesh;
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

/// Allocations a run spends on growing the latency histogram it
/// returns (see `crates/simnet/tests/alloc_free.rs`): every packet is
/// injected at step 0, so replaying the non-empty buckets in ascending
/// order grows a fresh histogram exactly as the run did.
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
fn warmed_up_request_allocates_nothing_per_pair_or_per_path() {
    if std::env::var_os("LNPRAM_CHECK_INVARIANTS").is_some_and(|v| v == "1") {
        return; // the per-step state checker allocates its own scratch
    }
    for side in [8usize, 16] {
        let mesh = Mesh::square(side);
        let n = side * side;
        let mut session = AdaptiveRoutingSession::new(&mesh, SimConfig::default());
        let mut rng = SeedSeq::new(side as u64).rng();
        // Explicit destination maps: the request owns its pattern, so
        // routing it draws nothing. The permutation rips up and
        // re-routes over several iterations; the hot spot also builds
        // and rebuilds a reverse tree.
        let requests = [
            RouteRequest::dests(random_permutation(n, &mut rng), 1),
            RouteRequest::dests(
                hot_spot(n, &[mesh.node_at(side / 2, side / 2)], 0.9, &mut rng),
                2,
            ),
        ];
        // Two warm-up rounds: the engine's `active` list and its swap
        // buffer trade places every step, so each has to have held the
        // injection burst once.
        for _ in 0..2 {
            for req in &requests {
                assert!(session.route(req).completed);
            }
        }
        for req in &requests {
            let (rep, allocations) = allocations_in(|| session.route(req));
            assert!(rep.completed);
            assert_eq!(rep.packets, n);
            let work = session.backend().price_work();
            assert!(work.searches as usize > n && work.paths_ripped > 0);
            // Per run, however many pairs: the histogram the run hands
            // back (the engine keeps its `Outbox` across runs).
            let per_run = histogram_growth(&rep.metrics.latency);
            assert_eq!(
                allocations, per_run,
                "a warmed-up request of {n} pairs ({work}) allocated {allocations} times"
            );
        }
    }
}
