//! The emulators' per-hop work must not touch the heap.
//!
//! A counting global allocator (per thread, so the test harness's other
//! threads do not disturb it) wraps the system one; the tests assert
//! that the counter does not move across the calls the star's routers
//! and protocols make per hop, and that a warmed-up `emulate_step` on
//! the star, leveled and mesh hosts allocates only a constant handful
//! beyond the vector it returns.

use lnpram_core::{
    EmuHost, EmulatorConfig, LeveledPramEmulator, MeshPramEmulator, PramEmulator, StarPramEmulator,
};
use lnpram_pram::{AccessMode, MemOp, WritePolicy};
use lnpram_topology::leveled::RadixButterfly;
use lnpram_topology::{Network, StarGraph, StarTable};
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

/// 10 000 rounds of the three per-hop questions, pairs drawn by a
/// fixed LCG so the loop itself needs no heap.
fn per_hop_calls(next_port: impl Fn(usize, usize) -> Option<usize>, net: &impl Network) -> usize {
    let nodes = net.num_nodes();
    let mut state = 12345usize;
    let mut sink = 0usize;
    for _ in 0..10_000 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let (u, v) = ((state >> 33) % nodes, (state >> 13) % nodes);
        let port = (state >> 7) % net.out_degree(u);
        let w = net.neighbor(u, port);
        sink += next_port(u, v).map_or(0, |p| p + 1);
        sink += net.port_to(w, u).map_or(0, |p| p + 1);
        sink += net.port_to(u, v).map_or(0, |p| p + 1);
        sink += w;
    }
    sink
}

#[test]
fn star_table_per_hop_calls_do_not_allocate() {
    for n in [5usize, 7] {
        let table = StarTable::new(StarGraph::new(n));
        let (sink, allocs) =
            allocations_in(|| per_hop_calls(|u, v| table.canonical_next_port(u, v), &table));
        black_box(sink);
        assert_eq!(allocs, 0, "StarTable on the {n}-star");
    }
}

#[test]
fn star_graph_arithmetic_does_not_allocate_either() {
    // The definition the table is tested against: `Perm` is inline, so
    // unrank / inverse / compose / swap / rank stay off the heap too.
    let star = StarGraph::new(6);
    let (sink, allocs) =
        allocations_in(|| per_hop_calls(|u, v| star.canonical_next_port(u, v), &star));
    black_box(sink);
    assert_eq!(allocs, 0);
}

/// One PRAM step per entry of `steps`, each emulated after `warm_up`
/// identical rounds; returns the allocations of each measured step.
fn allocations_per_step<H: EmuHost>(emu: &mut PramEmulator<H>, steps: &[Vec<MemOp>]) -> Vec<u64> {
    let mut label = 0u64;
    for _ in 0..3 {
        for ops in steps {
            emu.emulate_step(ops, label);
            label += 1;
        }
    }
    steps
        .iter()
        .map(|ops| {
            label += 1;
            allocations_in(|| black_box(emu.emulate_step(ops, label))).1
        })
        .collect()
}

/// Spread reads, hot-spot reads of cell 7 and spread writes by `procs`
/// processors over `cells` cells.
fn three_steps(procs: u64, cells: u64) -> [Vec<MemOp>; 3] {
    [
        (0..procs).map(|q| MemOp::Read(q % cells)).collect(),
        (0..procs).map(|_| MemOp::Read(7)).collect(),
        (0..procs).map(|q| MemOp::Write(q % cells, q)).collect(),
    ]
}

#[test]
fn warmed_up_emulate_step_does_not_allocate_per_hop_or_per_entry() {
    // 120 processors on the 5-star. Every step below sends 120 request
    // packets over two canonical legs (≈ 7 hops each way on average)
    // and, for reads, registers a pending entry per hop and retraces it:
    // on the order of a thousand hops and table operations per step. A
    // single allocation per hop or per entry would show as hundreds.
    //
    // What remains is a constant handful made outside the kernel: the
    // returned vector and the latency histograms the two engine runs
    // hand out and regrow (more of them where 120 uncombined reads of
    // one cell queue up). The served reads go into a buffer the
    // emulator keeps. A module's writes are grouped by key in a reused
    // scratch buffer and land on cells that already exist, so they add
    // nothing.
    if std::env::var_os("LNPRAM_CHECK_INVARIANTS").is_some_and(|v| v == "1") {
        return; // the per-step state checker allocates its own scratch
    }
    let cells = 40u64;
    let steps = three_steps(120, cells);
    for combining in [true, false] {
        let mut emu = StarPramEmulator::new(
            5,
            AccessMode::Crcw(WritePolicy::Max),
            cells,
            EmulatorConfig {
                combining,
                ..EmulatorConfig::default()
            },
        );
        let counts = allocations_per_step(&mut emu, &steps);
        assert!(
            counts[0] <= 7,
            "spread reads, combining={combining}: {counts:?}"
        );
        assert!(
            counts[1] <= 11,
            "hot-spot reads, combining={combining}: {counts:?}"
        );
        // Neither the write grouping nor the routing allocates per module.
        assert!(counts[2] <= 3, "writes, combining={combining}: {counts:?}");
    }
}

#[test]
fn warmed_up_emulate_step_on_the_leveled_and_mesh_hosts_does_not_allocate_per_hop() {
    // The same pin on the other two hosts: butterfly(2, 5) sends 32
    // requests over 10 columns each way, the 8×8 mesh 64 over its
    // three-stage route. What remains is the same constant handful.
    if std::env::var_os("LNPRAM_CHECK_INVARIANTS").is_some_and(|v| v == "1") {
        return; // the per-step state checker allocates its own scratch
    }
    let mode = AccessMode::Crcw(WritePolicy::Max);
    let cells = 20u64;
    let cfg = EmulatorConfig::default();
    let mut leveled = LeveledPramEmulator::new(RadixButterfly::new(2, 5), mode, cells, cfg.clone());
    let mut mesh = MeshPramEmulator::new(8, mode, cells, cfg);
    let counts = [
        (
            "butterfly(2, 5)",
            allocations_per_step(&mut leveled, &three_steps(32, cells)),
        ),
        (
            "8×8 mesh",
            allocations_per_step(&mut mesh, &three_steps(64, cells)),
        ),
    ];
    for (host, counts) in counts {
        assert!(counts[0] <= 7, "spread reads on the {host}: {counts:?}");
        assert!(counts[1] <= 11, "hot-spot reads on the {host}: {counts:?}");
        assert!(counts[2] <= 3, "writes on the {host}: {counts:?}");
    }
}
