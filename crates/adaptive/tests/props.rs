//! Property pins for the adaptive backend: pricing is deterministic
//! across repeats and sessions, the sharded engine is bit-identical to
//! the serial one at K ∈ {1, 2, 4}, tracing never changes a run, and
//! batches match isolated runs — the same contracts every
//! oblivious backend in this workspace is pinned to.

use lnpram_adaptive::AdaptiveRoutingSession;
use lnpram_routing::retry::RetryPolicy;
use lnpram_routing::router::{RouteRequest, Router, RunReport};
use lnpram_routing::workloads::{bit_reversal, transpose};
use lnpram_simnet::fault::{Fault, FaultEvent, FaultPlan};
use lnpram_simnet::{FlightRecorder, ServeEventLog, SimConfig};
use lnpram_topology::hypercube::Hypercube;
use lnpram_topology::{Mesh, Network};
use proptest::prelude::*;

fn sim(shards: usize) -> SimConfig {
    SimConfig {
        shards,
        record_link_loads: true,
        ..SimConfig::default()
    }
}

/// Everything a run can differ in, flattened for exact comparison.
fn fingerprint(rep: &RunReport) -> (usize, u32, usize, u64, u32, u64, u64, Vec<u32>, usize) {
    (
        rep.metrics.delivered,
        rep.metrics.routing_time,
        rep.metrics.max_queue,
        rep.metrics.queued_packet_steps,
        rep.metrics.steps,
        rep.metrics.latency.max(),
        rep.metrics.latency.percentile(0.5),
        rep.metrics.link_loads.clone(),
        rep.norm(),
    )
}

/// The workload matrix: random permutation, the structured adversaries,
/// and a partial h-relation (multi-packet-per-source).
fn request(kind: usize, n: usize, seed: u64) -> RouteRequest {
    match kind {
        0 => RouteRequest::permutation(seed),
        1 => RouteRequest::direct(transpose(n)),
        2 => RouteRequest::direct(bit_reversal(n)),
        _ => RouteRequest::relation(2, seed),
    }
}

fn mesh_session(shards: usize) -> AdaptiveRoutingSession {
    AdaptiveRoutingSession::new(&Mesh::square(8), sim(shards))
}

fn cube_session(shards: usize) -> AdaptiveRoutingSession {
    AdaptiveRoutingSession::new(&Hypercube::new(6), sim(shards))
}

proptest! {
    // 16 cases (each routes full meshes/cubes repeatedly), or
    // PROPTEST_CASES if larger.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Identical requests produce identical runs — within one session
    /// (engine recycling is outcome-neutral) and across fresh sessions.
    #[test]
    fn deterministic_across_repeats(seed in 0u64..1 << 20, kind in 0usize..4) {
        let mut s = mesh_session(0);
        let n = s.num_nodes();
        let req = request(kind, n, seed);
        let a = s.route(&req);
        let b = s.route(&req);
        prop_assert!(a.completed);
        prop_assert_eq!(fingerprint(&a), fingerprint(&b), "same-session repeat");
        let c = mesh_session(0).route(&req);
        prop_assert_eq!(fingerprint(&a), fingerprint(&c), "fresh-session repeat");
    }

    /// The partitioned lockstep engine is bit-identical to the serial
    /// one at every supported shard count, on the mesh and the cube.
    #[test]
    fn serial_vs_sharded_bit_identical(seed in 0u64..1 << 20, kind in 0usize..4) {
        for topo in 0..2 {
            let mut serial = if topo == 0 { mesh_session(0) } else { cube_session(0) };
            let n = serial.num_nodes();
            let req = request(kind, n, seed);
            let base = serial.route(&req);
            prop_assert!(base.completed);
            for shards in [2usize, 4] {
                let mut sharded = if topo == 0 { mesh_session(shards) } else { cube_session(shards) };
                prop_assert!(sharded.is_sharded());
                let rep = sharded.route(&req);
                prop_assert_eq!(
                    fingerprint(&base),
                    fingerprint(&rep),
                    "topo {} K={}", topo, shards
                );
            }
        }
    }

    /// A recording sink (flight recorder or event log) observes a run
    /// without changing it, and the trace's pricing records agree with
    /// the report's extras.
    #[test]
    fn tracing_is_neutral(seed in 0u64..1 << 20, kind in 0usize..4) {
        let mut s = mesh_session(0);
        let n = s.num_nodes();
        let req = request(kind, n, seed);
        let plain = s.route(&req);
        let mut recorder = FlightRecorder::new(1, 1024);
        let recorded = s.route_traced(&req, &mut recorder);
        prop_assert_eq!(fingerprint(&plain), fingerprint(&recorded), "flight recorder");
        let mut log = ServeEventLog::new();
        let logged = s.route_traced(&req, &mut log);
        prop_assert_eq!(fingerprint(&plain), fingerprint(&logged), "event log");
        // The pricer keeps the best iteration's path set, so the norm
        // is the series *minimum* (the last iteration may be a
        // patience-expired regression); the log agrees with the
        // recorder event for event.
        let series = recorder.route_max_loads();
        prop_assert!(!series.is_empty());
        let best = series.iter().copied().min().unwrap_or(0) as usize;
        prop_assert_eq!(best, plain.norm());
        let iters = log
            .events()
            .iter()
            .filter(|e| e.name() == "route_iteration")
            .count();
        prop_assert_eq!(iters, series.len());
    }

    /// A batch of T tenants reports each tenant's outcome as its
    /// isolated run.
    #[test]
    fn batch_matches_isolated(seed in 0u64..1 << 20, tenants in 2usize..4) {
        let mut s = mesh_session(0);
        let reqs: Vec<RouteRequest> = (0..tenants as u64)
            .map(|i| RouteRequest::permutation(seed + i).with_tenant(i))
            .collect();
        let batch = s.route_batch(&reqs);
        prop_assert!(batch.completed);
        for (slot, tr) in batch.tenants.iter().enumerate() {
            let solo = s.route(&reqs[slot]);
            prop_assert_eq!(tr.metrics.delivered, solo.metrics.delivered, "slot {}", slot);
            prop_assert_eq!(
                tr.metrics.routing_time,
                solo.metrics.routing_time,
                "slot {}", slot
            );
        }
    }

    /// The fault contract every backend honours: under an empty plan
    /// the pricer avoids nothing, so recovery is one attempt whose
    /// report is the plain route's.
    #[test]
    fn empty_fault_plan_equals_route(seed in 0u64..1 << 20, kind in 0usize..4) {
        for topo in 0..2 {
            let mut s = if topo == 0 { mesh_session(0) } else { cube_session(0) };
            let req = request(kind, s.num_nodes(), seed);
            let plain = s.route(&req);
            let policy = RetryPolicy { attempt_budget: s.step_budget(), max_attempts: 3 };
            let faulted = s
                .route_with_faults(&req, &FaultPlan::default(), policy)
                .expect("an empty plan installs");
            prop_assert!(faulted.completed, "topo {}", topo);
            prop_assert_eq!(faulted.attempts, 1, "topo {}", topo);
            prop_assert_eq!(fingerprint(&plain), fingerprint(&faulted.first), "topo {}", topo);
        }
    }
}

/// Rerouting around a failed link: the plan kills one interior link, the
/// pricer avoids it, and every packet still delivers — in ONE attempt,
/// where the oblivious Lemma 2.1 loop would re-randomize and retry.
#[test]
fn reroutes_around_failed_link() {
    let mut s = mesh_session(0);
    let n = s.num_nodes();
    let plan = FaultPlan::new(vec![FaultEvent {
        step: 0,
        fault: Fault::LinkFail { link: 5 },
    }]);
    let rep = s
        .route_with_faults(
            &RouteRequest::direct(transpose(n)),
            &plan,
            RetryPolicy {
                attempt_budget: 4_000,
                max_attempts: 4,
            },
        )
        .expect("adaptive supports fault plans");
    assert_eq!(rep.delivered(), n, "all packets reroute around the link");
    assert_eq!(rep.attempts, 1, "no retries needed");
    assert!(rep.lost.is_empty());
}

/// A failed node: the packet *to* it is honestly lost, the packet
/// *from* it strands (its source can never transmit — survivable by
/// destination, so the loop retries it and reports it stranded rather
/// than misclassifying it), and everyone else reroutes and delivers.
#[test]
fn reroutes_around_failed_node() {
    let mut s = mesh_session(0);
    let n = s.num_nodes();
    let dead = 27usize; // interior node of the 8×8 mesh
    let plan = FaultPlan::new(vec![FaultEvent {
        step: 0,
        fault: Fault::NodeFail { node: dead },
    }]);
    let rep = s
        .route_with_faults(
            &RouteRequest::direct(bit_reversal(n)),
            &plan,
            RetryPolicy {
                attempt_budget: 4_000,
                max_attempts: 4,
            },
        )
        .expect("adaptive supports fault plans");
    let to_dead = bit_reversal(n).iter().filter(|&&d| d == dead).count();
    assert_eq!(
        rep.lost.len(),
        to_dead,
        "only dead-destination packets lost"
    );
    assert!(rep.lost.iter().all(|p| p.dest as usize == dead));
    // bit_reversal is an involution, so exactly one packet originates
    // at the dead node; it can never leave and ends stranded.
    assert_eq!(rep.stranded, 1, "the dead node's own packet strands");
    assert!(!rep.completed);
    assert_eq!(
        rep.delivered() + rep.lost.len() + rep.stranded,
        rep.injected
    );
}

/// The CSR snapshot a session routes on matches the topology it was
/// built from (sanity for the id-space contract the paths rely on).
#[test]
fn session_matches_topology() {
    let mesh = Mesh::square(8);
    let s = AdaptiveRoutingSession::new(&mesh, SimConfig::default());
    assert_eq!(s.num_nodes(), mesh.num_nodes());
    assert_eq!(s.num_links(), mesh.num_links());
    assert!(s.topology().contains("adaptive"));
}
