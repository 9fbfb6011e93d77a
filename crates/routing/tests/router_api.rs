//! Cross-topology pins for the unified `Router` API:
//!
//! * **(a)** `route_batch` with ≥ 2 tenants is bit-identical *per
//!   tenant* to isolated single-tenant runs, and its aggregate is
//!   those runs folded — on the serial and the sharded engine path,
//!   K ∈ {1, 2, 4}, link loads recorded or not — for every topology.
//! * **(b)** reset == fresh for the cube / CCC / shuffle
//!   sessions: a warmed (reused, previously budget-exhausted) session
//!   is bit-identical to a freshly built one per request, across shard
//!   counts.
//! * **(c)** trait-object (`dyn Router`) use compiles and matches the
//!   concrete calls.
//! * **(d)** `route_with_faults` under an empty fault plan reports, as
//!   its first attempt, exactly what `route` reports — on every backend.

use lnpram_routing::ccc::CccRoutingSession;
use lnpram_routing::hypercube::CubeRoutingSession;
use lnpram_routing::retry::RetryPolicy;
use lnpram_routing::{
    LeveledRoutingSession, MeshAlgorithm, MeshRoutingSession, RouteRequest, Router, RunReport,
    ShuffleRoutingSession, StarRoutingSession, TenantReport,
};
use lnpram_simnet::fault::FaultPlan;
use lnpram_simnet::{Metrics, SimConfig};
use lnpram_topology::leveled::RadixButterfly;
use lnpram_topology::DWayShuffle;
use proptest::prelude::*;

/// Every topology of the crate behind one constructor, small enough
/// for proptest sweeps.
const TOPOLOGIES: usize = 6;

fn make(topo: usize, shards: usize) -> Box<dyn Router> {
    make_with(
        topo,
        SimConfig {
            shards,
            ..SimConfig::default()
        },
    )
}

fn make_with(topo: usize, cfg: SimConfig) -> Box<dyn Router> {
    match topo {
        0 => Box::new(StarRoutingSession::new(4, cfg)),
        1 => Box::new(LeveledRoutingSession::new(RadixButterfly::new(2, 4), cfg)),
        2 => Box::new(MeshRoutingSession::new(
            4,
            MeshAlgorithm::ThreeStage { slice_rows: 2 },
            cfg,
        )),
        3 => Box::new(CubeRoutingSession::new(4, cfg)),
        4 => Box::new(CccRoutingSession::new(3, cfg)),
        5 => Box::new(ShuffleRoutingSession::new(DWayShuffle::new(3, 2), cfg)),
        _ => unreachable!("{topo}"),
    }
}

/// The per-tenant == isolated contract: deliveries, routing time and
/// the full latency distribution (queue residency is reported on the
/// batch aggregate only).
fn assert_tenant_matches(tr: &TenantReport, iso: &RunReport, ctx: &str) {
    assert_eq!(tr.completed, iso.completed, "{ctx}: completed");
    assert_eq!(tr.injected, iso.packets, "{ctx}: injected");
    assert_eq!(
        tr.metrics.delivered, iso.metrics.delivered,
        "{ctx}: delivered"
    );
    assert_eq!(
        tr.metrics.routing_time, iso.metrics.routing_time,
        "{ctx}: routing_time"
    );
    assert!(
        tr.metrics
            .latency
            .buckets()
            .eq(iso.metrics.latency.buckets()),
        "{ctx}: latency distribution"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(14))]

    /// (a) Batched multi-tenant outcomes == isolated single-tenant runs
    /// per tenant, on the serial engine and sharded at K ∈ {1, 2, 4} —
    /// the isolated reference is always the serial path, so this also
    /// re-pins sharded == serial through the batch machinery — and the
    /// batch aggregates are the isolated runs folded: counts add up,
    /// times and queue peaks take the maximum, latency histograms
    /// merge and per-link loads concatenate in tenant order.
    #[test]
    fn prop_batch_matches_isolated_per_tenant(
        topo in 0usize..TOPOLOGIES,
        tenants in 2usize..=4,
        base_seed: u64,
        shards in prop_oneof![Just(0usize), Just(1), Just(2), Just(4)],
        record_link_loads: bool,
    ) {
        let cfg = |shards| SimConfig { shards, record_link_loads, ..SimConfig::default() };
        let reqs: Vec<RouteRequest> = (0..tenants as u64)
            .map(|i| RouteRequest::permutation(base_seed.wrapping_add(i)).with_tenant(i))
            .collect();
        let mut router = make_with(topo, cfg(shards));
        let batch = router.route_batch(&reqs);
        prop_assert!(batch.completed, "{}", router.topology());
        prop_assert_eq!(batch.tenants.len(), tenants);
        let mut folded = Metrics::default();
        let mut total_packets = 0usize;
        for (i, req) in reqs.iter().enumerate() {
            let iso = make_with(topo, cfg(0)).route(req);
            let tr = batch.tenant(i);
            prop_assert_eq!(tr.slot, i);
            prop_assert_eq!(tr.tenant, i as u64);
            prop_assert_eq!(tr.stranded, 0);
            assert_tenant_matches(tr, &iso, &format!("{} tenant {i}", router.topology()));
            total_packets += iso.packets;
            let m = &iso.metrics;
            folded.delivered += m.delivered;
            folded.routing_time = folded.routing_time.max(m.routing_time);
            folded.steps = folded.steps.max(m.steps);
            folded.max_queue = folded.max_queue.max(m.max_queue);
            folded.queued_packet_steps += m.queued_packet_steps;
            folded.latency.absorb(&m.latency);
            folded.link_loads.extend_from_slice(&m.link_loads);
        }
        let ctx = router.topology();
        prop_assert_eq!(batch.packets, total_packets, "{}", ctx);
        prop_assert_eq!(batch.metrics.delivered, total_packets, "{}", ctx);
        prop_assert_eq!(batch.metrics.delivered, folded.delivered, "{}", ctx);
        prop_assert_eq!(batch.metrics.routing_time, folded.routing_time, "{}", ctx);
        prop_assert_eq!(batch.metrics.steps, folded.steps, "{}", ctx);
        prop_assert_eq!(batch.metrics.max_queue, folded.max_queue, "{}", ctx);
        prop_assert_eq!(
            batch.metrics.queued_packet_steps,
            folded.queued_packet_steps,
            "{}",
            ctx
        );
        prop_assert!(
            batch.metrics.latency.buckets().eq(folded.latency.buckets()),
            "{}: merged latency distribution",
            ctx
        );
        prop_assert_eq!(batch.metrics.link_loads.is_empty(), !record_link_loads, "{}", ctx);
        prop_assert_eq!(&batch.metrics.link_loads, &folded.link_loads, "{}", ctx);

        // A second batch on the same session (different seeds) must
        // stay identical to isolated runs too.
        let reqs2: Vec<RouteRequest> = (0..tenants as u64)
            .map(|i| {
                RouteRequest::permutation(base_seed.wrapping_add(1000 + i)).with_tenant(i)
            })
            .collect();
        let batch2 = router.route_batch(&reqs2);
        prop_assert!(batch2.completed);
        for (i, req) in reqs2.iter().enumerate() {
            let iso = make(topo, 0).route(req);
            assert_tenant_matches(
                batch2.tenant(i),
                &iso,
                &format!("{} reused-batch tenant {i}", router.topology()),
            );
        }
        // And a plain route after the batches is the isolated run.
        let single = router.route(&reqs[0]);
        let iso = make(topo, 0).route(&reqs[0]);
        prop_assert_eq!(single.metrics.routing_time, iso.metrics.routing_time);
        prop_assert_eq!(single.metrics.max_queue, iso.metrics.max_queue);
    }

    /// (b) The cube/CCC/shuffle sessions are bit-identical to a
    /// session built fresh for the one request — Nth call on a warmed
    /// session that has already absorbed a budget-exhausted run, serial
    /// and sharded.
    #[test]
    fn prop_new_sessions_bit_identical_to_one_shots(
        topo in 3usize..TOPOLOGIES,
        base_seed: u64,
        runs in 1usize..4,
        shards in 0usize..=4,
    ) {
        let cfg = SimConfig { shards, ..SimConfig::default() };
        let mut session = make(topo, shards);
        // Poison: a budget-exhausted run leaves packets mid-flight;
        // reset must still give a fresh-engine run.
        session.set_max_steps(1);
        let poisoned = session.route_permutation(u64::MAX);
        prop_assert!(!poisoned.completed);
        session.set_max_steps(cfg.max_steps);
        for i in 0..runs as u64 {
            let seed = base_seed.wrapping_add(i);
            let reused = session.route_permutation(seed);
            let fresh = match topo {
                3 => CubeRoutingSession::new(4, cfg.clone()).route_permutation(seed),
                4 => CccRoutingSession::new(3, cfg.clone()).route_permutation(seed),
                5 => ShuffleRoutingSession::new(DWayShuffle::new(3, 2), cfg.clone()).route_permutation(seed),
                _ => unreachable!(),
            };
            prop_assert_eq!(reused.completed, fresh.completed);
            prop_assert_eq!(reused.metrics.routing_time, fresh.metrics.routing_time);
            prop_assert_eq!(reused.metrics.delivered, fresh.metrics.delivered);
            prop_assert_eq!(reused.metrics.max_queue, fresh.metrics.max_queue);
            prop_assert_eq!(
                reused.metrics.queued_packet_steps,
                fresh.metrics.queued_packet_steps
            );
        }
    }

    /// (d) Every backend honours the fault contract: with nothing to
    /// fail, fault recovery is one attempt whose report is the plain
    /// route's — deliveries, routing time, max queue and the latency
    /// distribution — for random, relation and direct patterns.
    #[test]
    fn prop_route_with_empty_fault_plan_equals_route(
        topo in 0usize..TOPOLOGIES,
        pattern in 0usize..3,
        seed: u64,
        shards in prop_oneof![Just(0usize), Just(2), Just(4)],
    ) {
        let mut router = make(topo, shards);
        let req = match pattern {
            0 => RouteRequest::permutation(seed),
            1 => RouteRequest::relation(2, seed),
            _ => RouteRequest::direct((0..router.num_sources()).rev().collect()),
        };
        let policy = RetryPolicy {
            attempt_budget: router.step_budget(),
            max_attempts: 3,
        };
        let plain = router.route(&req);
        let faulted = router
            .route_with_faults(&req, &FaultPlan::default(), policy)
            .expect("an empty plan installs on every backend");
        let ctx = router.topology();
        prop_assert!(faulted.completed, "{}", ctx);
        prop_assert_eq!(faulted.attempts, 1, "{}", ctx);
        prop_assert!(faulted.lost.is_empty(), "{}", ctx);
        let first = &faulted.first;
        prop_assert_eq!(first.completed, plain.completed, "{}", ctx);
        prop_assert_eq!(first.packets, plain.packets, "{}", ctx);
        prop_assert_eq!(first.metrics.delivered, plain.metrics.delivered, "{}", ctx);
        prop_assert_eq!(first.metrics.routing_time, plain.metrics.routing_time, "{}", ctx);
        prop_assert_eq!(first.metrics.max_queue, plain.metrics.max_queue, "{}", ctx);
        prop_assert!(
            first.metrics.latency.buckets().eq(plain.metrics.latency.buckets()),
            "{}: latency distribution",
            ctx
        );
    }
}

/// (c) `dyn Router` heterogeneous dispatch matches the concrete calls.
#[test]
fn dyn_router_matches_concrete_sessions() {
    let fingerprint = |m: &Metrics| {
        (
            m.delivered,
            m.routing_time,
            m.max_queue,
            m.queued_packet_steps,
        )
    };
    for topo in 0..TOPOLOGIES {
        let mut dynamic: Box<dyn Router> = make(topo, 0);
        let via_dyn = dynamic.route_permutation(42);
        let concrete = match topo {
            0 => StarRoutingSession::new(4, SimConfig::default()).route_permutation(42),
            1 => LeveledRoutingSession::new(RadixButterfly::new(2, 4), SimConfig::default())
                .route_permutation(42),
            2 => MeshRoutingSession::new(
                4,
                MeshAlgorithm::ThreeStage { slice_rows: 2 },
                SimConfig::default(),
            )
            .route_permutation(42),
            3 => CubeRoutingSession::new(4, SimConfig::default()).route_permutation(42),
            4 => CccRoutingSession::new(3, SimConfig::default()).route_permutation(42),
            5 => ShuffleRoutingSession::new(DWayShuffle::new(3, 2), SimConfig::default())
                .route_permutation(42),
            _ => unreachable!(),
        };
        assert_eq!(
            fingerprint(&via_dyn.metrics),
            fingerprint(&concrete.metrics),
            "{}",
            dynamic.topology()
        );
        assert_eq!(via_dyn.norm(), concrete.norm());
        assert!(dynamic.num_sources() > 0);
    }
}

/// A heterogeneous batch: different request *patterns* as tenants of
/// one batch, each identical to its isolated run.
#[test]
fn mixed_pattern_batch_matches_isolated() {
    let n_nodes = 24; // 4-star
    let reqs = vec![
        RouteRequest::permutation(7).with_tenant(0),
        RouteRequest::relation(2, 8).with_tenant(1),
        RouteRequest::direct((0..n_nodes).rev().collect()).with_tenant(2),
        RouteRequest::dests(vec![5; n_nodes], 9).with_tenant(3),
    ];
    for shards in [0usize, 2] {
        let mut router = StarRoutingSession::new(
            4,
            SimConfig {
                shards,
                ..SimConfig::default()
            },
        );
        let batch = router.route_batch(&reqs);
        assert!(batch.completed);
        for (i, req) in reqs.iter().enumerate() {
            let iso = StarRoutingSession::new(4, SimConfig::default()).route(req);
            assert_tenant_matches(batch.tenant(i), &iso, &format!("K={shards} tenant {i}"));
        }
    }
}

/// Incomplete batches account stranded packets per tenant:
/// delivered + stranded == injected for every tenant.
#[test]
fn incomplete_batch_demuxes_stranded_packets() {
    let mut router = StarRoutingSession::new(4, SimConfig::default());
    router.set_max_steps(1);
    let reqs = RouteRequest::permutations(&[3, 4, 5]);
    let batch = router.route_batch(&reqs);
    assert!(!batch.completed);
    let mut stranded_total = 0usize;
    for tr in &batch.tenants {
        assert!(!tr.completed);
        assert_eq!(
            tr.metrics.delivered + tr.stranded,
            tr.injected,
            "tenant {}: every packet is delivered or accounted stranded",
            tr.slot
        );
        stranded_total += tr.stranded;
    }
    assert!(stranded_total > 0);
    // The drained engine is clean: the next batch routes normally.
    router.set_max_steps(SimConfig::default().max_steps);
    let ok = router.route_batch(&reqs);
    assert!(ok.completed);
    for (i, req) in reqs.iter().enumerate() {
        let iso = StarRoutingSession::new(4, SimConfig::default()).route(req);
        assert_tenant_matches(ok.tenant(i), &iso, &format!("post-drain tenant {i}"));
    }
}

/// `route_batch` of one request degenerates to `route` (same outcome,
/// one tenant report).
#[test]
fn single_tenant_batch_equals_route() {
    let req = RouteRequest::permutation(13);
    for topo in 0..TOPOLOGIES {
        let mut router = make(topo, 0);
        let batch = router.route_batch(std::slice::from_ref(&req));
        let single = make(topo, 0).route(&req);
        assert_eq!(batch.tenants.len(), 1);
        assert_tenant_matches(batch.tenant(0), &single, &router.topology());
        assert_eq!(batch.metrics.max_queue, single.metrics.max_queue);
        assert_eq!(
            batch.metrics.queued_packet_steps,
            single.metrics.queued_packet_steps
        );
    }
}

/// `route_batch` of no requests is an empty, completed batch carrying
/// the backend's extras — it used to panic on an `assert!`.
#[test]
fn empty_batch_is_an_empty_completed_report() {
    for topo in 0..TOPOLOGIES {
        let mut router = make(topo, 0);
        let extras = router.route(&RouteRequest::permutation(1)).extras;
        let batch = router.route_batch(&[]);
        assert!(batch.completed, "{}", router.topology());
        assert_eq!(batch.packets, 0);
        assert!(batch.tenants.is_empty());
        assert_eq!(batch.metrics.delivered, 0);
        assert_eq!(batch.extras, extras);
    }
}

/// A destination past the topology's last source panics, naming the
/// destination and the bound, on every session; it used to be routed
/// wherever the topology's arithmetic sent it and counted delivered.
/// `make(1, ..)` is a butterfly(2,4) (16 sources), `make(2, ..)` a 4×4
/// mesh (16 sources).
fn route_out_of_range(topo: usize, req: RouteRequest) -> String {
    let mut router = make(topo, 0);
    assert_eq!(router.num_sources(), 16);
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| router.route(&req)))
        .expect_err("an out-of-range destination must not route");
    panic
        .downcast_ref::<String>()
        .cloned()
        .expect("a formatted panic message")
}

#[test]
fn out_of_range_destinations_panic_on_leveled_and_mesh_sessions() {
    for topo in [1, 2] {
        let mut relation = vec![Vec::new(); 16];
        relation[2] = vec![7, 21];
        let msg = route_out_of_range(topo, RouteRequest::relation_map(relation, 5));
        assert!(msg.contains("2 -> 21 is out of range"), "{msg}");
        assert!(msg.contains("16 sources"), "{msg}");
        let mut dests: Vec<usize> = (0..16).collect();
        dests[0] = 16;
        for req in [
            RouteRequest::dests(dests.clone(), 5),
            RouteRequest::direct(dests.clone()),
        ] {
            let msg = route_out_of_range(topo, req);
            assert!(msg.contains("0 -> 16 is out of range"), "{msg}");
        }
    }
}
