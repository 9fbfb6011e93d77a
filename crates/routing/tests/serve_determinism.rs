//! The serve-loop determinism contract: for a fixed admission trace,
//! the **full delivery schedule** — per-request admission steps,
//! delivered counts, routing times and exact latency histograms — is
//! bit-identical across repeated runs and across serial vs sharded
//! engines at K ∈ {1, 2, 4}, with and without backpressure.

use lnpram_routing::ccc::CccBackend;
use lnpram_routing::hypercube::CubeBackend;
use lnpram_routing::leveled::LeveledBackend;
use lnpram_routing::star::StarBackend;
use lnpram_routing::{
    AdmissionEntry, RouteRequest, Serve, ServeConfig, ServeError, ServeReport, ServeSession,
};
use lnpram_simnet::SimConfig;
use lnpram_topology::leveled::RadixButterfly;
use lnpram_topology::StarGraph;
use proptest::prelude::*;

/// Serve-capable topologies, small enough for proptest sweeps.
const TOPOLOGIES: usize = 4;

fn make(topo: usize, shards: usize, cfg: ServeConfig) -> Box<dyn Serve> {
    let sim = SimConfig {
        shards,
        ..SimConfig::default()
    };
    match topo {
        0 => Box::new(ServeSession::new(
            LeveledBackend::new(RadixButterfly::new(2, 4)),
            &sim,
            cfg,
        )),
        1 => Box::new(ServeSession::new(
            StarBackend::new(StarGraph::new(4)),
            &sim,
            cfg,
        )),
        2 => Box::new(ServeSession::new(CubeBackend::new(4), &sim, cfg)),
        3 => Box::new(ServeSession::new(CccBackend::new(3), &sim, cfg)),
        _ => unreachable!("{topo}"),
    }
}

/// A random admission trace: `n` requests at non-decreasing steps with
/// mixed patterns and round-robin tenants. Deterministic in the inputs.
fn trace(n: usize, gap: u32, base_seed: u64, tenants: u64) -> Vec<AdmissionEntry> {
    let mut step = 0u32;
    (0..n)
        .map(|j| {
            let seed = base_seed.wrapping_add(j as u64);
            // Vary the arrival spacing deterministically: some requests
            // share a step, some leave idle gaps.
            step += (seed % u64::from(gap + 1)) as u32;
            let req = if seed.is_multiple_of(3) {
                RouteRequest::relation(2, seed)
            } else {
                RouteRequest::permutation(seed)
            };
            AdmissionEntry::request(step, req.with_tenant(j as u64 % tenants))
        })
        .collect()
}

fn assert_same_schedule(a: &ServeReport, b: &ServeReport, ctx: &str) {
    assert_eq!(a.steps, b.steps, "{ctx}: steps");
    assert_eq!(a.completed, b.completed, "{ctx}: completed");
    assert_eq!(a.admitted, b.admitted, "{ctx}: admitted");
    assert_eq!(a.rejected, b.rejected, "{ctx}: rejected");
    assert_eq!(
        a.deferred_request_steps, b.deferred_request_steps,
        "{ctx}: deferred request-steps"
    );
    assert_eq!(a.max_backlog, b.max_backlog, "{ctx}: max backlog");
    assert_eq!(a.schedule(), b.schedule(), "{ctx}: delivery schedule");
    assert_eq!(a.metrics.delivered, b.metrics.delivered, "{ctx}: delivered");
    assert_eq!(
        a.metrics.routing_time, b.metrics.routing_time,
        "{ctx}: routing time"
    );
    assert!(
        a.metrics.latency.buckets().eq(b.metrics.latency.buckets()),
        "{ctx}: aggregate latency distribution"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random admission traces: serial == sharded at K ∈ {1, 2, 4},
    /// and repeated serial runs are bit-identical.
    #[test]
    fn prop_serve_schedule_identical_serial_vs_sharded(
        topo in 0usize..TOPOLOGIES,
        n in 1usize..=5,
        gap in 0u32..=8,
        base_seed: u64,
        tenants in 1u64..=3,
    ) {
        let t = trace(n, gap, base_seed, tenants);
        let reference = make(topo, 0, ServeConfig::default())
            .run_trace(&t)
            .expect("serve-capable backend");
        prop_assert!(reference.completed);
        prop_assert_eq!(reference.admitted, n);

        let again = make(topo, 0, ServeConfig::default())
            .run_trace(&t)
            .expect("serve-capable backend");
        assert_same_schedule(&reference, &again, "serial repeat");

        for shards in [1usize, 2, 4] {
            let mut sharded = make(topo, shards, ServeConfig::default());
            let rep = sharded.run_trace(&t).expect("serve-capable backend");
            assert_same_schedule(
                &reference,
                &rep,
                &format!("{} K={shards}", sharded.topology()),
            );
        }
    }

    /// Backpressure does not break the contract: with a tight in-flight
    /// watermark the admission decisions themselves (deferral steps,
    /// backlog trajectory) are part of the schedule and must match
    /// serial vs sharded.
    #[test]
    fn prop_serve_backpressure_deterministic_across_shards(
        topo in 0usize..TOPOLOGIES,
        base_seed: u64,
    ) {
        let cfg = ServeConfig {
            high_water_in_flight: 12,
            ..ServeConfig::default()
        };
        // All requests at step 0: maximal contention for admission.
        let t: Vec<AdmissionEntry> = (0..4u64)
            .map(|i| {
                AdmissionEntry::request(
                    0,
                    RouteRequest::permutation(base_seed.wrapping_add(i)).with_tenant(i),
                )
            })
            .collect();
        let reference = make(topo, 0, cfg.clone())
            .run_trace(&t)
            .expect("serve-capable backend");
        prop_assert!(reference.completed);
        prop_assert!(
            reference.deferred_request_steps > 0,
            "watermark 12 must defer on {}",
            make(topo, 0, cfg.clone()).topology()
        );
        for req in &reference.requests {
            prop_assert!(req.completed(), "admitted packets are never dropped");
        }
        for shards in [2usize, 4] {
            let rep = make(topo, shards, cfg.clone())
                .run_trace(&t)
                .expect("serve-capable backend");
            assert_same_schedule(&reference, &rep, &format!("backpressure K={shards}"));
        }
    }
}

/// Budget exhaustion mid-serve: admitted packets are not dropped — they
/// stay queued in the engine — and the report says so.
#[test]
fn budget_exhausted_serve_keeps_admitted_packets() {
    let sim = SimConfig::default();
    let cfg = ServeConfig {
        max_steps: 1,
        ..ServeConfig::default()
    };
    let mut serve = ServeSession::new(LeveledBackend::new(RadixButterfly::new(2, 4)), &sim, cfg);
    let t = vec![AdmissionEntry::request(0, RouteRequest::permutation(5))];
    let report = serve.run_trace(&t).expect("leveled serves");
    assert!(!report.completed);
    assert!(report.metrics.delivered < report.packets);
    assert_eq!(
        serve.in_flight(),
        report.packets - report.metrics.delivered,
        "undelivered admitted packets remain queued, never dropped"
    );
}

/// A serve session is reusable: after a budget-exhausted trace the next
/// trace on the same session matches a fresh session bit-for-bit.
#[test]
fn serve_session_reusable_after_exhaustion() {
    let sim = SimConfig::default();
    let cfg = ServeConfig {
        max_steps: 1,
        ..ServeConfig::default()
    };
    let mut serve = ServeSession::new(LeveledBackend::new(RadixButterfly::new(2, 4)), &sim, cfg);
    // gap 0: every request arrives at step 0, so the 1-step budget
    // admits them and strands their packets mid-flight.
    let t = trace(3, 0, 99, 2);
    let poisoned = serve.run_trace(&t).expect("leveled serves");
    assert!(!poisoned.completed);
    assert!(serve.in_flight() > 0, "poisoned engine holds stale packets");

    // Restore the budget and reuse the poisoned session: the stale
    // packets must not leak into the next trace.
    serve.set_config(ServeConfig::default());
    let a = serve.run_trace(&t).expect("leveled serves");
    let b = serve.run_trace(&t).expect("leveled serves");
    let mut fresh = ServeSession::new(
        LeveledBackend::new(RadixButterfly::new(2, 4)),
        &sim,
        ServeConfig::default(),
    );
    let c = fresh.run_trace(&t).expect("leveled serves");
    assert_same_schedule(&a, &b, "same-session repeat");
    assert_same_schedule(&a, &c, "fresh vs reused session");
    assert!(a.completed);
}

/// An admission trace that goes back in time is a typed error naming
/// the offending entry — it used to panic on an `assert!`.
#[test]
fn unsorted_trace_is_a_typed_error() {
    let req = |seed| RouteRequest::permutation(seed);
    let t = vec![
        AdmissionEntry::request(0, req(1)),
        AdmissionEntry::request(4, req(2)),
        AdmissionEntry::leave(3, 0),
        AdmissionEntry::request(9, req(3)),
    ];
    for topo in 0..TOPOLOGIES {
        let mut serve = make(topo, 0, ServeConfig::default());
        let err = serve.run_trace(&t).expect_err("step 3 follows step 4");
        assert_eq!(err, ServeError::UnsortedTrace { index: 2 });
        assert_eq!(
            err.to_string(),
            "admission trace is not sorted by step: entry 2 arrives before entry 1"
        );
        let mut sink = lnpram_simnet::NoopSink;
        assert_eq!(serve.run_trace_traced(&t, &mut sink).err(), Some(err));
    }
}
