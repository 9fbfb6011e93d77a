//! Tracing neutrality: a [`TraceSink`] observes a run, it never changes
//! one. For random workloads — route and serve, serial and sharded at
//! K ∈ {1, 2, 4}, with scripted faults — the outcome with a recording
//! sink installed (flight recorder + phase profiler + serve event log,
//! all teed into one run) is bit-identical to the untraced run, and the
//! event log's completion latencies agree exactly with the report.

use lnpram_routing::leveled::{LeveledBackend, LeveledRoutingSession};
use lnpram_routing::star::{StarBackend, StarRoutingSession};
use lnpram_routing::{
    AdmissionEntry, RouteRequest, Router, RunReport, Serve, ServeConfig, ServeReport, ServeSession,
};
use lnpram_simnet::{
    Fanout, Fault, FlightRecorder, NoopSink, PhaseProfiler, ServeEvent, ServeEventLog, SimConfig,
};
use lnpram_topology::leveled::RadixButterfly;
use lnpram_topology::StarGraph;
use proptest::prelude::*;

/// All three built-in sinks teed into one recording stack.
type Recorder = Fanout<FlightRecorder, Fanout<PhaseProfiler, ServeEventLog>>;

fn recorder() -> Recorder {
    Fanout::new(
        FlightRecorder::new(1, 1024),
        Fanout::new(PhaseProfiler::new(), ServeEventLog::new()),
    )
}

fn sim(shards: usize) -> SimConfig {
    SimConfig {
        shards,
        ..SimConfig::default()
    }
}

fn make_serve(topo: usize, shards: usize) -> Box<dyn Serve> {
    match topo {
        0 => Box::new(ServeSession::new(
            LeveledBackend::new(RadixButterfly::new(2, 4)),
            &sim(shards),
            ServeConfig::default(),
        )),
        _ => Box::new(ServeSession::new(
            StarBackend::new(StarGraph::new(4)),
            &sim(shards),
            ServeConfig::default(),
        )),
    }
}

fn make_router(topo: usize, shards: usize) -> Box<dyn Router> {
    match topo {
        0 => Box::new(LeveledRoutingSession::new(
            RadixButterfly::new(2, 4),
            sim(shards),
        )),
        _ => Box::new(StarRoutingSession::new(4, sim(shards))),
    }
}

/// A request trace with scripted faults: a degrade early on, a fail and
/// its recovery, requests at spaced steps. Deterministic in the inputs.
fn faulted_trace(n: usize, base_seed: u64, fault_link: usize) -> Vec<AdmissionEntry> {
    let mut entries = vec![
        AdmissionEntry::fault(
            1,
            Fault::LinkDegrade {
                link: fault_link,
                period: 2,
            },
        ),
        AdmissionEntry::fault(
            2,
            Fault::LinkFail {
                link: fault_link + 1,
            },
        ),
        AdmissionEntry::fault(
            8,
            Fault::LinkRecover {
                link: fault_link + 1,
            },
        ),
    ];
    let mut step = 0u32;
    for j in 0..n {
        let seed = base_seed.wrapping_add(j as u64);
        step += (seed % 4) as u32;
        entries.push(AdmissionEntry::request(
            step,
            RouteRequest::permutation(seed).with_tenant(j as u64 % 2),
        ));
    }
    entries.sort_by_key(|e| e.step());
    entries
}

fn assert_same_serve(a: &ServeReport, b: &ServeReport, ctx: &str) {
    assert_eq!(a.steps, b.steps, "{ctx}: steps");
    assert_eq!(a.completed, b.completed, "{ctx}: completed");
    assert_eq!(a.admitted, b.admitted, "{ctx}: admitted");
    assert_eq!(a.rejected, b.rejected, "{ctx}: rejected");
    assert_eq!(
        a.deferred_request_steps, b.deferred_request_steps,
        "{ctx}: deferred request-steps"
    );
    assert_eq!(a.schedule(), b.schedule(), "{ctx}: delivery schedule");
    assert!(
        a.metrics.latency.buckets().eq(b.metrics.latency.buckets()),
        "{ctx}: latency distribution"
    );
}

fn assert_same_route(a: &RunReport, b: &RunReport, ctx: &str) {
    assert_eq!(a.completed, b.completed, "{ctx}: completed");
    assert_eq!(a.packets, b.packets, "{ctx}: packets");
    assert_eq!(a.metrics.delivered, b.metrics.delivered, "{ctx}: delivered");
    assert_eq!(
        a.metrics.routing_time, b.metrics.routing_time,
        "{ctx}: routing time"
    );
    assert_eq!(a.metrics.steps, b.metrics.steps, "{ctx}: steps");
    assert_eq!(a.metrics.max_queue, b.metrics.max_queue, "{ctx}: max queue");
    assert!(
        a.metrics.latency.buckets().eq(b.metrics.latency.buckets()),
        "{ctx}: latency distribution"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Faulted serve traces: the untraced run and the fully-recorded run
    /// produce the same report on the serial and every sharded engine,
    /// and the recording is coherent with the report.
    #[test]
    fn prop_serve_outcome_unchanged_by_recording(
        topo in 0usize..2,
        n in 1usize..=4,
        base_seed: u64,
    ) {
        let t = faulted_trace(n, base_seed, 0);
        for shards in [0usize, 1, 2, 4] {
            let reference = make_serve(topo, shards)
                .run_trace(&t)
                .expect("serve-capable backend");
            let mut sink = recorder();
            let traced = make_serve(topo, shards)
                .run_trace_traced(&t, &mut sink)
                .expect("serve-capable backend");
            assert_same_serve(&reference, &traced, &format!("K={shards}"));

            // The recording itself must be coherent: one sample per
            // drive-loop step (plus the step-0 injection sample the
            // profiler's `on_step_begin` never sees), admissions and
            // fault entries logged, and the completion latencies in the
            // log agreeing exactly with the per-request report.
            let rec = &sink.a;
            prop_assert_eq!(rec.samples().count() as u64, sink.b.a.steps() + 1);
            let max_sampled = rec.samples().map(|s| s.step).max().unwrap_or(0);
            prop_assert!(max_sampled <= traced.steps, "sampled past the reported run");
            let events = sink.b.b.events();
            for e in events {
                prop_assert_eq!(ServeEvent::from_json_line(&e.to_json_line()), Ok(*e));
            }
            let admits = events
                .iter()
                .filter(|e| matches!(e, ServeEvent::Admit { .. }))
                .count();
            prop_assert_eq!(admits, traced.admitted);
            let faults = events
                .iter()
                .filter(|e| matches!(e, ServeEvent::Fault { .. }))
                .count();
            prop_assert_eq!(faults, 3);
            let mut logged: Vec<u32> = events
                .iter()
                .filter_map(|e| match e {
                    ServeEvent::Complete { latency, .. } => Some(*latency),
                    _ => None,
                })
                .collect();
            logged.sort_unstable();
            let mut reported: Vec<u32> = traced
                .requests
                .iter()
                .filter_map(|r| r.completion_latency())
                .collect();
            reported.sort_unstable();
            prop_assert_eq!(logged, reported);
        }
    }

    /// Random permutation routing: `route_traced` with the recording
    /// stack equals `route` on the serial and every sharded engine.
    #[test]
    fn prop_route_outcome_unchanged_by_recording(
        topo in 0usize..2,
        seed: u64,
    ) {
        let req = RouteRequest::permutation(seed);
        for shards in [0usize, 1, 2, 4] {
            let reference = make_router(topo, shards).route(&req);
            let mut sink = recorder();
            let traced = make_router(topo, shards).route_traced(&req, &mut sink);
            assert_same_route(&reference, &traced, &format!("K={shards}"));
            // A NoopSink through the traced entry point is also the
            // identical run (the untraced delegation path).
            let mut noop = NoopSink;
            let quiet = make_router(topo, shards).route_traced(&req, &mut noop);
            assert_same_route(&reference, &quiet, &format!("noop K={shards}"));
            prop_assert!(sink.a.samples().count() > 0, "recorder saw no steps");
        }
    }
}
