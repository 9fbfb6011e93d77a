//! Chaos properties of the fault subsystem: random failure schedules
//! and tenant churn must yield **deterministic degradation** —
//!
//! * every survivable packet is delivered (recovery completes),
//! * packets destined to dead nodes are reported as typed
//!   [`LostPacket`]s, never silently dropped and never retried forever,
//! * the entire degraded schedule — attempts, recovery counts, lost
//!   sets, step accounting, serve schedules — is bit-identical across
//!   repeated runs and across serial vs sharded engines at K ∈ {1,2,4}.
//!
//! Node failures target **delivery-column** nodes of the doubled
//! butterfly: only packets destined to that row ever traverse a link
//! into such a node (the butterfly has resolved every digit by the last
//! level, and queues are per-link), so killing one creates lost packets
//! without head-of-line collateral on survivable traffic. Link faults
//! are always paired with a recovery so survivors stay survivable.

use lnpram_math::rng::splitmix64;
use lnpram_routing::leveled::LeveledBackend;
use lnpram_routing::retry::RetryPolicy;
use lnpram_routing::serve::{AdmissionEntry, Serve, ServeConfig, ServeReport, ServeSession};
use lnpram_routing::DoubledLeveled;
use lnpram_routing::{FaultReport, LeveledRoutingSession, RouteRequest, Router};
use lnpram_simnet::{Engine, Fault, FaultEvent, FaultPlan, SimConfig};
use lnpram_topology::leveled::{Leveled, LeveledNet, RadixButterfly};
use proptest::prelude::*;

const RADIX: usize = 2;

fn butterfly_session(levels: usize, shards: usize) -> LeveledRoutingSession<RadixButterfly> {
    let cfg = SimConfig {
        shards,
        ..SimConfig::default()
    };
    LeveledRoutingSession::new(RadixButterfly::new(RADIX, levels), cfg)
}

/// The engine node at which packets destined to `row` are delivered
/// (last column of the doubled unrolling).
fn delivery_node(levels: usize, row: usize) -> usize {
    let net = LeveledNet::forward(DoubledLeveled::new(RadixButterfly::new(RADIX, levels)));
    net.node_id(net.leveled().levels(), row)
}

/// A random chaos plan: transient link failures/degrades (always
/// repaired before `horizon`) plus up to `max_dead` permanent failures
/// of delivery-column nodes.
fn chaos_plan(
    state: &mut u64,
    levels: usize,
    links: usize,
    horizon: u32,
    max_dead: usize,
) -> (FaultPlan, Vec<usize>) {
    let width = RADIX.pow(levels as u32);
    let mut events = Vec::new();
    let transient = (splitmix64(state) % 4) as usize;
    for _ in 0..transient {
        let link = (splitmix64(state) as usize) % links;
        let start = (splitmix64(state) % u64::from(horizon / 2)) as u32;
        let end = start + 1 + (splitmix64(state) % u64::from(horizon / 2)) as u32;
        if splitmix64(state).is_multiple_of(2) {
            events.push(FaultEvent {
                step: start,
                fault: Fault::LinkFail { link },
            });
        } else {
            events.push(FaultEvent {
                step: start,
                fault: Fault::LinkDegrade {
                    link,
                    period: 2 + (splitmix64(state) % 3) as u32,
                },
            });
        }
        events.push(FaultEvent {
            step: end,
            fault: Fault::LinkRecover { link },
        });
    }
    let mut dead_rows = Vec::new();
    let dead = (splitmix64(state) as usize) % (max_dead + 1);
    for _ in 0..dead {
        let row = (splitmix64(state) as usize) % width;
        if !dead_rows.contains(&row) {
            dead_rows.push(row);
            events.push(FaultEvent {
                step: (splitmix64(state) % u64::from(horizon)) as u32,
                fault: Fault::NodeFail {
                    node: delivery_node(levels, row),
                },
            });
        }
    }
    dead_rows.sort_unstable();
    (FaultPlan::new(events), dead_rows)
}

/// Everything the determinism contract pins about a [`FaultReport`].
#[expect(
    clippy::type_complexity,
    reason = "a tuple compares with `==` for free, which is all the properties do with it"
)]
fn fingerprint(
    rep: &FaultReport,
) -> (
    usize,
    usize,
    usize,
    Vec<(u32, u32, u32)>,
    usize,
    usize,
    bool,
    u64,
    u32,
    bool,
    Vec<(u64, u64)>,
) {
    (
        rep.injected,
        rep.delivered_first,
        rep.recovered,
        rep.lost.iter().map(|l| (l.id, l.src, l.dest)).collect(),
        rep.stranded,
        rep.attempts,
        rep.completed,
        rep.total_steps,
        rep.first.metrics.routing_time,
        rep.first.completed,
        rep.first.metrics.latency.buckets().collect(),
    )
}

proptest! {
    // 16 cases, or PROPTEST_CASES if larger (CI's chaos job asks for 64).
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random fault schedules: every survivable packet delivers, every
    /// dead-destination packet is reported lost, and the whole degraded
    /// schedule is bit-identical across repeats and serial vs sharded.
    #[test]
    fn prop_chaos_recovery_is_deterministic_and_complete(
        seed: u64,
        levels in 2usize..=4,
        plan_seed: u64,
    ) {
        let links = Engine::new(
            &LeveledNet::forward(DoubledLeveled::new(RadixButterfly::new(RADIX, levels))),
            SimConfig::default(),
        )
        .num_links();
        let mut state = plan_seed | 1;
        let (plan, dead_rows) = chaos_plan(&mut state, levels, links, 24, 2);
        let req = RouteRequest::permutation(seed);
        // Generous budget: any survivable packet makes it within one
        // retry attempt once the transient faults have healed.
        let policy = RetryPolicy { attempt_budget: 4_000, max_attempts: 6 };

        let mut session = butterfly_session(levels, 0);
        let rep = session
            .route_with_faults(&req, &plan, policy)
            .expect("leveled supports faults");

        // Completeness: with permanent faults confined to delivery
        // nodes, every survivable packet is delivered and every lost
        // packet is destined to a dead row.
        prop_assert!(rep.completed, "survivable packets must all deliver");
        prop_assert_eq!(rep.stranded, 0);
        prop_assert_eq!(rep.delivered() + rep.lost.len(), rep.injected);
        for lostp in &rep.lost {
            prop_assert!(
                dead_rows.contains(&(lostp.dest as usize)),
                "lost packet {:?} not destined to a dead row {:?}",
                lostp,
                dead_rows
            );
        }
        // Every packet destined to a dead row is accounted for: either
        // delivered before the failure hit or reported lost.
        prop_assert!(rep.lost.iter().all(|l| l.id < rep.injected as u32));

        // Determinism: repeats on the same session...
        let again = session
            .route_with_faults(&req, &plan, policy)
            .expect("leveled supports faults");
        prop_assert_eq!(fingerprint(&rep), fingerprint(&again), "same-session repeat");
        // ...and serial vs sharded K ∈ {1, 2, 4} agree bit-for-bit.
        for shards in [1usize, 2, 4] {
            let mut sharded = butterfly_session(levels, shards);
            let srep = sharded
                .route_with_faults(&req, &plan, policy)
                .expect("leveled supports faults");
            prop_assert_eq!(
                fingerprint(&rep),
                fingerprint(&srep),
                "serial vs K={} diverged",
                shards
            );
        }
    }

    /// Serve-layer chaos: tenant churn plus healed link faults mid-trace
    /// keep the fixed-trace ⇒ bit-identical-schedule contract across
    /// repeats and serial vs sharded engines.
    #[test]
    fn prop_serve_chaos_schedule_identical_serial_vs_sharded(
        base_seed: u64,
        plan_seed: u64,
        levels in 2usize..=3,
    ) {
        let links = Engine::new(
            &LeveledNet::forward(DoubledLeveled::new(RadixButterfly::new(RADIX, levels))),
            SimConfig::default(),
        )
        .num_links();
        let mut state = plan_seed | 1;
        let mut entries: Vec<AdmissionEntry> = Vec::new();
        // Tenant 1 leaves mid-trace and rejoins later; tenant 0 serves
        // throughout. Two healed link faults land between arrivals.
        for j in 0..6u64 {
            entries.push(AdmissionEntry::request(
                (j as u32) * 3,
                RouteRequest::permutation(base_seed.wrapping_add(j)).with_tenant(j % 2),
            ));
        }
        entries.push(AdmissionEntry::leave(5, 1));
        entries.push(AdmissionEntry::join(13, 1));
        for _ in 0..2 {
            let link = (splitmix64(&mut state) as usize) % links;
            let start = (splitmix64(&mut state) % 8) as u32;
            entries.push(AdmissionEntry::fault(start, Fault::LinkFail { link }));
            entries.push(AdmissionEntry::fault(
                start + 1 + (splitmix64(&mut state) % 8) as u32,
                Fault::LinkRecover { link },
            ));
        }
        entries.sort_by_key(|e| e.step());

        let serve = |shards: usize| -> ServeReport {
            let sim = SimConfig { shards, ..SimConfig::default() };
            let mut s = ServeSession::new(
                LeveledBackend::new(RadixButterfly::new(RADIX, levels)),
                &sim,
                ServeConfig::default(),
            );
            s.run_trace(&entries).expect("leveled serves faulted traces")
        };

        let reference = serve(0);
        prop_assert!(reference.completed, "healed faults must not strand packets");
        // Requests from tenant 1 arriving in the inactive window are
        // rejected; everything admitted delivers despite the faults.
        for r in &reference.requests {
            if matches!(r.status, lnpram_routing::RequestStatus::Admitted { .. }) {
                prop_assert!(r.completed(), "admitted requests deliver under faults");
            }
        }
        let again = serve(0);
        assert_same_schedule(&reference, &again, "serial repeat");
        for shards in [1usize, 2, 4] {
            let rep = serve(shards);
            assert_same_schedule(&reference, &rep, &format!("chaos serve K={shards}"));
        }
    }
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
    assert!(
        a.metrics.latency.buckets().eq(b.metrics.latency.buckets()),
        "{ctx}: aggregate latency distribution"
    );
}

/// Killing a destination's delivery node makes exactly that row's
/// packets lost; recovery terminates without burning the attempt cap.
#[test]
fn dead_destination_reports_lost_without_burning_attempts() {
    let levels = 3;
    let mut session = butterfly_session(levels, 0);
    let width = RADIX.pow(levels as u32);
    let plan = FaultPlan::new(vec![FaultEvent {
        step: 0,
        fault: Fault::NodeFail {
            node: delivery_node(levels, 2),
        },
    }]);
    let rep = session
        .route_with_faults(
            &RouteRequest::permutation(11),
            &plan,
            RetryPolicy {
                attempt_budget: 500,
                max_attempts: 8,
            },
        )
        .expect("leveled supports faults");
    assert!(rep.completed, "survivable packets all deliver");
    assert_eq!(rep.lost.len(), 1, "exactly one packet destined to row 2");
    assert_eq!(rep.lost[0].dest, 2);
    assert_eq!(rep.delivered(), width - 1);
    assert!(
        rep.attempts <= 2,
        "dead destinations must not burn max_attempts, took {}",
        rep.attempts
    );
}

/// Tenant elasticity semantics: a leave rejects later arrivals with a
/// typed error while already-admitted work still delivers; a rejoin
/// restores admission.
#[test]
fn tenant_leave_rejects_typed_but_delivers_in_flight() {
    use lnpram_routing::{RequestStatus, ServeError};
    let sim = SimConfig::default();
    let mut serve = ServeSession::new(
        LeveledBackend::new(RadixButterfly::new(2, 4)),
        &sim,
        ServeConfig::default(),
    );
    let trace = vec![
        AdmissionEntry::request(0, RouteRequest::permutation(1).with_tenant(7)),
        AdmissionEntry::leave(1, 7),
        AdmissionEntry::request(2, RouteRequest::permutation(2).with_tenant(7)),
        AdmissionEntry::request(2, RouteRequest::permutation(3).with_tenant(8)),
        AdmissionEntry::join(4, 7),
        AdmissionEntry::request(5, RouteRequest::permutation(4).with_tenant(7)),
    ];
    let report = serve.run_trace(&trace).expect("leveled serves");
    assert!(report.completed);
    assert_eq!(report.requests.len(), 4);
    // Request 0 was admitted before the leave: it still delivers.
    assert!(report.requests[0].completed());
    // Request 1 arrived while tenant 7 was inactive: typed rejection.
    match &report.requests[1].status {
        RequestStatus::Rejected(ServeError::TenantInactive { tenant, step }) => {
            assert_eq!(*tenant, 7);
            assert_eq!(*step, 2);
        }
        other => panic!("expected TenantInactive, got {other:?}"),
    }
    assert_eq!(report.requests[1].injected, 0);
    // Tenant 8 is unaffected, and tenant 7 is admissible after rejoin.
    assert!(report.requests[2].completed());
    assert!(report.requests[3].completed());
    assert_eq!(report.admitted, 3);
    assert_eq!(report.rejected, 1);
}

/// Regression (session hygiene): a faulted, *incomplete* recovery run
/// must not leak blocked links or stranded packets into the next plain
/// run on the same session.
#[test]
fn session_runs_clean_after_faulted_run() {
    let mut session = butterfly_session(3, 0);
    let req = RouteRequest::permutation(21);
    let clean_before = session.route(&req);
    assert!(clean_before.completed);

    // Permanent failure of a delivery node with a tiny attempt cap:
    // the recovery run ends with lost packets and blocked links.
    let plan = FaultPlan::new(vec![FaultEvent {
        step: 0,
        fault: Fault::NodeFail {
            node: delivery_node(3, 5),
        },
    }]);
    let faulted = session
        .route_with_faults(
            &req,
            &plan,
            RetryPolicy {
                attempt_budget: 60,
                max_attempts: 1,
            },
        )
        .expect("leveled supports faults");
    assert!(!faulted.lost.is_empty());

    // The next plain run starts from a clean engine: identical to the
    // pre-fault run of the same request.
    let clean_after = session.route(&req);
    assert!(clean_after.completed);
    assert_eq!(
        clean_before.metrics.routing_time,
        clean_after.metrics.routing_time
    );
    assert_eq!(
        clean_before.metrics.delivered,
        clean_after.metrics.delivered
    );
    assert!(clean_before
        .metrics
        .latency
        .buckets()
        .eq(clean_after.metrics.latency.buckets()));
}
