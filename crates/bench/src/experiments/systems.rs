//! Beyond the paper: the two simulated comparisons the repository's
//! own subsystems are judged by — congestion-priced adaptive routing
//! against the paper's oblivious algorithm on adversarial mesh patterns,
//! and the always-on routing service under permanent link failures.
//!
//! Every trial runs on the serial engine **and** on `K = 4` shards and
//! asserts the two bit-identical, so both tables double as determinism
//! checks of the backends they exercise. Host time for the same
//! workloads is `bench_layers`' job (`adaptive_mesh`, `serve_faulted`).

use super::three_stage;
use crate::{fmt, Report, Table, Trials};
use lnpram_adaptive::AdaptiveRoutingSession;
use lnpram_math::rng::{splitmix64, SeedSeq};
use lnpram_routing::leveled::LeveledBackend;
use lnpram_routing::{
    workloads, AdmissionEntry, MeshRoutingSession, OpenLoopWorkload, RouteRequest, Router, Serve,
    ServeConfig, ServeReport, ServeSession,
};
use lnpram_simnet::{Fault, Metrics, SimConfig};
use lnpram_topology::leveled::RadixButterfly;
use lnpram_topology::Mesh;

/// Shards of the sharded twin every trial is checked against.
const SHARDS: usize = 4;

/// Adaptive vs oblivious head-to-head on adversarial mesh workloads.
///
/// The paper's position (§2.2.1) is that *oblivious randomized* routing
/// makes worst-case patterns behave like average ones. The adaptive
/// backend takes the opposite bet: pay a host-side pricing pass
/// (deterministic shortest paths + rip-up-and-reroute) to pick
/// congestion-aware source routes, then follow them with zero in-network
/// randomness. The two meet on the classic adversaries — transpose,
/// bit-reversal, a 90% hot-spot and the full broadcast — on the 16×16
/// mesh, reporting the *observed* per-link load, routing time and max
/// queue. Numbers are recorded as measured: where the oblivious router
/// wins a column, the table says so.
pub fn adaptive_vs_oblivious(r: &mut Report, scale: Trials) {
    const SIDE: usize = 16;
    let n_trials = scale.count(5);
    let nodes = SIDE * SIDE;
    // The hot node sits mid-mesh so both backends fight the same
    // interior in-degree bottleneck.
    let hot = Mesh::square(SIDE).node_at(SIDE / 2, SIDE / 2);
    let router = |backend: &str, shards: usize| -> Box<dyn Router> {
        let cfg = SimConfig {
            shards,
            record_link_loads: true,
            ..SimConfig::default()
        };
        match backend {
            "adaptive" => Box::new(AdaptiveRoutingSession::new(&Mesh::square(SIDE), cfg)),
            _ => Box::new(MeshRoutingSession::new(SIDE, three_stage(SIDE), cfg)),
        }
    };
    let mut t = Table::new(
        format!("Adaptive vs oblivious routing (mesh {SIDE}x{SIDE}, observed link loads)"),
        "pattern | backend | time | max link load | max queue",
    );
    for pattern in ["transpose", "bit-reversal", "hot-spot", "broadcast"] {
        for backend in ["oblivious", "adaptive"] {
            let (mut serial, mut sharded) = (router(backend, 0), router(backend, SHARDS));
            let (mut time, mut load, mut queue) = (0.0, 0.0, 0.0);
            for trial in 0..n_trials {
                let seed = 0xADA9 + trial;
                let dests = match pattern {
                    "transpose" => workloads::transpose(nodes),
                    "bit-reversal" => workloads::bit_reversal(nodes),
                    "hot-spot" => {
                        workloads::hot_spot(nodes, &[hot], 0.9, &mut SeedSeq::new(seed).rng())
                    }
                    _ => workloads::broadcast(nodes, hot),
                };
                let req = RouteRequest::dests(dests, seed);
                let (rep, twin) = (serial.route(&req), sharded.route(&req));
                let ctx = format!("{pattern}/{backend} trial {trial}");
                assert!(rep.completed && twin.completed, "{ctx}");
                let delivery = |m: &Metrics| (m.delivered, m.routing_time, m.max_queue);
                assert_eq!(delivery(&rep.metrics), delivery(&twin.metrics), "{ctx}");
                assert_eq!(rep.metrics.link_loads, twin.metrics.link_loads, "{ctx}");
                time += f64::from(rep.metrics.routing_time);
                load += f64::from(rep.metrics.link_loads.iter().copied().max().unwrap_or(0));
                queue += rep.metrics.max_queue as f64;
            }
            let mean = |sum: f64| fmt::f(sum / n_trials as f64, 2);
            t.row(&[
                pattern.into(),
                backend.into(),
                mean(time),
                mean(load),
                mean(queue),
            ]);
        }
    }
    r.table(&t);
    r.note(format!(
        "means over {n_trials} seeds; every trial ran serial and K={SHARDS}-sharded, asserted\n\
         bit-identical (delivery metrics and the full per-link load vector).\n\
         observed max link load is the congestion lower bound on routing\n\
         time; 'oblivious' is the paper's randomized three-stage mesh\n\
         algorithm (random intermediates), 'adaptive' the congestion-priced\n\
         source router (no in-network randomness). Numbers as measured."
    ));
}

/// Degraded-mode serve: the always-on routing service under permanent
/// link failures at 0% / 2% / 10% of links.
///
/// An open-loop multi-tenant workload is admitted into one long-lived
/// engine (`ServeSession` over the 2^8-row butterfly) whose trace fails
/// the chosen links at step 1. The dead links are never repaired, so the
/// service runs degraded for the whole trace: packets whose unique path
/// crosses a dead link stay queued (never silently dropped) until the
/// bounded step budget expires, everything else keeps flowing. Columns
/// report what degradation does to the service — how much is delivered,
/// how much is left stranded, and the admission-to-delivery latency
/// (p50/p99) of the packets that do get through.
pub fn degraded_serve(r: &mut Report, scale: Trials) {
    const LEVELS: usize = 8;
    /// Bounded drain budget: degraded runs cannot complete (dead links
    /// hold packets forever), so the budget is the run length.
    const MAX_STEPS: u32 = 2_000;
    let n_trials = scale.count(3);
    let session = |shards: usize| {
        let sim = SimConfig {
            shards,
            ..SimConfig::default()
        };
        let cfg = ServeConfig {
            max_steps: MAX_STEPS,
            ..ServeConfig::default()
        };
        let backend = LeveledBackend::new(RadixButterfly::new(2, LEVELS));
        ServeSession::new(backend, &sim, cfg)
    };
    let links = session(0).num_links();
    let mut t = Table::new(
        format!("Degraded-mode serve: butterfly(2,{LEVELS}), {links} links, permanent failures"),
        "failed links | delivered | fraction | stranded | steps | p50 lat | p99 lat",
    );
    for frac in [0.0f64, 0.02, 0.10] {
        let failed = (links as f64 * frac).round() as usize;
        let (mut injected, mut delivered) = (0u64, 0u64);
        let (mut steps, mut p50, mut p99) = (0.0, 0.0, 0.0);
        for trial in 0..n_trials {
            let wl = OpenLoopWorkload {
                tenants: 4,
                requests: 32,
                interval: 4,
                packets_per_request: 64,
                seed: 0xD15EA5E ^ trial,
            };
            // `failed` distinct links, drawn deterministically per trial.
            let mut state = 0x5EED_0000 | trial.wrapping_mul(2).wrapping_add(1);
            let mut dead: Vec<usize> = Vec::with_capacity(failed);
            while dead.len() < failed {
                let link = (splitmix64(&mut state) as usize) % links;
                if !dead.contains(&link) {
                    dead.push(link);
                }
            }
            let mut serial = session(0);
            let mut trace: Vec<AdmissionEntry> = dead
                .iter()
                .map(|&link| AdmissionEntry::fault(1, Fault::LinkFail { link }))
                .collect();
            trace.extend(wl.trace(serial.num_sources()));
            trace.sort_by_key(|e| e.step());

            let rep = serial.run_trace(&trace).expect("leveled serves faults");
            let twin = session(SHARDS)
                .run_trace(&trace)
                .expect("leveled serves faults");
            let ctx = format!("frac {frac} trial {trial} serial vs K={SHARDS}");
            let outcome = |s: &ServeReport| (s.steps, s.completed, s.admitted, s.metrics.delivered);
            assert_eq!(outcome(&rep), outcome(&twin), "{ctx}");
            assert_eq!(rep.schedule(), twin.schedule(), "{ctx}: delivery schedule");
            let latency = |s: &ServeReport| s.metrics.latency.buckets().collect::<Vec<_>>();
            assert_eq!(latency(&rep), latency(&twin), "{ctx}: latency distribution");

            injected += rep.packets as u64;
            delivered += rep.metrics.delivered as u64;
            steps += f64::from(rep.steps);
            p50 += rep.latency_quantile(0.5) as f64;
            p99 += rep.latency_quantile(0.99) as f64;
        }
        let mean = |sum: f64, prec| fmt::f(sum / n_trials as f64, prec);
        t.row(&[
            format!("{:.0}% ({failed})", frac * 100.0),
            format!("{delivered} / {injected}"),
            fmt::f(delivered as f64 / injected.max(1) as f64, 3),
            (injected - delivered).to_string(),
            mean(steps, 1),
            mean(p50, 2),
            mean(p99, 2),
        ]);
    }
    r.table(&t);
    r.note(format!(
        "totals and means over {n_trials} traces (4 tenants x 32 requests x 64 packets each),\n\
         budget {MAX_STEPS} steps; every trace ran serial and K={SHARDS}-sharded, asserted\n\
         bit-identical (full delivery schedule). Latencies are over delivered\n\
         packets only: the stranded column is what they leave out."
    ));
}
