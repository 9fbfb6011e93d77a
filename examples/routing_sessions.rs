//! Cached routing sessions and multi-tenant batches through the
//! unified `Router` API.
//!
//! Building a session (`StarRoutingSession::new`,
//! `MeshRoutingSession::new`) constructs the topology, the partition
//! plan and the simulation engine — on small networks that costs more
//! than the routing itself (PR 3's star measurement: the sharded path
//! ran at 0.57× serial purely on per-run construction), so a loop that
//! builds a fresh session per request pays it every time. Holding one
//! session builds all of that once and recycles it with `reset` per
//! request, with bit-identical outcomes. `route_batch` routes the same
//! requests as tenants of one batch: each alone on the held session,
//! folded into one report whose per-tenant outcomes are the isolated
//! runs.
//!
//! Run with `cargo run --example routing_sessions`.

#![expect(
    clippy::disallowed_types,
    reason = "a demo that prints host time next to simulated steps; no result depends on it"
)]

use lnpram::prelude::{RouteRequest, Router};
use lnpram::routing::mesh::{default_slice_rows, MeshAlgorithm, MeshRoutingSession};
use lnpram::routing::star::StarRoutingSession;
use lnpram::simnet::SimConfig;
use std::time::Instant;

fn main() {
    // `LNPRAM_TRIALS` throttles the request loop (the smoke test sets 2).
    let requests = lnpram_bench::trial_count(40);
    let seeds: Vec<u64> = (0..requests).collect();
    let reqs = RouteRequest::permutations(&seeds);
    let sharded = SimConfig {
        shards: 4,
        ..SimConfig::default()
    };

    println!("serving {requests} permutation-routing requests per configuration\n");

    // --- Star graph (Algorithm 2.2 on the 5-star, 120 nodes) ---
    for (label, cfg) in [
        ("serial", SimConfig::default()),
        ("4-sharded", sharded.clone()),
    ] {
        let start = Instant::now();
        let mut fresh_time = 0u64;
        for &seed in &seeds {
            let rep = StarRoutingSession::new(5, cfg.clone()).route_permutation(seed);
            assert!(rep.completed);
            fresh_time += u64::from(rep.metrics.routing_time);
        }
        let t_fresh = start.elapsed();

        let start = Instant::now();
        let mut session = StarRoutingSession::new(5, cfg);
        let reports = session.route_many(&reqs);
        let t_session = start.elapsed();
        let session_time: u64 = reports
            .iter()
            .map(|r| u64::from(r.metrics.routing_time))
            .sum();

        // Bit-identity: holding the session changes cost, not outcomes.
        assert_eq!(fresh_time, session_time);

        // The same requests as one multi-tenant batch on the held session.
        let batch = session.route_batch(&reqs);
        assert!(batch.completed);
        let batch_time: u64 = batch
            .tenants
            .iter()
            .map(|t| u64::from(t.metrics.routing_time))
            .sum();
        // Per-tenant outcomes are identical to the isolated runs.
        assert_eq!(batch_time, session_time);

        println!(
            "star/5-star      {label:>9}: fresh {t_fresh:>8.2?}  session {t_session:>8.2?}  \
             ({:.2}x)  batch of {} tenants, slowest {} steps",
            t_fresh.as_secs_f64() / t_session.as_secs_f64().max(1e-9),
            batch.tenants.len(),
            batch.metrics.routing_time,
        );
    }

    // --- Mesh (three-stage §3.4 on the 16×16 mesh) ---
    let alg = MeshAlgorithm::ThreeStage {
        slice_rows: default_slice_rows(16),
    };
    for (label, cfg) in [("serial", SimConfig::default()), ("4-sharded", sharded)] {
        let start = Instant::now();
        let mut fresh_time = 0u64;
        for &seed in &seeds {
            let rep = MeshRoutingSession::new(16, alg, cfg.clone()).route_permutation(seed);
            assert!(rep.completed);
            fresh_time += u64::from(rep.metrics.routing_time);
        }
        let t_fresh = start.elapsed();

        let start = Instant::now();
        let mut session = MeshRoutingSession::new(16, alg, cfg);
        let reports = session.route_many(&reqs);
        let t_session = start.elapsed();
        let session_time: u64 = reports
            .iter()
            .map(|r| u64::from(r.metrics.routing_time))
            .sum();

        assert_eq!(fresh_time, session_time);
        println!(
            "mesh/16x16       {label:>9}: fresh {:>8.2?}  session {:>8.2?}  ({:.2}x)",
            t_fresh,
            t_session,
            t_fresh.as_secs_f64() / t_session.as_secs_f64().max(1e-9)
        );
    }

    println!(
        "\nhold a session in loops: construction (topology + partition + engines)\n\
         is paid once, every request after that is a cheap reset + route —\n\
         and route_batch reports a whole tenant batch as one."
    );
}
