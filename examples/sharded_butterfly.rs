//! Sharded simulation demo: route permutations on a butterfly through
//! the partitioned `ShardedEngine` and verify bit-identity with the
//! serial engine.
//!
//! Run with `cargo run --example sharded_butterfly`. With
//! `-- --time <dims> <seconds>` it also times random permutations on
//! butterfly(2, dims), serial against two shards, in alternating quarter-
//! second rounds (build with `--release` for meaningful numbers):
//!
//! ```text
//! cargo run --release --example sharded_butterfly -- --time 10 10
//! ```

use lnpram::math::rng::SeedSeq;
use lnpram::routing::leveled::LeveledRoutingSession;
use lnpram::routing::workloads;
use lnpram::simnet::SimConfig;
use lnpram::topology::leveled::{Leveled, RadixButterfly};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => demo(),
        [flag, dims, seconds] if flag == "--time" => {
            demo();
            match (dims.parse(), seconds.parse()) {
                (Ok(dims), Ok(seconds)) if (1..=16).contains(&dims) => time(dims, seconds),
                _ => usage(),
            }
        }
        _ => usage(),
    }
}

fn usage() {
    eprintln!("usage: sharded_butterfly [--time <dims 1..=16> <seconds>]");
    std::process::exit(2);
}

fn demo() {
    let inner = RadixButterfly::new(2, 8); // 256 rows, 8 levels
    let width = inner.width();

    // --- Determinism contract: sharded(K) == serial, K in {2, 4, 7} ---
    let mut serial = LeveledRoutingSession::new(inner, SimConfig::default());
    println!("butterfly(2,8): {width} packets per run, serial vs sharded\n");
    println!(
        "{:>6} {:>6} {:>14} {:>11} {:>10}",
        "seed", "K", "routing time", "max queue", "identical"
    );
    for seed in 0..3u64 {
        let seq = SeedSeq::new(seed);
        let mut rng = seq.child(0).rng();
        let dests = workloads::random_permutation(width, &mut rng);
        let base = serial.route_with_dests(&dests, SeedSeq::new(seed));
        assert!(base.completed);
        for k in [2usize, 4, 7] {
            let cfg = SimConfig {
                shards: k,
                ..Default::default()
            };
            let mut sharded = LeveledRoutingSession::new(inner, cfg);
            let rep = sharded.route_with_dests(&dests, SeedSeq::new(seed));
            let identical = rep.completed
                && rep.metrics.routing_time == base.metrics.routing_time
                && rep.metrics.delivered == base.metrics.delivered
                && rep.metrics.max_queue == base.metrics.max_queue
                && rep.metrics.queued_packet_steps == base.metrics.queued_packet_steps;
            assert!(identical, "sharded K={k} diverged from serial");
            println!(
                "{:>6} {:>6} {:>14} {:>11} {:>10}",
                seed, k, rep.metrics.routing_time, rep.metrics.max_queue, "yes"
            );
        }
    }

    println!("\nSharding is a scaling lever, not a semantics change: every run");
    println!("above is bit-identical to the serial engine (the lnpram-shard");
    println!("determinism contract).");
}

/// Permutations per second on butterfly(2, `dims`), serial and at K = 2,
/// in alternating rounds of a quarter second until each side has run
/// `seconds`; prints the median and quartiles of the per-round ratio
/// (K = 2 rate over the serial rate of the same round).
#[expect(
    clippy::disallowed_types,
    reason = "a harness that times host work; no simulated result depends on it"
)]
fn time(dims: usize, seconds: f64) {
    use std::time::{Duration, Instant};

    let inner = RadixButterfly::new(2, dims);
    let perms: Vec<Vec<usize>> = (0..16)
        .map(|seed| workloads::random_permutation(inner.width(), &mut SeedSeq::new(seed).rng()))
        .collect();
    let mut sessions = [0, 2].map(|shards| {
        let cfg = SimConfig {
            shards,
            ..Default::default()
        };
        LeveledRoutingSession::new(inner, cfg)
    });
    let round = Duration::from_millis(250);
    let (mut busy, mut ratios) = (Duration::ZERO, Vec::new());
    while busy.as_secs_f64() < seconds {
        let rates = sessions.each_mut().map(|session| {
            let (start, mut runs) = (Instant::now(), 0u32);
            while start.elapsed() < round {
                let i = runs as usize % perms.len();
                let rep = session.route_with_dests(&perms[i], SeedSeq::new(i as u64));
                assert!(rep.completed);
                runs += 1;
            }
            f64::from(runs) / start.elapsed().as_secs_f64()
        });
        busy += round;
        ratios.push(rates[1] / rates[0]);
    }
    ratios.sort_by(f64::total_cmp);
    let at = |q: f64| ratios[((ratios.len() - 1) as f64 * q).round() as usize];
    println!(
        "\nbutterfly(2,{dims}) permutations, K = 2 over serial: median {:.3} \
         (quartiles {:.3}–{:.3}, {} rounds)",
        at(0.5),
        at(0.25),
        at(0.75),
        ratios.len()
    );
}
