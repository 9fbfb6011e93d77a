//! Sharded simulation demo: route permutations on a butterfly through
//! the partitioned `ShardedEngine` and verify bit-identity with the
//! serial engine.
//!
//! Run with `cargo run --example sharded_butterfly`.

use lnpram::math::rng::SeedSeq;
use lnpram::routing::leveled::LeveledRoutingSession;
use lnpram::routing::workloads;
use lnpram::simnet::SimConfig;
use lnpram::topology::leveled::{Leveled, RadixButterfly};

fn main() {
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
