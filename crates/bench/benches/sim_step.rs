//! Hot path: one full permutation-routing run per iteration, i.e. the
//! simulator's step loop (transmit + process) under load.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lnpram_routing::{LeveledRoutingSession, Router};
use lnpram_simnet::SimConfig;
use lnpram_topology::leveled::RadixButterfly;

fn bench_sim_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("leveled_permutation_run");
    group.sample_size(20);
    for k in [6usize, 8, 10] {
        let net = RadixButterfly::new(2, k);
        group.bench_with_input(BenchmarkId::new("butterfly2", k), &k, |b, _| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                LeveledRoutingSession::new(net, SimConfig::default()).route_permutation(seed)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sim_step);
criterion_main!(benches);
