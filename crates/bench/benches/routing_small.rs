//! End-to-end routing micro-benches across topologies (small instances,
//! for tracking regressions in the routers themselves).

use criterion::{criterion_group, criterion_main, Criterion};
use lnpram_routing::mesh::default_slice_rows;
use lnpram_routing::{
    MeshAlgorithm, MeshRoutingSession, Router, ShuffleRoutingSession, StarRoutingSession,
};
use lnpram_simnet::SimConfig;
use lnpram_topology::DWayShuffle;

fn bench_routers(c: &mut Criterion) {
    let mut group = c.benchmark_group("routers");
    group.sample_size(20);
    group.bench_function("star5_permutation", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            StarRoutingSession::new(5, SimConfig::default()).route_permutation(seed)
        });
    });
    group.bench_function("shuffle4_permutation", |b| {
        let sh = DWayShuffle::n_way(4);
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            ShuffleRoutingSession::new(sh, SimConfig::default()).route_permutation(seed)
        });
    });
    group.bench_function("mesh16_three_stage", |b| {
        let alg = MeshAlgorithm::ThreeStage {
            slice_rows: default_slice_rows(16),
        };
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            MeshRoutingSession::new(16, alg, SimConfig::default()).route_permutation(seed)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_routers);
criterion_main!(benches);
