//! Cross-layer determinism pin for the sharded subsystem: flipping
//! `shards` on the *public* entry points (routing sessions on every
//! topology, serve) must not change a single observable — the sharded
//! engine's bit-identity contract surfaces unchanged through every
//! layer built on top of it. The PRAM emulators run on a serial
//! `Engine` and take no shard count.

use lnpram::math::rng::SeedSeq;
use lnpram::prelude::*;
use lnpram::routing::bitonic::bitonic_route;
use lnpram::routing::ccc::CccRoutingSession;
use lnpram::routing::hypercube::CubeRoutingSession;
use lnpram::routing::leveled::LeveledRoutingSession;
use lnpram::routing::mesh::MeshRoutingSession;
use lnpram::routing::star::StarRoutingSession;
use lnpram::routing::workloads;
use lnpram::simnet::Metrics;

fn fingerprint(m: &Metrics) -> (usize, u32, usize, u64, u32, Vec<(u64, u64)>) {
    (
        m.delivered,
        m.routing_time,
        m.max_queue,
        m.queued_packet_steps,
        m.steps,
        m.latency.buckets().collect(),
    )
}

fn cfg(shards: usize) -> SimConfig {
    SimConfig {
        shards,
        ..Default::default()
    }
}

#[test]
fn leveled_session_identical_across_shard_counts() {
    let inner = RadixButterfly::new(2, 6); // 64 wide, doubled to 12 levels
    let mut serial = LeveledRoutingSession::new(inner, cfg(0));
    for k in [2usize, 4, 7] {
        let mut sharded = LeveledRoutingSession::new(inner, cfg(k));
        for seed in 0..4u64 {
            let seq = SeedSeq::new(seed);
            let mut rng = seq.child(0).rng();
            let dests = workloads::random_permutation(64, &mut rng);
            let a = serial.route_with_dests(&dests, SeedSeq::new(seed));
            let b = sharded.route_with_dests(&dests, SeedSeq::new(seed));
            assert_eq!(a.completed, b.completed, "K={k} seed={seed}");
            assert_eq!(
                fingerprint(&a.metrics),
                fingerprint(&b.metrics),
                "K={k} seed={seed}"
            );
        }
    }
}

#[test]
fn star_session_identical_across_shard_counts() {
    let mut serial = StarRoutingSession::new(4, cfg(0));
    for k in [2usize, 3, 7] {
        let mut sharded = StarRoutingSession::new(4, cfg(k));
        for seed in 0..4u64 {
            let a = serial.route_permutation(seed);
            let b = sharded.route_permutation(seed);
            assert_eq!(a.completed, b.completed, "K={k} seed={seed}");
            assert_eq!(
                fingerprint(&a.metrics),
                fingerprint(&b.metrics),
                "K={k} seed={seed}"
            );
        }
    }
}

/// The sessions with no level or row structure to align a cut to: their
/// shards are plain balanced node-id ranges, where most links cross a
/// boundary. One warmed sharded session per K serves every seed. Bitonic
/// sort-routing, a function rather than a session, gets the same check
/// on the same permutations.
#[test]
fn unaligned_sessions_identical_across_shard_counts() {
    type Build = fn(SimConfig) -> Box<dyn Router>;
    let sessions: [(&str, Build); 3] = [
        ("hypercube(5)", |c| Box::new(CubeRoutingSession::new(5, c))),
        ("ccc(3)", |c| Box::new(CccRoutingSession::new(3, c))),
        ("shuffle(3-way)", |c| {
            Box::new(ShuffleRoutingSession::new(DWayShuffle::n_way(3), c))
        }),
    ];
    for (name, build) in sessions {
        let mut serial = build(cfg(0));
        for k in [2usize, 3, 7] {
            let mut sharded = build(cfg(k));
            for seed in 0..3u64 {
                let a = serial.route_permutation(seed);
                let b = sharded.route_permutation(seed);
                assert!(a.completed && b.completed, "{name} K={k} seed={seed}");
                assert_eq!(
                    fingerprint(&a.metrics),
                    fingerprint(&b.metrics),
                    "{name} K={k} seed={seed}"
                );
            }
        }
    }
    for k in [2usize, 3, 7] {
        for seed in 0..3u64 {
            let dests = workloads::random_permutation(32, &mut SeedSeq::new(seed).child(0).rng());
            let a = bitonic_route(5, &dests, cfg(0));
            let b = bitonic_route(5, &dests, cfg(k));
            assert!(a.completed && b.completed, "bitonic(5) K={k} seed={seed}");
            assert_eq!(
                fingerprint(&a.metrics),
                fingerprint(&b.metrics),
                "bitonic(5) K={k} seed={seed}"
            );
        }
    }
}

#[test]
fn mesh_session_identical_across_shard_counts() {
    let alg = MeshAlgorithm::ThreeStage { slice_rows: 3 };
    let mut serial = MeshRoutingSession::new(9, alg, cfg(0));
    for k in [2usize, 4, 7] {
        let mut sharded = MeshRoutingSession::new(9, alg, cfg(k));
        for seed in 0..3u64 {
            let a = serial.route_permutation(seed);
            let b = sharded.route_permutation(seed);
            assert_eq!(a.completed, b.completed, "K={k} seed={seed}");
            assert_eq!(
                fingerprint(&a.metrics),
                fingerprint(&b.metrics),
                "K={k} seed={seed}"
            );
        }
    }
}

#[test]
fn route_many_matches_one_shots_serial_and_sharded() {
    // The batched entry is the sequence of fresh-session runs, bit for
    // bit, on both engine paths.
    let seeds: Vec<u64> = (0..4).collect();
    let reqs = RouteRequest::permutations(&seeds);
    for shards in [0usize, 3] {
        let star_batch = StarRoutingSession::new(4, cfg(shards)).route_many(&reqs);
        for (rep, &seed) in star_batch.iter().zip(&seeds) {
            let one = StarRoutingSession::new(4, cfg(shards)).route_permutation(seed);
            assert_eq!(
                fingerprint(&rep.metrics),
                fingerprint(&one.metrics),
                "star K={shards} seed={seed}"
            );
        }
        let alg = MeshAlgorithm::ThreeStage { slice_rows: 4 };
        let mesh_batch = MeshRoutingSession::new(8, alg, cfg(shards)).route_many(&reqs);
        for (rep, &seed) in mesh_batch.iter().zip(&seeds) {
            let one = MeshRoutingSession::new(8, alg, cfg(shards)).route_permutation(seed);
            assert_eq!(
                fingerprint(&rep.metrics),
                fingerprint(&one.metrics),
                "mesh K={shards} seed={seed}"
            );
        }
    }
}

#[test]
fn mesh_three_stage_routing_identical_when_sharded() {
    let alg = MeshAlgorithm::ThreeStage { slice_rows: 4 };
    for seed in 0..3u64 {
        let a = MeshRoutingSession::new(12, alg, cfg(0)).route_permutation(seed);
        let b = MeshRoutingSession::new(12, alg, cfg(4)).route_permutation(seed);
        assert!(a.completed && b.completed);
        assert_eq!(fingerprint(&a.metrics), fingerprint(&b.metrics), "{seed}");
    }
}

#[test]
fn star_routing_identical_when_sharded() {
    for seed in 0..3u64 {
        let a = StarRoutingSession::new(4, cfg(0)).route_permutation(seed);
        let b = StarRoutingSession::new(4, cfg(3)).route_permutation(seed);
        assert!(a.completed && b.completed);
        assert_eq!(fingerprint(&a.metrics), fingerprint(&b.metrics), "{seed}");
    }
}

/// A serve report's whole observable outcome: the delivery schedule
/// (every request's admission step and `TagMetrics`), the run's
/// `Metrics` with its latency buckets, and the admission record.
type ServeFingerprint = (
    Vec<(usize, Option<u32>, usize, u32, Vec<(u64, u64)>)>,
    (usize, u32, usize, u64, u32, Vec<(u64, u64)>),
    (bool, usize, usize, u64, usize),
);

fn serve_fingerprint(rep: &lnpram::routing::ServeReport) -> ServeFingerprint {
    (
        rep.schedule(),
        fingerprint(&rep.metrics),
        (
            rep.completed,
            rep.admitted,
            rep.rejected,
            rep.deferred_request_steps,
            rep.max_backlog,
        ),
    )
}

/// Requests back to back from three tenants, two links failing at step 2
/// and recovering at steps 30 and 45: enough packets in flight that a
/// sharded session steps most of the trace on threads where the machine
/// has two cores or more.
fn stress_trace(links: usize, requests: u64) -> Vec<lnpram::routing::AdmissionEntry> {
    use lnpram::routing::AdmissionEntry;
    use lnpram::simnet::Fault;
    let mut trace = vec![
        AdmissionEntry::fault(2, Fault::LinkFail { link: links / 3 }),
        AdmissionEntry::fault(
            2,
            Fault::LinkFail {
                link: 2 * links / 3,
            },
        ),
        AdmissionEntry::fault(30, Fault::LinkRecover { link: links / 3 }),
        AdmissionEntry::fault(
            45,
            Fault::LinkRecover {
                link: 2 * links / 3,
            },
        ),
    ];
    trace.extend((0..requests).map(|i| {
        let req = RouteRequest::permutation(0x57E5 + i).with_tenant(i % 3);
        AdmissionEntry::request(i as u32, req)
    }));
    trace.sort_by_key(AdmissionEntry::step);
    trace
}

/// The thread interleavings of shard-local stepping, stressed: one
/// faulted, backpressured serve trace on a mesh and on a butterfly, at
/// K ∈ {2, 3, 4, 7} (7 is more shards than most machines have cores),
/// 20 times per K on one warmed session. Every repeat must equal the
/// serial run in `schedule()`, in `Metrics` (latency buckets included),
/// in every request's `TagMetrics` and in the admission record.
///
/// The threads are min(K, available cores), so this covers the threaded
/// loop only where the process may run on at least two cores; on one,
/// every run takes the central loop. The shard crate's unit tests force
/// the thread count and cover the threaded loop on any machine.
#[test]
fn threaded_serve_repeats_equal_serial() {
    use lnpram::routing::leveled::LeveledBackend;
    use lnpram::routing::mesh::{default_slice_rows, MeshBackend};
    use lnpram::routing::{Serve, ServeConfig, ServeSession};

    let mesh = || {
        MeshBackend::new(
            Mesh::square(12),
            MeshAlgorithm::ThreeStage {
                slice_rows: default_slice_rows(12),
            },
        )
    };
    let butterfly = || LeveledBackend::new(RadixButterfly::new(2, 6));
    type Build = Box<dyn Fn(usize) -> Box<dyn Serve>>;
    let mesh_links = ServeSession::new(mesh(), &cfg(0), ServeConfig::default()).num_links();
    let butterfly_links =
        ServeSession::new(butterfly(), &cfg(0), ServeConfig::default()).num_links();
    let builds: [(&str, Build, usize, u64); 2] = [
        (
            "mesh(12x12)",
            Box::new(move |shards| {
                let sim = SimConfig {
                    discipline: Discipline::FurthestFirst,
                    ..cfg(shards)
                };
                let serve = ServeConfig {
                    max_steps: 4_000,
                    high_water_in_flight: 400,
                    ..ServeConfig::default()
                };
                Box::new(ServeSession::new(mesh(), &sim, serve))
            }),
            mesh_links,
            10,
        ),
        (
            "butterfly(2,6)",
            Box::new(move |shards| {
                // The queue watermark makes admission read every shard's
                // queues at every boundary.
                let serve = ServeConfig {
                    max_steps: 4_000,
                    high_water_in_flight: 320,
                    high_water_queue: 6,
                    ..ServeConfig::default()
                };
                Box::new(ServeSession::new(butterfly(), &cfg(shards), serve))
            }),
            butterfly_links,
            16,
        ),
    ];
    for (name, build, links, requests) in builds {
        let mut serial = build(0);
        let trace = stress_trace(links, requests);
        let want = serve_fingerprint(&serial.run_trace(&trace).expect("serves"));
        assert!(want.2 .0, "{name}: the trace must drain");
        assert!(want.2 .3 > 0, "{name}: the watermark must defer admissions");
        for k in [2usize, 3, 4, 7] {
            let mut sharded = build(k);
            for repeat in 0..20 {
                let got = serve_fingerprint(&sharded.run_trace(&trace).expect("serves"));
                assert_eq!(want, got, "{name} K={k} repeat {repeat}");
            }
        }
    }
}
