//! The node-local contract (`Protocol::NODE_LOCAL`): a router that
//! takes the ungrouped process path — one `on_packet` per arrival, in
//! link-id order — runs bit-identically to the same router forced onto
//! the grouped path. Pinned on every router backend (leveled butterfly,
//! mesh under all four algorithms, star, CCC, hypercube, shuffle, and
//! `PathProtocol` over adaptive paths), on the serial and a K = 2
//! sharded engine, with and without a random fault plan: the full
//! `RunOutcome`, the `StepSample` stream and, through a `TagDemux`, the
//! per-tag metrics.

use lnpram_adaptive::AdaptiveBackend;
use lnpram_adaptive::AdaptiveConfig;
use lnpram_math::rng::{splitmix64, SeedSeq};
use lnpram_routing::ccc::CccBackend;
use lnpram_routing::hypercube::CubeBackend;
use lnpram_routing::leveled::LeveledBackend;
use lnpram_routing::mesh::{canonical_discipline, MeshBackend};
use lnpram_routing::router::{PatternRef, RouteBackend};
use lnpram_routing::shuffle::ShuffleBackend;
use lnpram_routing::star::StarBackend;
use lnpram_routing::MeshAlgorithm;
use lnpram_simnet::fault::{Fault, FaultEvent, FaultPlan};
use lnpram_simnet::trace::{StepSample, TraceSink};
use lnpram_simnet::{Discipline, Outbox, Packet, Protocol, RunOutcome, SimConfig, TagDemux};
use lnpram_topology::leveled::RadixButterfly;
use lnpram_topology::{DWayShuffle, Mesh, StarGraph};
use proptest::prelude::*;

/// `P` with every callback forwarded and `NODE_LOCAL` left `false`: the
/// same protocol on the grouped process path.
struct Grouped<P>(P);

impl<P: Protocol> Protocol for Grouped<P> {
    fn on_packet(&mut self, node: usize, pkt: Packet, step: u32, out: &mut Outbox) {
        self.0.on_packet(node, pkt, step, out);
    }

    fn on_arrivals(&mut self, node: usize, pkts: &[Packet], step: u32, out: &mut Outbox) {
        self.0.on_arrivals(node, pkts, step, out);
    }

    fn on_step_end(&mut self, step: u32) {
        self.0.on_step_end(step);
    }
}

/// Records every end-of-step sample.
#[derive(Default)]
struct Samples(Vec<StepSample>);

impl TraceSink for Samples {
    fn on_step_end(&mut self, sample: &StepSample) {
        self.0.push(*sample);
    }
}

/// How the backend's protocol is driven.
#[derive(Debug, Clone, Copy)]
enum Drive {
    /// As is: the ungrouped path.
    NodeLocal,
    /// Wrapped in [`Grouped`].
    Grouped,
    /// Wrapped in a one-tag [`TagDemux`], which inherits `NODE_LOCAL`.
    Demux,
}

/// Everything a run can differ in, flattened for exact comparison.
type Fingerprint = (
    bool,
    usize,
    u32,
    u32,
    usize,
    u64,
    Vec<(u64, u64)>,
    Vec<u32>,
    Vec<StepSample>,
);

fn fingerprint(out: &RunOutcome, samples: Vec<StepSample>) -> Fingerprint {
    let m = &out.metrics;
    (
        out.completed,
        m.delivered,
        m.routing_time,
        m.steps,
        m.max_queue,
        m.queued_packet_steps,
        m.latency.buckets().collect(),
        m.link_loads.clone(),
        samples,
    )
}

/// A random plan over `links` links and `nodes` nodes: transient link
/// failures and degradations that recover, and sometimes a permanent
/// link or node failure that strands packets until `max_steps`.
fn random_plan(seed: u64, links: usize, nodes: usize) -> FaultPlan {
    let mut state = seed | 1;
    let mut events = Vec::new();
    for _ in 0..1 + splitmix64(&mut state) % 4 {
        let link = (splitmix64(&mut state) as usize) % links;
        let step = 1 + (splitmix64(&mut state) % 12) as u32;
        let fault = match splitmix64(&mut state) % 4 {
            0 => Fault::LinkDegrade {
                link,
                period: 2 + (splitmix64(&mut state) % 3) as u32,
            },
            1 if splitmix64(&mut state).is_multiple_of(2) => Fault::NodeFail {
                node: (splitmix64(&mut state) as usize) % nodes,
            },
            _ => Fault::LinkFail { link },
        };
        events.push(FaultEvent { step, fault });
        if !splitmix64(&mut state).is_multiple_of(4) {
            let end = step + 1 + (splitmix64(&mut state) % 12) as u32;
            let fault = match fault {
                Fault::NodeFail { node } => Fault::NodeRecover { node },
                _ => Fault::LinkRecover { link },
            };
            events.push(FaultEvent { step: end, fault });
        }
    }
    FaultPlan::new(events)
}

fn node_local<P: Protocol>(_: &P) -> bool {
    P::NODE_LOCAL
}

/// One run of `backend` on a fresh engine.
fn run<B: RouteBackend>(
    backend: &mut B,
    cfg: &SimConfig,
    h: usize,
    seed: u64,
    plan_seed: Option<u64>,
    drive: Drive,
) -> Fingerprint {
    let mut eng = backend.build_engine(1, cfg);
    if let Some(plan_seed) = plan_seed {
        let plan = random_plan(plan_seed, eng.num_links(), eng.num_nodes());
        eng.set_fault_plan(&plan).expect("plan within the network");
    }
    let pattern = if h == 0 {
        PatternRef::Permutation
    } else {
        PatternRef::Relation { h }
    };
    backend.inject(&mut eng, 0, pattern, SeedSeq::new(seed), 0);
    let mut sink = Samples::default();
    let proto = backend.protocol();
    assert!(node_local(&proto), "every router backend is node-local");
    let out = match drive {
        Drive::NodeLocal => {
            let mut proto = proto;
            eng.run_traced(&mut proto, &mut sink)
        }
        Drive::Grouped => eng.run_traced(&mut Grouped(proto), &mut sink),
        Drive::Demux => {
            let mut demux = TagDemux::new(proto, 1);
            let out = eng.run_traced(&mut demux, &mut sink);
            assert!(
                demux.into_metrics()[0].matches(&out.metrics),
                "the one tag is the whole run"
            );
            out
        }
    };
    fingerprint(&out, sink.0)
}

/// Every drive on the serial and the K = 2 sharded engine gives the
/// serial grouped run's fingerprint.
fn check<B: RouteBackend>(
    mut backend: B,
    discipline: Discipline,
    h: usize,
    seed: u64,
    plan_seed: Option<u64>,
) -> Result<(), TestCaseError> {
    let cfg = |shards| SimConfig {
        discipline,
        max_steps: 300,
        record_link_loads: true,
        shards,
        ..SimConfig::default()
    };
    let reference = run(&mut backend, &cfg(0), h, seed, plan_seed, Drive::Grouped);
    prop_assert!(reference.1 > 0, "the run delivers something");
    for shards in [0, 2] {
        for drive in [Drive::NodeLocal, Drive::Grouped, Drive::Demux] {
            let got = run(&mut backend, &cfg(shards), h, seed, plan_seed, drive);
            prop_assert_eq!(
                &got,
                &reference,
                "{} under {:?} on K = {} diverged from the grouped serial run",
                backend.name(),
                drive,
                shards
            );
        }
    }
    Ok(())
}

const MESH_ALGORITHMS: [MeshAlgorithm; 4] = [
    MeshAlgorithm::Greedy,
    MeshAlgorithm::ValiantBrebner,
    MeshAlgorithm::ThreeStage { slice_rows: 2 },
    MeshAlgorithm::ThreeStageConstQueue {
        slice_rows: 2,
        block_rows: 2,
    },
];

proptest! {
    // 24 cases, or PROPTEST_CASES if larger.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every router backend, ungrouped vs grouped, serial and sharded,
    /// a permutation or a 2-relation, with or without faults.
    #[test]
    fn prop_node_local_equals_grouped(
        topo in 0usize..10,
        relation: bool,
        seed: u64,
        faulted: bool,
        plan_seed: u64,
    ) {
        let h = if relation { 2 } else { 0 };
        let plan = faulted.then_some(plan_seed);
        let fifo = Discipline::Fifo;
        match topo {
            0 => check(LeveledBackend::new(RadixButterfly::new(2, 4)), fifo, h, seed, plan)?,
            1..=4 => {
                let alg = MESH_ALGORITHMS[topo - 1];
                let backend = MeshBackend::new(Mesh::square(6), alg);
                check(backend, canonical_discipline(alg), h, seed, plan)?;
            }
            5 => check(StarBackend::new(StarGraph::new(4)), fifo, h, seed, plan)?,
            6 => check(CccBackend::new(3), fifo, h, seed, plan)?,
            7 => check(CubeBackend::new(4), fifo, h, seed, plan)?,
            8 => check(ShuffleBackend::new(DWayShuffle::new(3, 2)), fifo, h, seed, plan)?,
            _ => {
                let backend = AdaptiveBackend::new(&Mesh::square(5), AdaptiveConfig::default());
                check(backend, fifo, h, seed, plan)?;
            }
        }
    }
}
