//! The two `Serve::run_trace` workloads: backpressured multi-tenant
//! serving on a two-shard mesh, and serving through a window of failed
//! links on a butterfly.

use super::sharded_threads;
use crate::layers::{ab_us, median_us, time_us, Side, Trace};
use crate::stats::{censored_percentile, mix, percentile, within_limit};
use crate::workload::{Outcome, Size, Spec, Workload};
use lnpram_math::rng::splitmix64;
use lnpram_math::stats::Histogram;
use lnpram_routing::leveled::LeveledBackend;
use lnpram_routing::mesh::{canonical_discipline, default_slice_rows, MeshBackend};
use lnpram_routing::{
    AdmissionEntry, MeshAlgorithm, OpenLoopWorkload, RouteBackend, Router, RoutingSession, Serve,
    ServeConfig, ServeReport, ServeSession,
};
use lnpram_shard::{Partitioner, RowBlock};
use lnpram_simnet::trace::Phase;
use lnpram_simnet::{Discipline, Fanout, Fault, FlightRecorder, PhaseProfiler, SimConfig};
use lnpram_topology::{Mesh, RadixButterfly};
use std::marker::PhantomData;

/// The latency limit of the service, in steps (the CLI's default SLO).
const SLO_STEPS: u64 = 64;

/// What distinguishes one serve workload from another.
pub trait ServeKind {
    /// The topology-side backend behind the session.
    type Backend: RouteBackend;
    /// Static description.
    const SPEC: Spec;
    /// The theorem's normalizer of the trace length.
    const NORM: u64;
    /// Shards of the long-lived engine (0 = serial).
    const SHARDS: usize;
    /// Requests per trace (an eighth of it under `--smoke`).
    const REQUESTS: usize;
    /// Packets per request.
    const PACKETS: usize;
    /// `lnpram` arguments for the same trace shape.
    const CLI: &'static [&'static str];

    /// Build the topology and its backend.
    fn backend() -> Self::Backend;
    /// Queue discipline of the algorithm.
    fn discipline() -> Discipline;
    /// Budget, watermarks and overload policy.
    fn serve_cfg() -> ServeConfig;
    /// Faults scripted into the trace drawn from `seed`.
    fn faults(_seed: u64, _links: usize) -> Vec<AdmissionEntry> {
        Vec::new()
    }
    /// Microseconds to build the partition plan (0 when serial).
    fn plan_build_us() -> f64 {
        0.0
    }
}

fn sim_cfg<K: ServeKind>(shards: usize, threads: usize) -> SimConfig {
    SimConfig {
        discipline: K::discipline(),
        shards,
        threads,
        ..SimConfig::default()
    }
}

fn new_session<K: ServeKind>(shards: usize, threads: usize) -> ServeSession<K::Backend> {
    ServeSession::new(K::backend(), &sim_cfg::<K>(shards, threads), K::serve_cfg())
}

/// `serve_sharded`.
///
/// The two shards are stepped on **one** thread. On the reference box
/// the same trace on two threads is bimodal — 14 or 24 traces/s for
/// minutes at a time, depending on whether the VM's second core is
/// being stolen — which no estimator inside one run can see through, so
/// the threaded ratio is a per-layer number (`shard.k2_t2_over_serial`)
/// and the bounded end-to-end rate stays single-threaded.
pub struct Sharded;

const MESH: usize = 32;

pub const SHARDED: Spec = Spec {
    name: "serve_sharded",
    id: 3,
    why: "shard exchange/barrier, serve admission under backpressure and TagDemux all do work: \
          4 tenants, 256 requests x 64 packets on a 2-shard 32x32 mesh stepped on one thread",
    full: Size {
        distinct: 2,
        group: 1,
    },
    smoke: Size {
        distinct: 1,
        group: 1,
    },
};

impl ServeKind for Sharded {
    type Backend = MeshBackend;
    const SPEC: Spec = SHARDED;
    const NORM: u64 = MESH as u64;
    const SHARDS: usize = 2;
    const REQUESTS: usize = 256;
    const PACKETS: usize = 64;
    const CLI: &'static [&'static str] = &[
        "serve",
        "--topology",
        "mesh",
        "--n",
        "32",
        "--tenants",
        "4",
        "--requests",
        "256",
        "--interval",
        "1",
        "--packets",
        "64",
        "--shards",
        "2",
        "--max-inflight",
        "1024",
    ];

    fn backend() -> Self::Backend {
        MeshBackend::new(
            Mesh::square(MESH),
            MeshAlgorithm::ThreeStage {
                slice_rows: default_slice_rows(MESH),
            },
        )
    }

    fn discipline() -> Discipline {
        canonical_discipline(MeshAlgorithm::ThreeStage {
            slice_rows: default_slice_rows(MESH),
        })
    }

    fn serve_cfg() -> ServeConfig {
        ServeConfig {
            high_water_in_flight: 1024,
            ..ServeConfig::default()
        }
    }

    fn plan_build_us() -> f64 {
        let mesh = Mesh::square(MESH);
        median_us(9, |_| {
            RowBlock::new(mesh.cols()).partition(&mesh, Self::SHARDS)
        })
    }
}

/// `serve_faulted`.
pub struct Faulted;

/// Share of links that fail at step 1.
const FAILED_SHARE: f64 = 0.02;
/// Step at which every failed link is repaired: after the last arrival
/// (step 127), so the whole trace is admitted into a degraded network,
/// and early enough that every packet is delivered inside the budget.
const RECOVER_STEP: u32 = 192;

pub const FAULTED: Spec = Spec {
    name: "serve_faulted",
    id: 4,
    why: "the fault gate and stranded queues: 2% of butterfly(2,8) links fail at step 1 and recover at \
          step 192 under 128 requests x 16 packets; the one workload with a non-trivial latency tail",
    full: Size {
        distinct: 16,
        group: 1,
    },
    smoke: Size {
        distinct: 2,
        group: 1,
    },
};

impl ServeKind for Faulted {
    type Backend = LeveledBackend<RadixButterfly>;
    const SPEC: Spec = FAULTED;
    const NORM: u64 = 8;
    const SHARDS: usize = 0;
    const REQUESTS: usize = 128;
    const PACKETS: usize = 16;
    const CLI: &'static [&'static str] = &[
        "serve",
        "--topology",
        "butterfly",
        "--d",
        "2",
        "--k",
        "8",
        "--tenants",
        "4",
        "--requests",
        "128",
        "--interval",
        "1",
        "--packets",
        "16",
    ];

    fn backend() -> Self::Backend {
        LeveledBackend::new(RadixButterfly::new(2, 8))
    }

    fn discipline() -> Discipline {
        Discipline::Fifo
    }

    fn serve_cfg() -> ServeConfig {
        ServeConfig {
            max_steps: 2_000,
            ..ServeConfig::default()
        }
    }

    fn faults(seed: u64, links: usize) -> Vec<AdmissionEntry> {
        let count = (links as f64 * FAILED_SHARE).round() as usize;
        let mut state = seed ^ 0x5EED_FA11;
        let mut failed: Vec<usize> = Vec::with_capacity(count);
        while failed.len() < count {
            let link = (splitmix64(&mut state) as usize) % links;
            if !failed.contains(&link) {
                failed.push(link);
            }
        }
        let fail = failed
            .iter()
            .map(|&link| AdmissionEntry::fault(1, Fault::LinkFail { link }));
        let recover = failed
            .iter()
            .map(|&link| AdmissionEntry::fault(RECOVER_STEP, Fault::LinkRecover { link }));
        fail.chain(recover).collect()
    }
}

/// A serve workload: the pre-generated admission traces and the session.
pub struct ServeWorkload<K: ServeKind> {
    size: Size,
    seed: u64,
    smoke: bool,
    sources: usize,
    links: usize,
    traces: Vec<Vec<AdmissionEntry>>,
    warm_up: Vec<AdmissionEntry>,
    session: Option<Box<dyn Serve>>,
    kind: PhantomData<K>,
}

/// One seeded admission trace: scripted faults merged into an open-loop
/// arrival process of one request per step.
fn build_trace<K: ServeKind>(
    seed: u64,
    sources: usize,
    links: usize,
    requests: usize,
    packets: usize,
) -> Vec<AdmissionEntry> {
    let mut entries = K::faults(seed, links);
    entries.extend(
        OpenLoopWorkload {
            tenants: 4,
            requests,
            interval: 1,
            packets_per_request: packets,
            seed,
        }
        .trace(sources),
    );
    // Stable: a fault scripted for a step precedes that step's arrivals.
    entries.sort_by_key(AdmissionEntry::step);
    entries
}

impl<K: ServeKind + 'static> ServeWorkload<K> {
    /// Generate the traces from `seed`.
    pub fn new(seed: u64, smoke: bool) -> Self {
        let size = if smoke { K::SPEC.smoke } else { K::SPEC.full };
        let backend = K::backend();
        let sources = backend.sources();
        let links = backend.build_engine(1, &sim_cfg::<K>(0, 1)).num_links();
        let mut w = ServeWorkload {
            size,
            seed,
            smoke,
            sources,
            links,
            traces: Vec::new(),
            warm_up: Vec::new(),
            session: None,
            kind: PhantomData,
        };
        w.traces = (0..size.distinct)
            .map(|i| w.trace_at(i, w.requests(), K::PACKETS))
            .collect();
        w.warm_up = w.trace_at(size.distinct, 1, K::PACKETS);
        w
    }

    fn requests(&self) -> usize {
        if self.smoke {
            K::REQUESTS / 8
        } else {
            K::REQUESTS
        }
    }

    fn trace_at(&self, i: usize, requests: usize, packets: usize) -> Vec<AdmissionEntry> {
        build_trace::<K>(
            mix(self.seed, K::SPEC.id, i as u64),
            self.sources,
            self.links,
            requests,
            packets,
        )
    }

    fn fresh(&self) -> Box<dyn Serve> {
        let mut s = new_session::<K>(K::SHARDS, 1);
        s.run_trace(&self.warm_up).expect("the backend serves");
        Box::new(s)
    }

    fn serve(&mut self, i: usize) -> ServeReport {
        self.session
            .as_deref_mut()
            .expect("setup() first")
            .run_trace(&self.traces[i])
            .expect("the backend serves")
    }
}

/// Packets carried by every request that reached the service, admitted
/// or not.
fn offered(rep: &ServeReport) -> u64 {
    rep.requests.iter().map(|r| r.packets as u64).sum()
}

fn outcome(name: &str, rep: ServeReport, norm: u64, budget: u32) -> Outcome {
    let offered = offered(&rep);
    let delivered = rep.metrics.delivered as u64;
    // Conservation, cross-checking the engine's counters against the
    // per-request demux: every offered packet is delivered, stranded in
    // the engine, or was never admitted.
    let injected: u64 = rep.requests.iter().map(|r| r.injected as u64).sum();
    let demuxed: u64 = rep
        .requests
        .iter()
        .map(|r| r.metrics.delivered as u64)
        .sum();
    let refused: u64 = rep
        .requests
        .iter()
        .filter(|r| r.injected == 0)
        .map(|r| r.packets as u64)
        .sum();
    let stranded = injected - demuxed;
    let conserved = injected == rep.packets as u64
        && demuxed == delivered
        && delivered + stranded + refused == offered
        && rep.metrics.latency.total() == delivered
        && rep.completed == (stranded == 0 && rep.admitted + rep.rejected == rep.requests.len());
    Outcome {
        attempted: offered,
        failed: offered - delivered,
        work: delivered,
        steps: u64::from(rep.steps),
        norm,
        budget,
        max_queue: rep.metrics.max_queue as u64,
        censored: offered - delivered,
        error: (!conserved).then(|| format!("{name}: packets not conserved on a serve trace")),
        latency: rep.metrics.latency,
    }
}

impl<K: ServeKind + 'static> Workload for ServeWorkload<K> {
    fn spec(&self) -> &'static Spec {
        &K::SPEC
    }

    fn size(&self) -> Size {
        self.size
    }

    fn setup(&mut self) {
        self.session = Some(self.fresh());
    }

    fn setup_sample(&self) {
        drop(self.fresh());
    }

    fn call(&mut self, i: usize) -> Outcome {
        let rep = self.serve(i);
        outcome(K::SPEC.name, rep, K::NORM, K::serve_cfg().max_steps)
    }

    fn verify(&mut self) -> Result<(), String> {
        if K::SHARDS < 2 {
            return Ok(());
        }
        let sharded = self.serve(0);
        let serial = new_session::<K>(0, 1)
            .run_trace(&self.traces[0])
            .expect("the backend serves");
        if sharded.steps == serial.steps && sharded.schedule() == serial.schedule() {
            Ok(())
        } else {
            Err(format!(
                "{}: sharded and serial delivery schedules differ",
                K::SPEC.name
            ))
        }
    }

    fn cli_args(&self) -> &'static [&'static str] {
        K::CLI
    }

    fn trace(&mut self, t: &mut Trace) {
        let name = K::SPEC.name;
        let distinct = self.traces.len();

        t.set_build_layers(K::backend, &sim_cfg::<K>(K::SHARDS, 1));
        t.set("shard.plan_build_us", K::plan_build_us());

        // Replay a tenth of the traces with spans; the phase profiler and
        // the flight recorder ride the public traced call as its sink.
        let traced = (distinct / 10).max(1);
        let (mut plain_us, mut traced_ns) = (0.0, 0u64);
        let mut phase_ns = [0u64; 4];
        let (mut boundary, mut steps) = (0u64, 0u64);
        for i in 0..traced {
            t.rec.set_request(i);
            t.rec.span("serve.trace_build", || {
                self.trace_at(i % distinct, self.requests(), K::PACKETS)
            });
            let (plain, us) = time_us(|| self.serve(i));
            plain_us += us;

            t.rec.begin("request");
            let mut sink = Fanout::new(PhaseProfiler::new(), FlightRecorder::new(1, 1));
            let rep = self
                .session
                .as_deref_mut()
                .expect("setup() first")
                .run_trace_traced(&self.traces[i % distinct], &mut sink)
                .expect("the backend serves");
            let ns = Phase::ALL.map(|p| sink.a.phase_nanos(p));
            t.rec.leaves(&[
                ("simnet.transmit", ns[Phase::Transmit.index()]),
                ("shard.exchange", ns[Phase::Exchange.index()]),
                ("simnet.process", ns[Phase::Process.index()]),
                ("serve.admit", ns[Phase::Admit.index()]),
            ]);
            traced_ns += t.rec.end();
            for (acc, x) in phase_ns.iter_mut().zip(ns) {
                *acc += x;
            }
            boundary += sink.b.boundary_packets().iter().sum::<u64>();
            steps += u64::from(rep.steps);
            t.check(
                rep.steps == plain.steps && rep.schedule() == plain.schedule(),
                || format!("{name}: traced and untraced trace {i} disagree"),
            );
        }
        let n = traced as f64;
        let phases = phase_ns.iter().sum::<u64>().max(1) as f64;
        let stepping =
            (phase_ns[Phase::Transmit.index()] + phase_ns[Phase::Process.index()]) as f64;
        t.set_trace_overhead(traced_ns, plain_us);
        t.set(
            "serve.trace_build_us",
            t.rec.total_ns("serve.trace_build") as f64 / 1e3 / n,
        );
        t.set(
            "simnet.transmit_share",
            phase_ns[Phase::Transmit.index()] as f64 / phases,
        );
        t.set(
            "simnet.process_share",
            phase_ns[Phase::Process.index()] as f64 / phases,
        );
        t.set(
            "shard.exchange_share",
            phase_ns[Phase::Exchange.index()] as f64 / phases,
        );
        t.set(
            "serve.admit_share",
            phase_ns[Phase::Admit.index()] as f64 / phases,
        );
        t.set("simnet.run_us", stepping / 1e3 / n);
        t.set("simnet.run_share", stepping / (traced_ns.max(1) as f64));
        t.set("simnet.ns_per_step", stepping / steps.max(1) as f64);
        t.set("simnet.steps_per_s", steps as f64 / (stepping / 1e9));
        t.set(
            "shard.boundary_pkts_per_step",
            boundary as f64 / steps.max(1) as f64,
        );

        // Exact serve-layer counts over the distinct traces.
        let reports: Vec<ServeReport> = (0..distinct).map(|i| self.serve(i)).collect();
        let d = distinct as f64;
        let mean = |f: &dyn Fn(&ServeReport) -> f64| reports.iter().map(f).sum::<f64>() / d;
        let mut pooled = Histogram::new(1);
        let mut undelivered = 0;
        for r in &reports {
            pooled.absorb(&r.metrics.latency);
            undelivered += offered(r) - r.metrics.delivered as u64;
        }
        t.set("simnet.steps_per_req", mean(&|r| f64::from(r.steps)));
        t.set("serve.steps_per_trace", mean(&|r| f64::from(r.steps)));
        t.set(
            "simnet.max_queue",
            reports
                .iter()
                .map(|r| r.metrics.max_queue)
                .max()
                .unwrap_or(0) as f64,
        );
        t.set(
            "simnet.queued_pkt_steps_per_req",
            mean(&|r| r.metrics.queued_packet_steps as f64),
        );
        t.set(
            "serve.deferred_req_steps_per_trace",
            mean(&|r| r.deferred_request_steps as f64),
        );
        t.set(
            "serve.max_backlog",
            reports.iter().map(|r| r.max_backlog).max().unwrap_or(0) as f64,
        );
        t.set("serve.rejected", mean(&|r| r.rejected as f64));
        t.set(
            "serve.stranded_pkts_per_trace",
            mean(&|r| (r.packets - r.metrics.delivered) as f64),
        );
        t.set("serve.fairness_index", mean(&|r| r.fairness_index()));
        t.set(
            "serve.slo_attainment",
            within_limit(&pooled, undelivered, SLO_STEPS),
        );
        t.set("serve.max_rate_pkts_per_step", self.max_rate() as f64);

        // Probes: interleaved on the same traces.
        let req_us = t.layers["bench.host_req_us_p50"].max(1.0);
        let reps = t.reps(((0.4e6 / req_us) as usize).clamp(3, 200), 1);
        let mut router = RoutingSession::with_backend(K::backend(), sim_cfg::<K>(0, 1));
        let session = self.session.as_deref_mut().expect("setup() first");
        let (routed, served) = ab_us(reps, |i, side| {
            let trace = &self.traces[i % distinct];
            match side {
                Side::A => {
                    time_us(|| {
                        for entry in trace {
                            if let AdmissionEntry::Request { req, .. } = entry {
                                router.route(req);
                            }
                        }
                    })
                    .1
                }
                Side::B => time_us(|| session.run_trace(trace)).1,
            }
        });
        t.set("serve.overhead_vs_route_frac", served / routed - 1.0);

        if K::SHARDS >= 2 {
            // The same traces on the serial engine and on K shards with
            // one and with two threads, round-robin; rates compared at
            // their fast decile (= the slow decile of the times).
            let mut engines = [
                new_session::<K>(0, 1),
                new_session::<K>(K::SHARDS, 1),
                new_session::<K>(K::SHARDS, sharded_threads()),
            ];
            let mut us: [Vec<f64>; 3] = Default::default();
            for i in 0..t.reps(8, 1) {
                for (e, samples) in engines.iter_mut().zip(&mut us) {
                    samples.push(time_us(|| e.run_trace(&self.traces[i % distinct])).1);
                }
            }
            let fast = |samples: &[f64]| percentile(samples, 0.1);
            t.set("shard.k2_t1_over_serial", fast(&us[0]) / fast(&us[1]));
            t.set("shard.k2_t2_over_serial", fast(&us[0]) / fast(&us[2]));
        }
    }
}

impl<K: ServeKind + 'static> ServeWorkload<K> {
    /// Highest of the offered rates {16, 32, 64, 128} packets per step
    /// whose p99 latency over offered packets stays within the limit with
    /// nothing refused and no backlog when arrivals end (the last arrival
    /// is admitted on arrival); 0 if none does. Simulated, exact.
    fn max_rate(&self) -> usize {
        let mut session = new_session::<K>(0, 1);
        let requests = self.requests().min(128);
        let mut best = 0;
        for rate in [16, 32, 64, 128] {
            let trace = self.trace_at(self.size.distinct + 1, requests, rate);
            let rep = session.run_trace(&trace).expect("the backend serves");
            let undelivered = offered(&rep) - rep.metrics.delivered as u64;
            let budget = f64::from(K::serve_cfg().max_steps);
            let p99 = censored_percentile(&rep.metrics.latency, undelivered, 0.99, budget);
            let drained = rep.requests.last().is_some_and(|r| r.queue_wait() == 0);
            if p99 <= SLO_STEPS as f64 && drained && rep.rejected == 0 {
                best = rate;
            }
        }
        best
    }
}
