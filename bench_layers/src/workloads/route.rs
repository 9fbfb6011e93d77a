//! The three `dyn Router::route` workloads: a full-occupancy butterfly,
//! a nearly idle linear array, and the congestion-priced mesh.

use crate::layers::{ab_us, overhead_frac, time_us, Side, Trace};
use crate::stats::mix;
use crate::workload::{Outcome, Size, Spec, Workload};
use lnpram_adaptive::{AdaptiveBackend, AdaptiveConfig, AdaptiveRoutingSession};
use lnpram_math::rng::SeedSeq;
use lnpram_routing::leveled::LeveledBackend;
use lnpram_routing::mesh::{default_slice_rows, MeshBackend};
use lnpram_routing::workloads as patterns;
use lnpram_routing::{
    MeshAlgorithm, MeshRoutingSession, RouteBackend, RouteRequest, Router, RoutingSession,
    RunExtras, RunReport,
};
use lnpram_simnet::trace::Phase;
use lnpram_simnet::{Fault, FaultEvent, FaultPlan, PhaseProfiler, RunOutcome, SimConfig};
use lnpram_topology::{Mesh, RadixButterfly};
use std::marker::PhantomData;

/// What distinguishes one route workload from another.
pub trait RouteKind {
    /// The topology-side backend behind the session.
    type Backend: RouteBackend;
    /// Static description.
    const SPEC: Spec;
    /// The theorem's normalizer of the routing time.
    const NORM: u64;
    /// Span name of `RouteBackend::inject` (pricing, for the adaptive
    /// backend).
    const INJECT_SPAN: &'static str;
    /// `lnpram` arguments for the same (or nearest) topology.
    const CLI: &'static [&'static str];

    /// Build the topology and its backend.
    fn backend() -> Self::Backend;
    /// Wrap a backend in the session users hold.
    fn router(backend: Self::Backend, cfg: SimConfig) -> Box<dyn Router>;
    /// Request `i`, drawn from `seed`.
    fn request(i: usize, seed: u64) -> RouteRequest;
}

/// Every serial workload pins one thread; all three algorithms queue
/// first-in first-out.
fn serial_cfg(record_link_loads: bool) -> SimConfig {
    SimConfig {
        threads: 1,
        record_link_loads,
        ..SimConfig::default()
    }
}

/// `route_dense`.
pub struct Dense;

pub const DENSE: Spec = Spec {
    name: "route_dense",
    id: 1,
    why:
        "simnet step loop at full link occupancy: permutations of 1024 packets on butterfly(2,10); \
          per-packet cost is ~all of the time (ROADMAP's drifting anchor row)",
    full: Size {
        distinct: 120,
        group: 1,
    },
    smoke: Size {
        distinct: 3,
        group: 1,
    },
};

impl RouteKind for Dense {
    type Backend = LeveledBackend<RadixButterfly>;
    const SPEC: Spec = DENSE;
    const NORM: u64 = 10;
    const INJECT_SPAN: &'static str = "routing.inject";
    const CLI: &'static [&'static str] = &[
        "route",
        "--topology",
        "butterfly",
        "--d",
        "2",
        "--k",
        "10",
        "--trials",
        "1",
    ];

    fn backend() -> Self::Backend {
        LeveledBackend::new(RadixButterfly::new(2, 10))
    }

    fn router(backend: Self::Backend, cfg: SimConfig) -> Box<dyn Router> {
        Box::new(RoutingSession::with_backend(backend, cfg))
    }

    fn request(_i: usize, seed: u64) -> RouteRequest {
        RouteRequest::permutation(seed)
    }
}

/// `route_sparse`.
pub struct Sparse;

const ARRAY: usize = 128;

pub const SPARSE: Spec = Spec {
    name: "route_sparse",
    id: 2,
    why:
        "same simnet layer used the opposite way: 2 end-to-end packets on a 128-node linear array, \
          ~125 nearly idle steps; per-step fixed cost dominates, per-packet cost is nil",
    full: Size {
        distinct: 256,
        group: 64,
    },
    smoke: Size {
        distinct: 8,
        group: 4,
    },
};

impl RouteKind for Sparse {
    type Backend = MeshBackend;
    const SPEC: Spec = SPARSE;
    const NORM: u64 = ARRAY as u64 - 1;
    const INJECT_SPAN: &'static str = "routing.inject";
    // The command line only builds square meshes; 11×11 is the nearest
    // node count.
    const CLI: &'static [&'static str] = &[
        "route",
        "--topology",
        "mesh",
        "--n",
        "11",
        "--algorithm",
        "greedy",
        "--trials",
        "1",
    ];

    fn backend() -> Self::Backend {
        MeshBackend::new(Mesh::new(ARRAY, 1), MeshAlgorithm::Greedy)
    }

    fn router(backend: Self::Backend, cfg: SimConfig) -> Box<dyn Router> {
        Box::new(RoutingSession::with_backend(backend, cfg))
    }

    fn request(_i: usize, seed: u64) -> RouteRequest {
        // Two packets crossing the whole array in opposite directions,
        // their endpoints within 4 nodes of the ends.
        let a = (seed % 4) as usize;
        let b = ARRAY - 1 - ((seed >> 8) % 4) as usize;
        let mut relation = vec![Vec::new(); ARRAY];
        relation[a].push(b);
        relation[b].push(a);
        RouteRequest::relation_map(relation, seed)
    }
}

/// `adaptive_mesh`.
pub struct Adaptive;

const SIDE: usize = 16;

pub const ADAPTIVE: Spec = Spec {
    name: "adaptive_mesh",
    id: 5,
    why: "congestion pricing is ~95% of host time and the step loop little: transpose, bit-reversal, \
          hot-spot and random maps on the 16x16 mesh; a simnet gain must not move it",
    full: Size {
        distinct: 40,
        group: 1,
    },
    smoke: Size {
        distinct: 4,
        group: 1,
    },
};

impl RouteKind for Adaptive {
    type Backend = AdaptiveBackend;
    const SPEC: Spec = ADAPTIVE;
    const NORM: u64 = SIDE as u64;
    const INJECT_SPAN: &'static str = "adaptive.price";
    const CLI: &'static [&'static str] = &[
        "route",
        "--topology",
        "mesh",
        "--n",
        "16",
        "--backend",
        "adaptive",
        "--trials",
        "1",
    ];

    fn backend() -> Self::Backend {
        AdaptiveBackend::new(&Mesh::square(SIDE), AdaptiveConfig::default())
    }

    fn router(backend: Self::Backend, cfg: SimConfig) -> Box<dyn Router> {
        Box::new(AdaptiveRoutingSession::from_backend(backend, cfg))
    }

    fn request(i: usize, seed: u64) -> RouteRequest {
        let n = SIDE * SIDE;
        let centre = Mesh::square(SIDE).node_at(SIDE / 2, SIDE / 2);
        let mut rng = SeedSeq::new(seed).rng();
        let dests = match i % 4 {
            0 => patterns::transpose(n),
            1 => patterns::bit_reversal(n),
            2 => patterns::hot_spot(n, &[centre], 0.9, &mut rng),
            _ => patterns::random_permutation(n, &mut rng),
        };
        RouteRequest::dests(dests, seed)
    }
}

/// A route workload: the pre-generated requests and the session.
pub struct RouteWorkload<K: RouteKind> {
    size: Size,
    reqs: Vec<RouteRequest>,
    router: Option<Box<dyn Router>>,
    kind: PhantomData<K>,
}

impl<K: RouteKind> RouteWorkload<K> {
    /// Generate the requests from `seed`.
    pub fn new(seed: u64, smoke: bool) -> Self {
        let size = if smoke { K::SPEC.smoke } else { K::SPEC.full };
        let reqs = (0..size.distinct)
            .map(|i| K::request(i, mix(seed, K::SPEC.id, i as u64)))
            .collect();
        RouteWorkload {
            size,
            reqs,
            router: None,
            kind: PhantomData,
        }
    }

    fn fresh(&self) -> Box<dyn Router> {
        let mut router = K::router(K::backend(), serial_cfg(false));
        router.route(&self.reqs[0]);
        router
    }

    fn req(&self, i: usize) -> &RouteRequest {
        &self.reqs[i % self.reqs.len()]
    }

    fn router(&mut self) -> &mut dyn Router {
        self.router.as_deref_mut().expect("setup() first")
    }
}

fn outcome(name: &str, rep: RunReport, norm: u64, budget: u32) -> Outcome {
    let offered = rep.packets as u64;
    let delivered = rep.metrics.delivered as u64;
    Outcome {
        attempted: offered,
        failed: offered - delivered,
        work: delivered,
        steps: u64::from(rep.metrics.routing_time),
        norm,
        budget,
        max_queue: rep.metrics.max_queue as u64,
        censored: offered - delivered,
        error: (!rep.completed || rep.metrics.latency.total() != delivered)
            .then(|| format!("{name}: a route request did not complete")),
        latency: rep.metrics.latency,
    }
}

impl<K: RouteKind> Workload for RouteWorkload<K> {
    fn spec(&self) -> &'static Spec {
        &K::SPEC
    }

    fn size(&self) -> Size {
        self.size
    }

    fn setup(&mut self) {
        self.router = Some(self.fresh());
    }

    fn setup_sample(&self) {
        drop(self.fresh());
    }

    fn call(&mut self, i: usize) -> Outcome {
        let router = self.router.as_deref_mut().expect("setup() first");
        let budget = router.step_budget();
        let rep = router.route(&self.reqs[i]);
        outcome(K::SPEC.name, rep, K::NORM, budget)
    }

    fn cli_args(&self) -> &'static [&'static str] {
        K::CLI
    }

    fn trace(&mut self, t: &mut Trace) {
        let name = K::SPEC.name;
        let distinct = self.reqs.len();
        let cfg = serial_cfg(false);

        // Set-up, layer by layer, on pieces the benchmark owns.
        let (mut backend, mut eng) = t.set_build_layers(K::backend, &cfg);

        // Replay a tenth of the requests with spans: the public call with
        // the phase profiler as its sink, then the same request taken
        // apart on the benchmark's own engine.
        let traced = (distinct / 10).max(1);
        let (mut plain_us, mut traced_ns) = (0.0, 0u64);
        let (mut steps, mut queued, mut max_queue) = (0u64, 0u64, 0usize);
        let (mut transmit, mut process) = (0u64, 0u64);
        // (Σ iterations, max link load) where the backend prices paths.
        let mut priced: Option<(u64, u64)> = None;
        for i in 0..traced {
            let req = self.req(i).clone();
            t.rec.set_request(i);
            let (plain, us) = time_us(|| self.router().route(&req));
            plain_us += us;

            t.rec.begin("request");
            let mut prof = PhaseProfiler::new();
            let rep = self.router().route_traced(&req, &mut prof);
            let (tx, pr) = (
                prof.phase_nanos(Phase::Transmit),
                prof.phase_nanos(Phase::Process),
            );
            t.rec
                .leaves(&[("simnet.transmit", tx), ("simnet.process", pr)]);
            traced_ns += t.rec.end();
            transmit += tx;
            process += pr;

            t.rec.begin("replay");
            t.rec.span("simnet.reset", || eng.reset());
            t.rec.span(K::INJECT_SPAN, || {
                backend.inject(
                    &mut eng,
                    0,
                    req.pattern.as_ref(),
                    SeedSeq::new(req.seed),
                    req.tenant,
                )
            });
            let (out, _) = t.rec.span("simnet.run", || backend.run(&mut eng, 1, 0));
            t.rec.end();

            let same = |a: &lnpram_simnet::Metrics, b: &lnpram_simnet::Metrics| {
                a.routing_time == b.routing_time
                    && a.delivered == b.delivered
                    && a.max_queue == b.max_queue
                    && a.latency.buckets().eq(b.latency.buckets())
            };
            t.check(
                same(&plain.metrics, &rep.metrics) && same(&plain.metrics, &out.metrics),
                || format!("{name}: traced, untraced and replayed request {i} disagree"),
            );
            steps += u64::from(plain.metrics.steps);
            queued += plain.metrics.queued_packet_steps;
            max_queue = max_queue.max(plain.metrics.max_queue);
            if let RunExtras::Adaptive {
                iterations,
                max_load,
            } = plain.extras
            {
                let (it, ml) = priced.unwrap_or_default();
                priced = Some((it + u64::from(iterations), ml.max(u64::from(max_load))));
            }
        }
        let n = traced as f64;
        let reset = t.rec.total_ns("simnet.reset") as f64;
        let inject = t.rec.total_ns(K::INJECT_SPAN) as f64;
        let run = t.rec.total_ns("simnet.run") as f64;
        let parts = (reset + inject + run).max(1.0);
        t.set_trace_overhead(traced_ns, plain_us);
        t.set("simnet.reset_us", reset / 1e3 / n);
        t.set("simnet.run_us", run / 1e3 / n);
        t.set("simnet.run_share", run / parts);
        t.set("routing.inject_us", inject / 1e3 / n);
        t.set("routing.inject_share", inject / parts);
        t.set("simnet.steps_per_req", steps as f64 / n);
        t.set("simnet.steps_per_s", steps as f64 / (run / 1e9));
        t.set("simnet.ns_per_step", run / steps.max(1) as f64);
        t.set("simnet.max_queue", max_queue as f64);
        t.set("simnet.queued_pkt_steps_per_req", queued as f64 / n);
        let phases = (transmit + process).max(1) as f64;
        t.set("simnet.transmit_share", transmit as f64 / phases);
        t.set("simnet.process_share", process as f64 / phases);
        if let Some((iterations, max_load)) = priced {
            t.set("adaptive.price_us", inject / 1e3 / n);
            t.set("adaptive.price_share", inject / parts);
            t.set("adaptive.run_us", run / 1e3 / n);
            t.set("adaptive.iterations", iterations as f64 / n);
            t.set("adaptive.max_link_load", max_load as f64);
        }

        // Link traversals, exact, from a session that records them.
        let mut counting = K::router(K::backend(), serial_cfg(true));
        let hops: u64 = (0..traced)
            .map(|i| {
                let rep = counting.route(self.req(i));
                rep.metrics
                    .link_loads
                    .iter()
                    .map(|&l| u64::from(l))
                    .sum::<u64>()
            })
            .sum();
        t.set("simnet.hops_per_req", hops as f64 / n);
        t.set("simnet.ns_per_hop", run / hops.max(1) as f64);

        // Probes: interleaved A/B pairs on the same requests. Sized to
        // about 0.4 s each from the measured request time.
        let req_us = t.layers["bench.host_req_us_p50"].max(1.0);
        let reps = ((0.2e6 / req_us) as usize).clamp(8, 4_000);
        let reps = t.reps(reps, 2);
        let mut replay = |i: usize, faulted: bool, demux: usize| -> (RunOutcome, f64) {
            let req = &self.reqs[i % distinct];
            eng.reset();
            if faulted {
                // The only event lies far past the horizon: the run pays
                // for an installed schedule and nothing else.
                let plan = FaultPlan::new(vec![FaultEvent {
                    step: 1_000_000_000,
                    fault: Fault::LinkFail { link: 0 },
                }]);
                eng.set_fault_plan(&plan).expect("link 0 exists");
            }
            backend.inject(
                &mut eng,
                0,
                req.pattern.as_ref(),
                SeedSeq::new(req.seed),
                req.tenant,
            );
            let ((out, _), us) = time_us(|| backend.run(&mut eng, 1, demux));
            (out, us)
        };
        t.set(
            "simnet.fault_gate_overhead_frac",
            overhead_frac(reps, |i, side| replay(i, side == Side::B, 0).1),
        );
        t.set(
            "routing.demux_overhead_frac",
            overhead_frac(reps, |i, side| {
                replay(i, false, usize::from(side == Side::B)).1
            }),
        );
        let router = self.router.as_deref_mut().expect("setup() first");
        let (whole, parts) = ab_us(reps, |i, side| match side {
            Side::A => time_us(|| router.route(&self.reqs[i % distinct])).1,
            Side::B => time_us(|| replay(i, false, 0)).1,
        });
        t.set("routing.session_overhead_us", whole - parts);

        let four: Vec<RouteRequest> = (0..4)
            .map(|i| self.reqs[i % distinct].clone().with_tenant(i as u64))
            .collect();
        router.route_batch(&four);
        let (sequential, batched) = ab_us((reps / 4).max(2), |_, side| match side {
            Side::A => time_us(|| router.route_many(&four)).1,
            Side::B => time_us(|| router.route_batch(&four)).1,
        });
        t.set("routing.batch_t4_over_sequential", batched / sequential);

        if priced.is_some() {
            let mut oblivious = MeshRoutingSession::new(
                SIDE,
                MeshAlgorithm::ThreeStage {
                    slice_rows: default_slice_rows(SIDE),
                },
                serial_cfg(false),
            );
            let (oblivious_us, adaptive_us) = ab_us(reps, |i, side| {
                let req = &self.reqs[i % distinct];
                match side {
                    Side::A => time_us(|| oblivious.route(req)).1,
                    Side::B => time_us(|| router.route(req)).1,
                }
            });
            t.set("adaptive.cost_over_oblivious", adaptive_us / oblivious_us);
        }
    }
}
