//! The topology-generic routing API: one [`Router`] trait, one
//! [`RouteRequest`] shape, one [`RunReport`] — served by every topology
//! in this crate (leveled networks, star, mesh, hypercube, CCC,
//! shuffle-exchange).
//!
//! The paper's emulation theorems are topology-parametric: the same
//! Ranade-style argument instantiates on butterflies, stars, meshes and
//! hypercubes. The public API mirrors that: a [`RoutingSession`] holds
//! one warmed engine (network + partition plan + [`AnyEngine`], built
//! **once**) and serves any number of typed requests through
//! [`Router::route`]; per-topology behavior lives behind the
//! [`RouteBackend`] hooks, so adding a topology is one backend, not a
//! new session type.
//!
//! # Multi-tenant batches
//!
//! A batch is its isolated runs: [`Router::route_batch`] routes each
//! tenant's request on its own with [`Router::route`] and folds the
//! reports into one [`BatchReport`] (see [`BatchReport::fold`]). Every
//! tenant's outcome is therefore exactly its isolated run's, and the
//! aggregate is the isolated runs combined — counts add up, times and
//! queue peaks take the maximum.

use crate::fault::{FaultReport, LostPacket};
use crate::retry::RetryPolicy;
use crate::workloads;
use lnpram_math::rng::{Rng, SeedSeq};
use lnpram_shard::AnyEngine;
use lnpram_simnet::fault::{FaultError, FaultPlan};
use lnpram_simnet::trace::TraceSink;
use lnpram_simnet::{
    Metrics, NoAdmission, NoopSink, Packet, RunOutcome, Shardable, SimConfig, TagDemux, TagMetrics,
};
use std::borrow::Cow;

/// What one request asks the router to realize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutePattern {
    /// A uniformly random permutation drawn from the request seed.
    Permutation,
    /// An explicit destination map: one packet per source, `dests[src]`
    /// its destination (many-one allowed).
    Dests(Vec<usize>),
    /// An explicit destination map routed **deterministically** — no
    /// random intermediate, every packet follows its canonical
    /// oblivious path (the derandomized ablation; carries no w.h.p.
    /// guarantee, see §2.2.1 on the Borodin–Hopcroft phenomenon).
    Direct(Vec<usize>),
    /// A random partial h-relation drawn from the request seed: up to
    /// `h` packets per source and per destination.
    Relation {
        /// Packets per source/destination bound.
        h: usize,
    },
    /// An explicit request map as its `(src, dest)` pairs, one per
    /// packet, injected in the order given: [`RouteRequest::relation_map`]
    /// and the crate's own maps list them by source ascending, then in
    /// each source's list order. Stored sparse, so a request costs its
    /// packets, not the topology's sources.
    RelationMap {
        /// One `(src, dest)` pair per packet.
        pairs: Vec<(usize, usize)>,
        /// The sources the map was drawn over; must be the topology's.
        sources: usize,
    },
}

impl RoutePattern {
    /// The borrowed view backends consume (see [`PatternRef`]).
    pub fn as_ref(&self) -> PatternRef<'_> {
        match self {
            RoutePattern::Permutation => PatternRef::Permutation,
            RoutePattern::Dests(d) => PatternRef::Dests(d),
            RoutePattern::Direct(d) => PatternRef::Direct(d),
            RoutePattern::Relation { h } => PatternRef::Relation { h: *h },
            RoutePattern::RelationMap { pairs, sources } => PatternRef::RelationMap {
                pairs,
                sources: *sources,
            },
        }
    }

    /// The source count an explicit pattern was made for: a destination
    /// vector's length, a relation map's `sources` (the drawn patterns
    /// take the topology's).
    pub(crate) fn source_count(&self) -> Option<usize> {
        match self {
            RoutePattern::Dests(d) | RoutePattern::Direct(d) => Some(d.len()),
            RoutePattern::RelationMap { sources, .. } => Some(*sources),
            RoutePattern::Permutation | RoutePattern::Relation { .. } => None,
        }
    }

    /// The first endpoint of an explicit pattern outside `0..sources`,
    /// if any (the drawn patterns are always in range).
    pub(crate) fn out_of_range(&self, sources: usize) -> Option<usize> {
        let bad = |&e: &usize| e >= sources;
        match self {
            RoutePattern::Dests(d) | RoutePattern::Direct(d) => d.iter().copied().find(bad),
            RoutePattern::RelationMap { pairs, .. } => {
                pairs.iter().flat_map(|&(s, d)| [s, d]).find(bad)
            }
            RoutePattern::Permutation | RoutePattern::Relation { .. } => None,
        }
    }

    /// This pattern with its random variants drawn from `child(0)` of
    /// `seed` exactly as `route` would draw them: the pinned workload
    /// that retry schedules re-route, refreshing only the intermediates
    /// (`child(1)`) from attempt to attempt.
    pub(crate) fn pinned(&self, sources: usize, seed: u64) -> RoutePattern {
        let mut rng = SeedSeq::new(seed).child(0).rng();
        match self {
            RoutePattern::Permutation => {
                RoutePattern::Dests(workloads::random_permutation(sources, &mut rng))
            }
            RoutePattern::Relation { h } => RoutePattern::RelationMap {
                pairs: workloads::h_relation(sources, *h, &mut rng),
                sources,
            },
            p => p.clone(),
        }
    }
}

/// A borrowed [`RoutePattern`]: what [`RouteBackend::inject`] consumes,
/// so the session's slice-taking entry points (`route_with_dests`,
/// `route_direct`) inject straight from the caller's buffers without
/// copying them into an owned pattern.
#[derive(Debug, Clone, Copy)]
pub enum PatternRef<'a> {
    /// See [`RoutePattern::Permutation`].
    Permutation,
    /// See [`RoutePattern::Dests`].
    Dests(&'a [usize]),
    /// See [`RoutePattern::Direct`].
    Direct(&'a [usize]),
    /// See [`RoutePattern::Relation`].
    Relation {
        /// Packets per source/destination bound.
        h: usize,
    },
    /// See [`RoutePattern::RelationMap`].
    RelationMap {
        /// One `(src, dest)` pair per packet.
        pairs: &'a [(usize, usize)],
        /// The sources the map was drawn over.
        sources: usize,
    },
}

/// Panics unless `src` and `dest` both name one of the topology's
/// `sources` endpoints: a destination past the last one would be routed
/// to wherever the topology's arithmetic sends it and counted delivered.
#[inline]
pub fn check_endpoints(src: usize, dest: usize, sources: usize) {
    assert!(
        src < sources && dest < sources,
        "packet {src} -> {dest} is out of range: the topology has {sources} sources (0..{sources})"
    );
}

/// One routing request: a pattern, the randomness seed (destinations
/// where the pattern draws them, Valiant intermediates always), and a
/// tenant label for batches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteRequest {
    /// What to route.
    pub pattern: RoutePattern,
    /// Root seed: `child(0)` draws pattern randomness (permutation /
    /// relation), `child(1)` draws the per-packet random intermediates.
    pub seed: u64,
    /// Tenant label, echoed on the matching [`TenantReport`] of a
    /// batch and carried as every packet's tag. Purely descriptive:
    /// no router reads it.
    pub tenant: u64,
}

impl RouteRequest {
    /// Route a random permutation drawn from `seed`.
    pub fn permutation(seed: u64) -> Self {
        RouteRequest {
            pattern: RoutePattern::Permutation,
            seed,
            tenant: 0,
        }
    }

    /// Route an explicit destination map with intermediates from `seed`.
    pub fn dests(dests: Vec<usize>, seed: u64) -> Self {
        RouteRequest {
            pattern: RoutePattern::Dests(dests),
            seed,
            tenant: 0,
        }
    }

    /// Route an explicit destination map deterministically (no random
    /// intermediate — the seed is unused by this pattern).
    pub fn direct(dests: Vec<usize>) -> Self {
        RouteRequest {
            pattern: RoutePattern::Direct(dests),
            seed: 0,
            tenant: 0,
        }
    }

    /// Route a random partial h-relation drawn from `seed`.
    pub fn relation(h: usize, seed: u64) -> Self {
        RouteRequest {
            pattern: RoutePattern::Relation { h },
            seed,
            tenant: 0,
        }
    }

    /// Route an explicit request map (`relation[src]` lists `src`'s
    /// destinations, over `relation.len()` sources) with intermediates
    /// from `seed`; stored as its pairs ([`RoutePattern::RelationMap`]).
    pub fn relation_map(relation: Vec<Vec<usize>>, seed: u64) -> Self {
        let sources = relation.len();
        let pairs = relation
            .into_iter()
            .enumerate()
            .flat_map(|(src, dests)| dests.into_iter().map(move |dest| (src, dest)))
            .collect();
        RouteRequest {
            pattern: RoutePattern::RelationMap { pairs, sources },
            seed,
            tenant: 0,
        }
    }

    /// Builder-style: label this request with a tenant id.
    #[must_use]
    pub fn with_tenant(mut self, tenant: u64) -> Self {
        self.tenant = tenant;
        self
    }

    /// One permutation request per seed, tenants numbered `0..`
    /// (the [`Router::route_many`] / [`Router::route_batch`] shape).
    pub fn permutations(seeds: &[u64]) -> Vec<RouteRequest> {
        seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| RouteRequest::permutation(s).with_tenant(i as u64))
            .collect()
    }
}

/// Topology-specific context attached to a [`RunReport`]: what the
/// routing time should be normalised by (the theorem's parameter) plus
/// the topology's headline numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExtras {
    /// Algorithm 2.1 on a leveled network (Theorem 2.1: Õ(ℓ)).
    Leveled {
        /// ℓ of the inner network (path length is `2ℓ` per packet).
        levels: usize,
    },
    /// Algorithm 2.2 on the n-star (Theorem 2.2: Õ(diameter)).
    Star {
        /// n of the star graph (N = n!).
        n: usize,
        /// Diameter `⌊3(n−1)/2⌋`.
        diameter: usize,
    },
    /// §3.4 mesh routing (Theorem 3.1: `2n + o(n)`).
    Mesh {
        /// Side length of the square mesh.
        n: usize,
    },
    /// Valiant two-phase e-cube routing (Õ(log N)).
    Cube {
        /// Dimensions (= degree = diameter).
        dims: usize,
    },
    /// Two-phase routing on cube-connected cycles (Õ(k) at degree 3).
    Ccc {
        /// Cycle length / cube dimension.
        k: usize,
        /// Diameter `2k + ⌊k/2⌋ − 2` (6 for k = 3).
        diameter: usize,
    },
    /// Algorithm 2.3 on the d-way shuffle (Theorem 2.3: Õ(n)).
    Shuffle {
        /// Digit count n (= diameter).
        digits: usize,
    },
    /// Congestion-priced adaptive source routing with
    /// rip-up-and-reroute (`lnpram-adaptive`).
    Adaptive {
        /// Pricing iterations the rip-up loop executed.
        iterations: u32,
        /// Final max link load of the priced path set — the congestion
        /// lower bound on the routing time.
        max_load: u32,
    },
}

impl RunExtras {
    /// The theorem's normalizer: levels for leveled networks, diameter
    /// for star/cube/CCC/shuffle, side length for the mesh.
    pub fn norm(&self) -> usize {
        match *self {
            RunExtras::Leveled { levels } => levels,
            RunExtras::Star { diameter, .. } => diameter,
            RunExtras::Mesh { n } => n,
            RunExtras::Cube { dims } => dims,
            RunExtras::Ccc { diameter, .. } => diameter,
            RunExtras::Shuffle { digits } => digits,
            // Adaptive paths have no diameter-style parameter; the
            // priced max link load is the congestion lower bound on
            // the routing time, so time/norm ≈ congestion stretch.
            RunExtras::Adaptive { max_load, .. } => (max_load as usize).max(1),
        }
    }
}

/// Outcome of one routed request, topology-independent.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Engine metrics (routing time, queues, latency distribution).
    pub metrics: Metrics,
    /// All packets arrived within the step budget?
    pub completed: bool,
    /// Packets injected.
    pub packets: usize,
    /// Topology-specific context (the normalizer and headline numbers).
    pub extras: RunExtras,
}

impl RunReport {
    /// The topology's normalizer (see [`RunExtras::norm`]).
    pub fn norm(&self) -> usize {
        self.extras.norm()
    }

    /// Routing time divided by the topology's normalizer — the constant
    /// the paper's theorems bound (time/ℓ, time/diameter, time/n).
    pub fn time_per_norm(&self) -> f64 {
        f64::from(self.metrics.routing_time) / self.norm().max(1) as f64
    }
}

/// One tenant's slice of a batch.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Batch slot: the request's index in the batch.
    pub slot: usize,
    /// The request's tenant label.
    pub tenant: u64,
    /// Packets this tenant injected.
    pub injected: usize,
    /// Packets still queued at the end of an incomplete run.
    pub stranded: usize,
    /// Did every one of this tenant's packets arrive within budget?
    pub completed: bool,
    /// Delivery metrics of the tenant's run.
    pub metrics: TagMetrics,
}

/// Outcome of one multi-tenant batch.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// The tenants' run metrics combined: deliveries and queued
    /// packet-steps add up, routing time, steps and `max_queue` take
    /// the maximum, latency histograms merge, and per-link loads (when
    /// recorded) concatenate in tenant order. Queue residency lives
    /// here only.
    pub metrics: Metrics,
    /// Did every tenant's every packet arrive within budget?
    pub completed: bool,
    /// Total packets injected across all tenants.
    pub packets: usize,
    /// Per-tenant outcomes, in request order.
    pub tenants: Vec<TenantReport>,
    /// Topology-specific context: the last tenant's, with the worst
    /// adaptive `iterations` / `max_load` over all tenants. An empty
    /// batch carries the extras it was folded from.
    pub extras: RunExtras,
}

impl BatchReport {
    /// The tenant report for batch slot `i` (request order).
    pub fn tenant(&self, i: usize) -> &TenantReport {
        &self.tenants[i]
    }

    /// Route each request in order with `route` and fold the isolated
    /// reports into one batch report (see [`BatchReport::metrics`]);
    /// `extras` is what an empty batch reports.
    pub fn fold(
        extras: RunExtras,
        reqs: &[RouteRequest],
        mut route: impl FnMut(&RouteRequest) -> RunReport,
    ) -> Self {
        let mut batch = BatchReport {
            metrics: Metrics::default(),
            completed: true,
            packets: 0,
            tenants: Vec::with_capacity(reqs.len()),
            extras,
        };
        for (slot, req) in reqs.iter().enumerate() {
            let rep = route(req);
            let (m, r) = (&mut batch.metrics, &rep.metrics);
            m.delivered += r.delivered;
            m.routing_time = m.routing_time.max(r.routing_time);
            m.steps = m.steps.max(r.steps);
            m.max_queue = m.max_queue.max(r.max_queue);
            m.queued_packet_steps += r.queued_packet_steps;
            m.latency.absorb(&r.latency);
            m.link_loads.extend_from_slice(&r.link_loads);
            batch.completed &= rep.completed;
            batch.packets += rep.packets;
            batch.extras = match (batch.extras, rep.extras) {
                (
                    RunExtras::Adaptive {
                        iterations: i0,
                        max_load: l0,
                    },
                    RunExtras::Adaptive {
                        iterations,
                        max_load,
                    },
                ) if slot > 0 => RunExtras::Adaptive {
                    iterations: iterations.max(i0),
                    max_load: max_load.max(l0),
                },
                (_, e) => e,
            };
            batch.tenants.push(TenantReport {
                slot,
                tenant: req.tenant,
                injected: rep.packets,
                stranded: rep.packets - r.delivered,
                completed: rep.completed,
                metrics: TagMetrics {
                    delivered: r.delivered,
                    routing_time: r.routing_time,
                    latency: rep.metrics.latency,
                },
            });
        }
        batch
    }
}

/// A topology-generic router: one warmed engine, many typed requests.
///
/// Implemented by [`RoutingSession`] for every topology in this crate.
/// The trait is object-safe — heterogeneous collections of
/// `Box<dyn Router>` route the same requests on different topologies
/// (the CLI's `route --topology …` dispatch).
pub trait Router {
    /// Route one request on the warmed engine.
    fn route(&mut self, req: &RouteRequest) -> RunReport;

    /// [`Router::route`] with per-step observation reported to `sink`
    /// — same report, same delivery schedule.
    fn route_traced(&mut self, req: &RouteRequest, sink: &mut dyn TraceSink) -> RunReport;

    /// Route a batch of requests — one tenant per request — each on its
    /// own as [`Router::route`] would, and report them together (see
    /// [`BatchReport::fold`]).
    fn route_batch(&mut self, reqs: &[RouteRequest]) -> BatchReport;

    /// Override the per-run step budget (retry schedules tighten it to
    /// observe failures) while keeping the warmed engine.
    fn set_max_steps(&mut self, max_steps: u32);

    /// The current per-run step budget.
    fn step_budget(&self) -> u32;

    /// Packet sources: the number of packets a full permutation routes.
    fn num_sources(&self) -> usize;

    /// Human-readable topology name, e.g. `star(5)`.
    fn topology(&self) -> String;

    /// Route each request in sequence on the warmed engine and return
    /// the reports (for one combined report use [`Router::route_batch`]).
    fn route_many(&mut self, reqs: &[RouteRequest]) -> Vec<RunReport> {
        reqs.iter().map(|r| self.route(r)).collect()
    }

    /// Route one random permutation drawn from `seed`.
    fn route_permutation(&mut self, seed: u64) -> RunReport {
        self.route(&RouteRequest::permutation(seed))
    }

    /// Route a random partial h-relation drawn from `seed`.
    fn route_relation(&mut self, h: usize, seed: u64) -> RunReport {
        self.route(&RouteRequest::relation(h, seed))
    }

    /// Route `req` while the engine executes the fault `plan`, then
    /// deterministically recover: stranded packets are drained,
    /// classified survivable vs dead (destination node down at the end
    /// of the plan — reported [`LostPacket`], never silently dropped),
    /// and survivors retry with fresh per-attempt intermediates under
    /// the same plan (the Lemma 2.1 schedule of
    /// [`retry_route`](crate::retry::retry_route), see
    /// [`crate::fault`]). With an empty plan the `first` report equals
    /// [`Router::route`]'s under the attempt budget.
    fn route_with_faults(
        &mut self,
        req: &RouteRequest,
        plan: &FaultPlan,
        policy: RetryPolicy,
    ) -> Result<FaultReport, FaultError>;
}

/// Per-topology hooks the generic [`RoutingSession`] machinery is built
/// from: how to build the engine, how to turn a request into injected
/// packets, and which per-node protocol routes them. Implementing this
/// for a new topology yields the full [`Router`] and
/// [`Serve`](crate::Serve) APIs — single runs, multi-tenant batches,
/// fault recovery, streaming admission, all of it traced or not — for
/// free. (Topologies whose node ids are their coordinates and whose
/// next hop is memoryless implement the smaller
/// [`TwoPhase`](crate::two_phase::TwoPhase) instead.)
pub trait RouteBackend {
    /// The per-node protocol of one run (see [`RouteBackend::protocol`]).
    /// [`Shardable`], so a sharded run of any backend can step its
    /// shards on threads.
    type Proto<'a>: Shardable
    where
        Self: 'a;

    /// Packet sources (= destination domain size).
    fn sources(&self) -> usize;

    /// Topology name for reports.
    fn name(&self) -> String;

    /// Topology context attached to every report.
    fn extras(&self) -> RunExtras;

    /// Build the engine over the topology (serial or sharded per
    /// `cfg.shards`) with the topology's canonical partitioner, so every
    /// layer of the crate partitions identically. `copies` must be 1:
    /// engines hold one copy of the topology.
    fn build_engine(&self, copies: usize, cfg: &SimConfig) -> AnyEngine;

    /// Inject one request's packets into `eng`, each tagged `tag`,
    /// drawing randomness from `seq` (`child(0)` for the pattern where
    /// it is random, `child(1)` for intermediates). Returns the packet
    /// count. Must be bit-identical to the topology's historical
    /// one-shot injection. `copy` must be 0.
    fn inject(
        &mut self,
        eng: &mut AnyEngine,
        copy: usize,
        pattern: PatternRef<'_>,
        seq: SeedSeq,
        tag: u64,
    ) -> usize;

    /// The per-node protocol of a run — the one place a backend states
    /// how it routes. Every way of running the backend —
    /// [`run`](RouteBackend::run), fault recovery, the serve loop, with
    /// or without a sink — drives this protocol, so it must decide each
    /// hop from the packet alone: packets enter, and after a fault
    /// re-enter, the network at any step.
    fn protocol(&mut self) -> Self::Proto<'_>;

    /// Called once before a traced or untraced routing run starts
    /// stepping: the hook for what a backend decided at injection time
    /// and wants on the record (the adaptive backend replays its pricing
    /// iterations here).
    fn before_run<S: TraceSink + ?Sized>(&mut self, _sink: &mut S) {}

    /// The engine node at which a packet destined for coordinate
    /// `dest` is delivered — where a node failure makes that
    /// destination unreachable. Identity for flat topologies (node id
    /// == coordinate); leveled networks deliver at the last column.
    fn dest_node(&self, dest: usize) -> usize {
        dest
    }

    /// Route what was injected into `eng`. `demux == 0` runs plain;
    /// `demux == T` wraps the protocol in a [`TagDemux`] over tags
    /// `0..T` and returns the per-tag metrics. `copies` must be 1.
    fn run(
        &mut self,
        eng: &mut AnyEngine,
        copies: usize,
        demux: usize,
    ) -> (RunOutcome, Vec<TagMetrics>) {
        assert_eq!(copies, 1, "engines hold one copy of the topology");
        self.run_traced(eng, demux, &mut NoopSink)
    }

    /// [`RouteBackend::run`] with per-step observation reported to
    /// `sink` — same delivery schedule, same return value. Generic over
    /// the sink, so `run`'s [`NoopSink`] instance is the uninstrumented
    /// loop.
    fn run_traced<S: TraceSink + ?Sized>(
        &mut self,
        eng: &mut AnyEngine,
        demux: usize,
        sink: &mut S,
    ) -> (RunOutcome, Vec<TagMetrics>) {
        self.before_run(sink);
        let mut proto = self.protocol();
        let max_steps = eng.max_steps();
        if demux == 0 {
            let out = eng.run_split(&mut proto, sink, &mut NoAdmission, max_steps);
            (out, Vec::new())
        } else {
            let mut tap = TagDemux::new(proto, demux);
            let out = eng.run_split(&mut tap, sink, &mut NoAdmission, max_steps);
            (out, tap.into_metrics())
        }
    }
}

/// A reusable routing session over any [`RouteBackend`]: topology,
/// partition plan and [`AnyEngine`] built **once**, then any number of
/// requests served through the [`Router`] API, recycling the engine
/// with `reset` per run. Reuse is a cost optimisation, not a behavior
/// change: outcomes are bit-identical to a freshly built session's,
/// pinned by property tests on every topology.
pub struct RoutingSession<B: RouteBackend> {
    backend: B,
    max_steps: u32,
    engine: AnyEngine,
}

impl<B: RouteBackend> RoutingSession<B> {
    /// Session over `backend` (serial or sharded per `cfg.shards`).
    pub fn with_backend(backend: B, cfg: SimConfig) -> Self {
        RoutingSession {
            engine: backend.build_engine(1, &cfg),
            backend,
            max_steps: cfg.max_steps,
        }
    }

    /// The topology-side backend (accessors like the star graph or the
    /// mesh algorithm live here).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable backend access — session-level wrappers configure the
    /// backend between runs (the adaptive session points the pricer
    /// around a fault plan's failed links before delegating).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Is the session on the partitioned (sharded) engine path?
    pub fn is_sharded(&self) -> bool {
        self.engine.is_sharded()
    }

    /// Nodes of the engine — valid node ids for [`FaultPlan`]s are
    /// `0..num_nodes`.
    pub fn num_nodes(&self) -> usize {
        self.engine.num_nodes()
    }

    /// Links of the engine — valid link ids for [`FaultPlan`]s are
    /// `0..num_links`.
    pub fn num_links(&self) -> usize {
        self.engine.num_links()
    }

    /// Route an explicit destination map with intermediates drawn from
    /// an explicit `seq` (the low-level entry the seed-based
    /// [`Router::route`] wraps; `seq.child(1)` draws the intermediates).
    pub fn route_with_dests(&mut self, dests: &[usize], seq: SeedSeq) -> RunReport {
        self.run_single(PatternRef::Dests(dests), seq, 0, &mut NoopSink)
    }

    /// Route an explicit destination map deterministically (no random
    /// intermediates) — see [`RoutePattern::Direct`].
    pub fn route_direct(&mut self, dests: &[usize]) -> RunReport {
        self.run_single(PatternRef::Direct(dests), SeedSeq::new(0), 0, &mut NoopSink)
    }

    /// One request on the warmed engine. Generic over the sink:
    /// [`Router::route`] instantiates it with [`NoopSink`], so the
    /// untraced path is monomorphized all the way into the step loop.
    fn run_single<S: TraceSink + ?Sized>(
        &mut self,
        pattern: PatternRef<'_>,
        seq: SeedSeq,
        tag: u64,
        sink: &mut S,
    ) -> RunReport {
        self.engine.reset();
        let packets = self.backend.inject(&mut self.engine, 0, pattern, seq, tag);
        let (out, _) = self.backend.run_traced(&mut self.engine, 0, sink);
        RunReport {
            metrics: out.metrics,
            completed: out.completed,
            packets,
            extras: self.backend.extras(),
        }
    }
}

impl<B: RouteBackend> Router for RoutingSession<B> {
    fn route(&mut self, req: &RouteRequest) -> RunReport {
        self.run_single(
            req.pattern.as_ref(),
            SeedSeq::new(req.seed),
            req.tenant,
            &mut NoopSink,
        )
    }

    fn route_traced(&mut self, req: &RouteRequest, sink: &mut dyn TraceSink) -> RunReport {
        self.run_single(
            req.pattern.as_ref(),
            SeedSeq::new(req.seed),
            req.tenant,
            sink,
        )
    }

    fn route_batch(&mut self, reqs: &[RouteRequest]) -> BatchReport {
        BatchReport::fold(self.backend.extras(), reqs, |req| self.route(req))
    }

    fn route_with_faults(
        &mut self,
        req: &RouteRequest,
        plan: &FaultPlan,
        policy: RetryPolicy,
    ) -> Result<FaultReport, FaultError> {
        assert!(policy.max_attempts >= 1);
        let sources = self.backend.sources();
        let pattern = req.pattern.pinned(sources, req.seed);
        // Attempt-0 identity by injection id: `inject_per_source`
        // numbers single-per-source patterns by source and relations
        // sequentially in (src asc, list order) — reproduce that
        // numbering so drained packets map back to their identity.
        let pairs: Vec<(usize, usize)> = match pattern.as_ref() {
            PatternRef::Dests(d) | PatternRef::Direct(d) => d.iter().copied().enumerate().collect(),
            PatternRef::RelationMap { pairs, .. } => pairs.to_vec(),
            _ => unreachable!("random patterns materialized above"),
        };
        let originals: Vec<LostPacket> = (0u32..)
            .zip(pairs)
            .map(|(id, (src, dest))| LostPacket {
                id,
                src: src as u32,
                dest: dest as u32,
            })
            .collect();
        let injected = originals.len();
        // Destinations whose delivery node is down at the end of the
        // plan can never complete: classified lost, never retried.
        let dead = plan.dead_nodes();

        let restore = self.max_steps;
        let mut lost: Vec<LostPacket> = Vec::new();
        let mut outstanding: Vec<LostPacket> = Vec::new();
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let mut slots: Vec<LostPacket> = Vec::new();
        let mut total_steps = 0u64;
        let mut attempts = 0usize;
        let mut first: Option<RunReport> = None;
        let mut delivered_first = 0usize;
        let mut recovered = 0usize;

        loop {
            self.engine.reset();
            // The plan replays from step 0 on every attempt — the
            // lemma's model: fresh randomness, same adversity.
            if let Err(e) = self.engine.set_fault_plan(plan) {
                self.engine.set_max_steps(restore);
                return Err(e);
            }
            self.engine.set_max_steps(policy.attempt_budget);
            let seq = SeedSeq::new(req.seed.wrapping_add(attempts as u64));
            let count = if attempts == 0 {
                self.backend
                    .inject(&mut self.engine, 0, pattern.as_ref(), seq, req.tenant)
            } else {
                // Survivors as an explicit relation map, source
                // ascending, so the attempt's sequential ids index
                // `slots` directly.
                outstanding.sort_unstable_by_key(|p| (p.src, p.id));
                slots.clear();
                slots.extend(outstanding.iter().copied());
                pairs.clear();
                pairs.extend(
                    outstanding
                        .iter()
                        .map(|p| (p.src as usize, p.dest as usize)),
                );
                self.backend.inject(
                    &mut self.engine,
                    0,
                    PatternRef::RelationMap {
                        pairs: &pairs,
                        sources,
                    },
                    seq,
                    req.tenant,
                )
            };
            let (out, _) = self.backend.run(&mut self.engine, 1, 0);
            attempts += 1;
            if out.completed {
                total_steps += u64::from(out.metrics.routing_time);
            } else {
                total_steps += 2 * u64::from(policy.attempt_budget);
            }
            let drained = if out.completed {
                Vec::new()
            } else {
                self.engine.drain_all()
            };
            let delivered_now = count - drained.len();
            if attempts == 1 {
                delivered_first = delivered_now;
                first = Some(RunReport {
                    metrics: out.metrics,
                    completed: out.completed,
                    packets: count,
                    extras: self.backend.extras(),
                });
            } else {
                recovered += delivered_now;
            }
            // Map this attempt's injection ids back to attempt-0
            // identity and classify survivable vs dead.
            let current: &[LostPacket] = if attempts == 1 { &originals } else { &slots };
            outstanding.clear();
            for pkt in &drained {
                let orig = current[pkt.id as usize];
                let node = self.backend.dest_node(orig.dest as usize);
                if dead.binary_search(&node).is_ok() {
                    lost.push(orig);
                } else {
                    outstanding.push(orig);
                }
            }
            if outstanding.is_empty() || attempts >= policy.max_attempts {
                break;
            }
        }
        self.engine.set_max_steps(restore);
        lost.sort_unstable_by_key(|p| p.id);
        let stranded = outstanding.len();
        Ok(FaultReport {
            injected,
            delivered_first,
            recovered,
            lost,
            stranded,
            attempts,
            completed: stranded == 0,
            total_steps,
            first: first.expect("at least one attempt ran"),
        })
    }

    fn set_max_steps(&mut self, max_steps: u32) {
        self.max_steps = max_steps;
        self.engine.set_max_steps(max_steps);
    }

    fn step_budget(&self) -> u32 {
        self.max_steps
    }

    fn num_sources(&self) -> usize {
        self.backend.sources()
    }

    fn topology(&self) -> String {
        self.backend.name()
    }
}

/// What a pattern injects, before any intermediate is drawn: its random
/// variants drawn from `seq.child(0)`, its explicit ones borrowed.
#[derive(Debug)]
pub enum PatternPackets<'a> {
    /// One packet per source, `dests[src]` its destination (ids are
    /// sources); `true` for the deterministic [`RoutePattern::Direct`].
    Dests(Cow<'a, [usize]>, bool),
    /// A relation's `(src, dest)` pairs in injection order (ids are
    /// positions).
    Pairs(Cow<'a, [(usize, usize)]>),
}

/// The shared head of every backend's [`RouteBackend::inject`]: the
/// packets `pattern` asks for on a topology with `sources` sources (an
/// explicit relation map must have been drawn over exactly that many).
pub fn pattern_packets(
    pattern: PatternRef<'_>,
    sources: usize,
    seq: SeedSeq,
) -> PatternPackets<'_> {
    let rng = || seq.child(0).rng();
    match pattern {
        PatternRef::Permutation => PatternPackets::Dests(
            Cow::Owned(workloads::random_permutation(sources, &mut rng())),
            false,
        ),
        PatternRef::Dests(d) => PatternPackets::Dests(Cow::Borrowed(d), false),
        PatternRef::Direct(d) => PatternPackets::Dests(Cow::Borrowed(d), true),
        PatternRef::Relation { h } => {
            PatternPackets::Pairs(Cow::Owned(workloads::h_relation(sources, h, &mut rng())))
        }
        PatternRef::RelationMap { pairs, sources: n } => {
            assert_eq!(n, sources, "relation map over the wrong source count");
            PatternPackets::Pairs(Cow::Borrowed(pairs))
        }
    }
}

/// The shared injection scaffolding of every per-source backend — one
/// packet tagged `tag` per `(src, dest)` pair of the pattern, ids
/// `= src` for single-packet-per-source patterns and sequential for
/// relations, intermediates drawn from `seq.child(1)` in injection
/// order. Panics on an endpoint outside `0..sources`
/// ([`check_endpoints`]). The topology plugs in three hooks: `node_of`
/// maps a source index to its injection node, `randomized` sets a
/// packet's two-phase route (drawing its intermediate from the rng),
/// `direct` its deterministic-ablation route. Returns the packet count.
pub fn inject_per_source(
    eng: &mut AnyEngine,
    sources: usize,
    (pattern, seq, tag): (PatternRef<'_>, SeedSeq, u64),
    node_of: &mut dyn FnMut(usize) -> usize,
    randomized: &mut dyn FnMut(&mut Packet, &mut Rng),
    direct: &mut dyn FnMut(&mut Packet),
) -> usize {
    let mut rng = seq.child(1).rng();
    let mut put = |id: u32, src: usize, dest: usize, is_direct: bool| {
        check_endpoints(src, dest, sources);
        let mut pkt = Packet::new(id, src as u32, dest as u32).with_tag(tag);
        if is_direct {
            direct(&mut pkt);
        } else {
            randomized(&mut pkt, &mut rng);
        }
        eng.inject(node_of(src), pkt);
    };
    match pattern_packets(pattern, sources, seq) {
        PatternPackets::Pairs(pairs) => {
            for (id, &(src, dest)) in (0u32..).zip(pairs.iter()) {
                put(id, src, dest, false);
            }
            pairs.len()
        }
        PatternPackets::Dests(dests, is_direct) => {
            assert_eq!(dests.len(), sources);
            for (src, &dest) in dests.iter().enumerate() {
                put(src as u32, src, dest, is_direct);
            }
            dests.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builders() {
        let r = RouteRequest::permutation(7).with_tenant(3);
        assert_eq!(r.pattern, RoutePattern::Permutation);
        assert_eq!(r.seed, 7);
        assert_eq!(r.tenant, 3);
        let r = RouteRequest::relation(4, 9);
        assert_eq!(r.pattern, RoutePattern::Relation { h: 4 });
        let rs = RouteRequest::permutations(&[5, 6]);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[1].seed, 6);
        assert_eq!(rs[1].tenant, 1);
    }

    #[test]
    fn extras_norms() {
        assert_eq!(RunExtras::Leveled { levels: 10 }.norm(), 10);
        assert_eq!(RunExtras::Star { n: 5, diameter: 6 }.norm(), 6);
        assert_eq!(RunExtras::Mesh { n: 32 }.norm(), 32);
        assert_eq!(RunExtras::Cube { dims: 8 }.norm(), 8);
        assert_eq!(RunExtras::Ccc { k: 4, diameter: 8 }.norm(), 8);
        assert_eq!(RunExtras::Shuffle { digits: 3 }.norm(), 3);
    }

    mod relation_pairs {
        use super::*;
        use crate::hypercube::CubeBackend;
        use crate::leveled::LeveledBackend;
        use crate::mesh::{MeshAlgorithm, MeshBackend};
        use crate::star::StarBackend;
        use lnpram_math::rng::splitmix64;
        use lnpram_topology::leveled::RadixButterfly;
        use lnpram_topology::{Mesh, StarGraph};
        use proptest::prelude::*;

        /// A random dense map over `sources`: about a third of the
        /// sources empty, destinations drawn from a quarter of the range
        /// (so they repeat), and every fifth packet sent to its own
        /// source.
        fn random_relation(sources: usize, state: &mut u64) -> Vec<Vec<usize>> {
            let mut draw = |m: usize| (splitmix64(state) as usize) % m;
            (0..sources)
                .map(|src| {
                    let count = if draw(3) == 0 { 0 } else { draw(5) };
                    (0..count)
                        .map(|_| {
                            if draw(5) == 0 {
                                src
                            } else {
                                draw(sources.div_ceil(4))
                            }
                        })
                        .collect()
                })
                .collect()
        }

        /// The packets `backend` injects for `relation_map(relation)`,
        /// against the dense walk the map was once injected by: sources
        /// ascending, each source's list in order, ids sequential, one
        /// intermediate drawn per packet from `seed`'s `child(1)` by
        /// `draw` (the backend's own Valiant draw).
        fn check<B: RouteBackend>(
            mut backend: B,
            relation: &[Vec<usize>],
            seed: u64,
            tag: u64,
            mut draw: impl FnMut(&B, &mut Packet, &mut Rng),
        ) -> Result<(), TestCaseError> {
            let mut eng = backend.build_engine(1, &SimConfig::default());
            let req = RouteRequest::relation_map(relation.to_vec(), seed);
            let count = backend.inject(&mut eng, 0, req.pattern.as_ref(), SeedSeq::new(seed), tag);
            let mut pending = Vec::new();
            eng.drain_pending_into(&mut pending);
            let got: Vec<Packet> = pending.into_iter().map(|(_, p)| p).collect();
            let mut rng = SeedSeq::new(seed).child(1).rng();
            let mut expect = Vec::new();
            for (src, dests) in relation.iter().enumerate() {
                for &dest in dests {
                    let mut pkt =
                        Packet::new(expect.len() as u32, src as u32, dest as u32).with_tag(tag);
                    draw(&backend, &mut pkt, &mut rng);
                    expect.push(pkt);
                }
            }
            prop_assert_eq!(count, expect.len());
            prop_assert_eq!(got, expect, "{}", backend.name());
            Ok(())
        }

        proptest! {
            /// Relation requests stored as pairs inject exactly what the
            /// dense per-source walk injected — same ids, endpoints,
            /// intermediates and tags, in the same order — on the
            /// leveled, mesh and two-phase (star, hypercube) backends.
            #[test]
            fn prop_relation_pairs_inject_as_the_dense_walk(seed: u64, tag in 0u64..4) {
                let mut state = seed;
                let leveled = LeveledBackend::new(RadixButterfly::new(2, 3));
                let relation = random_relation(leveled.sources(), &mut state);
                check(leveled, &relation, seed, tag, |_, p, rng| {
                    p.via = rng.gen_range(0..8);
                })?;
                for alg in [
                    MeshAlgorithm::ThreeStageConstQueue { slice_rows: 2, block_rows: 2 },
                    MeshAlgorithm::ValiantBrebner,
                ] {
                    let mesh = MeshBackend::new(Mesh::square(5), alg);
                    let relation = random_relation(mesh.sources(), &mut state);
                    check(mesh, &relation, seed, tag, |b, p, rng| {
                        let (via, via2) = b.draw_vias(p.src as usize, p.dest as usize, rng);
                        (p.via, p.via2) = (via as u32, via2);
                    })?;
                }
                let star = StarBackend::new(StarGraph::new(4));
                let relation = random_relation(star.sources(), &mut state);
                check(star, &relation, seed, tag, |_, p, rng| {
                    p.via = rng.gen_range(0..24);
                })?;
                let cube = CubeBackend::new(4);
                let relation = random_relation(cube.sources(), &mut state);
                check(cube, &relation, seed, tag, |_, p, rng| {
                    p.via = rng.gen_range(0..16);
                })?;
            }
        }
    }

    #[test]
    fn pattern_packets_draws_and_borrows() {
        let PatternPackets::Dests(d, direct) =
            pattern_packets(PatternRef::Permutation, 8, SeedSeq::new(1))
        else {
            panic!("a permutation is one destination per source");
        };
        assert!(workloads::is_permutation(&d));
        assert!(!direct);
        let explicit = vec![2usize, 0, 1];
        let pattern = RoutePattern::Direct(explicit.clone());
        let PatternPackets::Dests(d, direct) =
            pattern_packets(pattern.as_ref(), 3, SeedSeq::new(1))
        else {
            panic!("direct is one destination per source");
        };
        assert!(matches!(d, Cow::Borrowed(_)));
        assert_eq!(&*d, explicit.as_slice());
        assert!(direct);
        let pairs = RouteRequest::relation_map(vec![vec![1, 1], vec![], vec![2]], 1).pattern;
        let PatternPackets::Pairs(p) = pattern_packets(pairs.as_ref(), 3, SeedSeq::new(1)) else {
            panic!("a relation map is pairs");
        };
        assert_eq!(&*p, &[(0, 1), (0, 1), (2, 2)]);
    }
}
