//! The seventh `Router` backend: adaptive congestion-priced source
//! routing behind the generic [`RoutingSession`] machinery, plus the
//! [`AdaptiveRoutingSession`] wrapper that reroutes around planned
//! faults instead of running the Lemma 2.1 retry schedule.

use crate::arena::{PathArena, PathProtocol};
use crate::graph::LinkGraph;
use crate::price::{AdaptiveConfig, AdaptiveError, IterationRecord, PriceWork, Pricer};
use lnpram_math::rng::SeedSeq;
use lnpram_routing::fault::FaultReport;
use lnpram_routing::retry::RetryPolicy;
use lnpram_routing::router::{
    check_endpoints, pattern_packets, BatchReport, PatternPackets, PatternRef, RouteBackend,
    RouteRequest, Router, RoutingSession, RunExtras, RunReport,
};
use lnpram_shard::AnyEngine;
use lnpram_simnet::fault::{Fault, FaultError, FaultPlan};
use lnpram_simnet::trace::{ServeEvent, TraceSink};
use lnpram_simnet::{Discipline, Packet, SimConfig};
use lnpram_topology::Network;

/// The adaptive backend: prices link-paths per request (deterministic
/// shortest paths + rip-up-and-reroute, see [`crate::price`]), stores
/// them in the [`PathArena`], and drives the source-routed
/// [`PathProtocol`] through the shared engine loop. Plugs into
/// [`RoutingSession`] for the full
/// `Router` API; works on any strongly-connected flat topology (node id
/// == source == destination coordinate).
pub struct AdaptiveBackend {
    graph: LinkGraph,
    /// The pricer and the scratch it keeps from request to request.
    pricer: Pricer,
    arena: PathArena,
    /// Links the pricer must route around (set by the fault-avoidance
    /// wrapper for the duration of a faulted run; all clear otherwise),
    /// and whether any is set.
    avoid: Vec<bool>,
    any_avoided: bool,
    /// The `(src, dest)` pairs of the injection being priced.
    pairs: Vec<(u32, u32)>,
    /// The arena's paths have been handed to a run: the next injection
    /// starts a new request set and clears it first
    /// ([`RouteBackend::protocol`] sets this; injections consume it).
    fresh: bool,
    /// Aggregates over the injections since the last clear (the worst
    /// for the extras, the sum for the work).
    iterations: u32,
    max_load: u32,
    work: PriceWork,
    /// Convergence series of the most recent pricing run, replayed to
    /// the sink by [`RouteBackend::before_run`].
    history: Vec<IterationRecord>,
}

impl AdaptiveBackend {
    /// Backend over a CSR snapshot of `net`.
    ///
    /// # Panics
    ///
    /// Where [`try_new`](AdaptiveBackend::try_new) returns an error,
    /// with that error's message.
    pub fn new<N: Network + ?Sized>(net: &N, cfg: AdaptiveConfig) -> Self {
        Self::try_new(net, cfg).unwrap_or_else(|err| panic!("{err}"))
    }

    /// Backend over a CSR snapshot of `net`, or why `net` cannot be
    /// priced: some pair of its nodes has no path between them, or
    /// `cfg.penalty` exceeds [`MAX_PENALTY`](crate::price::MAX_PENALTY)
    /// (the bound under which the search's labels and bucket ring are
    /// specified).
    pub fn try_new<N: Network + ?Sized>(
        net: &N,
        cfg: AdaptiveConfig,
    ) -> Result<Self, AdaptiveError> {
        let graph = LinkGraph::from_network(net);
        let pricer = Pricer::try_new(&graph, cfg)?;
        let avoid = vec![false; graph.link_count()];
        Ok(AdaptiveBackend {
            graph,
            pricer,
            arena: PathArena::new(),
            avoid,
            any_avoided: false,
            pairs: Vec::new(),
            fresh: false,
            iterations: 0,
            max_load: 0,
            work: PriceWork::default(),
            history: Vec::new(),
        })
    }

    /// The priced link graph.
    pub fn graph(&self) -> &LinkGraph {
        &self.graph
    }

    /// Exact work counts of the pricing behind the most recent run, or
    /// of the most recent batch summed over its tenants.
    pub fn price_work(&self) -> PriceWork {
        self.work
    }

    /// Route around `links` until
    /// [`clear_avoided`](AdaptiveBackend::clear_avoided): the pricer
    /// treats them as absent, falling back to the full graph only for
    /// otherwise-severed pairs.
    fn set_avoided(&mut self, links: &[usize]) {
        self.clear_avoided();
        for &l in links {
            if let Some(flag) = self.avoid.get_mut(l) {
                *flag = true;
                self.any_avoided = true;
            }
        }
    }

    /// Stop routing around faults.
    fn clear_avoided(&mut self) {
        self.avoid.fill(false);
        self.any_avoided = false;
    }

    /// Links a fault plan makes unusable at any point: failed links and
    /// every link incident to a failed node. Conservative on purpose —
    /// recovery events are ignored, so a path never gambles on transit
    /// timing; degrades are *not* avoided (slow links still deliver).
    fn avoided_by_plan(&self, plan: &FaultPlan) -> Vec<usize> {
        let mut bad_node = vec![false; self.graph.num_nodes()];
        let mut links = Vec::new();
        for ev in plan.events() {
            match ev.fault {
                Fault::LinkFail { link } => links.push(link),
                Fault::NodeFail { node } => bad_node[node] = true,
                _ => {}
            }
        }
        for link in 0..self.graph.link_count() as u32 {
            if bad_node[self.graph.tail(link) as usize]
                || bad_node[self.graph.target(link) as usize]
            {
                links.push(link as usize);
            }
        }
        links.sort_unstable();
        links.dedup();
        links
    }
}

impl RouteBackend for AdaptiveBackend {
    type Proto<'a> = PathProtocol<'a>;

    fn sources(&self) -> usize {
        self.graph.num_nodes()
    }

    fn name(&self) -> String {
        format!("adaptive({})", self.graph.base_name())
    }

    fn extras(&self) -> RunExtras {
        RunExtras::Adaptive {
            iterations: self.iterations,
            max_load: self.max_load,
        }
    }

    fn build_engine(&self, copies: usize, cfg: &SimConfig) -> AnyEngine {
        assert_eq!(copies, 1, "engines hold one copy of the topology");
        AnyEngine::new(&self.graph, cfg.clone())
    }

    fn inject(
        &mut self,
        eng: &mut AnyEngine,
        copy: usize,
        pattern: PatternRef<'_>,
        seq: SeedSeq,
        tag: u64,
    ) -> usize {
        assert_eq!(copy, 0, "engines hold one copy of the topology");
        if self.fresh {
            self.arena.clear();
            self.iterations = 0;
            self.max_load = 0;
            self.work = PriceWork::default();
            self.history.clear();
            self.fresh = false;
        }
        let n = self.graph.num_nodes();
        // (src, dest) pairs in injection-id order: ids are `src` for
        // single-packet-per-source patterns and sequential for
        // relations, matching `inject_per_source`'s numbering so the
        // fault-recovery drain maps ids back to identity.
        let packets = pattern_packets(pattern, n, seq);
        let relation_ids = matches!(packets, PatternPackets::Pairs(_));
        let pairs = &mut self.pairs;
        pairs.clear();
        let mut push = |src: usize, dest: usize| {
            check_endpoints(src, dest, n);
            pairs.push((src as u32, dest as u32));
        };
        match packets {
            PatternPackets::Pairs(p) => p.iter().for_each(|&(src, dest)| push(src, dest)),
            PatternPackets::Dests(dests, _direct) => {
                assert_eq!(dests.len(), n);
                dests
                    .iter()
                    .enumerate()
                    .for_each(|(src, &dest)| push(src, dest));
            }
        }
        let avoid: &[bool] = if self.any_avoided { &self.avoid } else { &[] };
        let stats = self.pricer.price(&self.graph, pairs, avoid);
        self.iterations = self.iterations.max(stats.iterations);
        self.max_load = self.max_load.max(stats.max_load);
        self.work += stats.work;
        self.history.clear();
        self.history.extend_from_slice(&stats.history);
        for (i, &(src, dest)) in (0u32..).zip(pairs.iter()) {
            let span = self.arena.push(self.pricer.paths().span(i));
            let id = if relation_ids { i } else { src };
            let pkt = Packet::new(id, src, dest)
                .with_via(span)
                .with_via2(0)
                .with_tag(tag);
            eng.inject(src as usize, pkt);
        }
        pairs.len()
    }

    fn before_run<S: TraceSink + ?Sized>(&mut self, sink: &mut S) {
        if sink.enabled() {
            for rec in &self.history {
                sink.on_serve_event(&ServeEvent::RouteIteration {
                    iter: rec.iter,
                    max_load: rec.max_load,
                    rerouted: rec.rerouted,
                });
            }
        }
    }

    fn protocol(&mut self) -> Self::Proto<'_> {
        self.fresh = true;
        PathProtocol::new(&self.arena, &self.graph)
    }
}

/// The adaptive routing session — the seventh `Router` backend. A thin
/// wrapper over [`RoutingSession<AdaptiveBackend>`] that overrides
/// [`Router::route_with_faults`]: instead of the Lemma 2.1 re-randomize
/// retry (which oblivious backends need because their paths are drawn,
/// not chosen), it prices paths *around* the plan's failed links and
/// nodes up front, so every survivable packet is delivered in the first
/// attempt and only dead-destination packets are reported lost.
pub struct AdaptiveRoutingSession {
    inner: RoutingSession<AdaptiveBackend>,
}

impl AdaptiveRoutingSession {
    /// Session over `net` with default pricing knobs.
    pub fn new<N: Network + ?Sized>(net: &N, cfg: SimConfig) -> Self {
        Self::from_backend(AdaptiveBackend::new(net, AdaptiveConfig::default()), cfg)
    }

    /// Session over an already-built backend (the CLI shares backend
    /// construction between the route and serve paths). The queue
    /// discipline is pinned to FIFO: source-routed paths encode all
    /// policy at pricing time, so queue priorities have nothing to add.
    pub fn from_backend(backend: AdaptiveBackend, mut cfg: SimConfig) -> Self {
        cfg.discipline = Discipline::Fifo;
        AdaptiveRoutingSession {
            inner: RoutingSession::with_backend(backend, cfg),
        }
    }

    /// The adaptive backend (pricing stats, link graph).
    pub fn backend(&self) -> &AdaptiveBackend {
        self.inner.backend()
    }

    /// Is the session on the partitioned (sharded) engine path?
    pub fn is_sharded(&self) -> bool {
        self.inner.is_sharded()
    }

    /// Nodes of the engine.
    pub fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    /// Links of the engine.
    pub fn num_links(&self) -> usize {
        self.inner.num_links()
    }
}

impl Router for AdaptiveRoutingSession {
    fn route(&mut self, req: &RouteRequest) -> RunReport {
        self.inner.route(req)
    }

    fn route_traced(&mut self, req: &RouteRequest, sink: &mut dyn TraceSink) -> RunReport {
        self.inner.route_traced(req, sink)
    }

    fn route_batch(&mut self, reqs: &[RouteRequest]) -> BatchReport {
        // Each tenant is priced alone; afterwards the backend reports the
        // batch: the sum of the tenants' work and their worst extras.
        let mut work = PriceWork::default();
        let inner = &mut self.inner;
        let batch = BatchReport::fold(inner.backend().extras(), reqs, |req| {
            let rep = inner.route(req);
            work += inner.backend().price_work();
            rep
        });
        if !reqs.is_empty() {
            let backend = inner.backend_mut();
            backend.work = work;
            if let RunExtras::Adaptive {
                iterations,
                max_load,
            } = batch.extras
            {
                (backend.iterations, backend.max_load) = (iterations, max_load);
            }
        }
        batch
    }

    fn route_with_faults(
        &mut self,
        req: &RouteRequest,
        plan: &FaultPlan,
        policy: RetryPolicy,
    ) -> Result<FaultReport, FaultError> {
        let avoided = self.inner.backend().avoided_by_plan(plan);
        self.inner.backend_mut().set_avoided(&avoided);
        let out = self.inner.route_with_faults(req, plan, policy);
        self.inner.backend_mut().clear_avoided();
        out
    }

    fn set_max_steps(&mut self, max_steps: u32) {
        self.inner.set_max_steps(max_steps);
    }

    fn step_budget(&self) -> u32 {
        self.inner.step_budget()
    }

    fn num_sources(&self) -> usize {
        self.inner.num_sources()
    }

    fn topology(&self) -> String {
        self.inner.topology()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::price::MAX_PENALTY;
    use lnpram_topology::graph::ExplicitNetwork;
    use lnpram_topology::Mesh;

    fn with_penalty(penalty: u64) -> AdaptiveConfig {
        AdaptiveConfig {
            penalty,
            ..AdaptiveConfig::default()
        }
    }

    #[test]
    fn unpriceable_inputs_are_typed_errors() {
        let mesh = Mesh::new(4, 4);
        assert_eq!(
            AdaptiveBackend::try_new(&mesh, with_penalty(MAX_PENALTY + 1)).err(),
            Some(AdaptiveError::PenaltyTooLarge {
                penalty: MAX_PENALTY + 1,
                max: MAX_PENALTY
            })
        );
        assert!(AdaptiveBackend::try_new(&mesh, with_penalty(MAX_PENALTY)).is_ok());
        // 0 → 1 → 2 and no way back.
        let one_way = ExplicitNetwork::new(vec![vec![1], vec![2], vec![]], "one-way(3)");
        let err = AdaptiveBackend::try_new(&one_way, AdaptiveConfig::default())
            .err()
            .expect("2 reaches nobody");
        assert_eq!(
            err,
            AdaptiveError::NotStronglyConnected {
                topology: "one-way(3)".into()
            }
        );
        assert!(err
            .to_string()
            .starts_with("one-way(3) is not strongly connected"));
    }

    #[test]
    #[should_panic(expected = "congestion penalty 4097 exceeds the largest supported, 4096")]
    fn new_panics_with_the_error_message() {
        AdaptiveBackend::new(&Mesh::new(4, 4), with_penalty(MAX_PENALTY + 1));
    }

    /// The accessor reports the pricing behind the latest run: one
    /// request's counts, not a running total, and the sum over tenants
    /// for a batch.
    #[test]
    fn price_work_follows_the_latest_run() {
        let mesh = Mesh::square(8);
        let mut session = AdaptiveRoutingSession::new(&mesh, SimConfig::default());
        let reqs = [
            RouteRequest::permutation(3),
            RouteRequest::permutation(4).with_tenant(1),
        ];
        let mut each = Vec::new();
        for req in &reqs {
            assert!(session.route(req).completed);
            each.push(session.backend().price_work());
        }
        assert!(each[0].searches > 0 && each[0] != each[1]);
        assert!(session.route(&reqs[0]).completed);
        assert_eq!(session.backend().price_work(), each[0]);
        assert!(session.route_batch(&reqs).completed);
        let mut both = each[0];
        both += each[1];
        assert_eq!(session.backend().price_work(), both);
    }
}
