//! Reference-engine oracle: the optimised engines against the simplest
//! possible implementation of the same machine model.
//!
//! [`RefEngine`] keeps one `VecDeque<Packet>` per link and nothing else
//! — no packet pool, no active-link list, no dirty-list reset, no
//! incremental fault schedule (the whole plan is replayed from step 1
//! every step) — and writes FIFO and furthest-first pops the naive way.
//! The properties below pin `Engine::run` and `ShardedEngine::run`
//! (K ∈ {1, 2, 4}) **bit-identical** to it — every `RunOutcome` field,
//! latency histogram buckets and `link_loads` included — over random
//! butterflies, stars and meshes, both disciplines, budget-exhausted
//! runs, random fault plans and long outages (links and nodes down for
//! dozens of steps with traffic queued behind them) — under per-packet
//! routers and under [`OrderSensitive`], a protocol whose output depends
//! on the global order of the engine's callbacks, so it pins the one call
//! order every engine promises (injections first, then each step's
//! arrivals in ascending link id). Under long outages the step samples a
//! traced run reports must also equal the reference's own state at every
//! step boundary.

use lnpram_math::rng::splitmix64;
use lnpram_shard::{LevelCut, Partitioner, RowBlock, ShardedEngine};
use lnpram_simnet::{
    Discipline, Engine, Fault, FaultEvent, FaultPlan, FlightRecorder, Metrics, Outbox, Packet,
    Protocol, SimConfig, StepSample,
};
use lnpram_topology::leveled::{Leveled, LeveledNet, RadixButterfly};
use lnpram_topology::mesh::Dir;
use lnpram_topology::{Mesh, Network, StarGraph};
use proptest::prelude::*;
use std::collections::VecDeque;

/// The naive engine. One step = every unblocked non-empty link moves
/// one packet (ascending link id), then each arrival is handed to the
/// protocol in that same link order. It records its own state at every
/// step boundary in `samples`.
struct RefEngine {
    offset: Vec<usize>,
    target: Vec<usize>,
    queues: Vec<VecDeque<Packet>>,
    high_water: Vec<usize>,
    pops: Vec<u32>,
    pending: Vec<(usize, Packet)>,
    plan: Vec<FaultEvent>,
    cfg: SimConfig,
    metrics: Metrics,
    samples: Vec<StepSample>,
}

impl RefEngine {
    fn new<N: Network + ?Sized>(net: &N, cfg: SimConfig, plan: &FaultPlan) -> Self {
        let mut offset = vec![0];
        let mut target = Vec::new();
        for v in 0..net.num_nodes() {
            target.extend((0..net.out_degree(v)).map(|p| net.neighbor(v, p)));
            offset.push(target.len());
        }
        let links = target.len();
        RefEngine {
            offset,
            target,
            queues: vec![VecDeque::new(); links],
            high_water: vec![0; links],
            pops: vec![0; links],
            pending: Vec::new(),
            plan: plan.events().to_vec(),
            cfg,
            metrics: Metrics::default(),
            samples: Vec::new(),
        }
    }

    fn in_flight(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Is `link` unusable at `step`? Replays every event up to `step`.
    fn blocked(&self, link: usize, step: u32) -> bool {
        let src = self.offset.partition_point(|&o| o <= link) - 1;
        let dst = self.target[link];
        let (mut down, mut period, mut src_down, mut dst_down) = (false, 0u32, false, false);
        for ev in self.plan.iter().filter(|ev| ev.step <= step) {
            match ev.fault {
                Fault::LinkFail { link: l } if l == link => down = true,
                Fault::LinkDegrade { link: l, period: p } if l == link => period = p,
                Fault::LinkRecover { link: l } if l == link => (down, period) = (false, 0),
                Fault::NodeFail { node } | Fault::NodeRecover { node } => {
                    let failed = matches!(ev.fault, Fault::NodeFail { .. });
                    if node == src {
                        src_down = failed;
                    }
                    if node == dst {
                        dst_down = failed;
                    }
                }
                _ => {}
            }
        }
        down || src_down || dst_down || (period >= 2 && !step.is_multiple_of(period))
    }

    fn apply(&mut self, node: usize, out: &mut Outbox, step: u32) {
        for &(port, pkt) in out.sends() {
            assert!(port < self.offset[node + 1] - self.offset[node]);
            let link = self.offset[node] + port;
            self.queues[link].push_back(pkt);
            self.high_water[link] = self.high_water[link].max(self.queues[link].len());
        }
        for pkt in out.delivered() {
            self.metrics.on_delivery(step, pkt.injected_at);
        }
        out.clear();
    }

    fn pop(&mut self, link: usize) -> Option<Packet> {
        let q = &mut self.queues[link];
        let at = match self.cfg.discipline {
            Discipline::Fifo => 0,
            // Largest priority, earliest arrival among equals.
            Discipline::FurthestFirst => {
                let best = q.iter().map(|p| p.priority).max()?;
                q.iter().position(|p| p.priority == best)?
            }
        };
        let pkt = q.remove(at)?;
        self.pops[link] += 1;
        Some(pkt)
    }

    /// Record the state at the end of `step`, `arrivals` packets having
    /// crossed a link in it.
    fn sample(&mut self, step: u32, arrivals: usize) {
        let delivered: usize = self.samples.iter().map(|s| s.deliveries).sum();
        self.samples.push(StepSample {
            step,
            in_flight: self.in_flight(),
            arrivals,
            deliveries: self.metrics.delivered - delivered,
            max_queue_len: self.queues.iter().map(VecDeque::len).max().unwrap_or(0),
            backlog: 0,
        });
    }

    fn run<P: Protocol>(&mut self, proto: &mut P) -> (bool, Metrics) {
        let mut out = Outbox::default();
        for (node, mut pkt) in std::mem::take(&mut self.pending) {
            pkt.injected_at = 0;
            proto.on_packet(node, pkt, 0, &mut out);
            self.apply(node, &mut out, 0);
        }
        proto.on_step_end(0);
        self.sample(0, 0);
        let mut step = 0u32;
        let mut completed = true;
        while self.in_flight() > 0 {
            if step >= self.cfg.max_steps {
                completed = false;
                break;
            }
            step += 1;
            let mut arrivals: Vec<(usize, Packet)> = Vec::new();
            for link in 0..self.queues.len() {
                if !self.blocked(link, step) {
                    arrivals.extend(self.pop(link).map(|pkt| (self.target[link], pkt)));
                }
            }
            for &(node, pkt) in &arrivals {
                proto.on_packet(node, pkt, step, &mut out);
                self.apply(node, &mut out, step);
            }
            proto.on_step_end(step);
            self.metrics.queued_packet_steps += self.in_flight() as u64;
            self.sample(step, arrivals.len());
        }
        self.metrics.steps = step;
        self.metrics.max_queue = self.high_water.iter().copied().max().unwrap_or(0);
        self.metrics.link_loads = self.pops.clone();
        (completed, std::mem::take(&mut self.metrics))
    }
}

/// Every `RunOutcome` field, in comparable form.
type Fingerprint = (bool, usize, u32, usize, u64, u32, Vec<(u64, u64)>, Vec<u32>);

fn fingerprint(completed: bool, m: &Metrics) -> Fingerprint {
    (
        completed,
        m.delivered,
        m.routing_time,
        m.max_queue,
        m.queued_packet_steps,
        m.steps,
        m.latency.buckets().collect(),
        m.link_loads.clone(),
    )
}

/// Dimension-order mesh routing; the priority is the remaining
/// distance, so furthest-first has something to order by.
struct GreedyMesh(Mesh);

impl Protocol for GreedyMesh {
    fn on_packet(&mut self, node: usize, pkt: Packet, _step: u32, out: &mut Outbox) {
        if node == pkt.dest as usize {
            return out.deliver(pkt);
        }
        let (r, c) = self.0.coords(node);
        let (dr, dc) = self.0.coords(pkt.dest as usize);
        let dir = if c < dc {
            Dir::East
        } else if c > dc {
            Dir::West
        } else if r < dr {
            Dir::South
        } else {
            Dir::North
        };
        let port = self.0.port_of_dir(node, dir).expect("interior move");
        let left = self.0.manhattan(node, pkt.dest as usize) as u32;
        out.send(port, pkt.with_priority(left));
    }
}

/// Unique-path butterfly routing; the priority is the packet id.
struct ButterflyRouter(LeveledNet<RadixButterfly>);

impl Protocol for ButterflyRouter {
    fn on_packet(&mut self, node: usize, pkt: Packet, _step: u32, out: &mut Outbox) {
        let lv = self.0.leveled();
        let (col, idx) = self.0.split(node);
        if col == lv.levels() {
            return out.deliver(pkt);
        }
        out.send(lv.digit_toward(col, idx, pkt.dest as usize), pkt);
    }
}

/// Canonical-route star routing.
struct StarRouter(StarGraph);

impl Protocol for StarRouter {
    fn on_packet(&mut self, node: usize, pkt: Packet, _step: u32, out: &mut Outbox) {
        match self.0.canonical_next_port(node, pkt.dest as usize) {
            None => out.deliver(pkt),
            Some(port) => out.send(port, pkt),
        }
    }
}

/// A protocol that is a function of the global call order, not of the
/// packet: every callback draws from a running count of the callbacks
/// before it the port a packet leaves on, its priority, the hops it is
/// charged against its time to live, whether it is absorbed and whether
/// it fans out to two ports, enqueued in **descending** port order. Any
/// engine that hands a step's batch of arrivals over in another order,
/// or enqueues a callback's sends in another order, produces a different
/// run. Packets are delivered once their hops reach `ttl` or at a node
/// without out-links, so every run ends.
struct OrderSensitive {
    degree: Vec<usize>,
    ttl: u8,
    calls: usize,
}

impl OrderSensitive {
    fn new<N: Network + ?Sized>(net: &N, ttl: u8) -> Self {
        OrderSensitive {
            degree: (0..net.num_nodes()).map(|v| net.out_degree(v)).collect(),
            ttl,
            calls: 0,
        }
    }
}

impl Protocol for OrderSensitive {
    fn on_packet(&mut self, node: usize, pkt: Packet, _step: u32, out: &mut Outbox) {
        self.calls += 1;
        let (d, c) = (self.degree[node], self.calls);
        if d == 0 || pkt.hop >= self.ttl {
            out.deliver(pkt);
        } else if c % 7 == 3 {
            out.absorb(pkt);
        } else {
            let mut fwd = pkt.with_priority((c % 5) as u32);
            fwd.hop += 1 + u8::from(c % 3 == 0);
            let port = (pkt.id as usize + c) % d;
            if c % 4 == 1 && d >= 2 {
                let other = (port + 1) % d;
                out.send(port.max(other), fwd);
                out.send(port.min(other), fwd);
            } else {
                out.send(port, fwd);
            }
        }
    }
}

/// `per_node` packets at every node of `net`, injected in a scrambled
/// node order (the injection pass, unlike the process phase, sees nodes
/// in no particular order), then [`check`] under [`OrderSensitive`].
fn check_order_sensitive<N, Q>(
    net: &N,
    part: &Q,
    cfg: &SimConfig,
    state: &mut u64,
    per_node: usize,
    faults: usize,
) -> Result<(), TestCaseError>
where
    N: Network + ?Sized,
    Q: Partitioner,
{
    let n = net.num_nodes();
    let mut inject: Vec<(usize, Packet)> = (0..n * per_node)
        .map(|i| (i % n, Packet::new(i as u32, (i % n) as u32, 0)))
        .collect();
    for i in (1..inject.len()).rev() {
        inject.swap(i, (splitmix64(state) as usize) % (i + 1));
    }
    let ttl = 2 + (splitmix64(state) % 5) as u8;
    let plan = random_plan(state, n, links_of(net), faults, 8);
    check(net, part, cfg, &plan, &inject, false, || {
        OrderSensitive::new(net, ttl)
    })
}

/// Up to `events` random fault events at steps `1..=horizon`.
fn random_plan(
    state: &mut u64,
    nodes: usize,
    links: usize,
    events: usize,
    horizon: u32,
) -> FaultPlan {
    let mut draw = |m: usize| (splitmix64(state) as usize) % m.max(1);
    let events = (0..events)
        .map(|_| {
            let (link, node) = (draw(links), draw(nodes));
            let fault = match draw(5) {
                0 => Fault::LinkFail { link },
                1 => Fault::LinkDegrade {
                    link,
                    period: 1 + draw(4) as u32,
                },
                2 => Fault::LinkRecover { link },
                3 => Fault::NodeFail { node },
                _ => Fault::NodeRecover { node },
            };
            FaultEvent {
                step: 1 + draw(horizon as usize) as u32,
                fault,
            }
        })
        .collect();
    FaultPlan::new(events)
}

/// `outages` links or nodes, each failing at a step in `1..=4` and
/// recovering at a step in `20..=60`: the queues behind them hold their
/// traffic for dozens of steps. A link outage is sometimes a degrade
/// (open on every `period`-th step) that the recovery ends.
fn long_outage_plan(state: &mut u64, nodes: usize, links: usize, outages: usize) -> FaultPlan {
    let mut draw = |m: usize| (splitmix64(state) as usize) % m.max(1);
    let mut events = Vec::new();
    for _ in 0..outages {
        let fail = 1 + draw(4) as u32;
        let recover = 20 + draw(41) as u32;
        let (link, node) = (draw(links), draw(nodes));
        let (down, up) = match draw(4) {
            0 => (Fault::NodeFail { node }, Fault::NodeRecover { node }),
            1 => (
                Fault::LinkDegrade {
                    link,
                    period: 2 + draw(4) as u32,
                },
                Fault::LinkRecover { link },
            ),
            _ => (Fault::LinkFail { link }, Fault::LinkRecover { link }),
        };
        events.push(FaultEvent {
            step: fail,
            fault: down,
        });
        events.push(FaultEvent {
            step: recover,
            fault: up,
        });
    }
    FaultPlan::new(events)
}

/// Run the reference engine, the serial engine and the sharded engine
/// at K ∈ {1, 2, 4} on the same input; all five must agree. `traced`
/// runs the optimised engines with a recorder, whose step samples must
/// equal the reference's.
fn check<N, Q, P>(
    net: &N,
    part: &Q,
    cfg: &SimConfig,
    plan: &FaultPlan,
    inject: &[(usize, Packet)],
    traced: bool,
    mut proto: impl FnMut() -> P,
) -> Result<(), TestCaseError>
where
    N: Network + ?Sized,
    Q: Partitioner,
    P: Protocol,
{
    let mut reference = RefEngine::new(net, cfg.clone(), plan);
    reference.pending = inject.to_vec();
    let (completed, metrics) = reference.run(&mut proto());
    let expect = fingerprint(completed, &metrics);

    let mut serial = Engine::new(net, cfg.clone());
    serial.set_fault_plan(plan).expect("plan in range");
    for &(node, pkt) in inject {
        serial.inject(node, pkt);
    }
    // Every step of runs up to 120 steps long.
    let mut recorder = FlightRecorder::new(1, 128);
    let out = if traced {
        serial.run_traced(&mut proto(), &mut recorder)
    } else {
        serial.run(&mut proto())
    };
    prop_assert_eq!(&fingerprint(out.completed, &out.metrics), &expect);
    prop_assert_eq!(serial.in_flight(), reference.in_flight());
    if traced {
        let got: Vec<StepSample> = recorder.samples().copied().collect();
        prop_assert_eq!(got, reference.samples.clone());
    }

    for k in [1usize, 2, 4] {
        let cfg = SimConfig {
            shards: k,
            ..cfg.clone()
        };
        let mut sharded = ShardedEngine::new(net, cfg, part);
        sharded.set_fault_plan(plan).expect("plan in range");
        for &(node, pkt) in inject {
            sharded.inject(node, pkt);
        }
        recorder.clear();
        let out = if traced {
            sharded.run_traced(&mut proto(), &mut recorder)
        } else {
            sharded.run(&mut proto())
        };
        prop_assert_eq!(
            &fingerprint(out.completed, &out.metrics),
            &expect,
            "K = {}",
            k
        );
        prop_assert_eq!(sharded.in_flight(), reference.in_flight());
        if traced {
            let got: Vec<StepSample> = recorder.samples().copied().collect();
            prop_assert_eq!(got, reference.samples.clone(), "K = {}", k);
        }
    }
    Ok(())
}

/// The run configuration a case draws: discipline, step budget (small
/// budgets leave runs incomplete), link loads always recorded.
fn config(furthest_first: bool, max_steps: u32) -> SimConfig {
    SimConfig {
        discipline: if furthest_first {
            Discipline::FurthestFirst
        } else {
            Discipline::Fifo
        },
        max_steps,
        record_link_loads: true,
        ..SimConfig::default()
    }
}

fn links_of<N: Network + ?Sized>(net: &N) -> usize {
    (0..net.num_nodes()).map(|v| net.out_degree(v)).sum()
}

proptest! {
    // 32 cases, or PROPTEST_CASES if larger (CI's chaos job asks for
    // 256).
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn prop_reference_equals_engines_on_meshes(
        seed: u64,
        rows in 2usize..6,
        cols in 2usize..6,
        per_node in 1usize..4,
        furthest_first: bool,
        max_steps in 1u32..40,
        faults in 0usize..8,
    ) {
        let mesh = Mesh::new(rows, cols);
        let n = mesh.num_nodes();
        let mut state = seed;
        let mut inject = Vec::new();
        for src in 0..n {
            for _ in 0..per_node {
                let dest = (splitmix64(&mut state) as usize) % n;
                inject.push((src, Packet::new(inject.len() as u32, src as u32, dest as u32)));
            }
        }
        let plan = random_plan(&mut state, n, links_of(&mesh), faults, 12);
        check(&mesh, &RowBlock::new(cols), &config(furthest_first, max_steps), &plan, &inject,
            false, || GreedyMesh(mesh))?;
    }

    #[test]
    fn prop_reference_equals_engines_on_butterflies(
        seed: u64,
        radix in 2usize..4,
        levels in 1usize..7,
        per_node in 1usize..4,
        furthest_first: bool,
        max_steps in 1u32..12,
        faults in 0usize..8,
    ) {
        let bf = RadixButterfly::new(radix, levels);
        let net = LeveledNet::forward(bf);
        let width = bf.width();
        let mut state = seed;
        let mut inject = Vec::new();
        for src in 0..width {
            for _ in 0..per_node {
                let dest = (splitmix64(&mut state) as usize) % width;
                let id = inject.len() as u32;
                let pkt = Packet::new(id, src as u32, dest as u32)
                    .with_priority(splitmix64(&mut state) as u32 % 4);
                inject.push((net.node_id(0, src), pkt));
            }
        }
        let plan = random_plan(&mut state, net.num_nodes(), links_of(&net), faults, 6);
        check(&net, &LevelCut::new(width), &config(furthest_first, max_steps), &plan, &inject,
            false, || ButterflyRouter(LeveledNet::forward(bf)))?;
    }

    #[test]
    fn prop_reference_equals_engines_on_stars(
        seed: u64,
        n in 3usize..5,
        per_node in 1usize..3,
        furthest_first: bool,
        max_steps in 1u32..16,
        faults in 0usize..8,
    ) {
        let star = StarGraph::new(n);
        let total = star.num_nodes();
        let mut state = seed;
        let mut inject = Vec::new();
        for src in 0..total {
            for _ in 0..per_node {
                let dest = (splitmix64(&mut state) as usize) % total;
                let id = inject.len() as u32;
                let pkt = Packet::new(id, src as u32, dest as u32)
                    .with_priority(splitmix64(&mut state) as u32 % 4);
                inject.push((src, pkt));
            }
        }
        let plan = random_plan(&mut state, total, links_of(&star), faults, 8);
        // The star's node ids have no structure to align to: plain
        // balanced ranges, where most links cross a shard boundary.
        check(&star, &RowBlock::new(1), &config(furthest_first, max_steps), &plan, &inject,
            false, || StarRouter(star))?;
    }

    #[test]
    fn prop_reference_equals_engines_under_batch_sensitive_protocol(
        seed: u64,
        rows in 2usize..6,
        cols in 2usize..6,
        radix in 2usize..4,
        levels in 1usize..7,
        star_n in 3usize..5,
        per_node in 1usize..3,
        furthest_first: bool,
        max_steps in 1u32..16,
        faults in 0usize..8,
    ) {
        let cfg = config(furthest_first, max_steps);
        let mut state = seed;
        let mesh = Mesh::new(rows, cols);
        check_order_sensitive(&mesh, &RowBlock::new(cols), &cfg, &mut state, per_node, faults)?;
        let bf = RadixButterfly::new(radix, levels);
        check_order_sensitive(&LeveledNet::forward(bf), &LevelCut::new(bf.width()), &cfg,
            &mut state, per_node, faults)?;
        check_order_sensitive(&StarGraph::new(star_n), &RowBlock::new(1), &cfg, &mut state,
            per_node, faults)?;
    }

    /// Long outages: links and nodes fail in steps 1–4 and recover in
    /// steps 20–60 with traffic queued behind them, on meshes (the
    /// per-packet router and [`OrderSensitive`]) and butterflies. Step
    /// budgets up to 120 end some runs before the last recovery. The
    /// optimised engines run traced: every step sample (in flight,
    /// arrivals, deliveries, longest queue, parked ones included) must
    /// be the reference's own state at that step boundary.
    #[test]
    fn prop_reference_equals_engines_under_long_outages(
        seed: u64,
        rows in 2usize..6,
        cols in 2usize..6,
        levels in 1usize..6,
        per_node in 1usize..4,
        furthest_first: bool,
        max_steps in 10u32..120,
        outages in 1usize..6,
    ) {
        let cfg = config(furthest_first, max_steps);
        let mut state = seed;
        let mesh = Mesh::new(rows, cols);
        let n = mesh.num_nodes();
        let mut inject = Vec::new();
        for src in 0..n {
            for _ in 0..per_node {
                let dest = (splitmix64(&mut state) as usize) % n;
                inject.push((src, Packet::new(inject.len() as u32, src as u32, dest as u32)));
            }
        }
        let plan = long_outage_plan(&mut state, n, links_of(&mesh), outages);
        check(&mesh, &RowBlock::new(cols), &cfg, &plan, &inject, true, || GreedyMesh(mesh))?;
        let ttl = 2 + (splitmix64(&mut state) % 5) as u8;
        check(&mesh, &RowBlock::new(cols), &cfg, &plan, &inject, true,
            || OrderSensitive::new(&mesh, ttl))?;

        let bf = RadixButterfly::new(2, levels);
        let net = LeveledNet::forward(bf);
        let width = bf.width();
        let mut inject = Vec::new();
        for src in 0..width {
            for _ in 0..per_node {
                let dest = (splitmix64(&mut state) as usize) % width;
                let id = inject.len() as u32;
                let pkt = Packet::new(id, src as u32, dest as u32)
                    .with_priority(splitmix64(&mut state) as u32 % 4);
                inject.push((net.node_id(0, src), pkt));
            }
        }
        let plan = long_outage_plan(&mut state, net.num_nodes(), links_of(&net), outages);
        check(&net, &LevelCut::new(width), &cfg, &plan, &inject,
            true, || ButterflyRouter(LeveledNet::forward(bf)))?;
    }
}
