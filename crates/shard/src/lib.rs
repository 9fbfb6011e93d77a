//! # lnpram-shard
//!
//! The sharded simulation subsystem: split a
//! [`Network`](lnpram_topology::Network) into `k` ascending node-id
//! ranges, give each range its own [`Engine`](lnpram_simnet::Engine)
//! over its induced sub-CSR, and step all shards in lockstep per global
//! step. A node-local [`Shardable`](lnpram_simnet::Shardable) protocol
//! (every router, with or without the tag demux) runs shard-local on
//! scoped threads, one per shard up to the cores available: each thread
//! transmits its shards, hands the arrivals bound for another shard's
//! nodes to that shard, and processes its own nodes' arrivals in global
//! link-id order. Every other protocol, and every traced run, is driven
//! centrally on the calling thread, reading the shards' arrivals
//! buffers, which concatenate in global link-id order because a shard is
//! always a contiguous node range.
//!
//! The subsystem's invariant — pinned by property tests over random
//! butterflies, stars and meshes — is that a sharded run is
//! **bit-identical** to a single serial `Engine::run` on the whole
//! network: same metrics, same deliveries, same link loads, for any
//! plan and any thread count. Sharding can therefore never move a
//! simulated number. What it buys is time: the threaded path divides a
//! busy step's work over the cores, while the central path costs a few
//! percent (see [`engine`], *Cost model*).
//!
//! * [`partition`] — [`ShardPlan`] (typed [`PlanError`]s for an
//!   assignment that is not a sequence of ascending ranges) and the
//!   [`Partitioner`] strategies that choose where the range boundaries
//!   fall ([`LevelCut`] for leveled networks, [`RowBlock`] for meshes).
//! * [`engine`] — the [`ShardedEngine`] lockstep coordinator and its
//!   threaded loop.
//! * [`any`] — [`AnyEngine`], the serial/sharded dispatch behind
//!   [`SimConfig::shards`](lnpram_simnet::SimConfig) that the routing
//!   sessions and serve construct.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod any;
pub mod engine;
pub mod partition;

pub use any::AnyEngine;
pub use engine::{ShardedEngine, MAX_SHARDS};
pub use partition::{LevelCut, Partitioner, PlanError, RowBlock, ShardPlan};

#[cfg(test)]
mod tests {
    use super::*;
    use lnpram_math::rng::splitmix64;
    use lnpram_simnet::{
        Discipline, Engine, Metrics, Outbox, Packet, Protocol, SimConfig, StepEngine,
    };
    use lnpram_topology::leveled::{Leveled, LeveledNet, RadixButterfly};
    use lnpram_topology::{Mesh, Network, StarGraph};

    /// Observable fingerprint of a run: every `RunOutcome` field,
    /// including the latency histogram buckets and per-link loads.
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

    fn cfg_serial() -> SimConfig {
        SimConfig {
            record_link_loads: true,
            ..Default::default()
        }
    }

    fn cfg_sharded(k: usize) -> SimConfig {
        SimConfig {
            record_link_loads: true,
            shards: k,
            ..Default::default()
        }
    }

    /// Greedy dimension-order mesh router (same as the engine's test
    /// router — cross-shard traffic in every direction).
    #[derive(Clone)]
    struct GreedyMesh {
        mesh: Mesh,
    }

    impl Protocol for GreedyMesh {
        fn on_packet(&mut self, node: usize, pkt: Packet, _step: u32, out: &mut Outbox) {
            if node == pkt.dest as usize {
                out.deliver(pkt);
                return;
            }
            use lnpram_topology::mesh::Dir;
            let (r, c) = self.mesh.coords(node);
            let (dr, dc) = self.mesh.coords(pkt.dest as usize);
            let dir = if c < dc {
                Dir::East
            } else if c > dc {
                Dir::West
            } else if r < dr {
                Dir::South
            } else {
                Dir::North
            };
            let port = self.mesh.port_of_dir(node, dir).expect("valid dir");
            out.send(port, pkt);
        }
    }

    /// Oblivious butterfly router over the forward `LeveledNet` view:
    /// follow the unique path to `pkt.dest`, deliver at the last column.
    struct ButterflyRouter {
        net: LeveledNet<RadixButterfly>,
    }

    impl Protocol for ButterflyRouter {
        fn on_packet(&mut self, node: usize, pkt: Packet, _step: u32, out: &mut Outbox) {
            let lv = self.net.leveled();
            let (col, idx) = self.net.split(node);
            if col == lv.levels() {
                out.deliver(pkt);
                return;
            }
            out.send(lv.digit_toward(col, idx, pkt.dest as usize), pkt);
        }
    }

    /// Canonical-route star router (topology-provided oblivious paths).
    #[derive(Clone)]
    struct StarRouter {
        star: StarGraph,
    }

    impl Protocol for StarRouter {
        fn on_packet(&mut self, node: usize, pkt: Packet, _step: u32, out: &mut Outbox) {
            match self.star.canonical_next_port(node, pkt.dest as usize) {
                None => out.deliver(pkt),
                Some(port) => out.send(port, pkt),
            }
        }
    }

    fn run_serial<N, P>(
        net: &N,
        cfg: SimConfig,
        inject: &[(usize, Packet)],
        proto: &mut P,
    ) -> Fingerprint
    where
        N: Network + ?Sized,
        P: Protocol,
    {
        let mut eng = Engine::new(net, cfg);
        for &(node, pkt) in inject {
            eng.inject(node, pkt);
        }
        let out = eng.run(proto);
        fingerprint(out.completed, &out.metrics)
    }

    fn run_sharded<N, P, Q>(
        net: &N,
        cfg: SimConfig,
        part: &Q,
        inject: &[(usize, Packet)],
        proto: &mut P,
    ) -> Fingerprint
    where
        N: Network + ?Sized,
        P: Protocol,
        Q: Partitioner,
    {
        let mut eng = ShardedEngine::new(net, cfg, part);
        for &(node, pkt) in inject {
            eng.inject(node, pkt);
        }
        let out = eng.run(proto);
        fingerprint(out.completed, &out.metrics)
    }

    /// Serial run under a fault plan: fingerprint plus the stranded
    /// packets in drain order (both must match the sharded run).
    fn run_serial_faulted<N, P>(
        net: &N,
        cfg: SimConfig,
        plan: &lnpram_simnet::FaultPlan,
        inject: &[(usize, Packet)],
        proto: &mut P,
    ) -> (Fingerprint, Vec<Packet>)
    where
        N: Network + ?Sized,
        P: Protocol,
    {
        let mut eng = Engine::new(net, cfg);
        eng.set_fault_plan(plan).expect("valid plan");
        for &(node, pkt) in inject {
            eng.inject(node, pkt);
        }
        let out = eng.run(proto);
        let stranded = eng.drain_all();
        (fingerprint(out.completed, &out.metrics), stranded)
    }

    /// Sharded counterpart of [`run_serial_faulted`].
    fn run_sharded_faulted<N, P, Q>(
        net: &N,
        cfg: SimConfig,
        part: &Q,
        plan: &lnpram_simnet::FaultPlan,
        inject: &[(usize, Packet)],
        proto: &mut P,
    ) -> (Fingerprint, Vec<Packet>)
    where
        N: Network + ?Sized,
        P: Protocol,
        Q: Partitioner,
    {
        let mut eng = ShardedEngine::new(net, cfg, part);
        eng.set_fault_plan(plan).expect("valid plan");
        for &(node, pkt) in inject {
            eng.inject(node, pkt);
        }
        let out = eng.run(proto);
        let stranded = eng.drain_all();
        (fingerprint(out.completed, &out.metrics), stranded)
    }

    /// Deterministic random fault plan over a network with `nodes`
    /// nodes and `links` links: a few link fail/recover pairs, a
    /// degrade, and possibly a node failure, all within `horizon`.
    fn random_fault_plan(
        state: &mut u64,
        nodes: usize,
        links: usize,
        horizon: u32,
    ) -> lnpram_simnet::FaultPlan {
        use lnpram_simnet::{Fault, FaultEvent};
        let mut events = Vec::new();
        let link_faults = (splitmix64(state) % 4) as usize;
        for _ in 0..link_faults {
            let link = (splitmix64(state) as usize) % links;
            let at = 1 + (splitmix64(state) as u32) % horizon;
            events.push(FaultEvent {
                step: at,
                fault: Fault::LinkFail { link },
            });
            if splitmix64(state).is_multiple_of(2) {
                events.push(FaultEvent {
                    step: at + 1 + (splitmix64(state) as u32) % horizon,
                    fault: Fault::LinkRecover { link },
                });
            }
        }
        if splitmix64(state).is_multiple_of(2) {
            let link = (splitmix64(state) as usize) % links;
            events.push(FaultEvent {
                step: 1 + (splitmix64(state) as u32) % horizon,
                fault: Fault::LinkDegrade {
                    link,
                    period: 2 + (splitmix64(state) % 3) as u32,
                },
            });
        }
        if splitmix64(state).is_multiple_of(3) {
            let node = (splitmix64(state) as usize) % nodes;
            let at = 1 + (splitmix64(state) as u32) % horizon;
            events.push(FaultEvent {
                step: at,
                fault: Fault::NodeFail { node },
            });
            if splitmix64(state).is_multiple_of(2) {
                events.push(FaultEvent {
                    step: at + 1 + (splitmix64(state) as u32) % horizon,
                    fault: Fault::NodeRecover { node },
                });
            }
        }
        lnpram_simnet::FaultPlan::new(events)
    }

    #[test]
    fn sharded_equals_serial_on_mesh_all_k() {
        let mesh = Mesh::new(6, 7);
        let n = mesh.num_nodes();
        let mut state = 0xC0FFEE_u64;
        let inject: Vec<(usize, Packet)> = (0..n)
            .map(|src| {
                let dest = (splitmix64(&mut state) as usize) % n;
                (src, Packet::new(src as u32, src as u32, dest as u32))
            })
            .collect();
        let serial = run_serial(&mesh, cfg_serial(), &inject, &mut GreedyMesh { mesh });
        for k in [1usize, 2, 4, 7] {
            let sharded = run_sharded(
                &mesh,
                cfg_sharded(k),
                &RowBlock::new(mesh.cols()),
                &inject,
                &mut GreedyMesh { mesh },
            );
            assert_eq!(serial, sharded, "K={k}");
        }
    }

    #[test]
    fn sharded_equals_serial_on_star() {
        let star_n = 4usize;
        let star = StarGraph::new(star_n); // 24 nodes
        let n = star.num_nodes();
        let inject: Vec<(usize, Packet)> = (0..n)
            .map(|src| {
                let dest = (src * 7 + 3) % n;
                (src, Packet::new(src as u32, src as u32, dest as u32))
            })
            .collect();
        let serial = run_serial(
            &star,
            cfg_serial(),
            &inject,
            &mut StarRouter {
                star: StarGraph::new(star_n),
            },
        );
        for k in [2usize, 4, 7] {
            let sharded = run_sharded(
                &star,
                cfg_sharded(k),
                &RowBlock::new(1),
                &inject,
                &mut StarRouter {
                    star: StarGraph::new(star_n),
                },
            );
            assert_eq!(serial, sharded, "K={k}");
        }
    }

    #[test]
    fn sharded_equals_serial_on_butterfly_h_relation() {
        let inner = RadixButterfly::new(2, 5); // 32 wide
        let net = LeveledNet::forward(inner);
        let width = inner.width();
        let mut state = 0xFEED_u64;
        let mut inject = Vec::new();
        let mut id = 0u32;
        for src in 0..width {
            for _ in 0..3 {
                let dest = (splitmix64(&mut state) as usize) % width;
                inject.push((
                    net.node_id(0, src),
                    Packet::new(id, src as u32, dest as u32),
                ));
                id += 1;
            }
        }
        let serial = run_serial(
            &net,
            cfg_serial(),
            &inject,
            &mut ButterflyRouter {
                net: LeveledNet::forward(inner),
            },
        );
        for k in [2usize, 4, 7] {
            let sharded = run_sharded(
                &net,
                cfg_sharded(k),
                &LevelCut::new(width),
                &inject,
                &mut ButterflyRouter {
                    net: LeveledNet::forward(inner),
                },
            );
            assert_eq!(serial, sharded, "K={k}");
        }
    }

    #[test]
    fn incomplete_runs_match_and_drain_in_same_order() {
        // Tight budget: both paths abort identically and drain the same
        // stranded packets in the same global link order.
        let mesh = Mesh::square(6);
        let n = mesh.num_nodes();
        let cfg = |shards| SimConfig {
            max_steps: 3,
            record_link_loads: true,
            shards,
            ..Default::default()
        };
        let inject: Vec<(usize, Packet)> = (0..n)
            .map(|src| {
                let dest = (src * 29 + 1) % n;
                (src, Packet::new(src as u32, src as u32, dest as u32))
            })
            .collect();
        let mut serial = Engine::new(&mesh, cfg(0));
        let mut sharded = ShardedEngine::new(&mesh, cfg(4), &RowBlock::new(6));
        for &(node, pkt) in &inject {
            serial.inject(node, pkt);
            sharded.inject(node, pkt);
        }
        let a = serial.run(&mut GreedyMesh { mesh });
        let b = sharded.run(&mut GreedyMesh { mesh });
        assert!(!a.completed && !b.completed);
        assert_eq!(
            fingerprint(a.completed, &a.metrics),
            fingerprint(b.completed, &b.metrics)
        );
        assert_eq!(serial.in_flight(), sharded.in_flight());
        assert_eq!(serial.drain_all(), sharded.drain_all());
        assert_eq!(serial.in_flight(), 0);
        assert_eq!(sharded.in_flight(), 0);
    }

    #[test]
    fn furthest_first_discipline_matches() {
        let mesh = Mesh::square(5);
        let n = mesh.num_nodes();
        let cfg = |shards| SimConfig {
            discipline: Discipline::FurthestFirst,
            record_link_loads: true,
            shards,
            ..Default::default()
        };
        let mut state = 7_u64;
        let inject: Vec<(usize, Packet)> = (0..n)
            .flat_map(|src| {
                let d1 = (splitmix64(&mut state) as usize) % n;
                let d2 = (splitmix64(&mut state) as usize) % n;
                [
                    (
                        src,
                        Packet::new((2 * src) as u32, src as u32, d1 as u32)
                            .with_priority((splitmix64(&mut state) % 5) as u32),
                    ),
                    (
                        src,
                        Packet::new((2 * src + 1) as u32, src as u32, d2 as u32)
                            .with_priority((splitmix64(&mut state) % 5) as u32),
                    ),
                ]
            })
            .collect();
        let serial = run_serial(&mesh, cfg(0), &inject, &mut GreedyMesh { mesh });
        let sharded = run_sharded(
            &mesh,
            cfg(3),
            &RowBlock::new(5),
            &inject,
            &mut GreedyMesh { mesh },
        );
        assert_eq!(serial, sharded);
    }

    #[test]
    fn reset_then_rerun_matches_fresh_sharded_engine() {
        let mesh = Mesh::square(6);
        let n = mesh.num_nodes();
        let part = RowBlock::new(6);
        let mut reused = ShardedEngine::new(&mesh, cfg_sharded(4), &part);
        for round in 0..4usize {
            reused.reset();
            let mut fresh = ShardedEngine::new(&mesh, cfg_sharded(4), &part);
            let mut state = round as u64 ^ 0xBEEF;
            for src in 0..n {
                let dest = (splitmix64(&mut state) as usize) % n;
                let pkt = Packet::new(src as u32, src as u32, dest as u32);
                reused.inject(src, pkt);
                fresh.inject(src, pkt);
            }
            let a = reused.run(&mut GreedyMesh { mesh });
            let b = fresh.run(&mut GreedyMesh { mesh });
            assert_eq!(
                fingerprint(a.completed, &a.metrics),
                fingerprint(b.completed, &b.metrics),
                "round {round}"
            );
            assert_eq!(reused.link_loads(), fresh.link_loads());
        }
    }

    #[test]
    fn any_engine_dispatches_on_shards_knob() {
        let mesh = Mesh::square(4);
        let serial = AnyEngine::new(&mesh, SimConfig::default());
        assert!(!serial.is_sharded());
        let sharded = AnyEngine::new(
            &mesh,
            SimConfig {
                shards: 3,
                ..Default::default()
            },
        );
        assert!(sharded.is_sharded());
    }

    #[test]
    fn any_engine_serial_and_sharded_agree() {
        let mesh = Mesh::square(6);
        let n = mesh.num_nodes();
        let run = |shards: usize| {
            let cfg = SimConfig {
                record_link_loads: true,
                shards,
                ..Default::default()
            };
            let mut eng = AnyEngine::with_partitioner(&mesh, cfg, &RowBlock::new(6));
            for src in 0..n {
                let dest = (src * 31 + 17) % n;
                eng.inject(src, Packet::new(src as u32, src as u32, dest as u32));
            }
            let out = eng.run(&mut GreedyMesh { mesh });
            (fingerprint(out.completed, &out.metrics), eng.link_loads())
        };
        assert_eq!(run(0), run(4));
    }

    /// `block_link` past a node's last port, on either engine: node 1 of
    /// a 4-node path has ports 0 and 1.
    fn block_past_last_port(shards: usize) {
        let path = Mesh::linear(4);
        let cfg = SimConfig {
            shards,
            ..Default::default()
        };
        let mut eng = AnyEngine::new(&path, cfg);
        eng.block_link(1, path.out_degree(1));
    }

    #[test]
    #[should_panic(expected = "block_link on invalid port 2 of node 1")]
    fn serial_block_link_checks_its_port() {
        block_past_last_port(0);
    }

    #[test]
    #[should_panic(expected = "block_link on invalid port 2 of node 1")]
    fn sharded_block_link_checks_its_port() {
        block_past_last_port(2);
    }

    /// An injection at a node the network lacks fails where it is made,
    /// not later in an owner lookup of the process phase.
    #[test]
    #[should_panic(expected = "inject at node 4 out of range 0..4")]
    fn sharded_inject_past_the_last_node_panics() {
        let mut eng = ShardedEngine::new(&Mesh::linear(4), cfg_sharded(2), &RowBlock::new(1));
        eng.inject(4, Packet::new(0, 0, 0));
    }

    /// Sends land straight on the owning shard's links, so a send past
    /// the node's last port must panic there, naming the global node:
    /// node 3 of a 4-node path is local node 1 of the second shard. Both
    /// the central loop and the threaded one (two members, every step
    /// shared) must say so.
    #[test]
    #[should_panic(expected = "protocol sent on invalid port 1 of node 3")]
    fn sharded_send_on_invalid_port_names_the_global_node() {
        let path = Mesh::linear(4);
        let mut eng = ShardedEngine::new(&path, cfg_sharded(2), &RowBlock::new(1));
        assert_eq!(eng.shards(), 2);
        eng.inject(3, Packet::new(0, 3, 0));
        let mut proto = |node: usize, pkt: Packet, _s: u32, out: &mut Outbox| {
            out.send(path.out_degree(node), pkt);
        };
        let central = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eng.run(&mut proto);
        }));
        let message = central.expect_err("the central loop must panic");
        assert_eq!(
            message.downcast_ref::<String>().map(String::as_str),
            Some("protocol sent on invalid port 1 of node 3")
        );
        let mut split = threaded::Witness::new(SendPastLastPort { path }, 4);
        eng.reset();
        eng.inject(3, Packet::new(0, 3, 0));
        let max_steps = eng.max_steps();
        eng.run_threaded(
            &mut split,
            &mut lnpram_simnet::NoopSink,
            &mut lnpram_simnet::NoAdmission,
            max_steps,
            2,
            0,
        );
    }

    /// Sends every packet past its node's last port.
    #[derive(Clone)]
    struct SendPastLastPort {
        path: Mesh,
    }

    impl Protocol for SendPastLastPort {
        fn on_packet(&mut self, node: usize, pkt: Packet, _step: u32, out: &mut Outbox) {
            out.send(self.path.out_degree(node), pkt);
        }
    }

    #[test]
    fn shard_count_above_node_count_is_clamped_and_equivalent() {
        // Satellite regression: K > n used to hand the partitioner a
        // shard count it could only satisfy with empty shards.
        // `ShardedEngine::new` clamps K to the node count; outcomes stay
        // bit-identical to serial either way.
        use lnpram_topology::graph::ExplicitNetwork;
        let star3 = ExplicitNetwork::undirected(3, &[(0, 1), (0, 2)], "star3");
        let inject: Vec<(usize, Packet)> = vec![
            (1, Packet::new(0, 1, 2)),
            (2, Packet::new(1, 2, 1)),
            (0, Packet::new(2, 0, 1)),
        ];
        // Direct router: hub-and-spoke — port 0 of a leaf is the hub.
        struct Star3Router;
        impl Protocol for Star3Router {
            fn on_packet(&mut self, node: usize, pkt: Packet, _step: u32, out: &mut Outbox) {
                if node == pkt.dest as usize {
                    out.deliver(pkt);
                } else if node == 0 {
                    out.send(pkt.dest as usize - 1, pkt);
                } else {
                    out.send(0, pkt);
                }
            }
        }
        let serial = run_serial(&star3, cfg_serial(), &inject, &mut Star3Router);
        let eng = ShardedEngine::new(&star3, cfg_sharded(7), &RowBlock::new(1));
        assert_eq!(eng.shards(), 3, "K=7 on 3 nodes must clamp to 3");
        let unaligned = run_sharded(
            &star3,
            cfg_sharded(7),
            &RowBlock::new(1),
            &inject,
            &mut Star3Router,
        );
        assert_eq!(serial, unaligned, "contiguous K>n");
        let level = run_sharded(
            &star3,
            cfg_sharded(9),
            &LevelCut::new(1),
            &inject,
            &mut Star3Router,
        );
        assert_eq!(serial, level, "level-cut K>n");
        // AnyEngine takes the same path.
        let mut any = AnyEngine::new(&star3, cfg_sharded(7));
        assert!(any.is_sharded());
        for &(node, pkt) in &inject {
            any.inject(node, pkt);
        }
        let out = any.run(&mut Star3Router);
        assert_eq!(serial, fingerprint(out.completed, &out.metrics));
    }

    #[test]
    fn explicit_plan_with_empty_shard_is_simulated_correctly() {
        // Explicit plans are not clamped: an empty shard is legal and
        // must not perturb the determinism contract.
        let mesh = Mesh::square(4);
        let n = mesh.num_nodes();
        let inject: Vec<(usize, Packet)> = (0..n)
            .map(|src| {
                let dest = (src * 5 + 2) % n;
                (src, Packet::new(src as u32, src as u32, dest as u32))
            })
            .collect();
        let serial = run_serial(&mesh, cfg_serial(), &inject, &mut GreedyMesh { mesh });
        // Shard 1 owns nothing; shards 0 and 2 split the mesh in halves.
        let plan = ShardPlan::new((0..n).map(|v| if v < n / 2 { 0 } else { 2 }).collect(), 3)
            .expect("ascending ranges, shard 1 empty");
        let mut eng = ShardedEngine::with_plan(&mesh, cfg_sharded(3), plan);
        for &(node, pkt) in &inject {
            eng.inject(node, pkt);
        }
        let out = eng.run(&mut GreedyMesh { mesh });
        assert_eq!(serial, fingerprint(out.completed, &out.metrics));
    }

    #[test]
    fn stateful_protocol_sees_serial_callback_order() {
        // A protocol that hashes its full callback sequence: the sharded
        // path must replay the serial order exactly (this is what keeps
        // Ranade-style combining correct with no protocol adaptation).
        struct Tracing {
            mesh: Mesh,
            hash: u64,
        }
        impl Protocol for Tracing {
            fn on_packet(&mut self, node: usize, pkt: Packet, step: u32, out: &mut Outbox) {
                let mut x = self
                    .hash
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((node as u64) << 32 | (pkt.id as u64) << 8 | step as u64);
                self.hash = splitmix64(&mut x);
                GreedyMesh { mesh: self.mesh }.on_packet(node, pkt, step, out);
            }
            fn on_step_end(&mut self, step: u32) {
                self.hash = self.hash.rotate_left(7) ^ u64::from(step);
            }
        }
        let mesh = Mesh::square(6);
        let n = mesh.num_nodes();
        let inject: Vec<(usize, Packet)> = (0..n)
            .map(|src| {
                (
                    src,
                    Packet::new(src as u32, src as u32, ((src * 13 + 5) % n) as u32),
                )
            })
            .collect();
        let mut a = Tracing { mesh, hash: 1 };
        let mut b = Tracing { mesh, hash: 1 };
        let fa = run_serial(&mesh, cfg_serial(), &inject, &mut a);
        let fb = run_sharded(&mesh, cfg_sharded(4), &RowBlock::new(6), &inject, &mut b);
        assert_eq!(fa, fb);
        assert_eq!(a.hash, b.hash, "callback sequences diverged");
    }

    #[test]
    fn every_shard_reports_its_boundary_traffic_on_every_step() {
        // 256 packets in flight at K = 2: a listening sink must see each
        // shard's transmit window and boundary count on every step, and
        // the count must be what the plan says crossed.
        struct Hops {
            mesh: Mesh,
            plan: ShardPlan,
            /// Node each packet was last seen at.
            at: Vec<usize>,
            /// Per step, per tail shard: arrivals whose head node another
            /// shard owns.
            crossed: Vec<[usize; 2]>,
        }
        impl Protocol for Hops {
            fn on_packet(&mut self, node: usize, pkt: Packet, step: u32, out: &mut Outbox) {
                let from = std::mem::replace(&mut self.at[pkt.id as usize], node);
                if step > 0 {
                    self.crossed.resize(step as usize + 1, [0; 2]);
                    let tail = self.plan.shard_of(from);
                    if tail != self.plan.shard_of(node) {
                        self.crossed[step as usize][tail] += 1;
                    }
                }
                GreedyMesh { mesh: self.mesh }.on_packet(node, pkt, step, out);
            }
        }
        #[derive(Default)]
        struct Boundaries {
            step: u32,
            windows: usize,
            seen: Vec<(u32, usize, usize)>,
        }
        impl lnpram_simnet::TraceSink for Boundaries {
            fn on_step_begin(&mut self, step: u32) {
                self.step = step;
            }
            fn on_shard_phase_end(&mut self, _shard: usize, _phase: lnpram_simnet::Phase) {
                self.windows += 1;
            }
            fn on_boundary(&mut self, shard: usize, packets: usize) {
                self.seen.push((self.step, shard, packets));
            }
        }

        let mesh = Mesh::square(16);
        let n = mesh.num_nodes();
        let cfg = SimConfig {
            shards: 2,
            ..Default::default()
        };
        let plan = RowBlock::new(16).partition(&mesh, 2);
        let mut eng = ShardedEngine::with_plan(&mesh, cfg, plan.clone());
        for src in 0..n {
            eng.inject(
                src,
                Packet::new(src as u32, src as u32, (n - 1 - src) as u32),
            );
        }
        let mut proto = Hops {
            mesh,
            plan,
            at: (0..n).collect(),
            crossed: Vec::new(),
        };
        let mut sink = Boundaries::default();
        let out = eng.run_traced(&mut proto, &mut sink);
        assert!(out.completed);
        let steps = out.metrics.steps as usize;
        assert_eq!(sink.windows, 2 * steps);
        let expected: Vec<(u32, usize, usize)> = (1..=steps)
            .flat_map(|t| [0, 1].map(|s| (t as u32, s, proto.crossed[t][s])))
            .collect();
        assert_eq!(sink.seen, expected);
        assert!(sink.seen.iter().any(|&(_, _, packets)| packets > 0));
    }

    /// Shard-local stepping on scoped threads, with the member count and
    /// the shared-step threshold forced (the public path picks them from
    /// the cores and the load): every step shared, none shared, and more
    /// members than this machine may have cores.
    mod threaded {
        use super::*;
        use lnpram_simnet::{FaultPlan, NoAdmission, NoopSink, Shardable};
        use std::sync::mpsc;
        use std::time::Duration;

        /// A node-local protocol that keeps, per node, an order-sensitive
        /// hash of the callbacks it took. Merging refuses a node two
        /// clones touched, so a threaded run's merged record equals the
        /// serial record only if every node's callbacks all ran on one
        /// clone, in the serial order.
        #[derive(Clone)]
        pub(super) struct Witness<P> {
            pub(super) inner: P,
            pub(super) seen: Vec<u64>,
            pub(super) step_ends: u64,
        }

        impl<P> Witness<P> {
            pub(super) fn new(inner: P, nodes: usize) -> Self {
                Witness {
                    inner,
                    seen: vec![0; nodes],
                    step_ends: 0,
                }
            }
        }

        impl<P: Protocol> Protocol for Witness<P> {
            fn on_packet(&mut self, node: usize, pkt: Packet, step: u32, out: &mut Outbox) {
                let key = u64::from(pkt.id) << 32 | u64::from(step);
                let h = &mut self.seen[node];
                *h = (h.rotate_left(7) ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                self.inner.on_packet(node, pkt, step, out);
            }

            fn on_step_end(&mut self, step: u32) {
                self.step_ends += u64::from(step) + 1;
                self.inner.on_step_end(step);
            }
        }

        impl<P: Protocol + Clone + Send> Shardable for Witness<P> {
            fn merge(&mut self, part: Self) {
                for (node, (mine, theirs)) in self.seen.iter_mut().zip(part.seen).enumerate() {
                    if theirs != 0 {
                        assert_eq!(*mine, 0, "two clones took callbacks at node {node}");
                        *mine = theirs;
                    }
                }
                // Every clone sees every step end.
                self.step_ends = self.step_ends.max(part.step_ends);
            }
        }

        /// The oblivious butterfly router over a borrowed view.
        #[derive(Clone, Copy)]
        pub(super) struct Hop<'a>(pub(super) &'a LeveledNet<RadixButterfly>);

        impl Protocol for Hop<'_> {
            fn on_packet(&mut self, node: usize, pkt: Packet, _step: u32, out: &mut Outbox) {
                let lv = self.0.leveled();
                let (col, idx) = self.0.split(node);
                if col == lv.levels() {
                    out.deliver(pkt);
                } else {
                    out.send(lv.digit_toward(col, idx, pkt.dest as usize), pkt);
                }
            }
        }

        /// What a run leaves behind: its fingerprint, the witness record
        /// and the stranded packets in drain order.
        pub(super) type Outcome = (Fingerprint, Vec<u64>, u64, Vec<Packet>);

        /// The serial run of `proto` under `plan`.
        pub(super) fn serial<N, P>(
            net: &N,
            cfg: SimConfig,
            plan: &FaultPlan,
            inject: &[(usize, Packet)],
            proto: P,
        ) -> Outcome
        where
            N: Network + ?Sized,
            P: Protocol + Clone + Send,
        {
            let mut eng = Engine::new(net, cfg);
            eng.set_fault_plan(plan).expect("valid plan");
            for &(node, pkt) in inject {
                eng.inject(node, pkt);
            }
            let mut w = Witness::new(proto, net.num_nodes());
            let out = eng.run(&mut w);
            let stranded = eng.drain_all();
            (
                fingerprint(out.completed, &out.metrics),
                w.seen,
                w.step_ends,
                stranded,
            )
        }

        /// The threaded run with `members` members, sharing every step
        /// that starts with at least `shared_min_load` packets queued outside
        /// the busiest lane.
        #[expect(
            clippy::too_many_arguments,
            reason = "a test driver spelling out every forced choice"
        )]
        pub(super) fn threaded<N, P, Q>(
            net: &N,
            cfg: SimConfig,
            part: &Q,
            plan: &FaultPlan,
            inject: &[(usize, Packet)],
            proto: P,
            members: usize,
            shared_min_load: usize,
        ) -> Outcome
        where
            N: Network + ?Sized,
            P: Protocol + Clone + Send,
            Q: Partitioner,
        {
            let mut eng = ShardedEngine::new(net, cfg, part);
            eng.set_fault_plan(plan).expect("valid plan");
            for &(node, pkt) in inject {
                eng.inject(node, pkt);
            }
            let mut w = Witness::new(proto, net.num_nodes());
            let max_steps = eng.max_steps();
            let members = members.min(eng.shards());
            let out = eng.run_threaded(
                &mut w,
                &mut NoopSink,
                &mut NoAdmission,
                max_steps,
                members,
                shared_min_load,
            );
            assert_eq!(eng.check_invariants(), Ok(()));
            let stranded = eng.drain_all();
            (
                fingerprint(out.completed, &out.metrics),
                w.seen,
                w.step_ends,
                stranded,
            )
        }

        fn no_faults() -> FaultPlan {
            FaultPlan::new(Vec::new())
        }

        #[test]
        fn threaded_equals_serial_on_mesh_star_and_butterfly() {
            let mesh = Mesh::new(6, 7);
            let n = mesh.num_nodes();
            let mut state = 0x5EED_u64;
            let inject: Vec<(usize, Packet)> = (0..3 * n)
                .map(|i| {
                    let dest = (splitmix64(&mut state) as usize) % n;
                    (i % n, Packet::new(i as u32, (i % n) as u32, dest as u32))
                })
                .collect();
            let want = serial(
                &mesh,
                cfg_serial(),
                &no_faults(),
                &inject,
                GreedyMesh { mesh },
            );
            for (k, members, shared) in [(2, 2, 0), (4, 2, 0), (4, 4, 0), (7, 7, 0), (7, 3, 64)] {
                let got = threaded(
                    &mesh,
                    cfg_sharded(k),
                    &RowBlock::new(mesh.cols()),
                    &no_faults(),
                    &inject,
                    GreedyMesh { mesh },
                    members,
                    shared,
                );
                assert_eq!(want, got, "mesh K={k} members={members} shared>={shared}");
            }

            let star = StarGraph::new(4);
            let n = star.num_nodes();
            let inject: Vec<(usize, Packet)> = (0..n)
                .map(|src| {
                    (
                        src,
                        Packet::new(src as u32, src as u32, ((src * 7 + 3) % n) as u32),
                    )
                })
                .collect();
            let router = StarRouter { star };
            let want = serial(&star, cfg_serial(), &no_faults(), &inject, router.clone());
            for k in [2, 3, 5] {
                let got = threaded(
                    &star,
                    cfg_sharded(k),
                    &RowBlock::new(1),
                    &no_faults(),
                    &inject,
                    router.clone(),
                    k,
                    0,
                );
                assert_eq!(want, got, "star K={k}");
            }

            let inner = RadixButterfly::new(2, 5);
            let net = LeveledNet::forward(inner);
            let width = inner.width();
            let inject: Vec<(usize, Packet)> = (0..2 * width)
                .map(|i| {
                    let dest = (splitmix64(&mut state) as usize) % width;
                    let src = i % width;
                    (
                        net.node_id(0, src),
                        Packet::new(i as u32, src as u32, dest as u32),
                    )
                })
                .collect();
            let want = serial(&net, cfg_serial(), &no_faults(), &inject, Hop(&net));
            for (k, part) in [
                (2, LevelCut::new(width)),
                (4, LevelCut::new(width)),
                (3, LevelCut::new(1)),
            ] {
                let got = threaded(
                    &net,
                    cfg_sharded(k),
                    &part,
                    &no_faults(),
                    &inject,
                    Hop(&net),
                    k,
                    0,
                );
                assert_eq!(want, got, "butterfly K={k}");
            }
        }

        #[test]
        fn budget_exhausted_threaded_run_matches_serial() {
            let mesh = Mesh::square(6);
            let n = mesh.num_nodes();
            let cfg = |shards| SimConfig {
                max_steps: 3,
                record_link_loads: true,
                shards,
                ..Default::default()
            };
            let inject: Vec<(usize, Packet)> = (0..n)
                .map(|src| {
                    (
                        src,
                        Packet::new(src as u32, src as u32, ((src * 29 + 1) % n) as u32),
                    )
                })
                .collect();
            let want = serial(&mesh, cfg(0), &no_faults(), &inject, GreedyMesh { mesh });
            assert!(!want.0 .0, "the budget must cut the run short");
            for shared in [0, usize::MAX] {
                let got = threaded(
                    &mesh,
                    cfg(3),
                    &RowBlock::new(6),
                    &no_faults(),
                    &inject,
                    GreedyMesh { mesh },
                    3,
                    shared,
                );
                assert_eq!(want, got, "shared>={shared}");
            }
        }

        /// A node-local router that sends past node 3's last port: node 3
        /// of a 4-node path is local node 1 of the second shard.
        #[derive(Clone)]
        struct PastLastPort {
            path: Mesh,
        }

        impl Protocol for PastLastPort {
            fn on_packet(&mut self, node: usize, pkt: Packet, _step: u32, out: &mut Outbox) {
                let port = if node == 3 {
                    self.path.out_degree(node)
                } else {
                    self.path
                        .port_of_dir(node, lnpram_topology::mesh::Dir::East)
                        .expect("east")
                };
                out.send(port, pkt);
            }
        }

        impl Shardable for PastLastPort {
            fn merge(&mut self, _part: Self) {}
        }

        /// Drive `PastLastPort` from `src` on a threaded run over the
        /// 4-node path, on a thread of its own: the run's panic message,
        /// or `None` if the run hung for a minute; then a good run on the
        /// same engine, which must still equal the serial one.
        fn past_last_port_from(src: usize) -> Option<String> {
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let path = Mesh::linear(4);
                let mut eng = ShardedEngine::new(&path, cfg_sharded(2), &RowBlock::new(1));
                let max_steps = eng.max_steps();
                eng.inject(src, Packet::new(0, src as u32, 3));
                let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut proto = PastLastPort { path };
                    eng.run_threaded(&mut proto, &mut NoopSink, &mut NoAdmission, max_steps, 2, 0);
                }));
                let message = failed.err().map(|payload| {
                    payload
                        .downcast_ref::<String>()
                        .cloned()
                        .unwrap_or_else(|| "a panic without a message".into())
                });
                // The engines came back: the engine runs on, as serial.
                eng.reset();
                let inject = [(0, Packet::new(1, 0, 3)), (3, Packet::new(2, 3, 0))];
                for &(node, pkt) in &inject {
                    eng.inject(node, pkt);
                }
                let mut proto = Witness::new(GreedyMesh { mesh: path }, 4);
                let out =
                    eng.run_threaded(&mut proto, &mut NoopSink, &mut NoAdmission, max_steps, 2, 0);
                let want = serial(
                    &path,
                    cfg_sharded(0),
                    &no_faults(),
                    &inject,
                    GreedyMesh { mesh: path },
                );
                assert_eq!(fingerprint(out.completed, &out.metrics), want.0);
                let _ = tx.send(message);
            });
            rx.recv_timeout(Duration::from_secs(60)).ok().flatten()
        }

        /// The injection is fed by the caller: its panic fails the run
        /// and the worker, waiting at the barrier, is let go.
        #[test]
        #[should_panic(expected = "protocol sent on invalid port 1 of node 3")]
        fn caller_panic_fails_the_threaded_run() {
            if let Some(message) = past_last_port_from(3) {
                panic!("{message}");
            }
        }

        /// Shard 1's worker panics at step 3 while shard 0's member, the
        /// caller, waits at the barrier: the run fails with the worker's
        /// own message instead of hanging (the driver gives up after a
        /// minute).
        #[test]
        fn worker_panic_fails_the_run_with_its_message() {
            let message = past_last_port_from(0).expect("the run hung instead of failing");
            assert!(
                message.contains("protocol sent on invalid port 1 of node 3"),
                "{message}"
            );
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // 24 cases, or PROPTEST_CASES if larger (CI's chaos job asks
            // for 64).
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// The fault-subsystem pin: for ANY random `FaultPlan` —
            /// link fail/degrade/recover, node failures, recoveries —
            /// sharded(K) == serial at K ∈ {1,2,4,7}: identical
            /// fingerprint (even when the run aborts incomplete with
            /// stranded packets) and identical drain order.
            #[test]
            fn prop_sharded_equals_serial_under_fault_plans(
                seed: u64,
                rows in 2usize..7,
                cols in 2usize..7,
            ) {
                let mesh = Mesh::new(rows, cols);
                let n = mesh.num_nodes();
                let mut state = seed;
                let inject: Vec<(usize, Packet)> = (0..n)
                    .map(|src| {
                        let dest = (splitmix64(&mut state) as usize) % n;
                        (src, Packet::new(src as u32, src as u32, dest as u32))
                    })
                    .collect();
                let links = Engine::new(&mesh, cfg_serial()).num_links();
                let plan = random_fault_plan(&mut state, n, links, 12);
                // Permanent faults can strand packets: bound the run so
                // the incomplete outcome itself is part of the pin.
                let bounded = |cfg: SimConfig| SimConfig { max_steps: 200, ..cfg };
                let serial = run_serial_faulted(
                    &mesh, bounded(cfg_serial()), &plan, &inject, &mut GreedyMesh { mesh });
                for k in [1usize, 2, 4, 7] {
                    let sharded = run_sharded_faulted(
                        &mesh,
                        bounded(cfg_sharded(k)),
                        &RowBlock::new(mesh.cols()),
                        &plan,
                        &inject,
                        &mut GreedyMesh { mesh },
                    );
                    prop_assert_eq!(&serial.0, &sharded.0, "fingerprint K={}", k);
                    prop_assert_eq!(&serial.1, &sharded.1, "drain order K={}", k);
                }
            }

            /// The same pin for shard-local stepping on threads: for any
            /// fault plan, the threaded run at K ∈ {2,3,4,7} with two
            /// members and with K members, sharing every step or only
            /// the busier ones, equals serial — fingerprint, every
            /// node's callback sequence, step ends and drain order.
            #[test]
            fn prop_threaded_equals_serial_under_fault_plans(
                seed: u64,
                rows in 2usize..7,
                cols in 2usize..7,
                shared in 0usize..24,
            ) {
                let mesh = Mesh::new(rows, cols);
                let n = mesh.num_nodes();
                let mut state = seed;
                let inject: Vec<(usize, Packet)> = (0..2 * n)
                    .map(|i| {
                        let dest = (splitmix64(&mut state) as usize) % n;
                        (i % n, Packet::new(i as u32, (i % n) as u32, dest as u32))
                    })
                    .collect();
                let links = Engine::new(&mesh, cfg_serial()).num_links();
                let plan = random_fault_plan(&mut state, n, links, 12);
                let bounded = |cfg: SimConfig| SimConfig { max_steps: 200, ..cfg };
                let want = threaded::serial(
                    &mesh, bounded(cfg_serial()), &plan, &inject, GreedyMesh { mesh });
                for k in [2usize, 3, 4, 7] {
                    for members in [2, k] {
                        let got = threaded::threaded(
                            &mesh,
                            bounded(cfg_sharded(k)),
                            &RowBlock::new(mesh.cols()),
                            &plan,
                            &inject,
                            GreedyMesh { mesh },
                            members,
                            shared,
                        );
                        prop_assert_eq!(&want, &got, "K={} members={}", k, members);
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// The tentpole pin: sharded(K) == serial for K ∈ {1,2,4,7}
            /// on random meshes with random many-one workloads.
            #[test]
            fn prop_sharded_equals_serial_mesh(
                seed: u64,
                rows in 2usize..7,
                cols in 2usize..7,
                load in 1usize..3,
            ) {
                let mesh = Mesh::new(rows, cols);
                let n = mesh.num_nodes();
                let mut state = seed;
                let mut inject = Vec::new();
                let mut id = 0u32;
                for src in 0..n {
                    for _ in 0..load {
                        let dest = (splitmix64(&mut state) as usize) % n;
                        inject.push((src, Packet::new(id, src as u32, dest as u32)));
                        id += 1;
                    }
                }
                let serial = run_serial(&mesh, cfg_serial(), &inject, &mut GreedyMesh { mesh });
                for k in [1usize, 2, 4, 7] {
                    let sharded = run_sharded(
                        &mesh,
                        cfg_sharded(k),
                        &RowBlock::new(mesh.cols()),
                        &inject,
                        &mut GreedyMesh { mesh },
                    );
                    prop_assert_eq!(&serial, &sharded, "K={}", k);
                }
            }

            /// Sharded == serial on random butterflies under random
            /// h-relations, for both column-aligned and unaligned ranges.
            #[test]
            fn prop_sharded_equals_serial_butterfly(
                seed: u64,
                dims in 2usize..5,
                h in 1usize..4,
                k in 2usize..6,
            ) {
                let inner = RadixButterfly::new(2, dims);
                let net = LeveledNet::forward(inner);
                let width = inner.width();
                let mut state = seed;
                let mut inject = Vec::new();
                let mut id = 0u32;
                for src in 0..width {
                    for _ in 0..h {
                        let dest = (splitmix64(&mut state) as usize) % width;
                        inject.push((net.node_id(0, src), Packet::new(id, src as u32, dest as u32)));
                        id += 1;
                    }
                }
                let serial = run_serial(&net, cfg_serial(), &inject, &mut ButterflyRouter { net: LeveledNet::forward(inner) });
                let level = run_sharded(
                    &net, cfg_sharded(k), &LevelCut::new(width), &inject,
                    &mut ButterflyRouter { net: LeveledNet::forward(inner) });
                prop_assert_eq!(&serial, &level);
                let unaligned = run_sharded(
                    &net, cfg_sharded(k), &RowBlock::new(1), &inject,
                    &mut ButterflyRouter { net: LeveledNet::forward(inner) });
                prop_assert_eq!(&serial, &unaligned);
            }

            /// Sharded == serial on random stars (permutation-ish
            /// traffic over canonical routes).
            #[test]
            fn prop_sharded_equals_serial_star(seed: u64, star_n in 3usize..5, k in 2usize..6) {
                let star = StarGraph::new(star_n);
                let nodes = star.num_nodes();
                let mut state = seed;
                let inject: Vec<(usize, Packet)> = (0..nodes)
                    .map(|src| {
                        let dest = (splitmix64(&mut state) as usize) % nodes;
                        (src, Packet::new(src as u32, src as u32, dest as u32))
                    })
                    .collect();
                let serial = run_serial(&star, cfg_serial(), &inject, &mut StarRouter { star: StarGraph::new(star_n) });
                let sharded = run_sharded(
                    &star, cfg_sharded(k), &RowBlock::new(1), &inject,
                    &mut StarRouter { star: StarGraph::new(star_n) });
                prop_assert_eq!(serial, sharded);
            }

            /// reset() + rerun on one ShardedEngine equals a fresh
            /// ShardedEngine, for any workload and K.
            #[test]
            fn prop_sharded_reset_equals_fresh(seed: u64, side in 2usize..6, k in 2usize..6) {
                let mesh = Mesh::square(side);
                let n = mesh.num_nodes();
                let part = RowBlock::new(side);
                let mut reused = ShardedEngine::new(&mesh, cfg_sharded(k), &part);
                for round in 0..3u64 {
                    reused.reset();
                    let mut fresh = ShardedEngine::new(&mesh, cfg_sharded(k), &part);
                    let mut state = seed ^ round;
                    for src in 0..n {
                        let dest = (splitmix64(&mut state) as usize) % n;
                        let pkt = Packet::new(src as u32, src as u32, dest as u32);
                        reused.inject(src, pkt);
                        fresh.inject(src, pkt);
                    }
                    let a = reused.run(&mut GreedyMesh { mesh });
                    let b = fresh.run(&mut GreedyMesh { mesh });
                    prop_assert_eq!(
                        fingerprint(a.completed, &a.metrics),
                        fingerprint(b.completed, &b.metrics)
                    );
                    prop_assert_eq!(reused.link_loads(), fresh.link_loads());
                    prop_assert_eq!(reused.check_invariants(), Ok(()));
                    prop_assert_eq!(fresh.check_invariants(), Ok(()));
                }
            }

            /// The coordinator-level invariants (cross-shard packet
            /// conservation, link-table/ghost-head accounting) and each
            /// shard engine's own state invariants hold at *every*
            /// global step boundary — the dynamic complement of the
            /// source policy clippy enforces (`[workspace.lints]`), at
            /// the layer where an exchange bug would first appear.
            #[test]
            fn prop_sharded_invariants_hold_at_every_step(
                seed: u64,
                rows in 2usize..6,
                cols in 2usize..6,
                k in 2usize..6,
            ) {
                let mesh = Mesh::new(rows, cols);
                let n = mesh.num_nodes();
                let mut eng = ShardedEngine::new(&mesh, cfg_sharded(k), &RowBlock::new(cols));
                let mut state = seed;
                for src in 0..n {
                    let dest = (splitmix64(&mut state) as usize) % n;
                    eng.inject(src, Packet::new(src as u32, src as u32, dest as u32));
                }
                let mut proto = GreedyMesh { mesh };
                eng.process_pending(&mut proto, 0);
                eng.step_finish();
                prop_assert_eq!(eng.check_invariants(), Ok(()));
                let mut step = 0u32;
                while eng.in_flight() > 0 {
                    step += 1;
                    prop_assert!(step <= 10_000, "driver ran away");
                    eng.step_transmit(&mut lnpram_simnet::NoopSink);
                    eng.process_arrivals(&mut proto, step);
                    eng.step_finish();
                    prop_assert_eq!(eng.check_invariants(), Ok(()));
                }
            }
        }
    }
}
