//! The paper's one scheme, written once: send each packet along the
//! canonical path to a uniformly random intermediate node (phase 0),
//! then on along the canonical path to its destination (phase 1).
//!
//! Algorithm 2.2 (star), Algorithm 2.3 (d-way shuffle), Valiant's
//! e-cube routing and the CCC variant differ only in the network and in
//! the rule that picks the next hop. [`TwoPhase`] is that difference —
//! a [`Network`] whose node ids are its source/destination coordinates,
//! its [`RunExtras`], and its next-hop [`Protocol`] — and
//! [`TwoPhaseBackend`] is the [`RouteBackend`] over any of them: engine
//! construction, injection (random intermediate, or none for the
//! deterministic ablation) and the protocol hook.
//!
//! Adding such a topology is one `impl TwoPhase`; a topology that needs
//! its own injection or partitioning (leveled columns, mesh slices)
//! implements [`RouteBackend`] directly.

use crate::router::{inject_per_source, PatternRef, RouteBackend, RunExtras};
use lnpram_math::rng::SeedSeq;
use lnpram_shard::AnyEngine;
use lnpram_simnet::{Outbox, Packet, Protocol, Shardable, SimConfig};
use lnpram_topology::{CubeConnectedCycles, Network, StarTable};

/// A topology the two-phase scheme runs on as is.
pub trait TwoPhase: Network {
    /// The per-node next-hop program: in phase 0 forward toward
    /// [`Packet::via`], on reaching it switch to phase 1 and forward
    /// toward [`Packet::dest`], deliver there.
    type Hop<'a>: Shardable
    where
        Self: 'a;

    /// Topology context attached to every report.
    fn extras(&self) -> RunExtras;

    /// The next-hop program over this network.
    fn hop(&self) -> Self::Hop<'_>;
}

/// [`RouteBackend`] for two-phase randomized routing on any
/// [`TwoPhase`] topology. The engine partitions into balanced node-id
/// ranges: none of these networks has a level or row structure to align
/// a cut to.
pub struct TwoPhaseBackend<T> {
    pub(crate) topo: T,
}

impl<T: TwoPhase> TwoPhaseBackend<T> {
    /// The topology routed on.
    pub fn topology(&self) -> &T {
        &self.topo
    }
}

impl<T: TwoPhase> RouteBackend for TwoPhaseBackend<T> {
    type Proto<'a>
        = T::Hop<'a>
    where
        T: 'a;

    fn sources(&self) -> usize {
        self.topo.num_nodes()
    }

    fn name(&self) -> String {
        self.topo.name()
    }

    fn extras(&self) -> RunExtras {
        self.topo.extras()
    }

    fn build_engine(&self, copies: usize, cfg: &SimConfig) -> AnyEngine {
        assert_eq!(copies, 1, "engines hold one copy of the topology");
        AnyEngine::new(&self.topo, cfg.clone())
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
        let total = self.topo.num_nodes();
        inject_per_source(
            eng,
            total,
            (pattern, seq, tag),
            &mut |src| src,
            &mut |pkt, rng| pkt.via = rng.gen_range(0..total) as u32,
            // Phase 1 from the start: one canonical traversal straight
            // to the destination, no random intermediate.
            &mut |pkt| (pkt.via, pkt.phase) = (pkt.src, 1),
        )
    }

    fn protocol(&mut self) -> Self::Proto<'_> {
        self.topo.hop()
    }
}

/// A network whose canonical oblivious route is *memoryless*: the next
/// hop from `u` toward `v` depends only on `(u, v)`, so a packet needs
/// no route state beyond its phase (the star graph's greedy
/// cycle-following route of Akers–Krishnamurthy, the CCC's cycle sweep
/// plus cross edges).
pub trait CanonicalRoute {
    /// Out-port of `u` on the canonical route to `v`; `None` at `v`.
    fn canonical_next_port(&self, u: usize, v: usize) -> Option<usize>;
}

impl CanonicalRoute for StarTable {
    #[inline]
    fn canonical_next_port(&self, u: usize, v: usize) -> Option<usize> {
        StarTable::canonical_next_port(self, u, v)
    }
}

impl CanonicalRoute for CubeConnectedCycles {
    fn canonical_next_port(&self, u: usize, v: usize) -> Option<usize> {
        CubeConnectedCycles::canonical_next_port(self, u, v)
    }
}

/// The two-phase per-node program over a [`CanonicalRoute`]: the shared
/// router of the star graph and the cube-connected cycles.
pub struct CanonicalRouter<'a, T> {
    net: &'a T,
}

impl<'a, T: CanonicalRoute> CanonicalRouter<'a, T> {
    /// Router on `net`.
    pub fn new(net: &'a T) -> Self {
        CanonicalRouter { net }
    }

    /// The out-port `pkt` takes from `node`, switching it to phase 1 on
    /// reaching its intermediate; `None` once it stands on its
    /// destination. [`Protocol::on_packet`] sends on it; a caller that
    /// wraps the router reads it to record the hop.
    #[inline]
    pub fn next_port(&self, node: usize, pkt: &mut Packet) -> Option<usize> {
        // Phase 0: toward via. Phase 1: toward dest.
        if pkt.phase == 0 && node == pkt.via as usize {
            pkt.phase = 1;
        }
        let target = if pkt.phase == 0 { pkt.via } else { pkt.dest } as usize;
        self.net.canonical_next_port(node, target)
    }
}

impl<T> Clone for CanonicalRouter<'_, T> {
    fn clone(&self) -> Self {
        CanonicalRouter { net: self.net }
    }
}

// Stateless: a shared borrow of the network.
impl<T: CanonicalRoute + Sync> Shardable for CanonicalRouter<'_, T> {
    fn merge(&mut self, _part: Self) {}
}

impl<T: CanonicalRoute> Protocol for CanonicalRouter<'_, T> {
    fn on_packet(&mut self, node: usize, mut pkt: Packet, _step: u32, out: &mut Outbox) {
        match self.next_port(node, &mut pkt) {
            Some(p) => out.send(p, pkt),
            // Only `node == target` has no next hop, and a phase-0
            // packet standing on `via` was just moved to phase 1: this
            // is the destination.
            None => out.deliver(pkt),
        }
    }
}
