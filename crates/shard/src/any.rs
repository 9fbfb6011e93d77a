//! Runtime dispatch between the serial [`Engine`] and the
//! [`ShardedEngine`], selected by [`SimConfig::shards`].
//!
//! Routing sessions and serve build an [`AnyEngine`] instead of an
//! `Engine` (the PRAM emulators hold a serial `Engine`); `cfg.shards ≤
//! 1` keeps the single serial engine (zero overhead — a run dispatches
//! once, not per step), `≥ 2` switches to the partitioned lockstep
//! path. Two entries run a protocol: [`AnyEngine::run`] takes any
//! [`Protocol`] and steps a sharded engine on the calling thread, and
//! [`AnyEngine::run_split`] takes a [`Shardable`] one with an admission
//! hook, and a sharded engine steps its shards on threads when the
//! sink is disabled (every routing run and serve trace). Outcomes are bit-identical either way (the
//! `ShardedEngine` determinism contract). The enum is itself a
//! [`StepEngine`], so a driver that steps phase by phase takes either
//! variant.

use crate::partition::{Partitioner, RowBlock};
use crate::ShardedEngine;
use lnpram_simnet::fault::{FaultError, FaultPlan};
use lnpram_simnet::trace::TraceSink;
use lnpram_simnet::{
    step_loop, Admission, Engine, EngineState, Metrics, NoopSink, Packet, Protocol, RunOutcome,
    Shardable, SimConfig, StepEngine,
};
use lnpram_topology::Network;

/// Either a serial [`Engine`] or a [`ShardedEngine`], behind the
/// inject/run/reset interface both share.
pub enum AnyEngine {
    /// The single-address-space engine (`cfg.shards ≤ 1`).
    Serial(Engine),
    /// The partitioned lockstep engine (`cfg.shards ≥ 2`).
    Sharded(ShardedEngine),
}

/// Evaluate `$call` on whichever engine `$any` holds.
macro_rules! either {
    ($any:expr, $e:ident => $call:expr) => {
        match $any {
            AnyEngine::Serial($e) => $call,
            AnyEngine::Sharded($e) => $call,
        }
    };
}

impl AnyEngine {
    /// Build per `cfg.shards` over balanced node-id ranges with no
    /// alignment ([`ShardPlan::contiguous`](crate::ShardPlan::contiguous))
    /// — the plan for networks with no index structure worth aligning to
    /// (stars, hypercubes, CCC, shuffle-exchange). Callers whose node
    /// ids are column- or row-major should prefer
    /// [`AnyEngine::with_partitioner`] with `LevelCut` / `RowBlock`.
    pub fn new<N: Network + ?Sized>(net: &N, cfg: SimConfig) -> Self {
        // Alignment 1 is `ShardPlan::contiguous`.
        Self::with_partitioner(net, cfg, &RowBlock::new(1))
    }

    /// Build per `cfg.shards` with an explicit partitioning strategy.
    /// Well-defined for any `cfg.shards`: the sharded path clamps the
    /// shard count to `1..=MAX_SHARDS` **and** to the node count, so
    /// `shards > n` on a tiny network degrades to one single-node shard
    /// per node instead of handing the partitioner a `k` it could only
    /// satisfy with empty shards.
    pub fn with_partitioner<N, P>(net: &N, cfg: SimConfig, part: &P) -> Self
    where
        N: Network + ?Sized,
        P: Partitioner + ?Sized,
    {
        if cfg.shards >= 2 {
            AnyEngine::Sharded(ShardedEngine::new(net, cfg, part))
        } else {
            AnyEngine::Serial(Engine::new(net, cfg))
        }
    }

    /// Is this the partitioned path?
    pub fn is_sharded(&self) -> bool {
        matches!(self, AnyEngine::Sharded(_))
    }

    /// See [`Engine::reset`].
    pub fn reset(&mut self) {
        either!(self, e => e.reset())
    }

    /// See [`Engine::set_max_steps`].
    pub fn set_max_steps(&mut self, max_steps: u32) {
        either!(self, e => e.set_max_steps(max_steps))
    }

    /// See [`Engine::set_fault_plan`] — identical semantics on both
    /// variants (the sharded coordinator forwards per-link updates to
    /// the owning shards), so faulted runs stay bit-identical across
    /// serial and sharded stepping. Cleared by [`AnyEngine::reset`].
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), FaultError> {
        either!(self, e => e.set_fault_plan(plan))
    }

    /// See [`Engine::block_link`].
    pub fn block_link(&mut self, node: usize, port: usize) {
        either!(self, e => e.block_link(node, port))
    }

    /// See [`Engine::num_nodes`].
    pub fn num_nodes(&self) -> usize {
        either!(self, e => e.num_nodes())
    }

    /// See [`Engine::num_links`] — valid global link ids for fault
    /// plans are `0..num_links`.
    pub fn num_links(&self) -> usize {
        either!(self, e => e.num_links())
    }

    /// See [`Engine::inject`].
    pub fn inject(&mut self, node: usize, pkt: Packet) {
        either!(self, e => e.inject(node, pkt))
    }

    /// See [`Engine::run`].
    pub fn run<P: Protocol>(&mut self, proto: &mut P) -> RunOutcome {
        self.run_traced(proto, &mut NoopSink)
    }

    /// See [`Engine::run_traced`] — identical delivery schedule to
    /// [`AnyEngine::run`] on both variants; only observation differs.
    pub fn run_traced<P: Protocol, S: TraceSink + ?Sized>(
        &mut self,
        proto: &mut P,
        sink: &mut S,
    ) -> RunOutcome {
        either!(self, e => e.run_traced(proto, sink))
    }

    /// Run a [`Shardable`] protocol with admission hook `admit` for at
    /// most `max_steps` steps: [`step_loop`] on the serial engine,
    /// [`ShardedEngine::run_split`] on the sharded one (shard-local
    /// stepping on scoped threads when `sink` is disabled). Every backend's routing run and every serve
    /// trace go through here.
    pub fn run_split<P, S, A>(
        &mut self,
        proto: &mut P,
        sink: &mut S,
        admit: &mut A,
        max_steps: u32,
    ) -> RunOutcome
    where
        P: Shardable,
        S: TraceSink + ?Sized,
        A: Admission,
    {
        match self {
            AnyEngine::Serial(e) => step_loop(e, proto, sink, admit, max_steps),
            AnyEngine::Sharded(e) => e.run_split(proto, sink, admit, max_steps),
        }
    }

    /// See [`Engine::max_steps`].
    pub fn max_steps(&self) -> u32 {
        either!(self, e => e.max_steps())
    }

    /// See [`Engine::in_flight`].
    pub fn in_flight(&self) -> usize {
        either!(self, e => e.in_flight())
    }

    /// See [`Engine::drain_pending_into`].
    pub fn drain_pending_into(&mut self, out: &mut Vec<(usize, Packet)>) {
        either!(self, e => e.drain_pending_into(out))
    }

    /// See [`Engine::drain_all`].
    pub fn drain_all(&mut self) -> Vec<Packet> {
        either!(self, e => e.drain_all())
    }

    /// See [`Engine::link_loads`].
    pub fn link_loads(&self) -> Vec<u32> {
        either!(self, e => e.link_loads())
    }
}

impl StepEngine for AnyEngine {
    fn process_pending<P: Protocol>(&mut self, proto: &mut P, step: u32) {
        either!(self, e => e.process_pending(proto, step))
    }

    fn step_transmit<S: TraceSink + ?Sized>(&mut self, sink: &mut S) {
        either!(self, e => e.step_transmit(sink))
    }

    fn process_arrivals<P: Protocol>(&mut self, proto: &mut P, step: u32) {
        either!(self, e => e.process_arrivals(proto, step))
    }

    fn step_finish(&mut self) {
        either!(self, e => e.step_finish())
    }

    fn charge_queued(&mut self, packet_steps: u64) {
        either!(self, e => e.charge_queued(packet_steps))
    }

    fn finish_metrics(&mut self, steps: u32) -> Metrics {
        either!(self, e => e.finish_metrics(steps))
    }

    fn delivered(&self) -> usize {
        either!(self, e => e.delivered())
    }

    fn arrivals_len(&self) -> usize {
        either!(self, e => e.arrivals_len())
    }
}

impl EngineState for AnyEngine {
    fn inject(&mut self, node: usize, pkt: Packet) {
        AnyEngine::inject(self, node, pkt);
    }

    fn in_flight(&self) -> usize {
        AnyEngine::in_flight(self)
    }

    fn max_queue_len(&self) -> usize {
        either!(self, e => e.max_queue_len())
    }
}
