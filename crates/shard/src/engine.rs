//! The lockstep sharded engine.
//!
//! [`ShardedEngine`] splits one network into `k` shards (a
//! [`ShardPlan`] from a [`Partitioner`]) and simulates it with one
//! [`Engine`] per shard, each owning the out-link queues of its nodes
//! over the induced sub-CSR (remote link heads become out-degree-0
//! ghost nodes). A shard is an ascending node-id range (the one shape a
//! [`ShardPlan`] can have), so the shards own disjoint ascending
//! link-id ranges too. One **global step** is what the serial engine's
//! step is — every link transmits at most one packet, then every
//! arrival is handed to the [`Protocol`], whose sends land on the queues
//! of the node's own out-links — and it runs one of two ways.
//!
//! # The central loop
//!
//! [`ShardedEngine::run`] and every traced run drive [`step_loop`] on
//! the calling thread:
//!
//! 1. **Transmit (per shard)** — the shard engines run their transmit
//!    phase one after another. Each leaves its extractions in its own
//!    arrivals buffer ([`Engine::arrivals`]), at most one packet per
//!    link, each packet still in the arena slot the shard holds for it
//!    ([`Engine::arrival_pkt`]) until the shard's next transmit; the `k`
//!    buffers concatenate into the serial engine's arrival order (no
//!    merge is materialized).
//! 2. **Process (central)** — the coordinator reads those buffers in
//!    shard order, which is ascending global link id, and calls
//!    `on_packet` per arrival: the serial engine's call order
//!    ([`Protocol`]). Each callback gets an [`Outbox`] onto the links of
//!    the shard engine that owns its node ([`Engine::outbox`]);
//!    deliveries are counted into the coordinator's metrics.
//!
//! This is the path of every protocol that is not [`Shardable`] (one
//! that keeps cross-node state in callback order) and of any run whose
//! [`TraceSink`] is enabled.
//!
//! # Shard-local stepping on threads
//!
//! [`ShardedEngine::run_split`] with a [`Shardable`] protocol and a
//! disabled sink — every backend's routing run and every serve trace,
//! untraced — steps the shards on one
//! [`std::thread::scope`] instead, with min(K, available cores) members
//! that each own a contiguous run of shards, their engines and a clone
//! of the protocol. A member transmits its shards, posts every arrival
//! whose head node another shard owns to that shard, and after a
//! barrier processes the arrivals at its own nodes; between steps the
//! caller's thread runs admission, the fault clock and the loop test
//! (`threaded` has the step in full). Nothing else crosses between
//! threads: sends leave on the processing node's own links, which its
//! own shard engine holds.
//!
//! *Why the order is the serial one.* [`Shardable`]'s node-local
//! contract makes the outcome depend only on what each node sees, in
//! what order: a queue is pushed only by its link's tail node, and a
//! callback at `v`
//! touches only `v`'s state and updates that commute. On the serial
//! engine node `v` sees its arrivals in global link-id order. A member
//! processes each of its shards' arrivals by the shard whose link they
//! crossed — mail from lower shards, the shard's own arrivals, mail
//! from higher shards — each in link-id order; since shard `s`'s links
//! are exactly the ids `link_base[s] .. link_base[s+1]`, that is global
//! link-id order at every node. All of `v`'s callbacks, its injections
//! included, run on the one clone that owns `v`, and the clones' records
//! merge by sum, max and histogram absorption, which commute.
//!
//! # Determinism contract
//!
//! `ShardedEngine::run` and `run_split` are **bit-identical** to a
//! single `Engine::run` over the whole network — same `RunOutcome`
//! (steps, deliveries, latency histogram, queue high-water,
//! queued-packet-steps, link loads), for any `Discipline`, any plan, any
//! `k` and any member count; `run` for any [`Protocol`], with node ids
//! seen by the protocol global ids. The property tests in this crate and
//! `tests/sharded_equivalence.rs` pin the contract on random
//! butterflies, stars and meshes, under fault plans, with every step
//! threaded, none, and more members than cores.
//!
//! # Cost model
//!
//! The central loop buys no speed: it pays the per-shard bookkeeping
//! (an ownership lookup per callback, `k` short transmit loops, `k`
//! in-flight counters summed per step) and runs a few percent behind the
//! serial engine. The threaded loop divides the step's work — transmit
//! and process, nearly all of it — over the members and adds, per step,
//! three barrier waits on a spinning barrier (well under a µs each when
//! both members are on cores), the boundary mail (on the 32×32 serve
//! mesh at K = 2, about 23 of the ~940 packets in flight cross the row
//! cut per step), and a short serial section for admission. Sharing a
//! step saves about the work outside the busiest member, so a step with
//! fewer than 128 packets queued there runs on the caller alone, through
//! the same per-shard code; so does one after a transmit that sent more
//! than a quarter of its packets across a cut, as a leveled network's
//! wave of traffic does through a level cut (one member transmits, the
//! next processes, and sharing adds only the mail). A run that never
//! gets busy, or only as a wave, starts no thread. Both tests are
//! measured (`threaded::SHARED_MIN_LOAD` has the numbers): sharing every
//! step takes butterfly(2,10) permutations at K = 2 from 0.86× serial
//! to 0.31× and `serve_sharded`'s setup ×1.57, for no throughput. See
//! the README's sharding section for the measured pairs.

use crate::partition::{Partitioner, ShardPlan};
use lnpram_simnet::fault::{FaultError, FaultPlan, FaultSchedule};
use lnpram_simnet::trace::{NoopSink, Phase, TraceSink};
use lnpram_simnet::{
    step_loop, Admission, Engine, EngineState, InvariantViolation, Metrics, NoAdmission, Outbox,
    Packet, Protocol, RunOutcome, Shardable, SimConfig, StepEngine,
};
use lnpram_topology::Network;

mod threaded;

/// "Not assigned yet" in the construction-time and checking tables.
const NIL: u32 = u32::MAX;

/// Packed node coordinates: shard id in the top 4 bits, the node's local
/// id in that shard's engine in the low 28.
const COORD_BITS: u32 = 28;
const COORD_MASK: u32 = (1 << COORD_BITS) - 1;
/// Shard-count cap imposed by the packed coordinates.
pub const MAX_SHARDS: usize = 15;

/// The induced sub-network of one shard in flat CSR form: its owned
/// nodes keep their global port order; links whose head lives in
/// another shard point at out-degree-0 ghost nodes appended after the
/// owned nodes (ghost targets are never enqueued on — they only keep
/// the shard engine's CSR well-formed).
struct SubNet {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    label: String,
}

impl Network for SubNet {
    fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }
    fn out_degree(&self, node: usize) -> usize {
        (self.offsets[node + 1] - self.offsets[node]) as usize
    }
    fn neighbor(&self, node: usize, port: usize) -> usize {
        self.targets[self.offsets[node] as usize + port] as usize
    }
    fn name(&self) -> String {
        self.label.clone()
    }
}

/// A partitioned simulator: `k` shard engines stepped in lockstep with
/// deterministic boundary exchange. Drop-in equivalent of [`Engine`]
/// for the inject/run/reset workflow (see the module docs for the
/// determinism contract).
pub struct ShardedEngine {
    cfg: SimConfig,
    k: usize,
    num_nodes: usize,
    num_links: usize,
    /// Global node → packed owner: shard id in the top 4 bits, local
    /// node id within that shard in the low 28 (one cache line touched
    /// per ownership lookup instead of two). A threaded run lends it,
    /// with `link_head` and `link_base`, to its worker threads.
    node_owner: Vec<u32>,
    /// Global link id → global head node.
    link_head: Vec<u32>,
    /// Global CSR offsets (links of node `v` are
    /// `link_offset[v] .. link_offset[v+1]`) — with `link_head` this is
    /// the full global CSR, so fault schedules validate and bind here
    /// exactly as they do on a serial [`Engine`].
    link_offset: Vec<u32>,
    /// First global link id of each shard, plus `num_links` as a
    /// sentinel (`k + 1` ascending entries). A shard is an ascending node
    /// range and link ids are node-major, so shard `s` owns exactly the
    /// links `link_base[s] .. link_base[s+1]`, in its engine's own link
    /// order: global link id = `link_base[s]` + local link id.
    link_base: Vec<u32>,
    /// Installed fault schedule over the **global** CSR; per-link
    /// blocked updates are forwarded to the owning shard at the start
    /// of each transmit phase, so every shard observes the same link
    /// state a serial engine would. Cleared by reset.
    faults: Option<Box<FaultSchedule>>,
    /// Global transmit phases since the last reset (the step the fault
    /// schedule is keyed on, mirroring the serial engine's clock).
    clock: u32,
    /// One engine per shard over its induced sub-CSR, in shard order.
    shards: Vec<Engine>,
    pending: Vec<(usize, Packet)>,
    metrics: Metrics,
}

impl ShardedEngine {
    /// Partition `net` into `cfg.shards` shards with `part` — clamped
    /// to `1..=`[`MAX_SHARDS`] (the packed-coordinate cap) **and** to
    /// the node count, so `cfg.shards > n` on a tiny network yields one
    /// single-node shard per node instead of empty shards — and build
    /// one engine per shard.
    /// Explicit plans via [`ShardedEngine::with_plan`] are not clamped
    /// (empty shards in an explicit plan are legal and simulated
    /// correctly) and assert the cap instead.
    pub fn new<N, P>(net: &N, cfg: SimConfig, part: &P) -> Self
    where
        N: Network + ?Sized,
        P: Partitioner + ?Sized,
    {
        let k = cfg.shards.clamp(1, MAX_SHARDS).min(net.num_nodes().max(1));
        let plan = part.partition(net, k);
        Self::with_plan(net, cfg, plan)
    }

    /// Build from an explicit [`ShardPlan`] (must cover `net` exactly).
    pub fn with_plan<N: Network + ?Sized>(net: &N, cfg: SimConfig, plan: ShardPlan) -> Self {
        let n = net.num_nodes();
        assert_eq!(plan.num_nodes(), n, "plan does not cover the network");
        let k = plan.shards();
        assert!(
            k <= MAX_SHARDS,
            "shard count {k} exceeds MAX_SHARDS ({MAX_SHARDS}) — the packed \
             node coordinates reserve 4 bits for the shard id"
        );
        // Global CSR: link-id offsets and head nodes of every link.
        let mut link_offset = Vec::with_capacity(n + 1);
        link_offset.push(0u32);
        let mut link_head = Vec::new();
        for v in 0..n {
            for p in 0..net.out_degree(v) {
                link_head.push(net.neighbor(v, p) as u32);
            }
            link_offset.push(link_head.len() as u32);
        }
        let num_links = link_head.len();
        // Shard `s` owns the node range `start[s] .. start[s+1]` (a plan
        // is non-decreasing in node id) and with it one link-id range.
        let mut start = vec![0usize; k + 1];
        for (s, size) in plan.shard_sizes().into_iter().enumerate() {
            start[s + 1] = start[s] + size;
        }
        let link_base: Vec<u32> = start.iter().map(|&v| link_offset[v]).collect();
        let mut node_owner = Vec::with_capacity(n);
        let shard_cfg = SimConfig {
            max_steps: u32::MAX,
            record_link_loads: false,
            shards: 0,
            ..cfg.clone()
        };
        let mut shards = Vec::with_capacity(k);
        for s in 0..k {
            let (lo, hi) = (start[s], start[s + 1]);
            let owned = (hi - lo) as u32;
            let links = (link_base[s + 1] - link_base[s]) as usize;
            // A hard cap, checked once at construction: the packed
            // coordinates reserve 28 bits for local node ids, so silent
            // aliasing in release builds is impossible past it.
            assert!(
                owned <= COORD_MASK,
                "shard {s} exceeds 2^28 nodes — the packed node coordinates \
                 cannot address it"
            );
            node_owner.extend((0..owned).map(|local| ((s as u32) << COORD_BITS) | local));
            let mut offsets = Vec::with_capacity(owned as usize + 1);
            offsets.push(0u32);
            let mut targets = Vec::with_capacity(links);
            // Ghost ids for remote heads, assigned in first-reference
            // order (NIL = not yet seen).
            let mut ghost_of = vec![NIL; n];
            let mut ghosts = 0u32;
            for v in lo..hi {
                for p in 0..net.out_degree(v) {
                    let w = net.neighbor(v, p);
                    let target = if (lo..hi).contains(&w) {
                        (w - lo) as u32
                    } else if ghost_of[w] != NIL {
                        ghost_of[w]
                    } else {
                        ghosts += 1;
                        ghost_of[w] = owned + ghosts - 1;
                        ghost_of[w]
                    };
                    targets.push(target);
                }
                offsets.push(targets.len() as u32);
            }
            offsets.extend(std::iter::repeat_n(targets.len() as u32, ghosts as usize));
            let sub = SubNet {
                offsets,
                targets,
                label: format!("{}/shard{}of{}", net.name(), s, k),
            };
            shards.push(Engine::new(&sub, shard_cfg.clone()));
        }
        ShardedEngine {
            cfg,
            k,
            num_nodes: n,
            num_links,
            node_owner,
            link_head,
            link_offset,
            link_base,
            faults: None,
            clock: 0,
            shards,
            pending: Vec::new(),
            metrics: Metrics::default(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.k
    }

    /// Number of nodes in the simulated network.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Total number of directed links, in **global** link-id order
    /// (mirrors [`Engine::num_links`]).
    pub fn num_links(&self) -> usize {
        self.num_links
    }

    /// Forward a blocked-state update for a global link to the shard
    /// engine that owns it: the last shard whose link range starts at or
    /// before `link` (empty shards share their successor's base).
    fn apply_link_blocked(link_base: &[u32], shards: &mut [Engine], link: usize, blocked: bool) {
        let s = link_base.partition_point(|&base| base as usize <= link) - 1;
        shards[s].set_link_blocked(link - link_base[s] as usize, blocked);
    }

    /// Mark the link `(node, port)` as failed: packets queue on it but
    /// never traverse — the sharded mirror of [`Engine::block_link`]
    /// (the update lands on whichever shard owns the link).
    pub fn block_link(&mut self, node: usize, port: usize) {
        let link = self.link_offset[node] as usize + port;
        assert!(
            link < self.link_offset[node + 1] as usize,
            "block_link on invalid port {port} of node {node}"
        );
        Self::apply_link_blocked(&self.link_base, &mut self.shards, link, true);
    }

    /// Install a deterministic fault schedule, validated against the
    /// **global** topology — the sharded mirror of
    /// [`Engine::set_fault_plan`]. The schedule is advanced by the
    /// coordinator at the start of every global transmit phase and its
    /// per-link updates are forwarded to the owning shards, so for any
    /// plan the sharded run observes exactly the link state of the
    /// serial run at every step. `reset` clears the plan.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), FaultError> {
        let sched = FaultSchedule::build(plan, &self.link_offset, &self.link_head)?;
        self.faults = Some(Box::new(sched));
        Ok(())
    }

    /// Override the global step budget (mirrors [`Engine::set_max_steps`]).
    pub fn set_max_steps(&mut self, max_steps: u32) {
        self.cfg.max_steps = max_steps;
    }

    /// The global step budget (mirrors [`Engine::max_steps`]).
    pub fn max_steps(&self) -> u32 {
        self.cfg.max_steps
    }

    /// Restore the just-built state, keeping every allocation (shard
    /// arenas, scratch) warm — the sharded counterpart of
    /// [`Engine::reset`].
    pub fn reset(&mut self) {
        for shard in &mut self.shards {
            shard.reset();
        }
        self.pending.clear();
        self.metrics = Metrics::default();
        self.faults = None;
        self.clock = 0;
    }

    /// Schedule `pkt` for injection at `node` before the first step.
    /// Panics if the network has no node `node`.
    pub fn inject(&mut self, node: usize, pkt: Packet) {
        let n = self.num_nodes;
        assert!(node < n, "inject at node {node} out of range 0..{n}");
        self.pending.push((node, pkt));
    }

    /// Packets still queued across all shards.
    pub fn in_flight(&self) -> usize {
        self.shards.iter().map(Engine::in_flight).sum()
    }

    /// Per-link traversal counts in **global** link-id order: the shard
    /// engines' own counts, concatenated (mirrors [`Engine::link_loads`]).
    pub fn link_loads(&self) -> Vec<u32> {
        let mut loads = Vec::with_capacity(self.num_links);
        for shard in &self.shards {
            loads.extend(shard.link_loads());
        }
        loads
    }

    /// Drain every shard queue, returning the stranded packets in global
    /// link order (links ascending, packets of one link in arrival
    /// order) — exactly the order [`Engine::drain_all`] produces, since
    /// the shards' link ranges ascend.
    pub fn drain_all(&mut self) -> Vec<Packet> {
        let mut out = Vec::new();
        for shard in &mut self.shards {
            out.append(&mut shard.drain_all());
        }
        out
    }

    /// Run the protocol until all queues drain or `max_steps` elapse —
    /// the lockstep counterpart of [`Engine::run`], bit-identical to it
    /// on the whole network.
    pub fn run<P: Protocol>(&mut self, proto: &mut P) -> RunOutcome {
        self.run_traced(proto, &mut NoopSink)
    }

    /// [`ShardedEngine::run`] reporting to a [`TraceSink`] — phase
    /// windows, per-shard transmit splits and boundary-crossing counts,
    /// fault applications and per-step samples. The same [`step_loop`]
    /// as the serial engine; the observed run is bit-identical with any
    /// sink (sinks cannot mutate the engines).
    pub fn run_traced<P: Protocol, S: TraceSink + ?Sized>(
        &mut self,
        proto: &mut P,
        sink: &mut S,
    ) -> RunOutcome {
        let max_steps = self.cfg.max_steps;
        step_loop(self, proto, sink, &mut NoAdmission, max_steps)
    }

    /// Advance the global clock one transmit phase and forward the fault
    /// schedule's updates for it to the owning shards.
    fn tick<S: TraceSink + ?Sized>(&mut self, sink: &mut S) {
        self.clock += 1;
        let Self {
            faults,
            link_base,
            shards,
            clock,
            ..
        } = self;
        let Some(sched) = faults.as_mut() else {
            return;
        };
        let clock = *clock;
        if sink.enabled() {
            sched.advance(clock, |link, blocked| {
                Self::apply_link_blocked(link_base, shards, link, blocked);
                sink.on_fault(clock, link, blocked);
            });
        } else {
            sched.advance(clock, |link, blocked| {
                Self::apply_link_blocked(link_base, shards, link, blocked);
            });
        }
    }

    /// [`step_loop`] over this engine with admission hook `admit` and a
    /// budget of `max_steps` — except that a [`Shardable`] protocol
    /// under a disabled sink (the untraced run)
    /// steps shard-local on scoped threads, one per shard up to the
    /// cores available, when that is more than one (module docs). The
    /// outcome, `proto`'s merged state included, is the same either way.
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
        let members = threaded::members_for(self.k);
        if members > 1 && !sink.enabled() {
            self.run_threaded(
                proto,
                sink,
                admit,
                max_steps,
                members,
                threaded::SHARED_MIN_LOAD,
            )
        } else {
            step_loop(self, proto, sink, admit, max_steps)
        }
    }

    /// Move the not-yet-processed injections onto `out` (mirrors
    /// [`Engine::drain_pending_into`]).
    pub fn drain_pending_into(&mut self, out: &mut Vec<(usize, Packet)>) {
        out.append(&mut self.pending);
    }

    /// Verify the coordinator-level invariants, plus every shard
    /// engine's own [`Engine::check_invariants`]. Intended at global
    /// step boundaries (after [`ShardedEngine::step_finish`]); the
    /// shard property tests call it directly, and
    /// `LNPRAM_CHECK_INVARIANTS=1` covers the per-shard half
    /// automatically on every step.
    ///
    /// Checked, beyond the per-shard engine state:
    /// * link accounting: the shards' link ranges (`link_base`) ascend
    ///   from 0 to the global link count — which is what lets the
    ///   arrivals buffers concatenate into the serial arrival order — and
    ///   each shard engine has exactly its range's number of links, so
    ///   local link `l` of shard `s` is global link `link_base[s] + l`;
    /// * node accounting: every global node is owned by exactly one
    ///   shard, at a local id within that shard's engine.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let fail = |what: String| Err(InvariantViolation { what });

        for (s, eng) in self.shards.iter().enumerate() {
            if let Err(v) = eng.check_invariants() {
                return fail(format!("shard {s}: {v}"));
            }
        }

        if self.link_base.first() != Some(&0)
            || self.link_base.last().map(|&l| l as usize) != Some(self.num_links)
        {
            return fail(format!(
                "shard link ranges {:?} do not span the {} global links",
                self.link_base, self.num_links
            ));
        }
        for s in 0..self.k {
            let (lo, hi) = (self.link_base[s], self.link_base[s + 1]);
            let shard_links = self.shards[s].num_links();
            if lo > hi || (hi - lo) as usize != shard_links {
                return fail(format!(
                    "shard {s} owns global links {lo}..{hi} but its engine has {shard_links} links"
                ));
            }
        }

        let mut owned = vec![0usize; self.k];
        for (node, &packed) in self.node_owner.iter().enumerate() {
            let s = (packed >> COORD_BITS) as usize;
            let local = (packed & COORD_MASK) as usize;
            if s >= self.k {
                return fail(format!("node {node} is owned by nonexistent shard {s}"));
            }
            owned[s] = owned[s].max(local + 1);
        }
        for (s, &hi) in owned.iter().enumerate() {
            let shard_nodes = self.shards[s].num_nodes();
            if hi > shard_nodes {
                return fail(format!(
                    "shard {s} owner table points at local node {} but its engine (ghosts \
                     included) has only {shard_nodes} nodes",
                    hi - 1
                ));
            }
        }
        Ok(())
    }
}

/// The outbox of a callback at global `node`: onto the links of the
/// shard engine that owns it (sends always leave on the processing
/// node's own ports), with deliveries recorded centrally.
fn outbox<'a>(
    shards: &'a mut [Engine],
    node_owner: &[u32],
    node: usize,
    step: u32,
    metrics: &'a mut Metrics,
) -> Outbox<'a> {
    let owner = node_owner[node];
    let local = (owner & COORD_MASK) as usize;
    shards[(owner >> COORD_BITS) as usize].outbox(local, node, step, metrics)
}

impl StepEngine for ShardedEngine {
    // Callback-for-callback the serial engine's pending pass, so mid-run
    // admission is bit-identical across serial and sharded engines.
    fn process_pending<P: Protocol>(&mut self, proto: &mut P, step: u32) {
        let Self {
            pending,
            shards,
            node_owner,
            metrics,
            ..
        } = self;
        for &(node, mut pkt) in pending.iter() {
            pkt.injected_at = step;
            let mut out = outbox(shards, node_owner, node, step, metrics);
            proto.on_packet(node, pkt, step, &mut out);
        }
        pending.clear();
    }

    // Every shard extracts from its own links, one shard after another;
    // their arrivals buffers already concatenate into the serial arrival
    // order.
    fn step_transmit<S: TraceSink + ?Sized>(&mut self, sink: &mut S) {
        self.tick(sink);
        sink.on_phase_start(Phase::Transmit);
        for (s, shard) in self.shards.iter_mut().enumerate() {
            sink.on_shard_phase_start(s, Phase::Transmit);
            shard.step_transmit(&mut NoopSink);
            sink.on_shard_phase_end(s, Phase::Transmit);
            if sink.enabled() {
                // Boundary-crossing volume: arrivals whose head node is
                // owned by another shard (the traffic that actually
                // crosses the partition).
                let heads = &self.link_head[self.link_base[s] as usize..];
                let crossing = shard
                    .arrivals()
                    .iter()
                    .filter(|&&local| {
                        let owner = self.node_owner[heads[local as usize] as usize];
                        (owner >> COORD_BITS) as usize != s
                    })
                    .count();
                sink.on_boundary(s, crossing);
            }
        }
        sink.on_phase_end(Phase::Transmit);
    }

    // The serial engine's exact callback sequence. Arrivals are read
    // **in place** from the arena slots the shards hold for them, and the
    // shards' arrival lists concatenate in global link order. Each packet
    // is copied out of its slot before the callback's outbox borrows the
    // owning shard, which may be the same engine; the shards free the
    // slots at their next transmit.
    fn process_arrivals<P: Protocol>(&mut self, proto: &mut P, step: u32) {
        let Self {
            shards,
            node_owner,
            link_head,
            link_base,
            metrics,
            ..
        } = self;
        for s in 0..shards.len() {
            let heads = &link_head[link_base[s] as usize..];
            for idx in 0..shards[s].arrivals().len() {
                let shard = &shards[s];
                let node = heads[shard.arrivals()[idx] as usize] as usize;
                let pkt = shard.arrival_pkt(idx);
                let mut out = outbox(shards, node_owner, node, step, metrics);
                proto.on_packet(node, pkt, step, &mut out);
            }
        }
    }

    fn step_finish(&mut self) {
        for shard in &mut self.shards {
            shard.step_finish();
        }
    }

    fn charge_queued(&mut self, packet_steps: u64) {
        self.metrics.queued_packet_steps += packet_steps;
    }

    fn finish_metrics(&mut self, steps: u32) -> Metrics {
        self.metrics.steps = steps;
        self.metrics.max_queue = self
            .shards
            .iter()
            .map(Engine::queue_high_water)
            .max()
            .unwrap_or(0);
        if self.cfg.record_link_loads {
            self.metrics.link_loads = self.link_loads();
        }
        std::mem::take(&mut self.metrics)
    }

    fn delivered(&self) -> usize {
        self.metrics.delivered
    }

    fn arrivals_len(&self) -> usize {
        self.shards.iter().map(|s| s.arrivals().len()).sum()
    }
}

impl EngineState for ShardedEngine {
    fn inject(&mut self, node: usize, pkt: Packet) {
        ShardedEngine::inject(self, node, pkt);
    }

    fn in_flight(&self) -> usize {
        ShardedEngine::in_flight(self)
    }

    fn max_queue_len(&self) -> usize {
        self.shards
            .iter()
            .map(EngineState::max_queue_len)
            .max()
            .unwrap_or(0)
    }
}
