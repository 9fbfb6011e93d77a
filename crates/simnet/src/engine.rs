//! The synchronous step engine.
//!
//! One engine **step** is one time unit of the paper's model:
//!
//! 1. *Transmit*: every directed link whose queue is non-empty selects one
//!    packet under the configured [`Discipline`] and moves it to the head
//!    node of the link.
//! 2. *Process*: every arrival is handed to the [`Protocol`], which may
//!    forward it (enqueue on an out-link of the receiving node), deliver
//!    it, absorb it (combining), or emit several packets (reply fan-out).
//!
//! A packet enqueued during step `t` is eligible for transmission at step
//! `t+1`, so an uncongested path of length `L` takes exactly `L` steps.
//!
//! # Internals: allocation-free stepping
//!
//! The engine snapshots the network's adjacency into CSR arrays at
//! construction (`link_offset`/`link_target`), so it owns its topology
//! and borrows nothing — an `Engine` can be stored next to the network
//! it simulates and reused across runs.
//!
//! All queued packets live in one slab arena ([`PacketPool`], a packet
//! array beside a `u32` chain array): a link queue is 16 bytes of chain
//! indices and counters, enqueue recycles a free-list slot, and pop is an
//! O(1) unlink. After warm-up a step performs **zero heap allocation**
//! and **no sort over nodes or links**; a whole run allocates only the
//! growth of the latency histogram it returns (`tests/alloc_free.rs`
//! pins it):
//!
//! * a callback's [`Outbox`] is a handle on the node's links, not a
//!   buffer: a send is pushed onto its link queue as the protocol makes
//!   it and a delivery is counted into the metrics at once. The outbox
//!   borrows the engine's link state for the one callback and moves
//!   nothing in or out;
//! * the links with non-empty queues are a two-level bitmap: one bit per
//!   link, and a summary bit per non-zero 64-link word. Transmit finds
//!   the non-zero words through the summary and the bits of each by
//!   `trailing_zeros`, so it visits links in ascending id order with
//!   nothing to sort; every push onto an empty queue sets its word's
//!   summary bit, and the transmit that clears a word's last bit clears
//!   it. A non-empty queue is either *active* or, while its link is
//!   blocked, *parked*: for each active word, transmit ANDs the word
//!   with the links' blocked bits and moves the blocked ones to a parked
//!   word beside them, so the walk does not visit a link again while it
//!   is down, and every unblock (a fault schedule's recover or
//!   duty-cycle report, [`Engine::set_link_blocked`]) returns it to the
//!   active set. The blocked and parked bits share one allocation, one
//!   pair of words per 64 links;
//! * transmit does not copy a moved packet: it unlinks the packet's arena
//!   slot from its queue and keeps the slot, beside the link id, in the
//!   arrivals. The process phase copies each packet out of its held slot
//!   and frees the slot just before the callback, whose first send
//!   recycles that still-hot slot (the free list is LIFO). So a hop
//!   writes and reads each packet once;
//! * the process phase hands each arrival to [`Protocol::on_packet`] at
//!   its link's head node, in ascending link id, with no grouping by
//!   node and no batch copy ([`Protocol`] states that order);
//! * the `max_queue` metric is one counter raised on every push, so
//!   [`Engine::queue_high_water`] is O(1);
//! * run state (queues, arena, metrics, scratch) is recycled by
//!   [`Engine::reset`], so a T-step emulation reuses one engine instead
//!   of building per-link state T times.

use crate::fault::{FaultError, FaultPlan, FaultSchedule};
use crate::groups::TwoLevelSet;
use crate::metrics::Metrics;
use crate::packet::Packet;
use crate::protocol::{Outbox, Protocol};
use crate::queue::{Discipline, LinkQueue, PacketPool};
use crate::step::{step_loop, EngineState, NoAdmission, StepEngine};
use crate::trace::{NoopSink, Phase, TraceSink};
use lnpram_topology::Network;
use std::sync::OnceLock;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Queueing discipline for all link queues.
    pub discipline: Discipline,
    /// Abort the run (with `completed = false`) after this many steps.
    /// This is also the emulator's rehash timeout hook.
    pub max_steps: u32,
    /// Inert: nothing reads it. A sharded run of a splittable protocol
    /// takes its thread count from the shard count and the cores
    /// available (one per shard, at most one per core; `lnpram-shard`'s
    /// `ShardedEngine::run_split`), every other run is one thread, and
    /// cores are spent across runs by
    /// `lnpram_math::stats::par_trial_values`. The field stays only
    /// until the `bench_layers` literals that name it can be edited.
    pub threads: usize,
    /// Snapshot per-link traversal counts into
    /// [`Metrics::link_loads`](crate::Metrics) at the end of the run (one
    /// `u32` per directed link; off by default to keep big-network trials
    /// allocation-free).
    pub record_link_loads: bool,
    /// Number of partitions for the sharded simulation subsystem
    /// (`lnpram-shard`). The `Engine` itself ignores this field: it is a
    /// construction knob consumed by `AnyEngine::new`, through which the
    /// routing sessions and serve build (the PRAM emulators build a
    /// serial `Engine` and never read it) — `0` or `1` selects the
    /// single serial engine, `k ≥ 2` splits the network into `k` shard
    /// engines stepped in lockstep. Routing and serve runs (a
    /// [`Shardable`](crate::Shardable) protocol, no trace sink) step the
    /// shards on scoped threads, one per shard up to the cores
    /// available; traced runs step them on the calling thread. The
    /// outcome is bit-identical to the serial engine's either way
    /// (pinned by the `lnpram-shard` property tests). Values above
    /// `lnpram-shard`'s `MAX_SHARDS` (15, the packed-coordinate cap) or
    /// above the node count of the network being simulated are clamped.
    pub shards: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            discipline: Discipline::Fifo,
            max_steps: 1_000_000,
            threads: 1,
            record_link_loads: false,
            shards: 0,
        }
    }
}

impl SimConfig {
    /// Default config with the given discipline.
    pub fn with_discipline(discipline: Discipline) -> Self {
        SimConfig {
            discipline,
            ..Default::default()
        }
    }
}

/// Result of [`Engine::run`].
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Accumulated metrics (moved out of the engine, not cloned).
    pub metrics: Metrics,
    /// `true` if all queues drained; `false` if `max_steps` was hit first
    /// (the emulation layer treats this as a routing-timeout → rehash).
    pub completed: bool,
}

/// A broken internal-state invariant found by
/// [`Engine::check_invariants`] — which invariant, and the observed
/// state that contradicts it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Which invariant broke and the observed contradicting state.
    pub what: String,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.what)
    }
}

impl std::error::Error for InvariantViolation {}

/// Should every step boundary re-verify the engine invariants?
/// Controlled by `LNPRAM_CHECK_INVARIANTS=1` (any build profile, read
/// once per process), so the chaos-smoke CI job can run release
/// builds with state checking on while the default hot path pays one
/// cached boolean load.
pub(crate) fn invariant_checks_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var_os("LNPRAM_CHECK_INVARIANTS").is_some_and(|v| v == "1"))
}

/// The synchronous simulator for one network.
///
/// The engine owns a CSR copy of the adjacency, so it has no borrow of
/// the network and no type parameter: emulators store one engine per
/// routing direction and recycle it across rounds with
/// [`Engine::reset`].
pub struct Engine {
    cfg: SimConfig,
    /// Head node of each link.
    link_target: Vec<u32>,
    /// The queues and everything a protocol callback's responses touch.
    links: LinkState,
    /// Blocked and parked bits, one pair of words per word of the active
    /// set.
    flags: Vec<LinkFlags>,
    /// Any link ever blocked since the last reset (skips the `flags`
    /// wipe on reset, and the blocked test in transmit, in the common
    /// fault-free case).
    blocked_any: bool,
    /// Installed fault schedule, advanced at the start of every
    /// transmit phase; cleared by [`Engine::reset`].
    faults: Option<Box<FaultSchedule>>,
    /// Transmit phases since the last reset — the global step the fault
    /// schedule is keyed on (transmit of step `s` runs at clock `s`).
    clock: u32,
    pending: Vec<(usize, Packet)>,
    metrics: Metrics,
    // --- reusable per-step scratch (never reallocated after warm-up) ---
    /// This step's arrivals, ascending link order: the link each packet
    /// crossed (its destination node is `link_target[link]`; keeping the
    /// link lets an external coordinator, `lnpram-shard`, look the head
    /// node up in its own global link table).
    arrival_links: Vec<u32>,
    /// The arena slots still holding this step's arrivals, parallel to
    /// `arrival_links`. Detached from every chain but not free; emptied
    /// by the process phase that consumes them, or else freed by the next
    /// transmit.
    arrival_slots: Vec<u32>,
}

/// The link state a protocol callback's [`Outbox`] borrows: the CSR
/// offsets that locate a node's ports, the queues and their arena, the
/// active set, the reset and metric bookkeeping a push updates, and the
/// callback's delivered packets. Grouped so one `&mut` reaches it.
#[derive(Debug)]
pub(crate) struct LinkState {
    /// CSR offsets: links of node `v` are `offset[v] .. offset[v+1]`.
    offset: Vec<u32>,
    queues: Vec<LinkQueue>,
    pool: PacketPool,
    /// The links whose queue is non-empty and not parked, walked
    /// ascending through its summary of non-zero words.
    active: TwoLevelSet,
    /// Links whose queue has been touched since the last reset (a link
    /// joins when a push finds it empty and never popped):
    /// [`Engine::reset`] wipes only these, making reset O(touched links)
    /// instead of O(links).
    dirty: Vec<u32>,
    /// Longest any link queue has been since the last reset.
    max_queue: usize,
    /// Packets queued on the links.
    pub(crate) in_flight: usize,
    /// The current callback's deliveries (what `TagDemux` reads through
    /// [`Outbox::delivered`]); emptied when a callback's outbox is made.
    pub(crate) delivered: Vec<Packet>,
}

impl LinkState {
    /// First link id of `node`'s ports, and its out-degree.
    #[inline]
    pub(crate) fn ports(&self, node: usize) -> (usize, usize) {
        let base = self.offset[node] as usize;
        (base, self.offset[node + 1] as usize - base)
    }

    /// Enqueue `pkt` on link `id`: the one way packets enter link queues.
    /// It becomes eligible to traverse the link from the next transmit
    /// phase on.
    #[inline]
    pub(crate) fn push(&mut self, id: usize, pkt: Packet) {
        let queue = &mut self.queues[id];
        if queue.is_empty() {
            if queue.pops() == 0 {
                self.dirty.push(id as u32);
            }
            self.active.insert(id);
        }
        queue.push(&mut self.pool, pkt);
        self.max_queue = self.max_queue.max(queue.len());
        self.in_flight += 1;
    }
}

/// The blocked and parked bits of the 64 links of one active-set word.
#[derive(Debug, Clone, Copy, Default)]
struct LinkFlags {
    /// Failed links: packets queue on them but never traverse.
    blocked: u64,
    /// Blocked links whose non-empty queue transmit took out of the
    /// active set; an unblock puts them back.
    parked: u64,
}

/// Set or clear link `id`'s blocked bit. Unblocking a parked link makes
/// its queue active again from the next transmit on.
#[inline]
fn set_blocked(flags: &mut [LinkFlags], active: &mut TwoLevelSet, id: usize, blocked: bool) {
    let (f, bit) = (&mut flags[id / 64], 1u64 << (id % 64));
    if blocked {
        f.blocked |= bit;
    } else {
        f.blocked &= !bit;
        if f.parked & bit != 0 {
            f.parked ^= bit;
            active.insert(id);
        }
    }
}

impl Engine {
    /// Build an engine for `net` (the adjacency is copied; the engine
    /// keeps no reference to `net`).
    pub fn new<N: Network + ?Sized>(net: &N, cfg: SimConfig) -> Self {
        let n = net.num_nodes();
        let mut link_offset = Vec::with_capacity(n + 1);
        let mut link_target = Vec::new();
        link_offset.push(0u32);
        for v in 0..n {
            for p in 0..net.out_degree(v) {
                link_target.push(net.neighbor(v, p) as u32);
            }
            link_offset.push(link_target.len() as u32);
        }
        let links = link_target.len();
        Engine {
            cfg,
            link_target,
            links: LinkState {
                offset: link_offset,
                queues: vec![LinkQueue::new(); links],
                pool: PacketPool::new(),
                active: TwoLevelSet::new(links),
                dirty: Vec::new(),
                max_queue: 0,
                in_flight: 0,
                delivered: Vec::new(),
            },
            flags: vec![LinkFlags::default(); links.div_ceil(64)],
            blocked_any: false,
            faults: None,
            clock: 0,
            pending: Vec::new(),
            metrics: Metrics::default(),
            arrival_links: Vec::new(),
            arrival_slots: Vec::new(),
        }
    }

    /// Number of nodes in the simulated network.
    pub fn num_nodes(&self) -> usize {
        self.links.offset.len() - 1
    }

    /// Link id of `(node, port)`. Panics if `node` has no such port.
    pub fn link_id(&self, node: usize, port: usize) -> usize {
        let (base, degree) = self.links.ports(node);
        assert!(
            port < degree,
            "block_link on invalid port {port} of node {node}"
        );
        base + port
    }

    /// Mark a link as failed: packets queue on it but never traverse.
    /// Used by fault-injection tests.
    pub fn block_link(&mut self, node: usize, port: usize) {
        let id = self.link_id(node, port);
        self.set_link_blocked(id, true);
    }

    /// Set the blocked state of a link by id. This is the raw knob the
    /// sharded coordinator uses to forward fault-schedule updates onto
    /// the shard that owns the link; [`Engine::block_link`] is the
    /// `(node, port)` convenience over it. Unblocking a link whose queue
    /// transmit parked makes the queue active again.
    pub fn set_link_blocked(&mut self, link: usize, blocked: bool) {
        assert!(link < self.num_links(), "link {link} out of range");
        set_blocked(&mut self.flags, &mut self.links.active, link, blocked);
        self.blocked_any |= blocked;
    }

    /// Install a deterministic fault schedule (validated against this
    /// engine's topology). The schedule's events are applied at the
    /// start of each transmit phase, keyed on the step count since the
    /// last [`Engine::reset`]; `reset` clears the plan, so a recycled
    /// engine always starts fault-free.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), FaultError> {
        let sched = FaultSchedule::build(plan, &self.links.offset, &self.link_target)?;
        self.faults = Some(Box::new(sched));
        // Whatever the schedule blocks must be wiped on reset.
        self.blocked_any = true;
        Ok(())
    }

    /// Override the step budget (emulators vary it per phase/attempt
    /// while reusing one engine).
    pub fn set_max_steps(&mut self, max_steps: u32) {
        self.cfg.max_steps = max_steps;
    }

    /// The step budget a run gets ([`SimConfig::max_steps`], or what
    /// [`Engine::set_max_steps`] set since).
    pub fn max_steps(&self) -> u32 {
        self.cfg.max_steps
    }

    /// Restore the engine to its just-built state — empty queues, zeroed
    /// counters and metrics, no blocked links — while keeping every
    /// allocation (arena, scratch) warm. Reusing one engine via `reset`
    /// makes a T-step emulation build its per-link state once instead of
    /// T times.
    pub fn reset(&mut self) {
        // Only touched queues need wiping (untouched ones are pristine):
        // reset cost scales with the traffic, not the network size.
        let links = &mut self.links;
        for &id in &links.dirty {
            links.queues[id as usize].reset();
        }
        links.dirty.clear();
        links.pool.clear();
        links.active.clear();
        links.max_queue = 0;
        links.in_flight = 0;
        if self.blocked_any {
            self.flags.fill(LinkFlags::default());
            self.blocked_any = false;
        }
        self.pending.clear();
        // The arena is gone, and with it any slot a coordinator held.
        self.arrival_links.clear();
        self.arrival_slots.clear();
        self.metrics = Metrics::default();
        self.faults = None;
        self.clock = 0;
    }

    /// Schedule `pkt` for injection at `node` before the first step.
    /// Panics if the network has no node `node`.
    pub fn inject(&mut self, node: usize, pkt: Packet) {
        let n = self.num_nodes();
        assert!(node < n, "inject at node {node} out of range 0..{n}");
        self.pending.push((node, pkt));
    }

    /// Run the protocol until all queues drain or `max_steps` elapse.
    pub fn run<P: Protocol>(&mut self, proto: &mut P) -> RunOutcome {
        self.run_traced(proto, &mut NoopSink)
    }

    /// [`Engine::run`] reporting to a [`TraceSink`]: [`step_loop`] over
    /// this engine. With [`NoopSink`] it monomorphizes to exactly the
    /// untraced loop.
    pub fn run_traced<P: Protocol, S: TraceSink + ?Sized>(
        &mut self,
        proto: &mut P,
        sink: &mut S,
    ) -> RunOutcome {
        let max_steps = self.cfg.max_steps;
        step_loop(self, proto, sink, &mut NoAdmission, max_steps)
    }

    // ------------------------------------------------------------------
    // Coordinator surface
    //
    // Beyond the [`StepEngine`] phases, an external coordinator (the
    // sharded subsystem, `lnpram-shard`) needs to read a shard engine's
    // arrivals and drive the protocol itself with outboxes onto the
    // engine that owns each node: each shard engine transmits its own
    // links, the coordinator reads the shards' arrivals in shard order
    // (their link ranges ascend, so that is global link-id order), and
    // closes the step on every shard.
    // ------------------------------------------------------------------

    /// An [`Outbox`] onto the out-links of this engine's node `local`,
    /// for a callback at `step` that a coordinator runs for its node
    /// `node` (the id the port check names): sends are queued on this
    /// engine at once, deliveries are recorded into `metrics`.
    pub fn outbox<'a>(
        &'a mut self,
        local: usize,
        node: usize,
        step: u32,
        metrics: &'a mut Metrics,
    ) -> Outbox<'a> {
        Outbox::direct(&mut self.links, metrics, local, node, step)
    }

    /// The links the last transmit moved a packet over, in ascending
    /// link-id order, the deterministic transmit order. Valid until the
    /// next transmit phase.
    pub fn arrivals(&self) -> &[u32] {
        &self.arrival_links
    }

    /// The packet that crossed `arrivals()[i]`, read from the arena slot
    /// the engine holds for it. Valid until this engine's own process
    /// phase consumes the arrivals (a coordinator that processes them
    /// itself never runs it) or the next transmit frees the slots.
    pub fn arrival_pkt(&self, i: usize) -> Packet {
        *self.links.pool.pkt(self.arrival_slots[i])
    }

    /// Total number of directed links (valid link ids are `0..num_links`).
    pub fn num_links(&self) -> usize {
        self.link_target.len()
    }

    /// Verify the engine's internal-state invariants. Intended at step
    /// boundaries (after [`StepEngine::step_finish`] / between
    /// [`Engine::run`] steps); the property tests call it directly, and
    /// `LNPRAM_CHECK_INVARIANTS=1` makes every step boundary check it
    /// automatically (any build profile — the chaos-smoke CI job runs
    /// the degraded-serve bench this way once).
    ///
    /// Checked:
    /// * every link queue's chain is acyclic, shares no slot with any
    ///   other chain or the free list, and agrees with its `len`/`tail`
    ///   counters;
    /// * the pool free list is acyclic and in range;
    /// * the held arrival slots are on no chain, not free and held once;
    /// * slot conservation: free + queued + held slots == arena capacity
    ///   (no leaked or double-owned slots);
    /// * packet conservation: `in_flight` == total queued packets;
    /// * every non-empty queue's bit is set in exactly one of the active
    ///   and the parked bitmaps, and no empty queue's bit in either; a
    ///   parked link is blocked; the active bitmap's summary has exactly
    ///   the bits of its non-zero words set;
    /// * no queue is longer than the `max_queue` counter;
    /// * the dirty list holds every link pushed on since reset, once.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let fail = |what: String| Err(InvariantViolation { what });

        // Chain walks share one seen-bitmap, so a slot reachable from
        // two places (two queues, or a queue and the free list) is
        // reported no matter which walk gets there second.
        let mut seen = vec![false; self.links.pool.capacity()];
        let mut total_queued = 0usize;
        for (id, q) in self.links.queues.iter().enumerate() {
            match q.check_chain(&self.links.pool, &mut seen) {
                Ok(n) => total_queued += n,
                Err(e) => return fail(format!("link {id}: {e}")),
            }
        }
        let free = match self.links.pool.walk_free(&mut seen) {
            Ok(n) => n,
            Err(e) => return fail(format!("packet pool: {e}")),
        };
        for &slot in &self.arrival_slots {
            match seen.get_mut(slot as usize) {
                Some(seen) if !*seen => *seen = true,
                _ => return fail(format!("held slot {slot} reached twice or out of range")),
            }
        }
        let held = self.arrival_slots.len();
        if free + total_queued + held != self.links.pool.capacity() {
            return fail(format!(
                "slot conservation: {free} free + {total_queued} queued + {held} held \
                 != arena capacity {}",
                self.links.pool.capacity()
            ));
        }
        if self.links.in_flight != total_queued {
            return fail(format!(
                "packet conservation: in_flight counter {} != {total_queued} queued packets",
                self.links.in_flight
            ));
        }

        // Dirty-list shape: no link twice.
        let mut dirty = vec![false; self.links.queues.len()];
        for &id in &self.links.dirty {
            if std::mem::replace(&mut dirty[id as usize], true) {
                return fail(format!("dirty list holds link {id} twice"));
            }
        }
        // Per queue: exactly one of its active and parked bits is set
        // while it is non-empty and neither otherwise, a parked link is
        // blocked, it is no longer than the max_queue counter, and if it
        // was ever pushed on it is dirty-listed (reset would leak it
        // otherwise).
        for (id, q) in self.links.queues.iter().enumerate() {
            let (f, bit) = (self.flags[id / 64], 1u64 << (id % 64));
            let (active, parked) = (self.links.active.contains(id), f.parked & bit != 0);
            if active && parked {
                return fail(format!("link {id} is both active and parked"));
            }
            if (active || parked) == q.is_empty() {
                return fail(format!(
                    "link {id} has {} queued packet(s) but its active bit is {} \
                     and its parked bit {}",
                    q.len(),
                    u8::from(active),
                    u8::from(parked)
                ));
            }
            if parked && f.blocked & bit == 0 {
                return fail(format!("link {id} is parked but not blocked"));
            }
            if q.len() > self.links.max_queue {
                return fail(format!(
                    "link {id} holds {} packets, above the max_queue counter {}",
                    q.len(),
                    self.links.max_queue
                ));
            }
            if (!q.is_empty() || q.pops() > 0) && !dirty[id] {
                return fail(format!(
                    "link {id} was pushed on but never marked touched (reset would leak it)"
                ));
            }
        }
        if let Err(e) = self.links.active.check() {
            return fail(format!("active links: {e}"));
        }
        Ok(())
    }

    /// Largest length any link queue has reached since construction or
    /// the last [`Engine::reset`] (the `max_queue` metric): a counter
    /// raised on every push.
    pub fn queue_high_water(&self) -> usize {
        self.links.max_queue
    }

    /// Every active, unblocked link hands the slot of the packet its
    /// discipline selects to the arrivals, packet uncopied, in ascending
    /// link order; links whose queue empties leave the active set, and
    /// blocked links are parked (their queue stays, nothing traverses).
    fn transmit(&mut self) {
        let disc = self.cfg.discipline;
        self.links.active.update_words(|w, mut left| {
            if self.blocked_any {
                let f = &mut self.flags[w];
                let stuck = left & f.blocked;
                f.parked |= stuck;
                left ^= stuck;
            }
            let mut bits = left;
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                bits ^= bit;
                let idx = w * 64 + bit.trailing_zeros() as usize;
                let queue = &mut self.links.queues[idx];
                if let Some(sel) = queue.select(&self.links.pool, disc) {
                    self.arrival_slots
                        .push(queue.detach(&mut self.links.pool, sel));
                    self.arrival_links.push(idx as u32);
                }
                if queue.is_empty() {
                    left ^= bit;
                }
            }
            left
        });
    }

    /// Move the not-yet-processed injections queued by [`Engine::inject`]
    /// onto the end of `out` without running any protocol callback. Lets
    /// a driver use a backend's injection routine as a packet
    /// *materialiser* (inject → drain) and re-inject the packets at a
    /// later admission step; the engine keeps its buffer.
    pub fn drain_pending_into(&mut self, out: &mut Vec<(usize, Packet)>) {
        out.append(&mut self.pending);
    }

    /// Per-link traversal counts in link-id order (CSR: links of node `v`
    /// are ports `0..out_degree(v)` in sequence). Available any time,
    /// independent of [`SimConfig::record_link_loads`].
    pub fn link_loads(&self) -> Vec<u32> {
        self.links.queues.iter().map(|q| q.pops()).collect()
    }

    /// Packets still queued (useful after an incomplete run).
    pub fn in_flight(&self) -> usize {
        self.links.in_flight
    }

    /// Drain every queue, active and parked, returning the stranded
    /// packets (used by the retry wrapper of Lemma 2.1 to send
    /// unsuccessful packets back). Queues are drained in ascending link
    /// order.
    pub fn drain_all(&mut self) -> Vec<Packet> {
        // Parked queues rejoin the active set, so one ascending walk
        // drains both.
        for link in parked_links(&self.flags, self.blocked_any) {
            self.links.active.insert(link);
        }
        for f in &mut self.flags {
            f.parked = 0;
        }
        let mut out = Vec::new();
        for link in self.links.active.iter() {
            self.links.queues[link].drain_into(&mut self.links.pool, &mut out);
        }
        self.links.active.clear();
        self.links.in_flight = 0;
        // A drained queue that never popped is pristine again; dropping
        // it from `dirty` keeps its next push from listing it twice.
        let queues = &self.links.queues;
        self.links
            .dirty
            .retain(|&id| queues[id as usize].pops() > 0);
        out
    }
}

/// The parked links, ascending: none unless a link has been blocked
/// since the last reset (`blocked_any`).
fn parked_links(flags: &[LinkFlags], blocked_any: bool) -> impl Iterator<Item = usize> + '_ {
    let words = if blocked_any { flags } else { &[] };
    words.iter().enumerate().flat_map(|(w, f)| {
        let mut bits = f.parked;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                i
            })
        })
    })
}

impl StepEngine for Engine {
    fn process_pending<P: Protocol>(&mut self, proto: &mut P, step: u32) {
        let Engine {
            pending,
            links,
            metrics,
            ..
        } = self;
        for &(node, mut pkt) in pending.iter() {
            pkt.injected_at = step;
            let mut out = Outbox::direct(links, metrics, node, node, step);
            proto.on_packet(node, pkt, step, &mut out);
        }
        pending.clear();
    }

    fn step_transmit<S: TraceSink + ?Sized>(&mut self, sink: &mut S) {
        self.clock += 1;
        let Engine {
            faults,
            flags,
            links,
            clock,
            ..
        } = self;
        if let Some(faults) = faults {
            // A recover or a duty cycle's open step unparks the link.
            let mut apply = |l: usize, b: bool| set_blocked(flags, &mut links.active, l, b);
            if sink.enabled() {
                faults.advance(*clock, |l, b| {
                    apply(l, b);
                    sink.on_fault(*clock, l, b);
                });
            } else {
                faults.advance(*clock, apply);
            }
        }
        sink.on_phase_start(Phase::Transmit);
        // Slots a coordinator read in place and left held.
        for &slot in &self.arrival_slots {
            self.links.pool.free(slot);
        }
        self.arrival_links.clear();
        self.arrival_slots.clear();
        self.transmit();
        self.links.in_flight -= self.arrival_links.len();
        sink.on_phase_end(Phase::Transmit);
    }

    fn process_arrivals<P: Protocol>(&mut self, proto: &mut P, step: u32) {
        let Engine {
            link_target,
            links,
            metrics,
            arrival_links,
            arrival_slots,
            ..
        } = self;
        // Each packet leaves its held slot, which is freed, right before
        // its callback.
        for (&link, &slot) in arrival_links.iter().zip(arrival_slots.iter()) {
            let node = link_target[link as usize] as usize;
            let pkt = links.pool.take(slot);
            let mut out = Outbox::direct(links, metrics, node, node, step);
            proto.on_packet(node, pkt, step, &mut out);
        }
        arrival_slots.clear();
    }

    fn step_finish(&mut self) {
        if invariant_checks_enabled() {
            if let Err(v) = self.check_invariants() {
                panic!("engine invariant violated at step boundary: {v}");
            }
        }
    }

    fn charge_queued(&mut self, packet_steps: u64) {
        self.metrics.queued_packet_steps += packet_steps;
    }

    fn finish_metrics(&mut self, steps: u32) -> Metrics {
        self.metrics.steps = steps;
        self.metrics.max_queue = self.queue_high_water();
        if self.cfg.record_link_loads {
            self.metrics.link_loads = self.links.queues.iter().map(|q| q.pops()).collect();
        }
        std::mem::take(&mut self.metrics)
    }

    fn delivered(&self) -> usize {
        self.metrics.delivered
    }

    fn arrivals_len(&self) -> usize {
        self.arrival_links.len()
    }
}

impl EngineState for Engine {
    fn inject(&mut self, node: usize, pkt: Packet) {
        Engine::inject(self, node, pkt);
    }

    fn in_flight(&self) -> usize {
        self.links.in_flight
    }

    fn max_queue_len(&self) -> usize {
        let links = &self.links;
        links
            .active
            .iter()
            .chain(parked_links(&self.flags, self.blocked_any))
            .map(|link| links.queues[link].len())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use lnpram_topology::graph::ExplicitNetwork;
    use lnpram_topology::Mesh;

    /// Greedy mesh router: first fix column (E/W), then row (N/S).
    struct GreedyMesh {
        mesh: Mesh,
    }

    impl Protocol for GreedyMesh {
        fn on_packet(&mut self, node: usize, pkt: Packet, _step: u32, out: &mut Outbox) {
            if node == pkt.dest as usize {
                out.deliver(pkt);
                return;
            }
            let (r, c) = self.mesh.coords(node);
            let (dr, dc) = self.mesh.coords(pkt.dest as usize);
            use lnpram_topology::mesh::Dir;
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

    #[test]
    fn single_packet_takes_exactly_distance_steps() {
        let mesh = Mesh::square(8);
        let mut eng = Engine::new(&mesh, SimConfig::default());
        let src = mesh.node_at(0, 0);
        let dest = mesh.node_at(5, 7);
        eng.inject(src, Packet::new(0, src as u32, dest as u32));
        let out = eng.run(&mut GreedyMesh { mesh });
        assert!(out.completed);
        assert_eq!(out.metrics.delivered, 1);
        assert_eq!(out.metrics.routing_time as usize, mesh.manhattan(src, dest));
        assert_eq!(out.metrics.max_queue, 1);
    }

    #[test]
    fn self_delivery_at_step_zero() {
        let mesh = Mesh::square(2);
        let mut eng = Engine::new(&mesh, SimConfig::default());
        eng.inject(0, Packet::new(0, 0, 0));
        let out = eng.run(&mut GreedyMesh { mesh });
        assert!(out.completed);
        assert_eq!(out.metrics.delivered, 1);
        assert_eq!(out.metrics.routing_time, 0);
        assert_eq!(out.metrics.steps, 0);
    }

    #[test]
    fn contention_serialises_on_shared_link() {
        // Path graph 0-1-2: both packets from 0 and an injected one at 0
        // headed to 2 must share link (1->2): second is delayed by 1.
        let net = ExplicitNetwork::undirected(3, &[(0, 1), (1, 2)], "path3");
        let mut proto = |node: usize, pkt: Packet, _s: u32, out: &mut Outbox| {
            if node == pkt.dest as usize {
                out.deliver(pkt);
            } else {
                // toward higher node id: port that leads to node+1
                let port = (0..net.out_degree(node))
                    .find(|&p| net.neighbor(node, p) == node + 1)
                    .unwrap();
                out.send(port, pkt);
            }
        };
        let mut eng2 = Engine::new(&net, SimConfig::default());
        eng2.inject(0, Packet::new(0, 0, 2));
        eng2.inject(0, Packet::new(1, 0, 2));
        let out = eng2.run(&mut proto);
        assert!(out.completed);
        assert_eq!(out.metrics.delivered, 2);
        // first packet: 2 steps; second: 3 steps (1 delay on link 0->1).
        assert_eq!(out.metrics.routing_time, 3);
        assert_eq!(out.metrics.max_queue, 2);
    }

    #[test]
    fn max_steps_aborts_incomplete() {
        let mesh = Mesh::square(4);
        let cfg = SimConfig {
            max_steps: 2,
            ..Default::default()
        };
        let mut eng = Engine::new(&mesh, cfg);
        let src = mesh.node_at(0, 0);
        let dest = mesh.node_at(3, 3);
        eng.inject(src, Packet::new(0, src as u32, dest as u32));
        let out = eng.run(&mut GreedyMesh { mesh });
        assert!(!out.completed);
        assert_eq!(out.metrics.delivered, 0);
        assert_eq!(eng.in_flight(), 1);
        let stranded = eng.drain_all();
        assert_eq!(stranded.len(), 1);
        assert_eq!(eng.in_flight(), 0);
    }

    #[test]
    fn blocked_link_strands_packets() {
        let mesh = Mesh::linear(3);
        let mut eng = Engine::new(
            &mesh,
            SimConfig {
                max_steps: 10,
                ..Default::default()
            },
        );
        // Block 0 -> 1 (port of East at node 0).
        let port = mesh
            .port_of_dir(0, lnpram_topology::mesh::Dir::East)
            .unwrap();
        eng.block_link(0, port);
        eng.inject(0, Packet::new(0, 0, 2));
        let out = eng.run(&mut GreedyMesh { mesh });
        assert!(!out.completed);
        assert_eq!(out.metrics.delivered, 0);
    }

    #[test]
    fn fault_plan_delays_then_delivers() {
        use crate::fault::{Fault, FaultEvent, FaultPlan};
        let mesh = Mesh::linear(3);
        let mut eng = Engine::new(&mesh, SimConfig::default());
        let port = mesh
            .port_of_dir(0, lnpram_topology::mesh::Dir::East)
            .unwrap();
        let link = eng.link_id(0, port);
        let plan = FaultPlan::new(vec![
            FaultEvent {
                step: 1,
                fault: Fault::LinkFail { link },
            },
            FaultEvent {
                step: 5,
                fault: Fault::LinkRecover { link },
            },
        ]);
        eng.set_fault_plan(&plan).unwrap();
        eng.inject(0, Packet::new(0, 0, 2));
        let out = eng.run(&mut GreedyMesh { mesh });
        assert!(out.completed);
        assert_eq!(out.metrics.delivered, 1);
        // Link 0->1 is down for transmits 1..=4: first hop lands at step
        // 5, second at step 6 (2 steps unfaulted).
        assert_eq!(out.metrics.routing_time, 6);
    }

    #[test]
    fn fault_plan_node_fail_makes_destination_unreachable() {
        use crate::fault::{Fault, FaultEvent, FaultPlan};
        let mesh = Mesh::linear(3);
        let mut eng = Engine::new(
            &mesh,
            SimConfig {
                max_steps: 20,
                ..Default::default()
            },
        );
        let plan = FaultPlan::new(vec![FaultEvent {
            step: 1,
            fault: Fault::NodeFail { node: 2 },
        }]);
        assert_eq!(plan.dead_nodes(), vec![2]);
        eng.set_fault_plan(&plan).unwrap();
        eng.inject(0, Packet::new(0, 0, 2));
        let out = eng.run(&mut GreedyMesh { mesh });
        assert!(!out.completed);
        assert_eq!(out.metrics.delivered, 0);
        let stranded = eng.drain_all();
        assert_eq!(stranded.len(), 1);
        assert_eq!(stranded[0].dest, 2);
    }

    #[test]
    fn degraded_link_runs_at_duty_cycle() {
        use crate::fault::{Fault, FaultEvent, FaultPlan};
        let mesh = Mesh::linear(3);
        let run = |period: Option<u32>| {
            let mut eng = Engine::new(&mesh, SimConfig::default());
            if let Some(period) = period {
                let port = mesh
                    .port_of_dir(0, lnpram_topology::mesh::Dir::East)
                    .unwrap();
                let link = eng.link_id(0, port);
                let plan = FaultPlan::new(vec![FaultEvent {
                    step: 1,
                    fault: Fault::LinkDegrade { link, period },
                }]);
                eng.set_fault_plan(&plan).unwrap();
            }
            for i in 0..4u32 {
                eng.inject(0, Packet::new(i, 0, 2));
            }
            let out = eng.run(&mut GreedyMesh { mesh });
            assert!(out.completed);
            assert_eq!(out.metrics.delivered, 4);
            out.metrics.routing_time
        };
        // 4 packets share link 0->1: last arrives at node 1 at step 4,
        // delivers at 5. At period 2 the link fires on steps 2,4,6,8
        // only, so the last delivery slips to step 9.
        assert_eq!(run(None), 5);
        assert_eq!(run(Some(2)), 9);
    }

    #[test]
    fn reset_clears_fault_plan() {
        use crate::fault::{Fault, FaultEvent, FaultPlan};
        let mesh = Mesh::linear(3);
        let mut eng = Engine::new(
            &mesh,
            SimConfig {
                max_steps: 10,
                ..Default::default()
            },
        );
        let port = mesh
            .port_of_dir(0, lnpram_topology::mesh::Dir::East)
            .unwrap();
        let link = eng.link_id(0, port);
        let plan = FaultPlan::new(vec![FaultEvent {
            step: 1,
            fault: Fault::LinkFail { link },
        }]);
        eng.set_fault_plan(&plan).unwrap();
        eng.inject(0, Packet::new(0, 0, 2));
        let out = eng.run(&mut GreedyMesh { mesh });
        assert!(!out.completed, "permanent link fault strands the packet");

        eng.reset();
        eng.inject(0, Packet::new(0, 0, 2));
        let out = eng.run(&mut GreedyMesh { mesh });
        assert!(out.completed, "reset must clear the installed fault plan");
        assert_eq!(out.metrics.routing_time, 2);
    }

    #[test]
    fn link_loads_recorded_and_sum_to_path_lengths() {
        let mesh = Mesh::square(6);
        let cfg = SimConfig {
            record_link_loads: true,
            ..Default::default()
        };
        let mut eng = Engine::new(&mesh, cfg);
        for i in 0..mesh.num_nodes() {
            let dest = (i * 17 + 5) % mesh.num_nodes();
            eng.inject(i, Packet::new(i as u32, i as u32, dest as u32));
        }
        let out = eng.run(&mut GreedyMesh { mesh });
        assert!(out.completed);
        let loads = out.metrics.link_loads;
        assert!(!loads.is_empty());
        // Total traversals = sum of every packet's path length = sum of
        // Manhattan distances (greedy takes shortest paths exactly).
        let total: u64 = loads.iter().map(|&l| u64::from(l)).sum();
        let dist: u64 = (0..mesh.num_nodes())
            .map(|i| mesh.manhattan(i, (i * 17 + 5) % mesh.num_nodes()) as u64)
            .sum();
        assert_eq!(total, dist);
    }

    #[test]
    fn link_loads_empty_without_flag() {
        let mesh = Mesh::square(3);
        let mut eng = Engine::new(&mesh, SimConfig::default());
        eng.inject(0, Packet::new(0, 0, 8));
        let out = eng.run(&mut GreedyMesh { mesh });
        assert!(out.metrics.link_loads.is_empty());
        // The engine-side accessor still works on demand.
        assert_eq!(
            eng.link_loads().iter().map(|&l| u64::from(l)).sum::<u64>(),
            4
        );
    }

    #[test]
    fn fanout_protocol_duplicates() {
        // A protocol may emit several packets for one arrival (reply
        // fan-out). Inject one packet at the centre; protocol broadcasts to
        // all neighbors, which deliver.
        let mesh = Mesh::square(3);
        let centre = mesh.node_at(1, 1) as u32;
        let mut proto = move |node: usize, pkt: Packet, _s: u32, out: &mut Outbox| {
            if node as u32 == centre && pkt.phase == 0 {
                for port in 0..4 {
                    let mut dup = pkt;
                    dup.phase = 1;
                    dup.id = port as u32;
                    out.send(port, dup);
                }
            } else {
                out.deliver(pkt);
            }
        };
        let mut eng = Engine::new(&mesh, SimConfig::default());
        eng.inject(centre as usize, Packet::new(0, centre, centre));
        let out = eng.run(&mut proto);
        assert!(out.completed);
        assert_eq!(out.metrics.delivered, 4);
        assert_eq!(out.metrics.routing_time, 1);
    }

    /// Satellite pin: a reset engine is indistinguishable from a fresh
    /// one — bit-identical metrics and link loads over the same injection
    /// sequence, across several rounds.
    #[test]
    fn reset_engine_matches_fresh_engine() {
        let mesh = Mesh::square(6);
        let cfg = || SimConfig {
            record_link_loads: true,
            ..Default::default()
        };
        let inject_round = |eng: &mut Engine, round: usize| {
            for i in 0..mesh.num_nodes() {
                let dest = (i * 13 + round * 7 + 3) % mesh.num_nodes();
                eng.inject(i, Packet::new(i as u32, i as u32, dest as u32));
            }
        };
        let fingerprint = |m: &Metrics| {
            (
                m.routing_time,
                m.delivered,
                m.max_queue,
                m.queued_packet_steps,
                m.steps,
                m.link_loads.clone(),
            )
        };
        let mut reused = Engine::new(&mesh, cfg());
        for round in 0..4 {
            reused.reset();
            inject_round(&mut reused, round);
            let out_reused = reused.run(&mut GreedyMesh { mesh });

            let mut fresh = Engine::new(&mesh, cfg());
            inject_round(&mut fresh, round);
            let out_fresh = fresh.run(&mut GreedyMesh { mesh });

            assert!(out_reused.completed && out_fresh.completed);
            assert_eq!(
                fingerprint(&out_reused.metrics),
                fingerprint(&out_fresh.metrics),
                "round {round}"
            );
            assert_eq!(reused.link_loads(), fresh.link_loads());
        }
    }

    #[test]
    fn reset_clears_stranded_state_and_blocks() {
        let mesh = Mesh::linear(4);
        let mut eng = Engine::new(
            &mesh,
            SimConfig {
                max_steps: 2,
                ..Default::default()
            },
        );
        let port = mesh
            .port_of_dir(0, lnpram_topology::mesh::Dir::East)
            .unwrap();
        eng.block_link(0, port);
        eng.inject(0, Packet::new(0, 0, 3));
        let out = eng.run(&mut GreedyMesh { mesh });
        assert!(!out.completed);
        assert_eq!(eng.in_flight(), 1);

        eng.reset();
        eng.set_max_steps(100);
        assert_eq!(eng.in_flight(), 0);
        eng.inject(0, Packet::new(0, 0, 3));
        let out = eng.run(&mut GreedyMesh { mesh });
        assert!(out.completed, "reset must unblock links and drain queues");
        assert_eq!(out.metrics.delivered, 1);
        assert_eq!(out.metrics.max_queue, 1, "high-water marks must reset");
    }

    #[test]
    fn arena_stops_growing_after_warmup_across_rounds() {
        let mesh = Mesh::square(5);
        let mut eng = Engine::new(&mesh, SimConfig::default());
        let run_round = |eng: &mut Engine| {
            eng.reset();
            for i in 0..mesh.num_nodes() {
                let dest = (i * 11 + 2) % mesh.num_nodes();
                eng.inject(i, Packet::new(i as u32, i as u32, dest as u32));
            }
            let out = eng.run(&mut GreedyMesh { mesh });
            assert!(out.completed);
        };
        run_round(&mut eng);
        let warm = eng.links.pool.capacity();
        for _ in 0..5 {
            run_round(&mut eng);
            assert_eq!(
                eng.links.pool.capacity(),
                warm,
                "arena regrew after warm-up"
            );
        }
    }

    /// Injections are processed in the order they were queued, so a
    /// descending node order sets the active bitmap's words from the top
    /// down; transmit must still visit links ascending.
    #[test]
    fn transmit_visits_links_ascending_after_descending_injections() {
        let mesh = Mesh::linear(200);
        let mut eng = Engine::new(&mesh, SimConfig::default());
        assert!(eng.num_links().div_ceil(64) >= 4);
        for node in (0..200).rev() {
            let dest = if node < 100 { 199 } else { 0 };
            eng.inject(node, Packet::new(node as u32, node as u32, dest));
        }
        let mut proto = GreedyMesh { mesh };
        eng.process_pending(&mut proto, 0);
        eng.step_finish();
        eng.step_transmit(&mut NoopSink);
        let links = eng.arrivals();
        assert_eq!(links.len(), 200);
        assert!(links.windows(2).all(|w| w[0] < w[1]), "{links:?}");
        for (i, &link) in links.iter().enumerate() {
            // One hop from the source toward the destination.
            let pkt = eng.arrival_pkt(i);
            let next = if pkt.dest > pkt.src {
                pkt.src + 1
            } else {
                pkt.src - 1
            };
            assert_eq!(eng.link_target[link as usize], next);
        }
        // The 200 slots are held, on no chain and not free.
        assert_eq!(eng.arrival_slots.len(), 200);
        assert_eq!(eng.check_invariants(), Ok(()));
        eng.process_arrivals(&mut proto, 1);
        assert!(eng.arrival_slots.is_empty());
        assert_eq!(eng.arrivals().len(), 200);
        assert_eq!(eng.check_invariants(), Ok(()));
    }

    /// `max_queue` is the peak length, not the length at the end.
    #[test]
    fn max_queue_is_the_peak_not_the_final_length() {
        let net = ExplicitNetwork::undirected(2, &[(0, 1)], "edge");
        let mut eng = Engine::new(&net, SimConfig::default());
        let mut proto = |_node: usize, pkt: Packet, _s: u32, out: &mut Outbox| out.deliver(pkt);
        let mut metrics = Metrics::default();
        let mut out = eng.outbox(0, 0, 0, &mut metrics);
        for i in 0..4 {
            out.send(0, Packet::new(i, 0, 1));
        }
        assert_eq!(out.pending_sends(), 4);
        for step in 1..=2 {
            eng.step_transmit(&mut NoopSink);
            eng.process_arrivals(&mut proto, step);
            eng.step_finish();
        }
        eng.outbox(0, 0, 2, &mut metrics)
            .send(0, Packet::new(9, 0, 1));
        assert_eq!(eng.max_queue_len(), 3);
        assert_eq!(eng.finish_metrics(2).max_queue, 4);
    }

    /// An injection at a node the network lacks fails where it is made,
    /// not later inside the process phase.
    #[test]
    #[should_panic(expected = "inject at node 4 out of range 0..4")]
    fn inject_past_the_last_node_panics() {
        let mut eng = Engine::new(&Mesh::linear(4), SimConfig::default());
        eng.inject(4, Packet::new(0, 0, 0));
    }

    /// A send past the node's last port panics instead of landing on
    /// the next node's link: node 3 of a 4-node path has one port.
    #[test]
    #[should_panic(expected = "protocol sent on invalid port 1 of node 3")]
    fn send_on_invalid_port_panics() {
        let path = Mesh::linear(4);
        let mut eng = Engine::new(&path, SimConfig::default());
        eng.inject(3, Packet::new(0, 3, 0));
        let mut proto = |node: usize, pkt: Packet, _s: u32, out: &mut Outbox| {
            out.send(path.out_degree(node), pkt);
        };
        eng.run(&mut proto);
    }

    fn first_active_link(eng: &Engine) -> usize {
        eng.links.active.iter().next().expect("a queued link")
    }

    /// Clear `link`'s active bit, whatever its queue holds.
    fn deactivate(eng: &mut Engine, link: usize) {
        let (word, bit) = (link / 64, 1 << (link % 64));
        eng.links
            .active
            .update_words(|w, bits| if w == word { bits & !bit } else { bits });
    }

    /// `check_invariants` must actually detect corruption, not just
    /// bless healthy engines: break each bookkeeping layer by hand and
    /// confirm the violation is reported.
    #[test]
    fn check_invariants_detects_seeded_corruption() {
        let mesh = Mesh::square(3);
        let build = || {
            let mut eng = Engine::new(&mesh, SimConfig::default());
            for i in 0..4 {
                eng.inject(i, Packet::new(i as u32, i as u32, 8));
            }
            let mut proto = GreedyMesh { mesh };
            eng.process_pending(&mut proto, 0);
            eng.step_finish();
            assert_eq!(eng.check_invariants(), Ok(()));
            eng
        };

        // Packet-conservation drift.
        let mut eng = build();
        eng.links.in_flight += 1;
        let err = eng
            .check_invariants()
            .expect_err("in_flight drift must be caught");
        assert!(err.what.contains("packet conservation"), "{err}");

        // Queue length counter out of sync with its chain.
        let mut eng = build();
        let link = first_active_link(&eng);
        eng.links.queues[link].push(&mut eng.links.pool, Packet::new(99, 0, 8));
        // (push bumped len and allocated a slot, but in_flight was not
        // told — and we also corrupt the counter directly)
        eng.links.in_flight += 1;
        eng.links.queues[link].reset();
        let err = eng
            .check_invariants()
            .expect_err("leaked chain must be caught");
        assert!(
            err.what.contains("slot conservation") || err.what.contains("len counter"),
            "{err}"
        );

        // Active list referencing an empty, unblocked queue.
        let mut eng = build();
        let link = first_active_link(&eng);
        let n = eng.links.queues[link].len();
        for _ in 0..n {
            eng.links.queues[link].pop(&mut eng.links.pool, Discipline::Fifo);
        }
        eng.links.in_flight -= n;
        let err = eng
            .check_invariants()
            .expect_err("stale active entry must be caught");
        assert!(err.what.contains("active"), "{err}");

        // A summary bit cleared over a non-zero active word: transmit
        // would skip the word's queued links.
        let mut eng = build();
        let link = first_active_link(&eng);
        eng.links.active.clear_summary_bit(link / 64);
        let err = eng
            .check_invariants()
            .expect_err("unsummarised active word must be caught");
        assert!(
            err.what
                .contains(&format!("summary bit of word {} is 0", link / 64)),
            "{err}"
        );

        // A parked bit on a link that is not blocked: no unblock would
        // ever bring the queue back.
        let mut eng = build();
        let link = first_active_link(&eng);
        deactivate(&mut eng, link);
        eng.flags[link / 64].parked |= 1 << (link % 64);
        let err = eng
            .check_invariants()
            .expect_err("a parked unblocked link must be caught");
        assert!(
            err.what
                .contains(&format!("link {link} is parked but not blocked")),
            "{err}"
        );

        // A non-empty queue in neither set: transmit would never see it.
        let mut eng = build();
        let link = first_active_link(&eng);
        deactivate(&mut eng, link);
        let err = eng
            .check_invariants()
            .expect_err("a queue in neither set must be caught");
        assert!(
            err.what
                .contains("its active bit is 0 and its parked bit 0"),
            "{err}"
        );

        // A held arrival slot that is also pushed on the free list: the
        // next send would overwrite the packet before it is processed.
        let mut eng = build();
        eng.step_transmit(&mut NoopSink);
        assert_eq!(eng.check_invariants(), Ok(()));
        let slot = eng.arrival_slots[0];
        eng.links.pool.free(slot);
        let err = eng
            .check_invariants()
            .expect_err("a held slot on the free list must be caught");
        assert!(
            err.what
                .contains(&format!("held slot {slot} reached twice or out of range")),
            "{err}"
        );
    }

    fn is_parked(eng: &Engine, link: usize) -> bool {
        eng.flags[link / 64].parked >> (link % 64) & 1 == 1
    }

    fn parks_none(eng: &Engine) -> bool {
        eng.flags.iter().all(|f| f.parked == 0)
    }

    /// Transmit parks a blocked link's queue: out of the walk, but whole,
    /// still pushed on, counted by `max_queue_len` and drained by
    /// `drain_all` in link order.
    #[test]
    fn a_blocked_link_parks_and_its_queue_stays_whole() {
        use lnpram_topology::mesh::Dir;
        let mesh = Mesh::linear(4);
        let mut eng = Engine::new(&mesh, SimConfig::default());
        let east = |v: usize| mesh.port_of_dir(v, Dir::East).unwrap();
        let [a, b, c] = [0, 1, 2].map(|v| eng.link_id(v, east(v)));
        assert!(a < b && b < c);
        eng.block_link(0, east(0));
        eng.block_link(2, east(2));
        for (id, node) in [(0, 0), (1, 0), (2, 1), (3, 2)] {
            eng.inject(node, Packet::new(id, node as u32, 3));
        }
        let mut proto = GreedyMesh { mesh };
        eng.process_pending(&mut proto, 0);
        eng.step_finish();
        assert!(parks_none(&eng), "nothing parked before a transmit");

        eng.step_transmit(&mut NoopSink);
        // `b` moved its packet; `a` and `c` were met blocked and parked.
        assert_eq!(eng.arrivals(), &[b as u32]);
        for (link, len) in [(a, 2), (c, 1)] {
            assert!(!eng.links.active.contains(link) && is_parked(&eng, link));
            assert_eq!(eng.links.queues[link].len(), len);
        }
        assert_eq!(eng.in_flight(), 3);
        assert_eq!(eng.check_invariants(), Ok(()));

        // Packet 2 reaches node 2 and is pushed onto the parked `c`,
        // which stays parked.
        eng.process_arrivals(&mut proto, 1);
        eng.step_finish();
        assert_eq!(eng.links.queues[c].len(), 2);
        assert!(!eng.links.active.contains(c) && is_parked(&eng, c));
        let mut metrics = Metrics::default();
        eng.outbox(1, 1, 1, &mut metrics)
            .send(east(1), Packet::new(4, 1, 3));
        assert_eq!(eng.check_invariants(), Ok(()));
        // The longest queues (two packets each) are the parked ones.
        assert_eq!(eng.max_queue_len(), 2);

        let ids: Vec<u32> = eng.drain_all().iter().map(|p| p.id).collect();
        assert_eq!(ids, [0, 1, 4, 3, 2], "a, then b, then c");
        assert_eq!(eng.in_flight(), 0);
        assert!(parks_none(&eng));
        assert_eq!(eng.check_invariants(), Ok(()));
    }

    /// How a parked link comes back.
    #[derive(Debug, Clone, Copy)]
    enum Unblock {
        /// `set_link_blocked(link, false)` at the boundary after step 3.
        SetLinkBlocked,
        /// A `FaultPlan`: `LinkFail` at step 1, `LinkRecover` at step 4.
        Recover,
        /// A `FaultPlan`: `LinkDegrade` with period 3 from step 1, open
        /// on every third step.
        Degrade,
    }

    /// A recovered queue drains exactly as on an engine that never
    /// parked: six packets (two pushed while the link is parked) cross
    /// in the same order, under either discipline, by every unblock.
    #[test]
    fn a_recovered_queue_drains_as_if_it_never_parked() {
        use crate::fault::{Fault, FaultEvent, FaultPlan};
        let net = ExplicitNetwork::undirected(2, &[(0, 1)], "edge");
        let mut proto = |node: usize, pkt: Packet, _s: u32, out: &mut Outbox| {
            if node == 1 {
                out.deliver(pkt);
            } else {
                out.send(0, pkt);
            }
        };
        fn pkt(id: u32) -> Packet {
            Packet::new(id, 0, 1).with_priority([3, 1, 4, 1, 5, 9][id as usize])
        }
        /// `(step, packet id)` of every crossing of link 0 (node 0 → 1),
        /// the steps driven phase by phase; an engine that will unblock
        /// gets packets 4 and 5 pushed while it is parked.
        fn crossings<P: Protocol>(
            eng: &mut Engine,
            proto: &mut P,
            unblock: Option<Unblock>,
        ) -> Vec<(u32, u32)> {
            let mut seen = Vec::new();
            let mut t = 0;
            while eng.in_flight() > 0 {
                t += 1;
                assert!(t <= 40, "ran away");
                eng.step_transmit(&mut NoopSink);
                seen.extend((0..eng.arrivals().len()).map(|i| (t, eng.arrival_pkt(i).id)));
                eng.process_arrivals(proto, t);
                eng.step_finish();
                assert_eq!(eng.check_invariants(), Ok(()), "step {t}");
                if unblock.is_none() {
                    continue;
                }
                if t == 1 {
                    assert!(is_parked(eng, 0) && !eng.links.active.contains(0));
                    let mut metrics = Metrics::default();
                    let mut out = eng.outbox(0, 0, 1, &mut metrics);
                    out.send(0, pkt(4));
                    out.send(0, pkt(5));
                    assert!(is_parked(eng, 0), "a push does not re-activate");
                }
                if t == 3 && matches!(unblock, Some(Unblock::SetLinkBlocked)) {
                    eng.set_link_blocked(0, false);
                    assert!(!is_parked(eng, 0) && eng.links.active.contains(0));
                }
            }
            seen
        }
        for disc in [Discipline::Fifo, Discipline::FurthestFirst] {
            let mut never = Engine::new(&net, SimConfig::with_discipline(disc));
            for id in 0..6 {
                never.inject(0, pkt(id));
            }
            never.process_pending(&mut proto, 0);
            let expect = crossings(&mut never, &mut proto, None);
            assert!(parks_none(&never), "a fault-free run never parks");
            let expect_ids: Vec<u32> = expect.iter().map(|&(_, id)| id).collect();

            for unblock in [Unblock::SetLinkBlocked, Unblock::Recover, Unblock::Degrade] {
                let mut eng = Engine::new(&net, SimConfig::with_discipline(disc));
                let fault = |step, fault| FaultEvent { step, fault };
                match unblock {
                    Unblock::SetLinkBlocked => eng.block_link(0, 0),
                    Unblock::Recover => eng
                        .set_fault_plan(&FaultPlan::new(vec![
                            fault(1, Fault::LinkFail { link: 0 }),
                            fault(4, Fault::LinkRecover { link: 0 }),
                        ]))
                        .unwrap(),
                    Unblock::Degrade => eng
                        .set_fault_plan(&FaultPlan::new(vec![fault(
                            1,
                            Fault::LinkDegrade { link: 0, period: 3 },
                        )]))
                        .unwrap(),
                }
                for id in 0..4 {
                    eng.inject(0, pkt(id));
                }
                eng.process_pending(&mut proto, 0);
                let got = crossings(&mut eng, &mut proto, Some(unblock));
                let ids: Vec<u32> = got.iter().map(|&(_, id)| id).collect();
                assert_eq!(ids, expect_ids, "{disc:?}, {unblock:?}");
                let steps: Vec<u32> = got.iter().map(|&(t, _)| t).collect();
                let open: Vec<u32> = match unblock {
                    Unblock::Degrade => (1..=6).map(|i| 3 * i).collect(),
                    _ => (4..=9).collect(),
                };
                assert_eq!(steps, open, "{disc:?}, {unblock:?}");
            }
        }
    }

    mod properties {
        use super::*;
        use lnpram_topology::{Leveled, LeveledNet, RadixButterfly};
        use proptest::prelude::*;

        /// A forward butterfly's unique path: the packet's `dest` is its
        /// last-column index.
        struct ButterflyPath(LeveledNet<RadixButterfly>);

        impl Protocol for ButterflyPath {
            fn on_packet(&mut self, node: usize, pkt: Packet, _step: u32, out: &mut Outbox) {
                let (col, idx) = self.0.split(node);
                let lv = self.0.leveled();
                if col == lv.levels() {
                    out.deliver(pkt);
                } else {
                    out.send(lv.digit_toward(col, idx, pkt.dest as usize), pkt);
                }
            }
        }

        /// `step_loop`'s phases driven one by one: the invariants must
        /// hold after every transmit, with the moved packets' slots held,
        /// and after every process phase, with none held. Returns the
        /// run's metrics.
        fn run_by_phases<P: Protocol>(eng: &mut Engine, proto: &mut P) -> Metrics {
            eng.process_pending(proto, 0);
            eng.step_finish();
            let mut step = 0;
            while eng.in_flight() > 0 {
                step += 1;
                assert!(step <= eng.cfg.max_steps, "driver ran away");
                eng.step_transmit(&mut NoopSink);
                assert_eq!(eng.arrival_slots.len(), eng.arrivals().len());
                assert_eq!(eng.check_invariants(), Ok(()), "step {step} after transmit");
                eng.process_arrivals(proto, step);
                assert!(eng.arrival_slots.is_empty());
                assert_eq!(eng.check_invariants(), Ok(()), "step {step} after process");
                eng.step_finish();
                eng.charge_queued(eng.in_flight() as u64);
            }
            eng.finish_metrics(step)
        }

        /// What a run is observed by: every [`Metrics`] field.
        fn observed(m: &Metrics) -> (u32, usize, usize, u64, u32, Vec<(u64, u64)>) {
            (
                m.routing_time,
                m.delivered,
                m.max_queue,
                m.queued_packet_steps,
                m.steps,
                m.latency.buckets().collect(),
            )
        }

        fn discipline(furthest: bool) -> Discipline {
            if furthest {
                Discipline::FurthestFirst
            } else {
                Discipline::Fifo
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Conservation: every injected packet is delivered exactly
            /// once (greedy routing on a mesh terminates for any request
            /// multiset), and the routing time is at least the maximum
            /// requested distance.
            #[test]
            fn prop_packet_conservation(
                rows in 2usize..8,
                cols in 2usize..8,
                seed: u64,
                load in 1usize..4,
                furthest: bool,
            ) {
                let mesh = Mesh::new(rows, cols);
                let n = mesh.num_nodes();
                let mut state = seed;
                let mut eng = Engine::new(&mesh, SimConfig {
                    discipline: if furthest {
                        crate::queue::Discipline::FurthestFirst
                    } else {
                        crate::queue::Discipline::Fifo
                    },
                    ..Default::default()
                });
                let mut injected = 0u32;
                let mut max_dist = 0u32;
                for src in 0..n {
                    for _ in 0..load {
                        let dest = (lnpram_math::rng::splitmix64(&mut state) as usize) % n;
                        eng.inject(src, Packet::new(injected, src as u32, dest as u32));
                        injected += 1;
                        max_dist = max_dist.max(mesh.manhattan(src, dest) as u32);
                    }
                }
                let out = eng.run(&mut GreedyMesh { mesh });
                prop_assert!(out.completed);
                prop_assert_eq!(out.metrics.delivered as u32, injected);
                prop_assert!(out.metrics.routing_time >= max_dist);
                prop_assert_eq!(eng.in_flight(), 0);
                // State-layer complement of the outcome checks above.
                prop_assert_eq!(eng.check_invariants(), Ok(()));
            }

            /// The internal-state invariants (pool/chain consistency,
            /// packet conservation, active-list shape) hold at *every*
            /// step boundary of a coordinator-driven run, not just at
            /// the end — the dynamic complement of the source policy clippy
            /// enforces (`[workspace.lints]`).
            #[test]
            fn prop_invariants_hold_at_every_step(
                rows in 2usize..6,
                cols in 2usize..6,
                seed: u64,
                load in 1usize..3,
            ) {
                let mesh = Mesh::new(rows, cols);
                let n = mesh.num_nodes();
                let mut eng = Engine::new(&mesh, SimConfig::default());
                let mut state = seed;
                let mut id = 0u32;
                for src in 0..n {
                    for _ in 0..load {
                        let dest = (lnpram_math::rng::splitmix64(&mut state) as usize) % n;
                        eng.inject(src, Packet::new(id, src as u32, dest as u32));
                        id += 1;
                    }
                }
                let mut proto = GreedyMesh { mesh };
                eng.process_pending(&mut proto, 0);
                eng.step_finish();
                prop_assert_eq!(eng.check_invariants(), Ok(()));
                let mut step = 0u32;
                while eng.in_flight() > 0 {
                    step += 1;
                    prop_assert!(step <= eng.cfg.max_steps, "driver ran away");
                    eng.step_transmit(&mut NoopSink);
                    eng.process_arrivals(&mut proto, step);
                    eng.step_finish();
                    prop_assert_eq!(eng.check_invariants(), Ok(()));
                }
            }

            /// Held arrival slots on random meshes and butterflies, under both disciplines: the phase-by-phase
            /// run keeps every invariant and equals [`Engine::run`].
            /// Random priorities make furthest-first detach slots from
            /// the middle of a chain.
            #[test]
            fn prop_held_slots_keep_invariants_and_match_run(
                rows in 1usize..7,
                cols in 2usize..7,
                dims in 1usize..6,
                seed: u64,
                load in 1usize..4,
                furthest: bool,
            ) {
                let cfg = SimConfig::with_discipline(discipline(furthest));
                let mut state = seed;
                let mut draw = |n: usize| lnpram_math::rng::splitmix64(&mut state) as usize % n;

                let mesh = Mesh::new(rows, cols);
                let mut by_phases = Engine::new(&mesh, cfg.clone());
                let mut by_run = Engine::new(&mesh, cfg.clone());
                let n = mesh.num_nodes();
                for id in 0..(n * load) as u32 {
                    let src = id as usize % n;
                    let pkt = Packet::new(id, src as u32, draw(n) as u32)
                        .with_priority(draw(4) as u32);
                    by_phases.inject(src, pkt);
                    by_run.inject(src, pkt);
                }
                let a = run_by_phases(&mut by_phases, &mut GreedyMesh { mesh });
                let b = by_run.run(&mut GreedyMesh { mesh }).metrics;
                prop_assert_eq!(a.delivered, n * load);
                prop_assert_eq!(observed(&a), observed(&b));

                let bfly = RadixButterfly::new(2, dims);
                let width = bfly.width();
                let net = LeveledNet::forward(bfly);
                let mut by_phases = Engine::new(&net, cfg.clone());
                let mut by_run = Engine::new(&net, cfg);
                for id in 0..(width * load) as u32 {
                    let src = id as usize % width;
                    let pkt = Packet::new(id, src as u32, draw(width) as u32)
                        .with_priority(draw(4) as u32);
                    by_phases.inject(src, pkt);
                    by_run.inject(src, pkt);
                }
                let a = run_by_phases(&mut by_phases, &mut ButterflyPath(LeveledNet::forward(bfly)));
                let b = by_run.run(&mut ButterflyPath(net)).metrics;
                prop_assert_eq!(a.delivered, width * load);
                prop_assert_eq!(observed(&a), observed(&b));
            }

            /// Reusing one engine across rounds is observably identical to
            /// building a fresh engine per round, for any workload.
            #[test]
            fn prop_reset_equals_fresh(seed: u64, rows in 2usize..6, rounds in 1usize..4) {
                let mesh = Mesh::square(rows + 1);
                let n = mesh.num_nodes();
                let mut reused = Engine::new(&mesh, SimConfig::default());
                for round in 0..rounds {
                    let mut fresh = Engine::new(&mesh, SimConfig::default());
                    reused.reset();
                    let mut state = seed ^ round as u64;
                    for src in 0..n {
                        let dest = (lnpram_math::rng::splitmix64(&mut state) as usize) % n;
                        let pkt = Packet::new(src as u32, src as u32, dest as u32);
                        reused.inject(src, pkt);
                        fresh.inject(src, pkt);
                    }
                    let a = reused.run(&mut GreedyMesh { mesh });
                    let b = fresh.run(&mut GreedyMesh { mesh });
                    prop_assert_eq!(a.metrics.routing_time, b.metrics.routing_time);
                    prop_assert_eq!(a.metrics.delivered, b.metrics.delivered);
                    prop_assert_eq!(a.metrics.max_queue, b.metrics.max_queue);
                    prop_assert_eq!(a.metrics.queued_packet_steps, b.metrics.queued_packet_steps);
                    prop_assert_eq!(reused.link_loads(), fresh.link_loads());
                    prop_assert_eq!(reused.check_invariants(), Ok(()));
                }
            }
        }
    }

    #[test]
    fn queue_occupancy_accounting() {
        let net = ExplicitNetwork::undirected(2, &[(0, 1)], "edge");
        let mut eng = Engine::new(&net, SimConfig::default());
        for i in 0..3 {
            eng.inject(0, Packet::new(i, 0, 1));
        }
        let mut proto = |node: usize, pkt: Packet, _s: u32, out: &mut Outbox| {
            if node == 1 {
                out.deliver(pkt);
            } else {
                out.send(0, pkt);
            }
        };
        let out = eng.run(&mut proto);
        // 3 packets over one link: delivered at steps 1,2,3.
        assert_eq!(out.metrics.routing_time, 3);
        // queue holds 2 after step 1, 1 after step 2, 0 after step 3.
        assert_eq!(out.metrics.queued_packet_steps, 3);
        assert!((out.metrics.mean_queue_occupancy() - 1.0).abs() < 1e-12);
    }
}
