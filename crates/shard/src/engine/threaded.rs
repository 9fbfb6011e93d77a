//! Shard-local stepping on scoped threads: the [`ShardedEngine`]'s path
//! for a node-local [`Shardable`] protocol (the parent module docs give
//! the order argument and the cost model).
//!
//! A run opens one [`std::thread::scope`] with `T` = min(K, available
//! cores) members: the caller and `T − 1` workers. Member `w` owns a
//! [`Lane`] for the whole run: the contiguous run of shards
//! `w·K/T .. (w+1)·K/T` with their engines, a clone of the protocol and
//! the metrics its callbacks record. Step `t` is
//!
//! 1. the caller's serial section: the loop test, the fault clock, and
//!    the release of the members;
//! 2. every member *settles* step `t − 1` on its shards (feeds the
//!    injections admitted then, calls the step-end hook, closes the step
//!    and charges its queued packets), then transmits and posts each
//!    arrival whose head node another shard owns to the mailbox of that
//!    `(from, to)` pair of shards;
//! 3. barrier; every member processes the arrivals at its nodes, by the
//!    shard whose link each came over: mail from below, its own, mail
//!    from above;
//! 4. barrier; the caller runs admission on a view of the lanes, which
//!    appends the injections it admits to one list; each member feeds
//!    those at its own nodes when it settles the step.
//!
//! A node's callbacks therefore all run on one member, in the serial
//! engine's order, and the only data that changes hands between members
//! is the boundary mail. The three waits per step are a [`SpinBarrier`]:
//! it spins, then parks, and fails every wait once a member has
//! panicked, so a panicking callback fails the run with its own message
//! instead of leaving the others waiting.

use super::{ShardedEngine, COORD_BITS, COORD_MASK};
use lnpram_simnet::{
    close_step, run_ends, Admission, Engine, EngineState, Metrics, NoopSink, Packet, RunOutcome,
    Shardable, StepEngine, TraceSink,
};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockWriteGuard};
use std::thread::Thread;

/// Members for a threaded run over `k` shards: one per shard, at most one
/// per core the process may run on (read once per process).
pub(super) fn members_for(k: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    k.min(cores)
}

/// Lock a mutex the crew shares. A poisoned one is only ever met after a
/// member panicked, when the run is failing anyway and only the engines
/// are still collected.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A barrier wait failed because a member panicked.
#[derive(Debug)]
struct Poisoned;

/// A reusable barrier on atomics: waiters spin a while, then park.
/// `std::sync::Barrier` parks at once and costs several µs per wait, a
/// large share of a step that does tens of µs of work; a waiter that
/// never stops spinning takes its core from a member with work (on a
/// shared physical core, from the very thread it waits for) through a
/// run of steps the caller takes alone.
struct SpinBarrier {
    members: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
    /// The members' threads, to wake those that parked.
    threads: Mutex<Vec<Thread>>,
}

/// Spins (~50 µs) before a waiter parks.
const SPINS: u32 = 1 << 10;

/// Packets queued outside the busiest lane below which the caller steps
/// every lane itself. Sharing a step saves about the work of the other
/// lanes (the busiest one's is on the critical path either way), at
/// ~50 ns per packet-step; 128 packets' worth is about what the
/// rendezvous costs.
///
/// Against sharing every step (this at 0, which also drops the wave
/// test of [`Crew::load`]), on 2 cores: `serve_sharded` throughput is
/// the same (×1.03 for 0, 6 of 10 alternating pairs, inside the
/// quartiles) but its setup, whose warm-up trace then starts threads,
/// takes ×1.57; butterfly(2,10) permutations at K = 2 run at 0.86×
/// serial with both tests, 0.70× with this one alone and 0.31× sharing
/// every step (`examples/sharded_butterfly.rs`, `--time 10 8`).
pub(super) const SHARED_MIN_LOAD: usize = 128;

impl SpinBarrier {
    fn new(members: usize) -> Self {
        SpinBarrier {
            members,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            threads: Mutex::new(Vec::with_capacity(members)),
        }
    }

    /// Register the calling thread as a member, before its first wait.
    fn join(&self) {
        lock(&self.threads).push(std::thread::current());
    }

    /// Unpark every member but the caller (a member that did not park
    /// keeps the token, and its next park returns at once).
    fn wake(&self) {
        let me = std::thread::current().id();
        for thread in lock(&self.threads).iter().filter(|t| t.id() != me) {
            thread.unpark();
        }
    }

    /// Block until every member has called `wait` for this generation;
    /// `Err` as soon as the barrier is poisoned.
    fn wait(&self) -> Result<(), Poisoned> {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.members {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
            self.wake();
        } else {
            let mut spins = 0;
            while self.generation.load(Ordering::Acquire) == generation {
                if self.poisoned.load(Ordering::Relaxed) {
                    return Err(Poisoned);
                }
                if spins < SPINS {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::park();
                }
            }
        }
        if self.poisoned.load(Ordering::Acquire) {
            Err(Poisoned)
        } else {
            Ok(())
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        self.wake();
    }
}

/// Poisons the barrier if its holder unwinds.
struct PoisonOnUnwind<'a>(&'a SpinBarrier);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// What one member owns for the run.
struct Lane<P> {
    /// The member's shards, and their engines in that order.
    shards: Range<usize>,
    engines: Vec<Engine>,
    /// The protocol clone that takes every callback at these shards'
    /// nodes.
    part: P,
    /// The deliveries those callbacks recorded.
    metrics: Metrics,
    /// Packet-steps of occupancy charged on these shards' queues.
    queued: u64,
    /// Packets the last transmit of these shards moved, and how many of
    /// them it posted to another shard.
    moved: usize,
    crossed: usize,
    /// Boundary arrivals being posted, `outgoing[i * k + to]` for the
    /// lane's `i`-th shard: `(global head node, packet)` in link-id order.
    outgoing: Vec<Vec<(u32, Packet)>>,
}

/// Everything the members share for one run.
struct Crew<P> {
    k: usize,
    /// The sharded engine's partition tables, lent for the run.
    node_owner: Vec<u32>,
    link_head: Vec<u32>,
    link_base: Vec<u32>,
    lanes: Vec<Mutex<Lane<P>>>,
    /// The injections admitted at the last step boundary, in admission
    /// order: each member feeds those at its own nodes when it settles
    /// that step, and the caller empties the list after.
    admitted: RwLock<Vec<(usize, Packet)>>,
    /// `mail[from * k + to]`: this step's arrivals that crossed from shard
    /// `from`'s links to a node of shard `to`, in link-id order. Filled by
    /// a swap with the sender's `outgoing`, emptied by the receiver.
    mail: Vec<Mutex<Vec<(u32, Packet)>>>,
    barrier: SpinBarrier,
    /// Packets queued outside the busiest lane below which a step runs
    /// on the caller alone ([`SHARED_MIN_LOAD`] outside this crate's
    /// tests; 0 shares every step).
    shared_min_load: usize,
    /// The step the members are released for. This and the two flags
    /// below are written by the caller before the barrier wait that
    /// releases the members and read by them after it, so `Relaxed`
    /// suffices: the barrier's `AcqRel` arrival count and its
    /// `Release`/`Acquire` generation order them.
    step: AtomicU32,
    /// Must the members settle the step before it first?
    settle: AtomicBool,
    /// The run is over: released members return.
    done: AtomicBool,
}

impl<P: Shardable> Crew<P> {
    fn owner(&self, node: usize) -> usize {
        (self.node_owner[node] >> COORD_BITS) as usize
    }

    /// A worker: steps its lane whenever the caller releases it, until
    /// the caller says the run is over or the barrier is poisoned.
    fn work(&self, w: usize) -> Result<(), Poisoned> {
        let _poison = PoisonOnUnwind(&self.barrier);
        self.barrier.join();
        loop {
            self.barrier.wait()?;
            if self.done.load(Ordering::Relaxed) {
                return Ok(());
            }
            self.step_lane(w)?;
        }
    }

    /// Member `w`'s share of the released step: settle the previous step
    /// if due, transmit and post, barrier, process, barrier.
    fn step_lane(&self, w: usize) -> Result<(), Poisoned> {
        let step = self.step.load(Ordering::Relaxed);
        let mut lane = lock(&self.lanes[w]);
        if self.settle.load(Ordering::Relaxed) {
            self.settle_lane(&mut lane, step - 1);
        }
        self.transmit(&mut lane);
        self.barrier.wait()?;
        self.process(&mut lane, step);
        drop(lane);
        self.barrier.wait()
    }

    /// The released step with every lane on the caller's thread: each
    /// lane's first half, then each lane's second.
    fn step_alone(&self) {
        let step = self.step.load(Ordering::Relaxed);
        for lane in &self.lanes {
            let mut lane = lock(lane);
            if self.settle.load(Ordering::Relaxed) {
                self.settle_lane(&mut lane, step - 1);
            }
            self.transmit(&mut lane);
        }
        for lane in &self.lanes {
            self.process(&mut lock(lane), step);
        }
    }

    /// Close `step` on the lane's shards, as the serial loop closes it
    /// after the arrivals: feed the injections admitted at `step` at the
    /// lane's nodes, call the step-end hook, check the engines, and (past
    /// step 0) charge every queued packet one packet-step.
    fn settle_lane(&self, lane: &mut Lane<P>, step: u32) {
        let Lane {
            shards,
            engines,
            part,
            metrics,
            queued,
            ..
        } = lane;
        for &(node, mut pkt) in self
            .admitted
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            let owner = self.node_owner[node];
            let Some(eng) = ((owner >> COORD_BITS) as usize)
                .checked_sub(shards.start)
                .and_then(|i| engines.get_mut(i))
            else {
                continue;
            };
            pkt.injected_at = step;
            let mut out = eng.outbox((owner & COORD_MASK) as usize, node, step, metrics);
            part.on_packet(node, pkt, step, &mut out);
        }
        *queued += close_step(part, engines, step);
    }

    /// Settle `step` on every lane, from the caller's thread while the
    /// workers wait.
    fn settle_all(&self, step: u32) {
        for lane in &self.lanes {
            self.settle_lane(&mut lock(lane), step);
        }
    }

    /// The admitted list, for the caller between steps.
    fn admitted(&self) -> RwLockWriteGuard<'_, Vec<(usize, Packet)>> {
        self.admitted
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Transmit the lane's shards and post every arrival whose head node
    /// another shard owns to that shard's mailbox.
    fn transmit(&self, lane: &mut Lane<P>) {
        let k = self.k;
        (lane.moved, lane.crossed) = (0, 0);
        for (i, eng) in lane.engines.iter_mut().enumerate() {
            let s = lane.shards.start + i;
            eng.step_transmit(&mut NoopSink);
            let heads = &self.link_head[self.link_base[s] as usize..];
            let outgoing = &mut lane.outgoing[i * k..(i + 1) * k];
            let links = eng.arrivals();
            lane.moved += links.len();
            for (idx, &link) in links.iter().enumerate() {
                let node = heads[link as usize];
                let to = self.owner(node as usize);
                if to != s {
                    outgoing[to].push((node, eng.arrival_pkt(idx)));
                    lane.crossed += 1;
                }
            }
            // The receiver empties its mailbox as it reads it, so there is
            // nothing to swap when nothing was posted.
            for (to, posted) in outgoing.iter_mut().enumerate() {
                if !posted.is_empty() {
                    std::mem::swap(&mut *lock(&self.mail[s * k + to]), posted);
                }
            }
        }
    }

    /// Process every arrival at the lane's nodes. Per shard, by the shard
    /// whose link each came over: the mail from shards below it, its own
    /// arrivals, the mail from shards above — each in link-id order, so
    /// every node sees its arrivals in global link-id order, as on the
    /// serial engine.
    fn process(&self, lane: &mut Lane<P>, step: u32) {
        let k = self.k;
        let Lane {
            shards,
            engines,
            part,
            metrics,
            ..
        } = lane;
        for (i, eng) in engines.iter_mut().enumerate() {
            let s = shards.start + i;
            let mut call = |eng: &mut Engine, node: u32, pkt: Packet| {
                let node = node as usize;
                let local = (self.node_owner[node] & COORD_MASK) as usize;
                let mut out = eng.outbox(local, node, step, metrics);
                part.on_packet(node, pkt, step, &mut out);
            };
            for from in 0..k {
                if from == s {
                    let heads = &self.link_head[self.link_base[s] as usize..];
                    for idx in 0..eng.arrivals().len() {
                        let node = heads[eng.arrivals()[idx] as usize];
                        if self.owner(node as usize) == s {
                            let pkt = eng.arrival_pkt(idx);
                            call(eng, node, pkt);
                        }
                    }
                } else {
                    let mut mail = lock(&self.mail[from * k + s]);
                    for &(node, pkt) in mail.iter() {
                        call(eng, node, pkt);
                    }
                    mail.clear();
                }
            }
        }
    }

    /// Packets queued on all lanes; and whether the next step is worth
    /// the rendezvous: only when at least `shared_min_load` of them are
    /// queued outside the busiest lane, and the last transmit sent at most
    /// a quarter of what it moved across a cut. Traffic that moves as one
    /// wave, like a leveled network's through a level cut, is transmitted
    /// by one member and processed by the next, and sharing its steps
    /// only adds the mail.
    fn load(&self) -> (usize, bool) {
        let (mut queued, mut busiest, mut moved, mut crossed) = (0, 0, 0, 0);
        for lane in &self.lanes {
            let lane = lock(lane);
            let here: usize = lane.engines.iter().map(Engine::in_flight).sum();
            (queued, busiest) = (queued + here, busiest.max(here));
            (moved, crossed) = (moved + lane.moved, crossed + lane.crossed);
        }
        let share = queued - busiest >= self.shared_min_load
            && (self.shared_min_load == 0 || 4 * crossed <= moved);
        (queued, share)
    }
}

/// The engine state the admission hook sees between steps: the lanes'
/// engines, read under their locks while the workers wait, and the
/// admitted list.
struct Boundary<'a, P> {
    crew: &'a Crew<P>,
    admitted: &'a mut Vec<(usize, Packet)>,
}

impl<P: Shardable> EngineState for Boundary<'_, P> {
    fn inject(&mut self, node: usize, pkt: Packet) {
        self.admitted.push((node, pkt));
    }

    fn in_flight(&self) -> usize {
        self.crew.load().0
    }

    fn max_queue_len(&self) -> usize {
        let lane = |l: &Mutex<Lane<P>>| {
            let engines = &lock(l).engines;
            engines.iter().map(EngineState::max_queue_len).max()
        };
        self.crew.lanes.iter().filter_map(lane).max().unwrap_or(0)
    }
}

impl ShardedEngine {
    /// [`step_loop`](lnpram_simnet::step_loop)'s sequence with `members`
    /// members stepping the shards, sharing every step that starts with
    /// at least `shared_min_load` packets queued outside the busiest lane
    /// (module docs); bit-identical to it.
    pub(crate) fn run_threaded<P, S, A>(
        &mut self,
        proto: &mut P,
        sink: &mut S,
        admit: &mut A,
        max_steps: u32,
        members: usize,
        shared_min_load: usize,
    ) -> RunOutcome
    where
        P: Shardable,
        S: TraceSink + ?Sized,
        A: Admission,
    {
        let k = self.k;
        let mut engines = std::mem::take(&mut self.shards).into_iter();
        let crew = Crew {
            k,
            node_owner: std::mem::take(&mut self.node_owner),
            link_head: std::mem::take(&mut self.link_head),
            link_base: std::mem::take(&mut self.link_base),
            lanes: (0..members)
                .map(|w| {
                    let shards = w * k / members..(w + 1) * k / members;
                    Mutex::new(Lane {
                        outgoing: vec![Vec::new(); shards.len() * k],
                        engines: engines.by_ref().take(shards.len()).collect(),
                        shards,
                        part: proto.clone(),
                        metrics: Metrics::default(),
                        queued: 0,
                        moved: 0,
                        crossed: 0,
                    })
                })
                .collect(),
            admitted: RwLock::new(std::mem::take(&mut self.pending)),
            mail: (0..k * k).map(|_| Mutex::default()).collect(),
            barrier: SpinBarrier::new(members),
            shared_min_load,
            step: AtomicU32::new(0),
            settle: AtomicBool::new(false),
            done: AtomicBool::new(false),
        };
        let led = std::thread::scope(|scope| {
            let mut workers = Vec::new();
            let led = catch_unwind(AssertUnwindSafe(|| {
                let mut spawn = || {
                    workers.extend((1..members).map(|w| {
                        let crew = &crew;
                        scope.spawn(move || crew.work(w))
                    }));
                };
                self.lead(&crew, &mut spawn, sink, admit, max_steps)
            }));
            if led.is_err() {
                crew.barrier.poison();
            }
            let mut failed = None;
            for worker in workers {
                if let Err(payload) = worker.join() {
                    failed.get_or_insert(payload);
                }
            }
            match led {
                Ok(Ok(done)) => Ok(done),
                Ok(Err(Poisoned)) => {
                    Err(failed.expect("only a member's panic poisons the barrier"))
                }
                // The caller's own panic comes first.
                Err(payload) => Err(payload),
            }
        });
        // The tables and the engines (in shard order) go back after a
        // failed run too, so the engine stays usable.
        let Crew {
            node_owner,
            link_head,
            link_base,
            lanes,
            ..
        } = crew;
        (self.node_owner, self.link_head, self.link_base) = (node_owner, link_head, link_base);
        for lane in lanes {
            let mut lane = lane.into_inner().unwrap_or_else(PoisonError::into_inner);
            self.shards.append(&mut lane.engines);
            if led.is_ok() {
                self.metrics.absorb_deliveries(&lane.metrics);
                self.metrics.queued_packet_steps += lane.queued;
                proto.merge(lane.part);
            }
        }
        let (steps, completed) = led.unwrap_or_else(|payload| resume_unwind(payload));
        RunOutcome {
            metrics: self.finish_metrics(steps),
            completed,
        }
    }

    /// The caller's side of the run: the serial sections, and member 0's
    /// lane. Returns the steps executed and whether the network drained.
    ///
    /// This is the second sequencer of a run's phases beside
    /// [`step_loop`](lnpram_simnet::step_loop), and keeps its order:
    /// admission and the injections at step 0, then per step transmit,
    /// arrivals, admission, the admitted injections and the close. Both
    /// close a step with [`close_step`] and stop on [`run_ends`]; a change
    /// to the order of the phases has to be made in both.
    ///
    /// A step is settled by the members at the start of the next one.
    /// The loop test wants the in-flight count after that settling, but
    /// feeding injections only adds packets, so it is needed only when
    /// nothing is queued, nothing is outstanding and injections wait;
    /// then, and when the run ends, the caller settles on its own.
    ///
    /// A step not worth sharing ([`Crew::load`]) runs on the caller
    /// alone; `spawn` starts the workers before the first step
    /// that is, so a run that is light, busy in one lane only, or a wave
    /// through the cuts starts no thread.
    fn lead<P, S, A>(
        &mut self,
        crew: &Crew<P>,
        spawn: &mut impl FnMut(),
        sink: &mut S,
        admit: &mut A,
        max_steps: u32,
    ) -> Result<(u32, bool), Poisoned>
    where
        P: Shardable,
        S: TraceSink + ?Sized,
        A: Admission,
    {
        let _poison = PoisonOnUnwind(&crew.barrier);
        crew.barrier.join();
        let mut step: u32 = 0;
        let mut admitted = !crew.admitted().is_empty();
        if A::ACTIVE {
            admitted |= Self::admit_at(crew, admit, step, sink);
        }
        let (mut settled, mut spawned) = (false, false);
        let completed = loop {
            let (mut in_flight, mut share) = crew.load();
            if in_flight == 0 && admitted && !admit.outstanding() {
                crew.settle_all(step);
                crew.admitted().clear();
                (settled, admitted) = (true, false);
                (in_flight, share) = crew.load();
            }
            if let Some(completed) = run_ends(in_flight, admit, step, max_steps) {
                break completed;
            }
            step += 1;
            self.tick_lanes(crew);
            crew.step.store(step, Ordering::Relaxed);
            crew.settle.store(!settled, Ordering::Relaxed);
            if share {
                if !std::mem::replace(&mut spawned, true) {
                    spawn();
                }
                crew.barrier.wait()?;
                crew.step_lane(0)?;
            } else {
                crew.step_alone();
            }
            if std::mem::take(&mut admitted) {
                crew.admitted().clear();
            }
            settled = false;
            if A::ACTIVE {
                admitted = Self::admit_at(crew, admit, step, sink);
            }
        };
        if !settled {
            crew.settle_all(step);
        }
        if spawned {
            crew.done.store(true, Ordering::Relaxed);
            crew.barrier.wait()?;
        }
        Ok((step, completed))
    }

    /// The admission hook at `step`, on the [`Boundary`] view. Did it
    /// admit anything?
    fn admit_at<P, S, A>(crew: &Crew<P>, admit: &mut A, step: u32, sink: &mut S) -> bool
    where
        P: Shardable,
        S: TraceSink + ?Sized,
        A: Admission,
    {
        let mut admitted = crew.admitted();
        let mut view = Boundary {
            crew,
            admitted: &mut admitted,
        };
        admit.admit(&mut view, step, sink);
        !admitted.is_empty()
    }

    /// Advance the global clock and forward the fault schedule's updates
    /// to the lanes that hold the links' engines.
    fn tick_lanes<P>(&mut self, crew: &Crew<P>) {
        self.clock += 1;
        let Some(sched) = self.faults.as_mut() else {
            return;
        };
        let link_base = &crew.link_base;
        sched.advance(self.clock, |link, blocked| {
            let s = link_base.partition_point(|&base| base as usize <= link) - 1;
            let lane = crew
                .lanes
                .iter()
                .find(|l| lock(l).shards.contains(&s))
                .expect("every shard is in a lane");
            let mut lane = lock(lane);
            let i = s - lane.shards.start;
            lane.engines[i].set_link_blocked(link - link_base[s] as usize, blocked);
        });
    }
}
