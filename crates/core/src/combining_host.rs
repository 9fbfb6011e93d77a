//! The combining hosts' shared half (Theorem 2.6): [`CombiningHost<R>`]
//! runs one request protocol and one reply protocol over the pending
//! tables of [`crate::combining`] on any topology `R` that answers the
//! questions of [`HostRoute`] — the leveled networks and the n-star
//! (Corollaries 2.3/2.5 put the star in the same class).
//!
//! * **Requests** register a pending entry at every node a read passes,
//!   stamping its id into `via2`, or join a live entry for the same key
//!   and go no further (footnote 3). Where the host merges writes, a
//!   write folds into the first same-key write to reach its node in its
//!   step, short of the module. The module buffers what reaches it, and
//!   its queue combines too: under a merging policy with combining on,
//!   a write that reaches its module folds into the write of its key
//!   already buffered there, at whatever step it arrives
//!   ([`ModuleArray::fold_write`]). Every other hop is the host's
//!   router's.
//! * **Replies** (`Unwind`) retrace the request trees from the
//!   modules along the recorded direction bits, fanning out at every
//!   combining point and answering a node's own processor where it
//!   asked.
//!
//! Processor `p` injects its requests at node `p` on every such host, so
//! the node a reply answers at is the reader. The mesh, which does not
//! combine, routes its replies forward instead ([`crate::mesh_emulator`]).

use crate::combining::{EntryId, Hop, PendingList, PendingTables, Source};
use crate::emulator::{EmuHost, PhaseOutcome, Request};
use crate::memory::{ModuleArray, ModuleRequest, ServedRead};
use lnpram_math::rng::SeedSeq;
use lnpram_pram::model::{AccessMode, WritePolicy};
use lnpram_simnet::{Engine, Outbox, Packet, Protocol};

/// Where a request's trail runs at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trail {
    /// On the shared tree, keyed `(node, key)`: requests meet and combine.
    Shared,
    /// Private: no other request can meet it, so its entries open
    /// without a lookup.
    Private,
    /// A private trail that ends here and continues on the shared tree
    /// through a [`Source::Chain`] link.
    Joins,
}

/// What the combining request/reply pair asks of one topology.
///
/// The pair is generic, so it is compiled in the crate that names the
/// host; a non-generic implementation marks its per-hop answers
/// `#[inline]` so that they inline there.
pub trait HostRoute {
    /// See [`EmuHost::processors`].
    fn processors(&self) -> usize;

    /// See [`EmuHost::diameter`].
    fn diameter(&self) -> usize;

    /// See [`EmuHost::phase_bound`].
    fn phase_bound(&self) -> usize;

    /// See [`EmuHost::broadcast_steps`].
    fn broadcast_steps(&self) -> usize;

    /// Move `pkt` on from `node`: the host's router takes the hop. It
    /// leaves in [`Packet::prev`] whatever [`Self::reply_port`] needs at
    /// the receiver to name the way back: the direction bits.
    fn forward(&self, node: usize, pkt: Packet, step: u32, out: &mut Outbox);

    /// The reply network's port at `node` back along the hop a request
    /// arrived over, from the [`Packet::prev`] that hop's
    /// [`Self::forward`] left.
    fn reply_port(&self, node: usize, prev: u32) -> usize;

    /// The reply network's node of module `module`.
    fn module_node(&self, module: usize) -> usize;

    /// The module `pkt` has reached at `node`, if it has.
    fn module_at(&self, node: usize, pkt: &Packet) -> Option<usize>;

    /// The trail `pkt` runs at `node`. Answering [`Trail::Joins`] also
    /// moves the packet onto its shared leg.
    fn trail(&self, _node: usize, _pkt: &mut Packet) -> Trail {
        Trail::Shared
    }

    /// Do a step's same-address writes merge at `node`? The host names
    /// where paths converge; the request protocol adds the guard that
    /// no write merges into a representative where it reaches its
    /// module: the module's buffer holds each write's value from the
    /// moment it arrives, so there the write folds into the buffered
    /// write of its key instead, on every host.
    fn merges_writes_at(&self, _node: usize) -> bool {
        false
    }

    /// Put a write that may merge en route on its direct route, from its
    /// source onto the shared tree toward its module, with no random
    /// intermediate. Called only while writes merge; the default keeps
    /// the two-phase route.
    fn route_direct(&self, _pkt: &mut Packet) {}
}

/// An emulation host that combines reads en route, on topology `R`.
pub struct CombiningHost<R> {
    route: R,
    tables: PendingTables,
    /// The request network's engine, built once and recycled every
    /// attempt.
    engine: Engine,
    /// The reply network's engine, likewise; `None` when the request
    /// network is its own reply network.
    reply_engine: Option<Engine>,
    combining: bool,
    /// `(value, proc)` of every request of the attempt being routed,
    /// indexed by packet id; en-route write merging folds into it.
    writes: Vec<(u64, usize)>,
    /// Each node's representative writes of the current step.
    reps: WriteReps,
}

/// Footnote 3 for writes, node by node: the first write of each key to
/// reach a node in a step is that `(node, key)`'s representative, and
/// later ones fold into it. Heads are stamped `phase << 32 | step`, so
/// neither a new step nor a new phase wipes them, and a lookup walks
/// only the node's entries of the current step, at most its in-degree.
/// The leveled hosts size the heads up to their last merge column, the
/// star to every node; a host that merges no writes never sizes them.
/// Representatives keep their values in `writes`, the modules theirs in
/// their buffers; the module guard is [`CombiningRequest`]'s, so no host
/// can fold a write into a representative at its module.
#[derive(Debug, Default)]
struct WriteReps {
    /// Request phases begun.
    phase: u64,
    /// Per node: the stamp of its latest entry, and that entry.
    heads: Vec<(u64, u32)>,
    /// This phase's entries: `(key, packet id, the node's previous
    /// entry of the same step)`.
    reps: Vec<(u64, u32, Option<u32>)>,
}

impl WriteReps {
    /// The packet id of `key`'s representative at `node` in `step`, or
    /// `None` after recording write `id` as it.
    fn find_or_insert(&mut self, node: usize, step: u32, key: u64, id: u32) -> Option<usize> {
        self.heads.resize(self.heads.len().max(node + 1), (0, 0));
        let stamp = self.phase << 32 | u64::from(step);
        let first = Some(self.heads[node]).filter(|h| h.0 == stamp).map(|h| h.1);
        let mut chain = std::iter::successors(first, |&at| self.reps[at as usize].2);
        if let Some(at) = chain.find(|&at| self.reps[at as usize].0 == key) {
            return Some(self.reps[at as usize].1 as usize);
        }
        self.heads[node] = (stamp, self.reps.len() as u32);
        self.reps.push((key, id, first));
        None
    }
}

impl<R: HostRoute> CombiningHost<R> {
    /// A host over `route`, running requests on `engine` and replies on
    /// `reply_engine` (or on `engine` too).
    pub(crate) fn new(
        route: R,
        engine: Engine,
        reply_engine: Option<Engine>,
        combining: bool,
    ) -> Self {
        CombiningHost {
            route,
            tables: PendingTables::new(engine.num_nodes()),
            engine,
            reply_engine,
            combining,
            writes: Vec::new(),
            reps: WriteReps::default(),
        }
    }
}

impl<R> CombiningHost<R> {
    /// The pending tables' work since the host was built.
    #[cfg(test)]
    pub(crate) fn table_work(&self) -> crate::combining::TableWork {
        self.tables.work()
    }
}

impl<R: HostRoute> EmuHost for CombiningHost<R> {
    fn processors(&self) -> usize {
        self.route.processors()
    }

    fn diameter(&self) -> usize {
        self.route.diameter()
    }

    fn phase_bound(&self) -> usize {
        self.route.phase_bound()
    }

    fn broadcast_steps(&self) -> usize {
        self.route.broadcast_steps()
    }

    /// A request leaves its processor's node bound for a random
    /// intermediate (`via`), then its module (`dest`); writes are
    /// flagged `hop == 1`. While writes merge, the host may send them
    /// direct ([`HostRoute::route_direct`]); `via` is drawn for every
    /// request all the same, so the reads' intermediates do not move.
    fn route_requests(
        &mut self,
        requests: &[Request],
        modules: &mut ModuleArray,
        budget: u32,
        seq: SeedSeq,
    ) -> Option<PhaseOutcome> {
        self.tables.reset();
        self.engine.reset();
        self.engine.set_max_steps(budget);
        self.writes.clear();
        self.writes
            .extend(requests.iter().map(|r| (r.write.unwrap_or(0), r.proc)));
        let merging = self.combining && mergeable_policy(modules.mode()).is_some();
        let mut via_rng = seq.rng();
        for (id, req) in requests.iter().enumerate() {
            let via = via_rng.gen_range(0..self.processors()) as u32;
            let mut pkt = Packet::new(id as u32, req.proc as u32, req.module)
                .with_via(via)
                .with_tag(req.key);
            if req.write.is_some() {
                pkt.hop = 1;
                if merging {
                    self.route.route_direct(&mut pkt);
                }
            }
            self.engine.inject(req.proc, pkt);
        }
        self.reps.phase += 1;
        self.reps.reps.clear();
        let mut proto = CombiningRequest {
            route: &self.route,
            tables: &mut self.tables,
            modules,
            writes: &mut self.writes,
            reps: &mut self.reps,
            combining: self.combining,
            write_merges: 0,
        };
        let out = self.engine.run(&mut proto);
        let write_merges = proto.write_merges;
        out.completed.then(|| PhaseOutcome {
            combined: write_merges + self.tables.combined(),
            write_merges,
            ..PhaseOutcome::of(&out.metrics)
        })
    }

    /// A reply leaves its module carrying, in `via`, the id of the entry
    /// it is bound for.
    fn route_replies(
        &mut self,
        reads: &[ServedRead],
        _seq: SeedSeq,
        replies: &mut Vec<(usize, u32)>,
    ) -> PhaseOutcome {
        let engine = self.reply_engine.as_mut().unwrap_or(&mut self.engine);
        engine.reset();
        engine.set_max_steps(u32::MAX);
        for (i, read) in reads.iter().enumerate() {
            let pkt = Packet::new(i as u32, 0, 0).with_via(read.tag);
            engine.inject(self.route.module_node(read.module), pkt);
        }
        let mut proto = Unwind {
            tables: &mut self.tables,
            replies,
        };
        let out = engine.run(&mut proto);
        // A leak would leave some reader with its previous value.
        assert!(out.completed, "reply phase did not drain");
        assert!(self.tables.all_clear(), "unconsumed pending entries");
        PhaseOutcome::of(&out.metrics)
    }
}

/// The request protocol: a read registers or joins a pending entry and
/// carries, in `via2`, the id of the entry it left at the previous node;
/// a write folds into an earlier same-key write of its node and step
/// where the host merges writes, short of its module; at the module a
/// read is buffered, and a write folds into the buffered write of its
/// key where writes merge or is buffered; every other hop is the host's.
struct CombiningRequest<'a, R> {
    route: &'a R,
    tables: &'a mut PendingTables,
    modules: &'a mut ModuleArray,
    writes: &'a mut [(u64, usize)],
    reps: &'a mut WriteReps,
    combining: bool,
    /// Write merges performed (footnote 3 applied to writes): same-step
    /// merges en route and folds in a module's queue.
    write_merges: u32,
}

/// The write policy if concurrent same-address writes can be merged en
/// route without changing the module-level resolution: the policy must
/// be associative with a representative writer (Sum, Max) or select the
/// minimum processor (Priority, and our deterministic Arbitrary). Common
/// must see every writer to detect mismatches; EREW/CREW writes are
/// conflicts the modules must observe.
pub(crate) fn mergeable_policy(mode: AccessMode) -> Option<WritePolicy> {
    use WritePolicy::{Arbitrary, Max, Priority, Sum};
    match mode {
        AccessMode::Crcw(p @ (Sum | Max | Priority | Arbitrary)) => Some(p),
        _ => None,
    }
}

/// Merge `(value, proc)` pairs under `policy` (the en-route version of
/// [`resolve_write`](lnpram_pram::machine::resolve_write), restricted to
/// the associative policies). Sum wraps, as `resolve_write`'s does.
pub(crate) fn merge(policy: WritePolicy, acc: (u64, usize), next: (u64, usize)) -> (u64, usize) {
    match policy {
        WritePolicy::Sum => (acc.0.wrapping_add(next.0), acc.1.min(next.1)),
        WritePolicy::Max => (acc.0.max(next.0), acc.1.min(next.1)),
        // Priority / deterministic Arbitrary: lowest processor's value.
        _ => std::cmp::min_by_key(acc, next, |&(_, proc)| proc),
    }
}

impl<R: HostRoute> Protocol for CombiningRequest<'_, R> {
    // Inlined into the engine's process loop, which is compiled where the
    // host is named (outside this crate for every generic host): out of
    // line, every hop pays a call, and `emulate_star` read ×0.97.
    #[inline(always)]
    fn on_packet(&mut self, node: usize, mut pkt: Packet, step: u32, out: &mut Outbox) {
        let key = pkt.tag;
        let read = pkt.hop == 0;
        let trail = self.route.trail(node, &mut pkt);
        let module = self.route.module_at(node, &pkt);
        let policy = mergeable_policy(self.modules.mode()).filter(|_| self.combining && !read);
        // Footnote 3 for writes: a write folds into the first one of its
        // address to reach this node this step, on the lowest in-link.
        // Not at its module, whose buffer holds the first one's value:
        // there it folds into that buffer, below, never into a
        // representative.
        let merges = |_: &_| module.is_none() && self.route.merges_writes_at(node);
        if let Some(policy) = policy.filter(merges) {
            if let Some(rep) = self.reps.find_or_insert(node, step, key, pkt.id) {
                self.writes[rep] = merge(policy, self.writes[rep], self.writes[pkt.id as usize]);
                self.write_merges += 1;
                return; // its representative carries it on
            }
        }
        if read {
            let source = if step == 0 {
                Source::Local
            } else {
                Source::Link(Hop {
                    port: self.route.reply_port(node, pkt.prev) as u32,
                    entry: EntryId(pkt.via2),
                })
            };
            let entry = match trail {
                Trail::Shared => self.tables.register(self.combining, node, key, source),
                Trail::Private => Some(self.tables.open(source)),
                Trail::Joins => {
                    let chain = Source::Chain(self.tables.open(source));
                    self.tables.register(self.combining, node, key, chain)
                }
            };
            let Some(entry) = entry else {
                out.absorb(pkt); // combined — the live entry fans out later
                return;
            };
            pkt.via2 = entry.0;
        }
        if let Some(module) = module {
            let (value, proc) = self.writes[pkt.id as usize];
            // The module's queue combines too: a write folds into the
            // buffered write of its key, at whatever step it arrives.
            let fold = |policy| {
                let merge = |acc, next| merge(policy, acc, next);
                self.modules.fold_write(module, key, value, proc, merge)
            };
            if policy.is_some_and(fold) {
                self.write_merges += 1;
            } else {
                let buffered = if read {
                    ModuleRequest::Read { key, tag: pkt.via2 }
                } else {
                    ModuleRequest::Write { key, value, proc }
                };
                self.modules.buffer(module, buffered);
            }
            out.deliver(pkt);
            return;
        }
        self.route.forward(node, pkt, step, out);
    }
}

/// The reply protocol: take the entry a reply is bound for, answer this
/// node's processor if it asked, unwind every entry chained to it here,
/// and copy the reply along every recorded hop. A reply that forwards
/// nothing is delivered.
struct Unwind<'a> {
    tables: &'a mut PendingTables,
    replies: &'a mut Vec<(usize, u32)>,
}

impl Unwind<'_> {
    #[inline(always)]
    fn unwind(&mut self, node: usize, id: EntryId, pkt: Packet, out: &mut Outbox) {
        let entry = self.tables.take(id);
        if entry.local {
            self.replies.push((node, pkt.id));
        }
        if !entry.chains.is_empty() {
            self.unwind_chains(node, entry.chains, pkt, out);
        }
        for hop in self.tables.iter(entry.fanout) {
            out.send(hop.port as usize, pkt.with_via(hop.entry.0));
        }
    }

    /// Unwind the entries chained at `node`, in order. Only where a
    /// private trail joined the shared tree, so kept out of line: the
    /// recursion would stop [`Self::unwind`] from inlining.
    #[inline(never)]
    fn unwind_chains(
        &mut self,
        node: usize,
        mut chains: PendingList,
        pkt: Packet,
        out: &mut Outbox,
    ) {
        while let Some(chain) = self.tables.next(&mut chains) {
            self.unwind(node, chain.entry, pkt, out);
        }
    }
}

impl Protocol for Unwind<'_> {
    #[inline]
    fn on_packet(&mut self, node: usize, pkt: Packet, _step: u32, out: &mut Outbox) {
        let before = out.pending_sends();
        self.unwind(node, EntryId(pkt.via), pkt, out);
        if out.pending_sends() == before {
            out.deliver(pkt); // leaf: nothing forwarded
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::combining::TableWork;
    use crate::emulator::{EmuHost, PramEmulator};
    use crate::memory::{ModuleArray, ModuleRequest};
    use crate::{EmulatorConfig, LeveledPramEmulator, StarPramEmulator};
    use lnpram_math::rng::{splitmix64, SeedSeq};
    use lnpram_pram::machine::PramMachine;
    use lnpram_pram::model::{AccessMode, MemOp, PramProgram, WritePolicy};
    use lnpram_pram::programs::{ConnectedComponents, Histogram};
    use lnpram_topology::leveled::RadixButterfly;

    const MODE: AccessMode = AccessMode::Crcw(WritePolicy::Max);

    /// CRCW-Max connected components of `edges` random edges over
    /// `vertices` vertices, drawn from `seed`.
    fn components(vertices: usize, edges: usize, seed: u64) -> ConnectedComponents {
        let mut state = seed;
        let mut vertex = || splitmix64(&mut state) as usize % vertices;
        let edges = (0..edges).map(|_| (vertex(), vertex())).collect();
        ConnectedComponents::new(vertices, edges)
    }

    /// The pending tables' work over one whole program is a pure function
    /// of it, so it is pinned exactly: a change to how the tables store
    /// or find entries shows here, with no timing involved. The star case
    /// is `emulate_star`'s program shape (40 vertices, 40 edges, 120
    /// processors); entries opened, keys joined and requests absorbed
    /// are the simulation's, arena cells the layout's. On the star the
    /// program's service steps, write merges and network steps are
    /// pinned too, so a write that stops folding at its module or en
    /// route fails here.
    #[test]
    fn table_work_over_a_program_is_pinned() {
        let mut prog = components(40, 40, 7);
        let space = prog.address_space();
        let cfg = EmulatorConfig {
            seed: 7,
            ..EmulatorConfig::default()
        };
        let mut star = StarPramEmulator::new(5, MODE, space, cfg.clone());
        let report = star.run_program(&mut prog, 10_000);
        assert!(prog.verify(&star.memory_image(space)));
        let service: u64 = report
            .steps
            .iter()
            .map(|s| u64::from(s.service_steps))
            .sum();
        assert_eq!(
            (report.pram_steps, star.host.table_work()),
            (
                120,
                TableWork {
                    opened: 76_266,
                    joined: 38_189,
                    absorbed: 6_816,
                    cells: 5_987,
                }
            ),
            "star(5)"
        );
        assert_eq!(
            (service, report.total_write_merges(), report.network_steps()),
            (321, 3_200, 2_501),
            "star(5): service steps, write merges, network steps"
        );

        let mut prog = components(6, 5, 4);
        let space = prog.address_space();
        let inner = RadixButterfly::new(2, 4);
        let mut leveled = LeveledPramEmulator::new(inner, MODE, space, cfg);
        let report = leveled.run_program(&mut prog, 10_000);
        assert!(prog.verify(&leveled.memory_image(space)));
        assert_eq!(
            (report.pram_steps, leveled.host.table_work()),
            (
                18,
                TableWork {
                    opened: 1_237,
                    joined: 1_357,
                    absorbed: 120,
                    cells: 120,
                }
            ),
            "butterfly(2, 4)"
        );
    }

    /// The `(module, key)` of every read served after one request phase
    /// of hot-spot reads of cell 7, spread reads and spread writes over
    /// 12 cells, drawn from `seed`.
    fn served_cells<H: EmuHost>(emu: &mut PramEmulator<H>, seed: u64) -> Vec<(usize, u64)> {
        let procs = emu.processors();
        let mut rng = SeedSeq::new(seed).rng();
        let ops: Vec<MemOp> = (0..procs)
            .map(|q| match rng.gen_range(0u8..8) {
                0 | 1 => MemOp::Read(7),
                2..=4 => MemOp::Read(rng.gen_range(0..12)),
                5 | 6 => MemOp::Write(rng.gen_range(0..12), q as u64),
                _ => MemOp::None,
            })
            .collect();
        let mut requests = Vec::new();
        emu.map.issue(&ops, procs, &mut emu.homes, &mut requests);
        let mut modules = ModuleArray::new(procs, MODE);
        let budget = 16 * emu.host.phase_bound() as u32;
        let seq = SeedSeq::new(seed);
        let phase = emu
            .host
            .route_requests(&requests, &mut modules, budget, seq);
        phase.expect("request phase within budget");
        let mut reads = Vec::new();
        modules.serve_batches(1, &mut reads);
        reads.iter().map(|r| (r.module, r.key)).collect()
    }

    /// With combining on, every read of a cell after the first joins a
    /// pending entry on the way, so no `(module, key)` is served twice
    /// in a step: on both combining hosts, hashed and with three fixed
    /// copies per cell.
    #[test]
    fn combining_serves_each_cell_once_per_step() {
        for copies in [1, 3] {
            let cfg = EmulatorConfig::default();
            let mut star = StarPramEmulator::new(4, MODE, 12, cfg.clone());
            let mut leveled = LeveledPramEmulator::new(RadixButterfly::new(2, 4), MODE, 12, cfg);
            if copies > 1 {
                star = star.with_copies(copies).expect("odd copy count");
                leveled = leveled.with_copies(copies).expect("odd copy count");
            }
            for seed in 0..3 {
                let case = format!("copies {copies}, seed {seed}");
                for mut cells in [
                    served_cells(&mut star, seed),
                    served_cells(&mut leveled, seed),
                ] {
                    let served = cells.len();
                    cells.sort_unstable();
                    cells.dedup();
                    assert_eq!(cells.len(), served, "{case}: uncombined read");
                }
            }
        }
    }

    /// The `(module, key)` of every write buffered after one request
    /// phase of `mode` writes, most of them to 4 hot cells, among spread
    /// reads, drawn from `seed`; and the write requests issued.
    fn buffered_writes<H: EmuHost>(
        emu: &mut PramEmulator<H>,
        mode: AccessMode,
        seed: u64,
    ) -> (Vec<(usize, u64)>, usize) {
        let procs = emu.processors();
        let mut rng = SeedSeq::new(seed).rng();
        let ops: Vec<MemOp> = (0..procs)
            .map(|q| match rng.gen_range(0u8..4) {
                0 => MemOp::Read(rng.gen_range(0..12)),
                1 => MemOp::Write(rng.gen_range(0..12), q as u64),
                _ => MemOp::Write(rng.gen_range(0..4), q as u64),
            })
            .collect();
        let mut requests = Vec::new();
        emu.map.issue(&ops, procs, &mut emu.homes, &mut requests);
        let mut modules = ModuleArray::new(procs, mode);
        let budget = 16 * emu.host.phase_bound() as u32;
        let seq = SeedSeq::new(seed);
        let phase = emu
            .host
            .route_requests(&requests, &mut modules, budget, seq);
        phase.expect("request phase within budget");
        let writes = (0..procs).flat_map(|module| {
            modules
                .batch(module)
                .iter()
                .filter_map(move |req| match *req {
                    ModuleRequest::Write { key, .. } => Some((module, key)),
                    ModuleRequest::Read { .. } => None,
                })
        });
        let issued = requests.iter().filter(|r| r.write.is_some()).count();
        (writes.collect(), issued)
    }

    /// The module's queue combines writes: under Sum and Max with
    /// combining on, a write that reaches its module folds into the
    /// write of its key already buffered there, so no batch holds two
    /// writes to one key. Under Common nothing folds, en route or at the
    /// module, since a fold would hide a mismatch: every writer is
    /// buffered. On both combining hosts, hashed and with three fixed
    /// copies per cell.
    #[test]
    fn module_queues_fold_writes_of_one_key() {
        let common = AccessMode::Crcw(WritePolicy::Common);
        let modes = [WritePolicy::Sum, WritePolicy::Max].map(AccessMode::Crcw);
        for copies in [1, 3] {
            for mode in modes.into_iter().chain([common]) {
                let cfg = EmulatorConfig::default();
                let mut star = StarPramEmulator::new(4, mode, 12, cfg.clone());
                let net = RadixButterfly::new(2, 4);
                let mut leveled = LeveledPramEmulator::new(net, mode, 12, cfg);
                if copies > 1 {
                    star = star.with_copies(copies).expect("odd copy count");
                    leveled = leveled.with_copies(copies).expect("odd copy count");
                }
                for seed in 0..3 {
                    let case = format!("{mode:?}, copies {copies}, seed {seed}");
                    for (mut writes, issued) in [
                        buffered_writes(&mut star, mode, seed),
                        buffered_writes(&mut leveled, mode, seed),
                    ] {
                        let buffered = writes.len();
                        if mode == common {
                            assert_eq!(buffered, issued, "{case}: a Common writer folded");
                            continue;
                        }
                        writes.sort_unstable();
                        writes.dedup();
                        assert_eq!(writes.len(), buffered, "{case}: unfolded write");
                        assert!(buffered < issued, "{case}: no write folded");
                    }
                }
            }
        }
    }

    /// `make()`'s program on the `n`-star with combining on and `copies`
    /// copies per cell: its memory image against the reference PRAM's,
    /// and the writes merged en route.
    fn star_against_reference<P: PramProgram>(
        n: usize,
        copies: usize,
        mode: AccessMode,
        make: impl Fn() -> P,
    ) -> (bool, u64) {
        let mut prog = make();
        let space = prog.address_space();
        let mut star = StarPramEmulator::new(n, mode, space, EmulatorConfig::default());
        if copies > 1 {
            star = star.with_copies(copies).expect("odd copy count");
        }
        let report = star.run_program(&mut prog, 10_000);
        let mut oracle = PramMachine::new(space, mode);
        oracle.run(&mut make(), 10_000);
        let matches = star.memory_image(space) == oracle.memory();
        (matches, report.total_write_merges())
    }

    /// The star merges same-address writes at every node, so some meet
    /// at their module, which buffered the first one's value on arrival:
    /// a write folded into that representative there would be lost. The
    /// request protocol merges no write into a representative at its
    /// module, only into the module's buffered write, so CRCW-Sum
    /// histograms and CRCW-Max components leave the reference PRAM's
    /// memory image, hashed and with three copies per cell, while writes
    /// do merge on the way.
    #[test]
    fn no_write_merges_at_its_module() {
        let mut merged = 0;
        for (n, procs) in [(4, 24), (5, 120)] {
            for copies in [1, 3] {
                let case = format!("star({n}), copies {copies}");
                let sum = AccessMode::Crcw(WritePolicy::Sum);
                let inputs: Vec<u64> = (0..procs).map(|i| i % 8).collect();
                let (ok, merges) =
                    star_against_reference(n, copies, sum, || Histogram::new(inputs.clone(), 8));
                assert!(ok, "{case}: histogram diverged from the reference");
                merged += merges;
                let vertices = procs as usize / 3;
                let (ok, merges) = star_against_reference(n, copies, MODE, || {
                    components(vertices, vertices, n as u64)
                });
                assert!(ok, "{case}: components diverged from the reference");
                merged += merges;
            }
        }
        assert!(merged > 0, "no write merged en route");
    }
}
