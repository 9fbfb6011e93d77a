//! One emulation step, stated once: [`PramEmulator<H>`].
//!
//! The paper's scheme is the same on every host in the class; the hosts
//! differ only in the routing algorithm underneath. One emulated PRAM
//! step is:
//!
//! 1. **Issue**: every processor's `MemOp` becomes a request for module
//!    `h(addr)` (`h` drawn from the Karlin–Upfal class with `S = c·L`,
//!    §2.1; the mesh's locality experiments use the identity map).
//! 2. **Request routing**: the host's algorithm carries the requests to
//!    the modules within a step budget, combining reads en route where
//!    the host can (Theorem 2.6).
//! 3. **Service**: modules serve their batch with read-before-write
//!    semantics ([`crate::memory`]).
//! 4. **Reply routing**: the host carries the read values back.
//! 5. **Rehash** (§2.1): if the request routing misses its budget, a
//!    designated processor draws a fresh hash function, all cells are
//!    remapped (an explicit remap charge), the budget doubles, and the
//!    step restarts.
//!
//! The shell owns everything in that list except steps 2 and 4, which
//! are the [`EmuHost`] a topology implements: two routing phases and
//! three constants. Results are bit-identical to
//! `lnpram_pram::PramMachine` — enforced by the tests in the host files
//! and the cross-crate integration tests.

use crate::config::{EmuReport, EmulatorConfig, StepStats};
use crate::memory::ModuleArray;
use lnpram_hash::{HashFamily, PolyHash};
use lnpram_math::rng::SeedSeq;
use lnpram_pram::model::{AccessMode, MemOp, PramProgram};
use lnpram_simnet::Metrics;

/// One memory request of the PRAM step being emulated. Request packets
/// carry their index in the step's request list as [`Packet::id`], so a
/// host's protocols look the rest up here instead of in per-attempt maps.
///
/// [`Packet::id`]: lnpram_simnet::Packet::id
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Issuing processor.
    pub proc: usize,
    /// Shared-memory address.
    pub addr: u64,
    /// `None` = read; `Some(v)` = write of `v`.
    pub write: Option<u64>,
    /// Module owning `addr` under the current address map (the shell
    /// re-maps pending requests when it rehashes).
    pub module: u32,
}

/// A read served by a module: `(module, addr, tag, value)`, as
/// [`ModuleArray::serve_batches`] returns it, where `tag` is the reply
/// tag the host buffered the read with. Reply packets carry their index
/// in the served list as their id.
pub type ServedRead = (usize, u64, u32, u64);

/// What a host reports of one completed routing phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseOutcome {
    /// Network steps the phase took.
    pub steps: u32,
    /// Largest link queue seen.
    pub max_queue: u32,
    /// Combining events (reads absorbed, writes merged en route).
    pub combined: u32,
}

impl PhaseOutcome {
    /// The outcome of an engine run that combined nothing.
    pub fn of(metrics: &Metrics) -> Self {
        PhaseOutcome {
            steps: metrics.routing_time,
            max_queue: metrics.max_queue as u32,
            combined: 0,
        }
    }
}

/// The per-topology part of an emulation: the two routing phases and the
/// constants the shell's budgets and charges scale with.
///
/// Packet conventions shared by all hosts: a request packet's `id`
/// indexes the step's [`Request`] list and its `tag` is the address
/// (hosts whose protocols treat writes differently en route flag them
/// with `hop == 1`); a reply packet's `id` indexes the served reads.
pub trait EmuHost {
    /// Number of processors (= memory modules).
    fn processors(&self) -> usize;

    /// The host's diameter `L`: the hash degree scales with it (§2.1)
    /// and reports are normalised by it.
    fn diameter(&self) -> usize;

    /// Longest path of one routing phase — the unit of the step budget
    /// and of a remap batch (`2ℓ` leveled, `2·diam` star, `4n` mesh).
    fn phase_bound(&self) -> usize;

    /// Steps to broadcast a fresh hash function's description.
    fn broadcast_steps(&self) -> usize;

    /// Route `requests` to their modules within `budget` steps, buffering
    /// each at `modules`. `None` = the budget ran out (the shell
    /// rehashes and retries).
    fn route_requests(
        &mut self,
        requests: &[Request],
        modules: &mut ModuleArray,
        budget: u32,
        seq: SeedSeq,
    ) -> Option<PhaseOutcome>;

    /// Route the served `reads` back, pushing `(proc, value)` per
    /// answered read request. Follows a successful request phase, so it
    /// runs unbudgeted.
    fn route_replies(
        &mut self,
        reads: &[ServedRead],
        seq: SeedSeq,
        deliveries: &mut Vec<(usize, u64)>,
    ) -> PhaseOutcome;
}

/// How shared addresses map to memory modules.
#[derive(Debug, Clone)]
pub enum AddressMap {
    /// Karlin–Upfal hashing onto the modules (the general emulation).
    Hashed(PolyHash),
    /// Identity map: address `a` lives at module `a` (the mesh's
    /// locality experiments, Theorem 3.3).
    Direct,
}

impl AddressMap {
    /// The module owning `addr`.
    pub fn module_of(&self, addr: u64) -> usize {
        match self {
            AddressMap::Hashed(h) => h.eval(addr) as usize,
            AddressMap::Direct => addr as usize,
        }
    }
}

/// The hashed PRAM emulator on host `H` (Theorems 2.5/2.6 and 3.2/3.3,
/// Corollaries 2.3–2.6). Built through the host aliases' constructors:
/// [`LeveledPramEmulator`](crate::LeveledPramEmulator),
/// [`StarPramEmulator`](crate::StarPramEmulator),
/// [`MeshPramEmulator`](crate::MeshPramEmulator).
pub struct PramEmulator<H> {
    pub(crate) host: H,
    cfg: EmulatorConfig,
    family: HashFamily,
    pub(crate) map: AddressMap,
    modules: ModuleArray,
    seq: SeedSeq,
    hash_epoch: u64,
    report: EmuReport,
    /// The current step's requests, kept between steps for its capacity.
    requests: Vec<Request>,
}

impl<H: EmuHost> PramEmulator<H> {
    /// Emulator on `host` for programs over `address_space` cells.
    pub fn with_host(host: H, mode: AccessMode, address_space: u64, cfg: EmulatorConfig) -> Self {
        let modules = host.processors();
        let family = match cfg.hash_degree_override {
            Some(s_deg) => HashFamily::new(address_space, modules as u64, s_deg.max(1)),
            None => HashFamily::for_diameter(
                address_space,
                modules as u64,
                host.diameter().max(1),
                cfg.hash_degree_factor.max(1),
            ),
        };
        let seq = SeedSeq::new(cfg.seed);
        let hash = family.sample(&mut seq.child(0).rng());
        PramEmulator {
            host,
            cfg,
            family,
            map: AddressMap::Hashed(hash),
            modules: ModuleArray::new(modules, mode),
            seq,
            hash_epoch: 0,
            report: EmuReport::default(),
            requests: Vec::new(),
        }
    }

    /// Number of processors (= memory modules).
    pub fn processors(&self) -> usize {
        self.host.processors()
    }

    /// The host's diameter — the normalisation constant of the Õ(ℓ) /
    /// Õ(n) theorems (`2ℓ` leveled, `⌊3(n−1)/2⌋` star, `2n−2` mesh).
    pub fn diameter(&self) -> usize {
        self.host.diameter()
    }

    /// Module owning `addr` under the current address map.
    pub fn module_of(&self, addr: u64) -> usize {
        self.map.module_of(addr)
    }

    /// Direct read of the emulated shared memory (for verification).
    pub fn peek(&self, addr: u64) -> u64 {
        self.modules.peek(self.module_of(addr), addr)
    }

    /// Snapshot the full memory image `0..address_space` (diffed against
    /// the reference machine by the tests).
    pub fn memory_image(&self, address_space: u64) -> Vec<u64> {
        (0..address_space).map(|a| self.peek(a)).collect()
    }

    /// The accumulated report.
    pub fn report(&self) -> &EmuReport {
        &self.report
    }

    /// Run `prog` to completion (every processor `Halt`s), mirroring
    /// [`lnpram_pram::PramMachine::run`]. Returns the final report clone.
    ///
    /// # Panics
    /// If `prog` needs more processors than the host has or addresses
    /// more cells than the emulator was built for, and as
    /// [`emulate_step`](Self::emulate_step) does.
    pub fn run_program<P: PramProgram>(&mut self, prog: &mut P, max_steps: usize) -> EmuReport {
        let limits = (self.processors(), self.family.address_space);
        let steps = drive_program(
            self,
            prog,
            max_steps,
            limits,
            |emu, addr, val| emu.modules.poke(emu.module_of(addr), addr, val),
            Self::emulate_step,
        );
        self.report.pram_steps += steps;
        self.report.clone()
    }

    /// Emulate one PRAM step; returns `(proc, value)` for every read.
    ///
    /// # Panics
    /// If `ops` has more entries than the host has processors, or if the
    /// request phase still overruns its budget after
    /// [`EmulatorConfig::max_rehashes`] rehashes.
    pub fn emulate_step(&mut self, ops: &[MemOp], step_label: u64) -> Vec<(usize, u64)> {
        assert!(
            ops.len() <= self.processors(),
            "{} ops for {} processors",
            ops.len(),
            self.processors()
        );
        self.requests.clear();
        self.requests
            .extend(ops.iter().enumerate().filter_map(|(proc, op)| {
                let (addr, write) = match *op {
                    MemOp::Read(addr) => (addr, None),
                    MemOp::Write(addr, v) => (addr, Some(v)),
                    MemOp::None | MemOp::Halt => return None,
                };
                Some(Request {
                    proc,
                    addr,
                    write,
                    module: self.map.module_of(addr) as u32,
                })
            }));
        let mut stats = StepStats {
            requests: self.requests.len() as u32,
            ..Default::default()
        };
        if self.requests.is_empty() {
            self.report.steps.push(stats);
            return Vec::new();
        }

        let step_seq = self.seq.child(1).child(step_label);
        let mut attempt = 0u32;
        let (requested, attempt_seq) = loop {
            let budget =
                self.cfg.budget_factor * self.host.phase_bound() as u32 * (1 << attempt.min(8));
            let attempt_seq = step_seq.child(attempt as u64);
            self.modules.clear_batches();
            let routed = self.host.route_requests(
                &self.requests,
                &mut self.modules,
                budget,
                attempt_seq.child(0),
            );
            if let Some(outcome) = routed {
                break (outcome, attempt_seq);
            }
            attempt += 1;
            assert!(
                attempt <= self.cfg.max_rehashes,
                "exceeded max_rehashes ({}) — budget_factor too small",
                self.cfg.max_rehashes
            );
            self.rehash(&mut stats);
        };
        stats.request_steps = requested.steps;
        stats.max_queue = requested.max_queue;
        stats.combined = requested.combined;

        let (reads, busiest) = self.modules.serve_batches();
        stats.service_steps = busiest;

        // One delivery per read request at most, so the reply run never
        // grows the vector it fills.
        let mut deliveries: Vec<(usize, u64)> = Vec::new();
        if !reads.is_empty() {
            deliveries.reserve_exact(self.requests.iter().filter(|r| r.write.is_none()).count());
            let replied = self
                .host
                .route_replies(&reads, attempt_seq.child(1), &mut deliveries);
            stats.reply_steps = replied.steps;
            stats.max_queue = stats.max_queue.max(replied.max_queue);
        }
        self.report.steps.push(stats);
        deliveries
    }

    /// §2.1 rehashing: draw a fresh `h`, remap every stored cell (and the
    /// step's pending requests), charge the redistribution — the cells
    /// form `⌈cells/N⌉` batches, each an h-relation costing one full
    /// phase, plus broadcasting the `O(L log M)`-bit description of `h`.
    /// Under the direct map a timeout can only be congestion: charge the
    /// retry's broadcast and remap nothing (locality is kept).
    fn rehash(&mut self, stats: &mut StepStats) {
        self.hash_epoch += 1;
        self.report.remap_steps += self.host.broadcast_steps() as u64;
        if let AddressMap::Hashed(hash) = &mut self.map {
            *hash = self
                .family
                .sample(&mut self.seq.child(2).child(self.hash_epoch).rng());
            let cells = self.modules.drain_cells();
            let batches = cells.len().div_ceil(self.host.processors().max(1)) as u64;
            self.report.remap_steps += batches * self.host.phase_bound() as u64;
            for (addr, val) in cells {
                self.modules.poke(hash.eval(addr) as usize, addr, val);
            }
            for req in &mut self.requests {
                req.module = hash.eval(req.addr) as u32;
            }
        }
        stats.rehashes += 1;
        self.report.rehashes += 1;
    }
}

/// The program driver shared by [`PramEmulator`] and the replicated
/// baseline: check that `prog` fits `limits = (processors, cells)`, place
/// its initial memory with `load`, then feed every PRAM step's ops to
/// `step` and the reads back to the program until every processor
/// halts. Returns the number of PRAM steps emulated.
pub(crate) fn drive_program<M, P: PramProgram>(
    machine: &mut M,
    prog: &mut P,
    max_steps: usize,
    (processors, address_space): (usize, u64),
    load: impl Fn(&mut M, u64, u64),
    step: impl Fn(&mut M, &[MemOp], u64) -> Vec<(usize, u64)>,
) -> usize {
    assert!(
        prog.processors() <= processors,
        "program needs {} processors, host has {}",
        prog.processors(),
        processors
    );
    assert!(
        prog.address_space() <= address_space,
        "program addresses {} cells, emulator was built for {}",
        prog.address_space(),
        address_space
    );
    for (addr, val) in prog.initial_memory() {
        load(machine, addr, val);
    }
    let p = prog.processors();
    let mut last_read: Vec<Option<u64>> = vec![None; p];
    for pram_step in 0..max_steps {
        let ops: Vec<MemOp> = (0..p)
            .map(|i| prog.op(i, pram_step, last_read[i]))
            .collect();
        if ops.iter().all(|o| matches!(o, MemOp::Halt)) {
            return pram_step;
        }
        for (proc, value) in step(machine, &ops, pram_step as u64) {
            last_read[proc] = Some(value);
        }
    }
    max_steps
}
