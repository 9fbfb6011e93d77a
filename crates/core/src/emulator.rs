//! One emulation step, stated once: [`PramEmulator<H>`].
//!
//! The paper's scheme is the same on every host in the class; the hosts
//! differ only in the routing algorithm underneath. One emulated PRAM
//! step is:
//!
//! 1. **Issue**: every processor's `MemOp` becomes a request for module
//!    `h(addr)` (`h` drawn from the Karlin–Upfal class with `S = c·L`,
//!    §2.1; the mesh's locality experiments use the identity map). Under
//!    deterministic replication ([`PramEmulator::with_copies`]) it
//!    becomes `c` requests instead, one per copy in its quorum.
//! 2. **Request routing**: the host's algorithm carries the requests to
//!    the modules within a step budget, combining reads en route where
//!    the host can (Theorem 2.6).
//! 3. **Service**: modules serve their batch with read-before-write
//!    semantics, stamping writes with the step's version
//!    ([`crate::memory`]).
//! 4. **Reply routing**: the host carries the read values back; each
//!    reader keeps the newest version among its replies.
//! 5. **Rehash** (§2.1): if the request routing misses its budget, a
//!    designated processor draws a fresh hash function, all cells are
//!    remapped (an explicit remap charge), the budget doubles, and the
//!    step restarts. A fixed placement (direct or replicated) retries
//!    without remapping.
//!
//! The shell owns everything in that list except steps 2 and 4, which
//! are the [`EmuHost`] a topology implements: two routing phases and
//! four constants. The hosts that combine share one implementation,
//! [`CombiningHost`](crate::combining_host::CombiningHost). Results are
//! bit-identical to `lnpram_pram::PramMachine` — enforced by the tests
//! in the host files and the cross-crate integration tests.

use crate::config::{EmuReport, EmulatorConfig, StepStats};
use crate::memory::{ModuleArray, ServedRead};
use lnpram_hash::{HashFamily, PolyHash};
use lnpram_math::rng::SeedSeq;
use lnpram_pram::model::{AccessMode, MemOp, PramProgram};
use lnpram_simnet::Metrics;
use std::fmt;

/// Fixed multiplicative-hash constants placing the replicated map's
/// copies, one per copy index (odd 64-bit constants in the golden-ratio
/// family; the placement is *deterministic*, which is the point of that
/// baseline, so they are compile-time fixed).
const PLACEMENT_KEYS: [u64; 7] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x27D4_EB2F_1656_67C5,
    0x9E37_79B9_7F4A_7C55,
    0xC2B2_AE3D_27D4_EB05,
    0x1656_67B1_9E37_79A1,
];

/// A copy count replication cannot run with: `R = 2c − 1` must be odd
/// (so any two quorums intersect) and within `1..=7` (one placement key
/// per copy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidCopies(pub usize);

impl fmt::Display for InvalidCopies {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "copies must be odd (R = 2c − 1) with 1 ≤ copies ≤ {}, got {}",
            PLACEMENT_KEYS.len(),
            self.0
        )
    }
}

impl std::error::Error for InvalidCopies {}

/// One memory request of the PRAM step being emulated. Request packets
/// carry their index in the step's request list as [`Packet::id`], so a
/// host's protocols look the rest up here instead of in per-attempt maps.
///
/// [`Packet::id`]: lnpram_simnet::Packet::id
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Issuing processor.
    pub proc: usize,
    /// Storage key of the cell accessed: the shared-memory address, or
    /// `addr·R + j` for copy `j` under replication. Requests for one key
    /// go to one module, so hosts combine by it.
    pub key: u64,
    /// `None` = read; `Some(v)` = write of `v`.
    pub write: Option<u64>,
    /// Module holding the cell under the current address map (the shell
    /// re-maps pending requests when it rehashes).
    pub module: u32,
}

/// What a host reports of one completed routing phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseOutcome {
    /// Network steps the phase took.
    pub steps: u32,
    /// Largest link queue seen.
    pub max_queue: u32,
    /// Combining events (reads absorbed, writes merged).
    pub combined: u32,
    /// The writes merged, en route or in a module's queue, of
    /// [`Self::combined`].
    pub write_merges: u32,
}

impl PhaseOutcome {
    /// The outcome of an engine run that combined nothing.
    pub fn of(metrics: &Metrics) -> Self {
        PhaseOutcome {
            steps: metrics.routing_time,
            max_queue: metrics.max_queue as u32,
            combined: 0,
            write_merges: 0,
        }
    }
}

/// The per-topology part of an emulation: the two routing phases and the
/// constants the shell's budgets and charges scale with.
///
/// Packet conventions shared by all hosts: a request packet's `id`
/// indexes the step's [`Request`] list and its `tag` is the storage key
/// (hosts whose protocols treat writes differently en route flag them
/// with `hop == 1`); a reply packet's `id` indexes the served reads.
/// Every phase is one `Engine::run` on the host's serial engine; the
/// hosts' protocols keep cross-node state.
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

    /// Route the served `reads` back, pushing `(proc, read index)` for
    /// every reply a processor receives: each processor's replies in the
    /// order they reach it, in any order across processors. Follows a
    /// successful request phase, so it runs unbudgeted.
    fn route_replies(
        &mut self,
        reads: &[ServedRead],
        seq: SeedSeq,
        replies: &mut Vec<(usize, u32)>,
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
    /// Deterministic replication, the baseline of the paper's reference
    /// \[3\] (Alt, Hagerup, Mehlhorn & Preparata, SIAM J. Comput. 1987):
    /// every cell in `copies = 2c − 1` replicas at fixed modules. A write
    /// updates copies `0..c`; a read consults `c` copies rotated by the
    /// address, so read load spreads over all of them; any two such
    /// quorums intersect, and the newest version wins.
    ///
    /// Simplified from \[3\], whose copies sit on an expander-like
    /// bipartite structure and whose reads take an *adaptive* majority
    /// (robust to worst-case congestion): here placement is a fixed
    /// multiplicative hash and the quorums are fixed. That keeps the cost
    /// structure the comparison needs — `c×` request and reply traffic
    /// per access, no rehash escape, a placement an adversary could
    /// target — and omits the worst-case machinery.
    Replicated {
        /// `R`: odd, `1..=7` (1 is deterministic placement alone).
        copies: usize,
    },
}

impl AddressMap {
    /// Copies stored per cell: `R` under replication, else 1.
    pub(crate) fn copies(&self) -> usize {
        match self {
            AddressMap::Replicated { copies } => *copies,
            _ => 1,
        }
    }

    /// The copies an access of `addr` touches: the write quorum `0..c`,
    /// or for a read the `c` copies from `addr mod R` on (cyclically).
    pub(crate) fn quorum(&self, addr: u64, write: bool) -> impl Iterator<Item = usize> {
        let r = self.copies();
        // Every access of every step comes through here: no division
        // when there is one copy.
        let start = if write || r == 1 {
            0
        } else {
            (addr % r as u64) as usize
        };
        (start..start + r.div_ceil(2)).map(move |j| if j < r { j } else { j - r })
    }

    /// The module and storage key of copy `j` of `addr` on a host with
    /// `modules` modules.
    pub(crate) fn locate(&self, addr: u64, j: usize, modules: usize) -> (usize, u64) {
        match self {
            AddressMap::Hashed(h) => (h.eval(addr) as usize, addr),
            AddressMap::Direct => (addr as usize, addr),
            AddressMap::Replicated { copies } => {
                let mixed = addr.wrapping_add(1).wrapping_mul(PLACEMENT_KEYS[j]);
                let module = (mixed >> 17) % modules as u64;
                (module as usize, addr * *copies as u64 + j as u64)
            }
        }
    }

    /// Replace `requests` with those of `ops` on a host with `modules`
    /// modules: one per copy in each access's quorum, processors
    /// ascending. A hashed map reads `h(a)` through `homes`.
    pub(crate) fn issue(
        &self,
        ops: &[MemOp],
        modules: usize,
        homes: &mut Homes,
        requests: &mut Vec<Request>,
    ) {
        requests.clear();
        for (proc, op) in ops.iter().enumerate() {
            let (addr, write) = match *op {
                MemOp::Read(addr) => (addr, None),
                MemOp::Write(addr, v) => (addr, Some(v)),
                MemOp::None | MemOp::Halt => continue,
            };
            for j in self.quorum(addr, write.is_some()) {
                let (module, key) = match self {
                    AddressMap::Hashed(h) => (homes.of(h, addr), addr),
                    _ => self.locate(addr, j, modules),
                };
                requests.push(Request {
                    proc,
                    key,
                    write,
                    module: module as u32,
                });
            }
        }
    }
}

/// `h(a)` of the hashed map per address of the emulator's address space,
/// filled on first use and cleared on rehash: a program touches few
/// cells many times, and each `h(a)` is a degree-`S` Horner evaluation.
#[derive(Debug, Clone)]
pub(crate) struct Homes(Vec<u32>);

impl Homes {
    /// Not yet evaluated. No module index is this large.
    const UNSET: u32 = u32::MAX;

    /// Addresses past this have no slot and are evaluated every time, so
    /// a huge, sparsely used address space costs no memory.
    const MAX_SLOTS: u64 = 1 << 20;

    fn new(address_space: u64) -> Self {
        Homes(vec![
            Self::UNSET;
            address_space.min(Self::MAX_SLOTS) as usize
        ])
    }

    /// `h(addr)`.
    #[inline]
    fn of(&mut self, h: &PolyHash, addr: u64) -> usize {
        let Some(home) = usize::try_from(addr).ok().and_then(|a| self.0.get_mut(a)) else {
            return h.eval(addr) as usize;
        };
        if *home == Self::UNSET {
            *home = h.eval(addr) as u32;
        }
        *home as usize
    }

    /// Forget every `h(a)` (a fresh `h` was drawn).
    fn clear(&mut self) {
        self.0.fill(Self::UNSET);
    }
}

/// The PRAM emulator on host `H` (Theorems 2.5/2.6 and 3.2/3.3,
/// Corollaries 2.3–2.6), hashed unless built
/// [`with_copies`](Self::with_copies). Built through the host aliases'
/// constructors: [`LeveledPramEmulator`](crate::LeveledPramEmulator),
/// [`StarPramEmulator`](crate::StarPramEmulator),
/// [`MeshPramEmulator`](crate::MeshPramEmulator).
pub struct PramEmulator<H> {
    pub(crate) host: H,
    cfg: EmulatorConfig,
    family: HashFamily,
    pub(crate) map: AddressMap,
    /// `h(a)` of [`AddressMap::Hashed`], memoised.
    pub(crate) homes: Homes,
    modules: ModuleArray,
    seq: SeedSeq,
    hash_epoch: u64,
    /// The version the last served step stamped its writes with; initial
    /// memory is version 0.
    version: u64,
    report: EmuReport,
    /// The current step's requests, kept between steps for its capacity.
    requests: Vec<Request>,
    /// The current step's served reads, likewise.
    reads: Vec<ServedRead>,
    /// The current step's `(proc, read index)` replies, likewise.
    replies: Vec<(usize, u32)>,
    /// Per processor, `(step, version, read index)` of its newest reply
    /// so far, `step` being the version of the step it answered; entries
    /// of an earlier step are stale.
    newest: Vec<(u64, u64, u32)>,
}

impl<H: EmuHost> PramEmulator<H> {
    /// Emulator on `host` for programs over `address_space` cells.
    pub fn with_host(host: H, mode: AccessMode, address_space: u64, cfg: EmulatorConfig) -> Self {
        let modules = host.processors();
        let family = match cfg.hash_degree_override {
            Some(s_deg) => HashFamily::new(address_space, modules as u64, s_deg.max(1)),
            None => {
                HashFamily::for_diameter(address_space, modules as u64, host.diameter().max(1), 1)
            }
        };
        let seq = SeedSeq::new(cfg.seed);
        let hash = family.sample(&mut seq.child(0).rng());
        PramEmulator {
            host,
            cfg,
            family,
            map: AddressMap::Hashed(hash),
            homes: Homes::new(address_space),
            modules: ModuleArray::new(modules, mode),
            seq,
            hash_epoch: 0,
            version: 0,
            report: EmuReport::default(),
            requests: Vec::new(),
            reads: Vec::new(),
            replies: Vec::new(),
            newest: Vec::new(),
        }
    }

    /// Store every cell in `copies = 2c − 1` fixed replicas instead of
    /// one hashed copy ([`AddressMap::Replicated`]): the deterministic
    /// baseline the randomized scheme is compared against. Every access
    /// costs `c` requests, a read's replies resolve by version, and a
    /// budget overrun retries on the same placement. Works on any host
    /// and honours every [`EmulatorConfig`] field.
    ///
    /// # Errors
    /// [`InvalidCopies`] unless `copies` is odd and at most 7.
    ///
    /// # Panics
    /// Unless the emulator is freshly built and hashed: once a step has
    /// run or a cell is stored, or on a direct map
    /// ([`MeshPramEmulator::new_local`](crate::MeshPramEmulator::new_local)),
    /// switching placement would strand cells where the old map put them.
    ///
    /// ```
    /// use lnpram_core::{EmulatorConfig, InvalidCopies, StarPramEmulator};
    /// use lnpram_pram::model::{AccessMode, MemOp};
    ///
    /// let emu = StarPramEmulator::new(4, AccessMode::Erew, 64, EmulatorConfig::default());
    /// let mut emu = emu.with_copies(3)?;
    /// emu.emulate_step(&[MemOp::Write(7, 41)], 0);
    /// let reads = emu.emulate_step(&[MemOp::Read(7)], 1);
    /// assert_eq!(reads, vec![(0, 41)]);
    /// assert_eq!(emu.quorum(), 2); // c = (R+1)/2 packets per access
    /// # Ok::<(), InvalidCopies>(())
    /// ```
    pub fn with_copies(mut self, copies: usize) -> Result<Self, InvalidCopies> {
        if copies.is_multiple_of(2) || copies > PLACEMENT_KEYS.len() {
            return Err(InvalidCopies(copies));
        }
        assert!(
            matches!(self.map, AddressMap::Hashed(_))
                && self.report.steps.is_empty()
                && self.modules.holds_no_cells(),
            "with_copies needs a freshly built hashed emulator"
        );
        self.map = AddressMap::Replicated { copies };
        Ok(self)
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

    /// Requests per access: the quorum `c = (R + 1)/2` under
    /// replication, else 1.
    pub fn quorum(&self) -> usize {
        self.map.copies().div_ceil(2)
    }

    /// Direct read of the emulated shared memory (for verification): the
    /// newest of the cell's copies.
    pub fn peek(&self, addr: u64) -> u64 {
        let modules = self.processors();
        let copies = (0..self.map.copies()).map(|j| {
            let (module, key) = self.map.locate(addr, j, modules);
            self.modules.peek(module, key)
        });
        copies
            .max_by_key(|&(_, version)| version)
            .map_or(0, |(value, _)| value)
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
    /// [`lnpram_pram::PramMachine::run`]: place its initial memory, then
    /// feed every PRAM step's ops to [`emulate_step`](Self::emulate_step)
    /// and the reads back to the program. Returns the final report clone.
    ///
    /// # Panics
    /// If `prog` needs more processors than the host has or addresses
    /// more cells than the emulator was built for, and as
    /// [`emulate_step`](Self::emulate_step) does.
    pub fn run_program<P: PramProgram>(&mut self, prog: &mut P, max_steps: usize) -> EmuReport {
        let (p, modules) = (prog.processors(), self.processors());
        assert!(
            p <= modules,
            "program needs {p} processors, host has {modules}"
        );
        assert!(
            prog.address_space() <= self.family.address_space,
            "program addresses {} cells, emulator was built for {}",
            prog.address_space(),
            self.family.address_space
        );
        for (addr, value) in prog.initial_memory() {
            for j in 0..self.map.copies() {
                let (module, key) = self.map.locate(addr, j, modules);
                self.modules.poke(module, key, value, 0);
            }
        }
        let mut last_read: Vec<Option<u64>> = vec![None; p];
        let (mut ops, mut reads) = (Vec::with_capacity(p), Vec::new());
        let mut steps = max_steps;
        for pram_step in 0..max_steps {
            ops.clear();
            ops.extend((0..p).map(|i| prog.op(i, pram_step, last_read[i])));
            if ops.iter().all(|o| matches!(o, MemOp::Halt)) {
                steps = pram_step;
                break;
            }
            self.step_into(&ops, pram_step as u64, &mut reads);
            for &(proc, value) in &reads {
                last_read[proc] = Some(value);
            }
        }
        self.report.pram_steps += steps;
        self.report.clone()
    }

    /// Emulate one PRAM step; returns `(proc, value)` for every read, in
    /// ascending processor order.
    ///
    /// # Panics
    /// If `ops` has more entries than the host has processors, or if the
    /// request phase still overruns its budget after
    /// [`EmulatorConfig::max_rehashes`] rehashes.
    pub fn emulate_step(&mut self, ops: &[MemOp], step_label: u64) -> Vec<(usize, u64)> {
        let mut reads = Vec::new();
        self.step_into(ops, step_label, &mut reads);
        reads
    }

    /// [`emulate_step`](Self::emulate_step) into `deliveries`, which is
    /// cleared first.
    fn step_into(&mut self, ops: &[MemOp], step_label: u64, deliveries: &mut Vec<(usize, u64)>) {
        let modules = self.processors();
        assert!(
            ops.len() <= modules,
            "{} ops for {modules} processors",
            ops.len()
        );
        deliveries.clear();
        self.map
            .issue(ops, modules, &mut self.homes, &mut self.requests);
        let mut stats = StepStats {
            requests: self.requests.len() as u32,
            ..Default::default()
        };
        if self.requests.is_empty() {
            self.report.steps.push(stats);
            return;
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
        stats.write_merges = requested.write_merges;

        self.version += 1;
        stats.service_steps = self.modules.serve_batches(self.version, &mut self.reads);

        if !self.reads.is_empty() {
            self.replies.clear();
            let replied =
                self.host
                    .route_replies(&self.reads, attempt_seq.child(1), &mut self.replies);
            stats.reply_steps = replied.steps;
            stats.max_queue = stats.max_queue.max(replied.max_queue);
            // Each reader keeps its newest reply (quorum intersection makes
            // that the latest write); on equal versions the first to arrive
            // stays. All of a processor's replies arrive at its own node,
            // which sees its arrivals in link-id order on either process
            // path, so that tie rule is path-independent; the order of
            // `replies` across processors is not, so the readers are
            // listed in the requests' order, processors ascending.
            self.newest.resize(modules, (0, 0, 0));
            for &(proc, i) in &self.replies {
                let version = self.reads[i as usize].version;
                let newest = &mut self.newest[proc];
                if newest.0 != self.version || version > newest.1 {
                    *newest = (self.version, version, i);
                }
            }
            deliveries.reserve_exact(self.replies.len());
            let mut last = None;
            for req in self.requests.iter().filter(|r| r.write.is_none()) {
                let (step, _, i) = self.newest[req.proc];
                if last != Some(req.proc) && step == self.version {
                    deliveries.push((req.proc, self.reads[i as usize].value));
                }
                last = Some(req.proc);
            }
        }
        self.report.steps.push(stats);
    }

    /// §2.1 rehashing: draw a fresh `h`, remap every stored cell (and the
    /// step's pending requests), charge the redistribution — the cells
    /// form `⌈cells/N⌉` batches, each an h-relation costing one full
    /// phase, plus broadcasting the `O(L log M)`-bit description of `h`.
    /// Under a fixed placement (direct or replicated) a timeout can only
    /// be congestion: charge the retry's broadcast and remap nothing.
    fn rehash(&mut self, stats: &mut StepStats) {
        self.hash_epoch += 1;
        self.report.remap_steps += self.host.broadcast_steps() as u64;
        if let AddressMap::Hashed(hash) = &mut self.map {
            *hash = self
                .family
                .sample(&mut self.seq.child(2).child(self.hash_epoch).rng());
            self.homes.clear();
            let cells = self.modules.drain_cells();
            let batches = cells.len().div_ceil(self.host.processors().max(1)) as u64;
            self.report.remap_steps += batches * self.host.phase_bound() as u64;
            for (key, (value, version)) in cells {
                let module = self.homes.of(hash, key);
                self.modules.poke(module, key, value, version);
            }
            for req in &mut self.requests {
                req.module = self.homes.of(hash, req.key) as u32;
            }
        }
        stats.rehashes += 1;
        self.report.rehashes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LeveledPramEmulator;
    use lnpram_pram::machine::PramMachine;
    use lnpram_pram::model::WritePolicy;
    use lnpram_pram::programs::{Histogram, PermutationTraffic, PrefixSum, ReductionMax};
    use lnpram_topology::leveled::RadixButterfly;

    /// The deterministic baseline on butterfly(2, k).
    fn replicated(
        k: usize,
        mode: AccessMode,
        space: u64,
        copies: usize,
        cfg: EmulatorConfig,
    ) -> LeveledPramEmulator<RadixButterfly> {
        LeveledPramEmulator::new(RadixButterfly::new(2, k), mode, space, cfg)
            .with_copies(copies)
            .unwrap()
    }

    #[test]
    fn quorum_arithmetic() {
        for copies in [1usize, 3, 5, 7] {
            let map = AddressMap::Replicated { copies };
            let c = copies.div_ceil(2);
            let emu = replicated(3, AccessMode::Erew, 64, copies, EmulatorConfig::default());
            assert_eq!(emu.quorum(), c);
            assert_eq!(
                map.quorum(9, true).collect::<Vec<_>>(),
                (0..c).collect::<Vec<_>>()
            );
            // Any read quorum must intersect the write quorum {0..c}.
            for addr in 0..20u64 {
                assert_eq!(map.quorum(addr, false).count(), c);
                assert!(
                    map.quorum(addr, false).any(|j| j < c),
                    "addr {addr}, copies {copies}: quorums disjoint"
                );
            }
        }
        let hashed = LeveledPramEmulator::new(
            RadixButterfly::new(2, 3),
            AccessMode::Erew,
            64,
            EmulatorConfig::default(),
        );
        assert_eq!(hashed.quorum(), 1);
    }

    #[test]
    fn even_copy_count_rejected() {
        for copies in [0usize, 2, 8, 9] {
            let emu = LeveledPramEmulator::new(
                RadixButterfly::new(2, 3),
                AccessMode::Erew,
                64,
                EmulatorConfig::default(),
            );
            let err = emu.with_copies(copies).err();
            assert_eq!(err, Some(InvalidCopies(copies)));
            assert!(err.unwrap().to_string().contains("odd"));
        }
    }

    #[test]
    #[should_panic(expected = "freshly built hashed emulator")]
    fn with_copies_after_a_step_panics() {
        let mut emu = LeveledPramEmulator::new(
            RadixButterfly::new(2, 3),
            AccessMode::Erew,
            16,
            EmulatorConfig::default(),
        );
        emu.emulate_step(&[MemOp::Write(5, 100)], 0);
        let _ = emu.with_copies(3);
    }

    #[test]
    #[should_panic(expected = "freshly built hashed emulator")]
    fn with_copies_on_a_direct_map_panics() {
        let emu = crate::MeshPramEmulator::new_local(
            4,
            AccessMode::Erew,
            16,
            1,
            EmulatorConfig::default(),
        )
        .expect("16 cells fit the 4×4 mesh");
        let _ = emu.with_copies(3);
    }

    #[test]
    fn copy_placement_is_deterministic_and_in_range() {
        let map = AddressMap::Replicated { copies: 3 };
        for addr in 0..100u64 {
            for j in 0..3 {
                let (module, key) = map.locate(addr, j, 16);
                assert!(module < 16);
                assert_eq!(key, addr * 3 + j as u64, "one key per copy");
                assert_eq!(
                    (module, key),
                    map.locate(addr, j, 16),
                    "must be a pure function"
                );
            }
        }
    }

    #[test]
    fn prefix_sum_matches_reference() {
        let values: Vec<u64> = (0..8).map(|i| i * 2 + 1).collect();
        let mut prog = PrefixSum::new(values.clone());
        let space = prog.address_space();
        let mut emu = replicated(3, AccessMode::Erew, space, 3, EmulatorConfig::default());
        emu.run_program(&mut prog, 100_000);
        let mut oracle = PramMachine::new(space, AccessMode::Erew);
        oracle.run(&mut PrefixSum::new(values), 100_000);
        assert_eq!(emu.memory_image(space), oracle.memory());
    }

    #[test]
    fn reduction_matches_reference_across_copy_counts() {
        let values: Vec<u64> = (0..16).map(|i| (i * 31 + 7) % 101).collect();
        for copies in [1usize, 3, 5] {
            let mut prog = ReductionMax::new(values.clone());
            let space = prog.address_space();
            let mut emu = replicated(
                3,
                AccessMode::Erew,
                space,
                copies,
                EmulatorConfig::default(),
            );
            emu.run_program(&mut prog, 100_000);
            assert_eq!(
                emu.peek(0),
                *values.iter().max().unwrap(),
                "copies = {copies}"
            );
        }
    }

    #[test]
    fn crcw_histogram_matches_reference() {
        let inputs: Vec<u64> = (0..16).map(|i| (i * 7) % 5).collect();
        let mut prog = Histogram::new(inputs.clone(), 5);
        let space = prog.address_space();
        let mode = AccessMode::Crcw(WritePolicy::Sum);
        let mut emu = replicated(4, mode, space, 3, EmulatorConfig::default());
        emu.run_program(&mut prog, 1000);
        assert!(prog.verify(&emu.memory_image(space)));
        let mut oracle = PramMachine::new(space, mode);
        oracle.run(&mut Histogram::new(inputs, 5), 1000);
        assert_eq!(emu.memory_image(space), oracle.memory());
    }

    #[test]
    fn stale_copies_never_win() {
        // Write addr twice in different steps; the write quorum is fixed,
        // so copies outside it keep version 0 — the read must still see
        // the second write through max-version resolution, whatever step
        // labels the caller passes.
        let mut emu = replicated(3, AccessMode::Erew, 16, 3, EmulatorConfig::default());
        emu.emulate_step(&[MemOp::Write(5, 100)], 7);
        emu.emulate_step(&[MemOp::Write(5, 200)], 0);
        let reads = emu.emulate_step(&[MemOp::Read(5)], 0);
        assert_eq!(reads, vec![(0, 200)]);
        assert_eq!(emu.peek(5), 200);
    }

    /// Step 0 writes `10·a + 1` to every cell `a < 16`; then a hot-spot
    /// read of cell 3 by every processor and a spread read by two of
    /// every three must come back in ascending processor order.
    fn assert_reads_ascend<H: EmuHost>(mut emu: PramEmulator<H>) {
        let procs = emu.processors();
        let writes: Vec<MemOp> = (0..16).map(|a| MemOp::Write(a, 10 * a + 1)).collect();
        assert!(emu.emulate_step(&writes, 0).is_empty());
        let hot = vec![MemOp::Read(3); procs];
        let want: Vec<(usize, u64)> = (0..procs).map(|q| (q, 31)).collect();
        assert_eq!(emu.emulate_step(&hot, 1), want, "hot-spot read");
        let spread: Vec<MemOp> = (0..procs)
            .map(|q| match q % 3 {
                2 => MemOp::None,
                _ => MemOp::Read((q as u64 * 5 + 1) % 16),
            })
            .collect();
        let want: Vec<(usize, u64)> = (0..procs)
            .filter(|q| q % 3 != 2)
            .map(|q| (q, 10 * ((q as u64 * 5 + 1) % 16) + 1))
            .collect();
        assert_eq!(emu.emulate_step(&spread, 2), want, "spread read");
    }

    #[test]
    fn reads_come_back_in_ascending_processor_order() {
        let cfg = EmulatorConfig::default;
        let mode = AccessMode::Crew;
        assert_reads_ascend(crate::StarPramEmulator::new(4, mode, 16, cfg()));
        assert_reads_ascend(LeveledPramEmulator::new(
            RadixButterfly::new(2, 4),
            mode,
            16,
            cfg(),
        ));
        assert_reads_ascend(crate::MeshPramEmulator::new(4, mode, 16, cfg()));
        assert_reads_ascend(replicated(4, mode, 16, 3, cfg()));
    }

    #[test]
    fn replication_multiplies_traffic_by_quorum() {
        // c× packets per access is the baseline's fundamental cost.
        let perm: Vec<usize> = (0..16).map(|i| (i * 5 + 3) % 16).collect();
        let run = |copies: usize| {
            let mut prog = PermutationTraffic::new(perm.clone(), 2);
            let space = prog.address_space();
            let mut emu = replicated(
                4,
                AccessMode::Erew,
                space,
                copies,
                EmulatorConfig::default(),
            );
            let rep = emu.run_program(&mut prog, 1000);
            rep.steps.iter().map(|s| u64::from(s.requests)).sum::<u64>()
        };
        let one = run(1);
        let three = run(3);
        let five = run(5);
        assert_eq!(three, 2 * one, "c = 2 at R = 3");
        assert_eq!(five, 3 * one, "c = 3 at R = 5");
    }

    #[test]
    fn slower_than_randomized_hashing() {
        // The comparison the paper implies: deterministic replication pays
        // a constant-factor traffic/time overhead per step versus the
        // randomized single-copy scheme.
        let perm: Vec<usize> = (0..32).map(|i| (i * 11 + 5) % 32).collect();
        let mut prog = PermutationTraffic::new(perm.clone(), 4);
        let space = prog.address_space();
        let mut rep_emu = replicated(5, AccessMode::Erew, space, 3, EmulatorConfig::default());
        let rep_report = rep_emu.run_program(&mut prog, 1000);
        let mut hash_emu = LeveledPramEmulator::new(
            RadixButterfly::new(2, 5),
            AccessMode::Erew,
            space,
            EmulatorConfig::default(),
        );
        let hash_report = hash_emu.run_program(&mut PermutationTraffic::new(perm, 4), 1000);
        assert!(
            rep_report.mean_step_time() > hash_report.mean_step_time(),
            "replicated ({:.1}) should cost more than hashed ({:.1})",
            rep_report.mean_step_time(),
            hash_report.mean_step_time()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let perm: Vec<usize> = (0..8).map(|i| (i * 3 + 1) % 8).collect();
            let mut prog = PermutationTraffic::new(perm, 2);
            let cfg = EmulatorConfig {
                seed: 21,
                ..Default::default()
            };
            let mut emu = replicated(3, AccessMode::Erew, prog.address_space(), 3, cfg);
            let rep = emu.run_program(&mut prog, 100);
            (rep.network_steps(), emu.memory_image(8))
        };
        assert_eq!(run(), run());
    }
}
