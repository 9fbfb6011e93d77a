//! Deterministic replicated-memory emulation — the baseline the paper's
//! randomized-hashing scheme is positioned against (reference \[3\]:
//! Alt, Hagerup, Mehlhorn & Preparata, *Deterministic Simulation of
//! Idealized Parallel Computers on More Realistic Ones*, SIAM J. Comput.
//! 1987).
//!
//! Idea: avoid hashing's randomness by storing every shared cell in
//! `R = 2c − 1` copies at *fixed* (deterministically placed) modules.
//! A write updates the fixed write quorum (copies `0..c`) and stamps them
//! with the PRAM step number; a read consults any `c` copies and takes
//! the value with the largest stamp. Since any two `c`-subsets of `2c−1`
//! copies intersect, every read sees the latest write.
//!
//! **Simplifications vs. \[3\]** (recorded in DESIGN.md): AHMP place
//! copies via an expander-like bipartite structure and access an
//! *adaptive* majority (protecting against worst-case congestion at the
//! cost of an `O(log N (log log N)…)` mechanism). We use fixed
//! multiplicative-hash placement and fixed quorums (write quorum
//! `{0..c}`, read quorum rotated by address so read load spreads). This
//! preserves exactly the cost structure the comparison needs — `c×`
//! request/reply traffic per access, no rehash escape hatch, fixed
//! placement an adversary could target — while omitting the worst-case
//! machinery. The benches measure the resulting slowdown against the
//! randomized single-copy scheme of Theorems 2.5/2.6.
//!
//! Routing is the same Algorithm 2.1 two-phase traversal used by
//! [`crate::LeveledPramEmulator`] (replies make a fresh forward pass
//! instead of retracing a combining tree — this baseline does not
//! combine).

use crate::config::{EmuReport, EmulatorConfig, StepStats};
use crate::emulator::drive_program;
use lnpram_math::rng::SeedSeq;
use lnpram_pram::machine::resolve_write;
use lnpram_pram::model::{AccessMode, AccessViolation, MemOp, PramProgram};
use lnpram_routing::leveled::UniversalLeveledRouter;
use lnpram_routing::DoubledLeveled;
use lnpram_simnet::{Engine, Outbox, Packet, Protocol, SimConfig};
use lnpram_topology::leveled::{Leveled, LeveledNet};
use rand::Rng;
use std::collections::HashMap;
use std::fmt;

/// Fixed multiplicative-hash constants, one per copy index (odd 64-bit
/// constants in the golden-ratio family; the placement is *deterministic*
/// — the whole point of this baseline — so these are compile-time fixed).
const PLACEMENT_KEYS: [u64; 7] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x27D4_EB2F_1656_67C5,
    0x9E37_79B9_7F4A_7C55,
    0xC2B2_AE3D_27D4_EB05,
    0x1656_67B1_9E37_79A1,
];

/// A copy count the baseline cannot run with: `R = 2c − 1` must be odd
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

/// Check a copy count against the baseline's contract.
pub fn check_copies(copies: usize) -> Result<usize, InvalidCopies> {
    if copies % 2 == 1 && copies <= PLACEMENT_KEYS.len() {
        Ok(copies)
    } else {
        Err(InvalidCopies(copies))
    }
}

/// One stored replica request buffered at a module during routing.
#[derive(Debug, Clone, Copy)]
enum RepRequest {
    /// Read of storage key `key` on behalf of `proc`.
    Read { key: u64, proc: u32 },
    /// Write of `value` to storage key `key` by `proc`.
    Write { key: u64, value: u64, proc: usize },
}

/// A read reply from a replica batch: `(module, key, proc, value, version)`.
type ReadReply = (usize, u64, u32, u64, u64);

/// Per-module replica storage: cells hold `(value, version)` pairs keyed
/// by `addr·R + copy`, with the same read-before-write batch semantics as
/// [`crate::memory::ModuleArray`].
#[derive(Debug, Clone)]
struct ReplicaStore {
    cells: Vec<HashMap<u64, (u64, u64)>>,
    mode: AccessMode,
    batches: Vec<Vec<RepRequest>>,
    violations: Vec<AccessViolation>,
}

impl ReplicaStore {
    fn new(modules: usize, mode: AccessMode) -> Self {
        ReplicaStore {
            cells: vec![HashMap::new(); modules],
            mode,
            batches: vec![Vec::new(); modules],
            violations: Vec::new(),
        }
    }

    fn poke(&mut self, module: usize, key: u64, value: u64, version: u64) {
        self.cells[module].insert(key, (value, version));
    }

    fn peek(&self, module: usize, key: u64) -> Option<(u64, u64)> {
        self.cells[module].get(&key).copied()
    }

    fn buffer(&mut self, module: usize, req: RepRequest) {
        self.batches[module].push(req);
    }

    fn clear_batches(&mut self) {
        for b in &mut self.batches {
            b.clear();
        }
    }

    /// Serve all batches: reads observe pre-write values, then writes are
    /// resolved per key under the CRCW policy and stamped `version`.
    /// Returns the read replies as `(module, key, proc, value, version)`
    /// plus the busiest batch size.
    fn serve_batches(&mut self, version: u64) -> (Vec<ReadReply>, u32) {
        let mut reads = Vec::new();
        let mut busiest = 0u32;
        for module in 0..self.cells.len() {
            let batch = std::mem::take(&mut self.batches[module]);
            busiest = busiest.max(batch.len() as u32);
            let mut writes: HashMap<u64, Vec<(usize, u64)>> = HashMap::new();
            for req in &batch {
                match *req {
                    RepRequest::Read { key, proc } => {
                        let (value, stamp) = self.peek(module, key).unwrap_or((0, 0));
                        reads.push((module, key, proc, value, stamp));
                    }
                    RepRequest::Write { key, value, proc } => {
                        writes.entry(key).or_default().push((proc, value));
                    }
                }
            }
            let mut keys: Vec<u64> = writes.keys().copied().collect();
            keys.sort_unstable();
            for key in keys {
                let value = resolve_write(self.mode, key, &writes[&key], &mut self.violations);
                self.cells[module].insert(key, (value, version));
            }
        }
        (reads, busiest)
    }
}

/// The deterministic replicated-memory emulator over a leveled network —
/// the \[3\]-style baseline for Theorems 2.5/2.6.
///
/// ```
/// use lnpram_core::{EmulatorConfig, ReplicatedPramEmulator};
/// use lnpram_pram::model::{AccessMode, MemOp};
/// use lnpram_topology::leveled::RadixButterfly;
///
/// let mut emu = ReplicatedPramEmulator::new(
///     RadixButterfly::new(2, 4), AccessMode::Erew, 64, 3,
///     EmulatorConfig::default());
/// emu.emulate_step(&[MemOp::Write(7, 41)], 0);
/// let reads = emu.emulate_step(&[MemOp::Read(7)], 1);
/// assert_eq!(reads, vec![(0, 41)]);
/// assert_eq!(emu.quorum(), 2); // c = (R+1)/2 packets per access
/// ```
pub struct ReplicatedPramEmulator<L: Leveled + Copy> {
    inner: L,
    /// Number of copies `R = 2c − 1` per cell (odd, ≤ 7).
    copies: usize,
    store: ReplicaStore,
    seq: SeedSeq,
    report: EmuReport,
    address_space: u64,
    /// Forward view of the doubled network (both phases route forward —
    /// this baseline does not retrace combining trees).
    fwd: LeveledNet<DoubledLeveled<L>>,
    /// One persistent engine for both phases, recycled per phase.
    engine: Engine,
}

impl<L: Leveled + Copy> ReplicatedPramEmulator<L> {
    /// Build a baseline emulator storing every cell in `copies = 2c − 1`
    /// replicas (odd, 1 ≤ copies ≤ 7; 1 degenerates to unreplicated
    /// deterministic placement — a useful ablation point).
    ///
    /// # Panics
    /// On a copy count [`try_new`](Self::try_new) refuses.
    pub fn new(
        inner: L,
        mode: AccessMode,
        address_space: u64,
        copies: usize,
        cfg: EmulatorConfig,
    ) -> Self {
        Self::try_new(inner, mode, address_space, copies, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`new`](Self::new), returning a typed error for a copy count that
    /// is even or outside `1..=7`.
    pub fn try_new(
        inner: L,
        mode: AccessMode,
        address_space: u64,
        copies: usize,
        cfg: EmulatorConfig,
    ) -> Result<Self, InvalidCopies> {
        let copies = check_copies(copies)?;
        let width = inner.width();
        let seq = SeedSeq::new(cfg.seed);
        let fwd = LeveledNet::forward(DoubledLeveled::new(inner));
        // No rehash escape hatch: the placement is fixed, so both phases
        // run with an unbounded budget (congestion is simply paid).
        let engine = Engine::new(
            &fwd,
            SimConfig {
                discipline: cfg.discipline,
                max_steps: u32::MAX,
                ..Default::default()
            },
        );
        Ok(ReplicatedPramEmulator {
            inner,
            copies,
            store: ReplicaStore::new(width, mode),
            seq,
            report: EmuReport::default(),
            address_space,
            fwd,
            engine,
        })
    }

    /// Number of processors (= memory modules = column width).
    pub fn processors(&self) -> usize {
        self.inner.width()
    }

    /// Quorum size `c = (R + 1) / 2`.
    pub fn quorum(&self) -> usize {
        self.copies.div_ceil(2)
    }

    /// Per-phase path length `2ℓ` (the Õ(ℓ) normalisation constant).
    pub fn diameter(&self) -> usize {
        2 * self.inner.levels()
    }

    /// The fixed module of copy `j` of `addr`.
    pub fn copy_module(&self, addr: u64, j: usize) -> usize {
        debug_assert!(j < self.copies);
        let mixed = (addr.wrapping_add(1)).wrapping_mul(PLACEMENT_KEYS[j]);
        ((mixed >> 17) % self.processors() as u64) as usize
    }

    /// Storage key of copy `j` of `addr` (distinct per copy).
    fn storage_key(&self, addr: u64, j: usize) -> u64 {
        addr * self.copies as u64 + j as u64
    }

    /// The write quorum: copies `0..c`.
    fn write_quorum(&self) -> std::ops::Range<usize> {
        0..self.quorum()
    }

    /// The read quorum: `c` copy indices rotated by the address, so read
    /// load spreads over all `2c − 1` copies while still intersecting the
    /// write quorum (any two `c`-subsets of `2c − 1` intersect).
    fn read_quorum(&self, addr: u64) -> impl Iterator<Item = usize> {
        let r = self.copies;
        let c = self.quorum();
        let start = (addr % r as u64) as usize;
        (0..c).map(move |i| (start + i) % r)
    }

    /// Authoritative value of `addr`: max-version copy over all replicas.
    pub fn peek(&self, addr: u64) -> u64 {
        (0..self.copies)
            .filter_map(|j| {
                self.store
                    .peek(self.copy_module(addr, j), self.storage_key(addr, j))
            })
            .max_by_key(|&(_, version)| version)
            .map_or(0, |(value, _)| value)
    }

    /// Full memory image for oracle diffing.
    pub fn memory_image(&self, address_space: u64) -> Vec<u64> {
        (0..address_space).map(|a| self.peek(a)).collect()
    }

    /// The accumulated report.
    pub fn report(&self) -> &EmuReport {
        &self.report
    }

    /// Run `prog` to completion, mirroring [`lnpram_pram::PramMachine`].
    ///
    /// # Panics
    /// If `prog` needs more processors than the host has or addresses
    /// more cells than the emulator was built for.
    pub fn run_program<P: PramProgram>(&mut self, prog: &mut P, max_steps: usize) -> EmuReport {
        let limits = (self.processors(), self.address_space);
        let steps = drive_program(
            self,
            prog,
            max_steps,
            limits,
            |emu, addr, val| {
                for j in 0..emu.copies {
                    let m = emu.copy_module(addr, j);
                    emu.store.poke(m, emu.storage_key(addr, j), val, 0);
                }
            },
            Self::emulate_step,
        );
        self.report.pram_steps += steps;
        self.report.clone()
    }

    /// Emulate one PRAM step; returns `(proc, value)` for every read.
    ///
    /// Unlike the randomized emulator there is no rehash escape: the
    /// placement is fixed, so the routing budget is unbounded and any
    /// congestion is simply paid (that is the baseline's deal).
    ///
    /// # Panics
    /// If `ops` has more entries than the host has processors.
    pub fn emulate_step(&mut self, ops: &[MemOp], step_label: u64) -> Vec<(usize, u64)> {
        assert!(
            ops.len() <= self.processors(),
            "{} ops for {} processors",
            ops.len(),
            self.processors()
        );
        let step_seq = self.seq.child(1).child(step_label);
        let width = self.inner.width();
        self.store.clear_batches();

        let mut issues: Vec<Issue> = Vec::new();
        for (proc, op) in ops.iter().enumerate() {
            let (addr, write) = match *op {
                MemOp::Read(addr) => (addr, None),
                MemOp::Write(addr, v) => (addr, Some(v)),
                MemOp::None | MemOp::Halt => continue,
            };
            let issue = |j| Issue {
                proc,
                module: self.copy_module(addr, j) as u32,
                key: self.storage_key(addr, j),
                write,
            };
            match write {
                None => issues.extend(self.read_quorum(addr).map(issue)),
                Some(_) => issues.extend(self.write_quorum().map(issue)),
            }
        }
        let mut stats = StepStats {
            requests: issues.len() as u32,
            ..Default::default()
        };
        if issues.is_empty() {
            self.report.steps.push(stats);
            return Vec::new();
        }

        // ---- Request phase ----
        self.engine.reset();
        let mut via_rng = step_seq.child(0).rng();
        for (id, issue) in issues.iter().enumerate() {
            let via = via_rng.gen_range(0..width) as u32;
            let pkt = Packet::new(id as u32, issue.proc as u32, issue.module)
                .with_via(via)
                .with_tag(issue.key);
            self.engine.inject(self.fwd.node_id(0, issue.proc), pkt);
        }
        let mut proto = ReplicaRequestProtocol {
            net: &self.fwd,
            store: &mut self.store,
            issues: &issues,
        };
        let out = self.engine.run(&mut proto);
        debug_assert!(out.completed);
        stats.request_steps = out.metrics.routing_time;
        stats.max_queue = out.metrics.max_queue as u32;

        // ---- Service ----
        // Versions start at 1 so step 0's writes beat initial memory (0).
        let (replies, busiest) = self.store.serve_batches(step_label + 1);
        stats.service_steps = busiest;

        // ---- Reply phase (fresh forward pass, module column → procs) ----
        let mut deliveries: Vec<(usize, u64)> = Vec::new();
        if !replies.is_empty() {
            self.engine.reset();
            let mut via_rng = step_seq.child(1).rng();
            for (i, &(module, key, proc, _, _)) in replies.iter().enumerate() {
                let via = via_rng.gen_range(0..width) as u32;
                let pkt = Packet::new(i as u32, module as u32, proc)
                    .with_via(via)
                    .with_tag(key);
                self.engine.inject(self.fwd.node_id(0, module), pkt);
            }
            // Majority resolution: per reading processor, the max-version
            // reply wins (quorum intersection guarantees it is the
            // latest); among equal versions the first to arrive stays.
            let mut best: Vec<Option<(u64, u64)>> = vec![None; ops.len()];
            let mut proto = ReplicaReplyProtocol {
                net: &self.fwd,
                replies: &replies,
                best: &mut best,
            };
            let out = self.engine.run(&mut proto);
            debug_assert!(out.completed);
            stats.reply_steps = out.metrics.routing_time;
            stats.max_queue = stats.max_queue.max(out.metrics.max_queue as u32);
            let answered = best.iter().enumerate();
            deliveries.extend(answered.filter_map(|(proc, b)| b.map(|(value, _)| (proc, value))));
        }

        self.report.steps.push(stats);
        deliveries
    }
}

/// One replica access of the step being emulated; request packets carry
/// their index in the step's issue list as their id.
struct Issue {
    proc: usize,
    module: u32,
    key: u64,
    write: Option<u64>,
}

/// Request routing: Algorithm 2.1 movement; buffer at the module column.
struct ReplicaRequestProtocol<'a, L: Leveled> {
    net: &'a LeveledNet<DoubledLeveled<L>>,
    store: &'a mut ReplicaStore,
    issues: &'a [Issue],
}

impl<L: Leveled> Protocol for ReplicaRequestProtocol<'_, L> {
    fn on_packet(&mut self, node: usize, pkt: Packet, step: u32, out: &mut Outbox) {
        let (col, idx) = self.net.split(node);
        if col < self.net.leveled().levels() {
            return UniversalLeveledRouter::new(self.net).on_packet(node, pkt, step, out);
        }
        let issue = &self.issues[pkt.id as usize];
        let key = pkt.tag;
        let buffered = match issue.write {
            Some(value) => RepRequest::Write {
                key,
                value,
                proc: issue.proc,
            },
            None => RepRequest::Read { key, proc: pkt.src },
        };
        self.store.buffer(idx, buffered);
        out.deliver(pkt);
    }
}

/// Reply routing: plain Algorithm 2.1 delivery back to the processors,
/// keeping each processor's max-version reply.
struct ReplicaReplyProtocol<'a, L: Leveled> {
    net: &'a LeveledNet<DoubledLeveled<L>>,
    replies: &'a [ReadReply],
    best: &'a mut [Option<(u64, u64)>],
}

impl<L: Leveled> Protocol for ReplicaReplyProtocol<'_, L> {
    fn on_packet(&mut self, node: usize, pkt: Packet, step: u32, out: &mut Outbox) {
        let (col, idx) = self.net.split(node);
        if col < self.net.leveled().levels() {
            return UniversalLeveledRouter::new(self.net).on_packet(node, pkt, step, out);
        }
        debug_assert_eq!(idx, pkt.dest as usize);
        let (_, _, _, value, ver) = self.replies[pkt.id as usize];
        if self.best[idx].is_none_or(|(_, best_ver)| ver > best_ver) {
            self.best[idx] = Some((value, ver));
        }
        out.deliver(pkt);
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

    #[test]
    fn quorum_arithmetic() {
        let inner = RadixButterfly::new(2, 3);
        for copies in [1usize, 3, 5, 7] {
            let emu = ReplicatedPramEmulator::new(
                inner,
                AccessMode::Erew,
                64,
                copies,
                EmulatorConfig::default(),
            );
            assert_eq!(emu.quorum(), copies.div_ceil(2));
            // Any read quorum must intersect the write quorum {0..c}.
            for addr in 0..20u64 {
                let c = emu.quorum();
                assert!(
                    emu.read_quorum(addr).any(|j| j < c),
                    "addr {addr}, copies {copies}: quorums disjoint"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_copy_count_rejected() {
        let inner = RadixButterfly::new(2, 3);
        let _ =
            ReplicatedPramEmulator::new(inner, AccessMode::Erew, 64, 2, EmulatorConfig::default());
    }

    #[test]
    fn copy_placement_is_deterministic_and_in_range() {
        let inner = RadixButterfly::new(2, 4);
        let emu = ReplicatedPramEmulator::new(
            inner,
            AccessMode::Erew,
            1 << 20,
            3,
            EmulatorConfig::default(),
        );
        for addr in 0..100u64 {
            for j in 0..3 {
                let m = emu.copy_module(addr, j);
                assert!(m < emu.processors());
                assert_eq!(m, emu.copy_module(addr, j), "must be a pure function");
            }
        }
    }

    #[test]
    fn prefix_sum_matches_reference() {
        let values: Vec<u64> = (0..8).map(|i| i * 2 + 1).collect();
        let inner = RadixButterfly::new(2, 3);
        let mut prog = PrefixSum::new(values.clone());
        let space = prog.address_space();
        let mut emu = ReplicatedPramEmulator::new(
            inner,
            AccessMode::Erew,
            space,
            3,
            EmulatorConfig::default(),
        );
        emu.run_program(&mut prog, 100_000);
        let mut oracle = PramMachine::new(space, AccessMode::Erew);
        oracle.run(&mut PrefixSum::new(values), 100_000);
        assert_eq!(emu.memory_image(space), oracle.memory());
    }

    #[test]
    fn reduction_matches_reference_across_copy_counts() {
        let values: Vec<u64> = (0..16).map(|i| (i * 31 + 7) % 101).collect();
        let inner = RadixButterfly::new(2, 3);
        for copies in [1usize, 3, 5] {
            let mut prog = ReductionMax::new(values.clone());
            let space = prog.address_space();
            let mut emu = ReplicatedPramEmulator::new(
                inner,
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
        let inner = RadixButterfly::new(2, 4);
        let inputs: Vec<u64> = (0..16).map(|i| (i * 7) % 5).collect();
        let mut prog = Histogram::new(inputs.clone(), 5);
        let space = prog.address_space();
        let mode = AccessMode::Crcw(WritePolicy::Sum);
        let mut emu = ReplicatedPramEmulator::new(inner, mode, space, 3, EmulatorConfig::default());
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
        // the second write through max-version resolution.
        let inner = RadixButterfly::new(2, 3);
        let mut emu =
            ReplicatedPramEmulator::new(inner, AccessMode::Erew, 16, 3, EmulatorConfig::default());
        emu.emulate_step(&[MemOp::Write(5, 100)], 0);
        emu.emulate_step(&[MemOp::Write(5, 200)], 1);
        let reads = emu.emulate_step(&[MemOp::Read(5)], 2);
        assert_eq!(reads, vec![(0, 200)]);
        assert_eq!(emu.peek(5), 200);
    }

    #[test]
    fn replication_multiplies_traffic_by_quorum() {
        // c× packets per access is the baseline's fundamental cost.
        let inner = RadixButterfly::new(2, 4);
        let perm: Vec<usize> = (0..16).map(|i| (i * 5 + 3) % 16).collect();
        let run = |copies: usize| {
            let mut prog = PermutationTraffic::new(perm.clone(), 2);
            let mut emu = ReplicatedPramEmulator::new(
                inner,
                AccessMode::Erew,
                prog.address_space(),
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
        let inner = RadixButterfly::new(2, 5); // 32 processors
        let perm: Vec<usize> = (0..32).map(|i| (i * 11 + 5) % 32).collect();
        let mut prog = PermutationTraffic::new(perm.clone(), 4);
        let mut rep_emu = ReplicatedPramEmulator::new(
            inner,
            AccessMode::Erew,
            prog.address_space(),
            3,
            EmulatorConfig::default(),
        );
        let rep_report = rep_emu.run_program(&mut prog, 1000);
        let mut prog2 = PermutationTraffic::new(perm, 4);
        let mut hash_emu = LeveledPramEmulator::new(
            inner,
            AccessMode::Erew,
            prog2.address_space(),
            EmulatorConfig::default(),
        );
        let hash_report = hash_emu.run_program(&mut prog2, 1000);
        assert!(
            rep_report.mean_step_time() > hash_report.mean_step_time(),
            "replicated ({:.1}) should cost more than hashed ({:.1})",
            rep_report.mean_step_time(),
            hash_report.mean_step_time()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let inner = RadixButterfly::new(2, 3);
        let run = || {
            let perm: Vec<usize> = (0..8).map(|i| (i * 3 + 1) % 8).collect();
            let mut prog = PermutationTraffic::new(perm, 2);
            let mut emu = ReplicatedPramEmulator::new(
                inner,
                AccessMode::Erew,
                prog.address_space(),
                3,
                EmulatorConfig {
                    seed: 21,
                    ..Default::default()
                },
            );
            let rep = emu.run_program(&mut prog, 100);
            (rep.network_steps(), emu.memory_image(8))
        };
        assert_eq!(run(), run());
    }
}
