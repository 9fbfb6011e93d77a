//! Theorems 3.2 and 3.3: the n×n mesh as an emulation host
//! ([`MeshHost`], driven by [`PramEmulator`]).
//!
//! The §3.3 emulation has exactly two phases per PRAM step (the paper's
//! improvement over Karlin–Upfal's four): processor `i` sends its request
//! straight to module `h(addr)` with the three-stage routing of §3.4
//! (`2n + o(n)` w.h.p.), and read replies travel straight back the same
//! way — `4n + o(n)` per EREW step (Theorem 3.2).
//!
//! Under a *d-local* request pattern (every request's module within
//! Manhattan distance `d` of its processor) the same algorithm, with the
//! stage-1 slice capped at `O(d)` rows and a direct (locality-preserving)
//! address map, finishes in `6d + o(d)` (Theorem 3.3). The mesh emulator
//! therefore comes with two address mappings:
//!
//! * [`AddressMap::Hashed`] — the Karlin–Upfal hash, the general case
//!   ([`MeshPramEmulator::new`]);
//! * [`AddressMap::Direct`] — cell `a` lives at node `a` (requires
//!   `address_space ≤ n²`), the locality experiments' map
//!   ([`MeshPramEmulator::new_local`]).
//!
//! Reads are *not* combined on the mesh (the paper treats CRCW here as
//! "the same algorithm plus the combining trick" and analyses only EREW;
//! we keep the mesh host faithful to §3 — hot-spot reads serialise at
//! the module, which the CRCW tables show by contrast with the leveled
//! host). Correctness for concurrent accesses is still exact because
//! modules serve batches with read-before-write semantics.

use crate::config::EmulatorConfig;
use crate::emulator::{AddressMap, EmuHost, PhaseOutcome, PramEmulator, Request};
use crate::memory::{ModuleArray, ModuleRequest, ServedRead};
use lnpram_math::rng::{Rng, SeedSeq};
use lnpram_pram::model::AccessMode;
use lnpram_routing::mesh::{default_block_rows, default_slice_rows, MeshAlgorithm, MeshRouter};
use lnpram_simnet::packet::NO_NODE;
use lnpram_simnet::{Discipline, Engine, Outbox, Packet, Protocol, SimConfig};
use lnpram_topology::{Mesh, Network};
use std::fmt;

/// The n×n mesh as an emulation host: three-stage routing both ways.
pub struct MeshHost {
    mesh: Mesh,
    slice_rows: usize,
    /// `Some(block_rows)` switches both routing phases to the
    /// constant-queue three-stage variant (Theorem 3.2's O(1)-queue
    /// refinement); `None` uses the plain three-stage algorithm.
    block_rows: Option<usize>,
    /// One persistent engine serves both routing phases (same mesh, same
    /// discipline); recycled with `reset` per phase.
    engine: Engine,
}

/// The PRAM emulator on the n×n mesh (Theorems 3.2/3.3).
pub type MeshPramEmulator = PramEmulator<MeshHost>;

/// An address space the direct map cannot hold: it needs a node per
/// cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectMapTooLarge {
    /// Cells asked for.
    pub address_space: u64,
    /// Nodes of the mesh, `n²`.
    pub nodes: u64,
}

impl fmt::Display for DirectMapTooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "the direct map needs address_space ≤ n² = {}, got {}",
            self.nodes, self.address_space
        )
    }
}

impl std::error::Error for DirectMapTooLarge {}

impl MeshPramEmulator {
    /// Hashed-mapping emulator on an `n×n` mesh for `address_space` cells.
    pub fn new(n: usize, mode: AccessMode, address_space: u64, cfg: EmulatorConfig) -> Self {
        let mesh = Mesh::square(n);
        // Built once and recycled per phase. The three-stage algorithm
        // requires furthest-destination-first.
        let engine = Engine::new(&mesh, SimConfig::with_discipline(Discipline::FurthestFirst));
        let host = MeshHost {
            mesh,
            slice_rows: default_slice_rows(n),
            block_rows: None,
            engine,
        };
        PramEmulator::with_host(host, mode, address_space, cfg)
    }

    /// Locality emulator (Theorem 3.3): direct address map and slice
    /// height capped at `d` rows.
    ///
    /// # Errors
    /// [`DirectMapTooLarge`] unless `address_space ≤ n²`: the direct
    /// map puts cell `a` at node `a`.
    pub fn new_local(
        n: usize,
        mode: AccessMode,
        address_space: u64,
        d: usize,
        cfg: EmulatorConfig,
    ) -> Result<Self, DirectMapTooLarge> {
        let nodes = (n * n) as u64;
        if address_space > nodes {
            return Err(DirectMapTooLarge {
                address_space,
                nodes,
            });
        }
        let mut emu = Self::new(n, mode, address_space, cfg);
        emu.map = AddressMap::Direct;
        emu.host.slice_rows = default_slice_rows(n).min(d.max(1));
        Ok(emu)
    }

    /// Switch to the constant-queue routing variant (Theorem 3.2's O(1)
    /// queue claim) with destination blocks of `⌈log₂ n⌉` rows.
    #[must_use]
    pub fn with_const_queue(mut self) -> Self {
        self.host.block_rows = Some(default_block_rows(self.n()));
        self
    }

    /// Side length n.
    pub fn n(&self) -> usize {
        self.host.mesh.rows()
    }

    /// The normalisation constant of Theorem 3.2 (`4n + o(n)` per step):
    /// report `mean_step_time() / n` against 4.
    pub fn per_n(&self) -> f64 {
        self.report().mean_step_time() / self.n() as f64
    }
}

impl MeshHost {
    fn router(&self) -> MeshRouter {
        let slice_rows = self.slice_rows;
        let alg = match self.block_rows {
            Some(block_rows) => MeshAlgorithm::ThreeStageConstQueue {
                slice_rows,
                block_rows,
            },
            None => MeshAlgorithm::ThreeStage { slice_rows },
        };
        MeshRouter::new(self.mesh, alg)
    }

    /// A packet `id` from `src` to `dest` with its intermediates drawn:
    /// `via` a random row of the source's slice in the source's column
    /// (stage 1) and, for the constant-queue variant, `via2` a random
    /// row inside the destination's block in the destination's column
    /// (Corollary 3.3).
    fn packet(&self, id: usize, src: usize, dest: usize, rng: &mut Rng) -> Packet {
        let band = |node: usize, rows: usize, rng: &mut Rng| {
            let (r, c) = self.mesh.coords(node);
            let lo = r - r % rows;
            let hi = (lo + rows).min(self.mesh.rows());
            self.mesh.node_at(rng.gen_range(lo..hi), c) as u32
        };
        let via = band(src, self.slice_rows, rng);
        let via2 = match self.block_rows {
            Some(b) => band(dest, b, rng),
            None => NO_NODE,
        };
        Packet::new(id as u32, src as u32, dest as u32)
            .with_via(via)
            .with_via2(via2)
    }
}

impl EmuHost for MeshHost {
    fn processors(&self) -> usize {
        self.mesh.num_nodes()
    }

    /// Mesh diameter `2n − 2`: the hash degree follows §2.1 with this
    /// `L`, while the §3 bounds scale with `n` per phase.
    fn diameter(&self) -> usize {
        self.mesh.diameter()
    }

    fn phase_bound(&self) -> usize {
        4 * self.mesh.rows()
    }

    fn broadcast_steps(&self) -> usize {
        self.mesh.rows()
    }

    fn route_requests(
        &mut self,
        requests: &[Request],
        modules: &mut ModuleArray,
        budget: u32,
        seq: SeedSeq,
    ) -> Option<PhaseOutcome> {
        self.engine.reset();
        self.engine.set_max_steps(budget);
        let mut rng = seq.rng();
        for (id, req) in requests.iter().enumerate() {
            let pkt = self
                .packet(id, req.proc, req.module as usize, &mut rng)
                .with_tag(req.key);
            self.engine.inject(req.proc, pkt);
        }
        let mut proto = MeshRequestProtocol {
            router: self.router(),
            modules,
            requests,
        };
        let out = self.engine.run(&mut proto);
        out.completed.then(|| PhaseOutcome::of(&out.metrics))
    }

    /// Replies travel forward to their readers by the same three-stage
    /// routing.
    fn route_replies(
        &mut self,
        reads: &[ServedRead],
        seq: SeedSeq,
        replies: &mut Vec<(usize, u32)>,
    ) -> PhaseOutcome {
        self.engine.reset();
        self.engine.set_max_steps(u32::MAX);
        let mut rng = seq.rng();
        for (i, read) in reads.iter().enumerate() {
            // The mesh's reply tag is the requesting processor.
            let pkt = self
                .packet(i, read.module, read.tag as usize, &mut rng)
                .with_tag(read.key);
            self.engine.inject(read.module, pkt);
        }
        let mut proto = MeshReplyProtocol {
            router: self.router(),
            replies,
        };
        let out = self.engine.run(&mut proto);
        assert!(out.completed, "reply phase did not drain");
        PhaseOutcome::of(&out.metrics)
    }
}

/// Request routing: delegate movement to [`MeshRouter`]; at the module,
/// buffer instead of delivering.
struct MeshRequestProtocol<'a> {
    router: MeshRouter,
    modules: &'a mut ModuleArray,
    requests: &'a [Request],
}

impl Protocol for MeshRequestProtocol<'_> {
    fn on_packet(&mut self, node: usize, pkt: Packet, step: u32, out: &mut Outbox) {
        if node == pkt.dest as usize {
            let key = pkt.tag;
            let req = &self.requests[pkt.id as usize];
            let buffered = match req.write {
                Some(value) => ModuleRequest::Write {
                    key,
                    value,
                    proc: req.proc,
                },
                None => ModuleRequest::Read { key, tag: pkt.src },
            };
            self.modules.buffer(node, buffered);
            out.deliver(pkt);
            return;
        }
        self.router.on_packet(node, pkt, step, out);
    }
}

/// Reply routing: plain three-stage delivery back to the requester.
struct MeshReplyProtocol<'a> {
    router: MeshRouter,
    replies: &'a mut Vec<(usize, u32)>,
}

impl Protocol for MeshReplyProtocol<'_> {
    fn on_packet(&mut self, node: usize, pkt: Packet, step: u32, out: &mut Outbox) {
        if node == pkt.dest as usize {
            self.replies.push((node, pkt.id));
            out.deliver(pkt);
            return;
        }
        self.router.on_packet(node, pkt, step, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnpram_pram::machine::PramMachine;
    use lnpram_pram::model::{PramProgram, WritePolicy};
    use lnpram_pram::programs::{Histogram, OddEvenSort, PermutationTraffic, PrefixSum};
    use lnpram_routing::workloads;

    #[test]
    fn prefix_sum_matches_reference_on_mesh() {
        let values: Vec<u64> = (0..16).map(|i| i * 3 + 1).collect();
        let mut prog = PrefixSum::new(values.clone());
        let space = prog.address_space();
        let mut emu = MeshPramEmulator::new(4, AccessMode::Erew, space, EmulatorConfig::default());
        emu.run_program(&mut prog, 10_000);
        let mut oracle = PramMachine::new(space, AccessMode::Erew);
        oracle.run(&mut PrefixSum::new(values), 10_000);
        assert_eq!(emu.memory_image(space), oracle.memory());
    }

    #[test]
    fn odd_even_sort_matches_reference_on_mesh() {
        let values: Vec<u64> = (0..9).map(|i| (97 * i + 13) % 50).collect();
        let mut prog = OddEvenSort::new(values.clone());
        let space = prog.address_space();
        let mut emu = MeshPramEmulator::new(3, AccessMode::Erew, space, EmulatorConfig::default());
        emu.run_program(&mut prog, 10_000);
        assert!(prog.verify(&emu.memory_image(space)));
    }

    #[test]
    fn crcw_histogram_on_mesh() {
        let inputs: Vec<u64> = (0..16).map(|i| i % 5).collect();
        let mut prog = Histogram::new(inputs.clone(), 5);
        let space = prog.address_space();
        let mut emu = MeshPramEmulator::new(
            4,
            AccessMode::Crcw(WritePolicy::Sum),
            space,
            EmulatorConfig::default(),
        );
        emu.run_program(&mut prog, 1000);
        assert!(prog.verify(&emu.memory_image(space)));
    }

    #[test]
    fn step_time_is_small_multiple_of_n() {
        // Theorem 3.2: 4n + o(n). At n = 16 expect well below 8n.
        let n = 16usize;
        let mut rng = SeedSeq::new(5).rng();
        let perm = workloads::random_permutation(n * n, &mut rng);
        let mut prog = PermutationTraffic::new(perm, 3);
        let mut emu = MeshPramEmulator::new(
            n,
            AccessMode::Erew,
            prog.address_space(),
            EmulatorConfig::default(),
        );
        let report = emu.run_program(&mut prog, 1000);
        assert_eq!(report.rehashes, 0);
        let per_n = emu.per_n();
        assert!(per_n < 8.0, "mesh emulation cost {per_n:.2}n");
    }

    #[test]
    fn local_requests_cost_scales_with_d() {
        // Theorem 3.3 shape: with a d-local pattern and direct mapping,
        // the step time tracks d, not n.
        let n = 16usize;
        let mesh = Mesh::square(n);
        let run = |d: usize| {
            let mut rng = SeedSeq::new(9).child(d as u64).rng();
            let dests = workloads::local_permutation(&mesh, d, &mut rng);
            let mut prog = PermutationTraffic::new(dests, 3);
            let mut emu = MeshPramEmulator::new_local(
                n,
                AccessMode::Erew,
                prog.address_space(),
                d,
                EmulatorConfig::default(),
            )
            .expect("n² cells fit the direct map");
            emu.run_program(&mut prog, 1000);
            emu.report().mean_step_time()
        };
        let t2 = run(2);
        let t8 = run(8);
        assert!(
            t2 < t8,
            "more local requests must be faster: d=2 → {t2:.1}, d=8 → {t8:.1}"
        );
        // d=2 should be far below a full 4n traversal.
        assert!(t2 < 2.0 * n as f64, "d=2 cost {t2:.1} vs n={n}");
    }

    #[test]
    fn oversize_direct_map_is_an_error() {
        let cfg = EmulatorConfig::default;
        let err = MeshPramEmulator::new_local(4, AccessMode::Erew, 17, 2, cfg()).err();
        let want = DirectMapTooLarge {
            address_space: 17,
            nodes: 16,
        };
        assert_eq!(err, Some(want));
        assert!(want.to_string().contains("n² = 16, got 17"));
        assert!(MeshPramEmulator::new_local(4, AccessMode::Erew, 16, 2, cfg()).is_ok());
    }

    #[test]
    fn const_queue_variant_matches_reference_and_keeps_queues_small() {
        let values: Vec<u64> = (0..16).map(|i| (i * 7 + 3) % 23).collect();
        let mut prog = PrefixSum::new(values.clone());
        let space = prog.address_space();
        let mut emu = MeshPramEmulator::new(4, AccessMode::Erew, space, EmulatorConfig::default())
            .with_const_queue();
        let rep = emu.run_program(&mut prog, 10_000);
        let mut oracle = PramMachine::new(space, AccessMode::Erew);
        oracle.run(&mut PrefixSum::new(values), 10_000);
        assert_eq!(emu.memory_image(space), oracle.memory());
        let worst_queue = rep.steps.iter().map(|s| s.max_queue).max().unwrap_or(0);
        assert!(
            worst_queue <= 8,
            "const-queue emulation saw queue {worst_queue}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let perm: Vec<usize> = (0..16).map(|i| (i * 5 + 2) % 16).collect();
            let mut prog = PermutationTraffic::new(perm, 2);
            let mut emu = MeshPramEmulator::new(
                4,
                AccessMode::Erew,
                prog.address_space(),
                EmulatorConfig {
                    seed: 11,
                    ..Default::default()
                },
            );
            let rep = emu.run_program(&mut prog, 100);
            (rep.network_steps(), emu.memory_image(16))
        };
        assert_eq!(run(), run());
    }
}
