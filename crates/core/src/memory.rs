//! Distributed memory modules with PRAM batch-service semantics.
//!
//! Each network memory module owns the shared-memory cells hashed to it.
//! During a routing phase it only *buffers* arriving requests; when the
//! phase completes, the whole batch is served with read-before-write
//! semantics — all reads observe the pre-step memory, then all writes are
//! applied under the CRCW policy via the same
//! `resolve_write` used by the
//! reference machine. This guarantees emulated results are bit-identical
//! to the oracle regardless of packet arrival order.

use crate::emulator::ServedRead;
use lnpram_pram::machine::resolve_write;
use lnpram_pram::model::{AccessMode, AccessViolation};
use std::collections::BTreeMap;

/// One buffered request at a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModuleRequest {
    /// Read of `addr`, answered with `tag` attached.
    Read {
        /// The shared-memory address.
        addr: u64,
        /// Opaque reply tag the host routes the answer by: the pending
        /// entry the request left at the module on the star and leveled
        /// hosts (see [`crate::combining`]), the requesting processor on
        /// the mesh.
        tag: u32,
    },
    /// Write of `value` to `addr` by `proc` (proc id breaks Priority ties).
    Write {
        /// The shared-memory address.
        addr: u64,
        /// Value written.
        value: u64,
        /// Originating processor (for Priority/Arbitrary resolution).
        proc: usize,
    },
}

/// The set of memory modules of an emulating network.
#[derive(Debug, Clone)]
pub struct ModuleArray {
    cells: Vec<BTreeMap<u64, u64>>,
    mode: AccessMode,
    batches: Vec<Vec<ModuleRequest>>,
    violations: Vec<AccessViolation>,
    /// One module's writes as `(addr, (proc, value))`, in batch order
    /// until sorted ([`Self::serve_batches`]' scratch).
    writes: Vec<(u64, (usize, u64))>,
    /// One address's writers, the slice `resolve_write` takes.
    writers: Vec<(usize, u64)>,
}

impl ModuleArray {
    /// `modules` empty modules.
    pub fn new(modules: usize, mode: AccessMode) -> Self {
        ModuleArray {
            cells: vec![BTreeMap::new(); modules],
            mode,
            batches: vec![Vec::new(); modules],
            violations: Vec::new(),
            writes: Vec::new(),
            writers: Vec::new(),
        }
    }

    /// Number of modules.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// The access mode these modules resolve writes under.
    pub fn mode(&self) -> AccessMode {
        self.mode
    }

    /// True if there are no modules.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Load a cell directly (initial-memory placement and remapping).
    pub fn poke(&mut self, module: usize, addr: u64, value: u64) {
        self.cells[module].insert(addr, value);
    }

    /// Read a cell directly (verification and remapping).
    pub fn peek(&self, module: usize, addr: u64) -> u64 {
        self.cells[module].get(&addr).copied().unwrap_or(0)
    }

    /// Drain all cells of all modules (rehash remapping).
    pub fn drain_cells(&mut self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for m in &mut self.cells {
            out.extend(std::mem::take(m));
        }
        out
    }

    /// Buffer a request that arrived at `module` during the routing phase.
    pub fn buffer(&mut self, module: usize, req: ModuleRequest) {
        self.batches[module].push(req);
    }

    /// Serve every module's batch: reads first (pre-write values), then
    /// writes (CRCW resolution, addresses ascending, each address's
    /// writers in arrival order). Returns the read results as
    /// `(module, addr, tag, value)` and the busiest module's batch size
    /// (the serial service time charged to this PRAM step).
    pub fn serve_batches(&mut self) -> (Vec<ServedRead>, u32) {
        let ModuleArray {
            cells,
            mode,
            batches,
            violations,
            writes,
            writers,
        } = self;
        let mut reads = Vec::new();
        let mut busiest = 0u32;
        for (module, (batch, cells)) in batches.iter_mut().zip(cells).enumerate() {
            busiest = busiest.max(batch.len() as u32);
            // Reads see the cells as they were: no write lands before the
            // whole batch has been read. `drain` hands the buffer back
            // empty, so the next step's `buffer` calls reuse its capacity.
            writes.clear();
            for req in batch.drain(..) {
                match req {
                    ModuleRequest::Read { addr, tag } => {
                        let value = cells.get(&addr).copied().unwrap_or(0);
                        reads.push((module, addr, tag, value));
                    }
                    ModuleRequest::Write { addr, value, proc } => {
                        writes.push((addr, (proc, value)))
                    }
                }
            }
            // Group by address; the sort is stable, so Common still sees
            // the first writer first.
            writes.sort_by_key(|&(addr, _)| addr);
            for group in writes.chunk_by(|a, b| a.0 == b.0) {
                let addr = group[0].0;
                writers.clear();
                writers.extend(group.iter().map(|&(_, w)| w));
                cells.insert(addr, resolve_write(*mode, addr, writers, violations));
            }
        }
        (reads, busiest)
    }

    /// Discard all buffered (unserved) requests — used when a routing
    /// overrun triggers a rehash and the PRAM step restarts from scratch.
    pub fn clear_batches(&mut self) {
        for b in &mut self.batches {
            b.clear();
        }
    }

    /// Access violations recorded so far (CRCW-Common mismatches).
    pub fn violations(&self) -> &[AccessViolation] {
        &self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnpram_math::rng::SeedSeq;
    use lnpram_pram::model::WritePolicy;
    use proptest::prelude::*;
    use rand::Rng;
    use std::collections::HashMap;

    #[test]
    fn batch_reads_see_pre_write_values() {
        let mut ma = ModuleArray::new(2, AccessMode::Crew);
        ma.poke(0, 10, 111);
        ma.buffer(0, ModuleRequest::Read { addr: 10, tag: 0 });
        ma.buffer(
            0,
            ModuleRequest::Write {
                addr: 10,
                value: 222,
                proc: 3,
            },
        );
        let (reads, busiest) = ma.serve_batches();
        assert_eq!(reads, vec![(0, 10, 0, 111)]);
        assert_eq!(busiest, 2);
        assert_eq!(ma.peek(0, 10), 222);
    }

    #[test]
    fn write_resolution_matches_policy() {
        let mut ma = ModuleArray::new(1, AccessMode::Crcw(WritePolicy::Sum));
        for proc in 0..4 {
            ma.buffer(
                0,
                ModuleRequest::Write {
                    addr: 5,
                    value: proc as u64 + 1,
                    proc,
                },
            );
        }
        ma.serve_batches();
        assert_eq!(ma.peek(0, 5), 10);
        assert!(ma.violations().is_empty());
    }

    #[test]
    fn common_mismatch_recorded() {
        let mut ma = ModuleArray::new(1, AccessMode::Crcw(WritePolicy::Common));
        ma.buffer(
            0,
            ModuleRequest::Write {
                addr: 1,
                value: 7,
                proc: 0,
            },
        );
        ma.buffer(
            0,
            ModuleRequest::Write {
                addr: 1,
                value: 8,
                proc: 1,
            },
        );
        ma.serve_batches();
        assert_eq!(ma.violations().len(), 1);
    }

    #[test]
    fn drain_cells_roundtrip() {
        let mut ma = ModuleArray::new(3, AccessMode::Erew);
        ma.poke(0, 1, 10);
        ma.poke(1, 2, 20);
        ma.poke(2, 3, 30);
        let mut cells = ma.drain_cells();
        cells.sort_unstable();
        assert_eq!(cells, vec![(1, 10), (2, 20), (3, 30)]);
        assert_eq!(ma.peek(0, 1), 0);
    }

    #[test]
    fn unwritten_cells_read_zero() {
        let mut ma = ModuleArray::new(1, AccessMode::Erew);
        ma.buffer(0, ModuleRequest::Read { addr: 99, tag: 3 });
        let (reads, _) = ma.serve_batches();
        assert_eq!(reads, vec![(0, 99, 3, 0)]);
    }

    /// `serve_batches` as it was before the sort-based grouping: cells
    /// in `HashMap`s, writers grouped by a fresh `HashMap` per module per
    /// step. Kept as the model the module array is checked against.
    struct Model {
        cells: Vec<HashMap<u64, u64>>,
        mode: AccessMode,
        batches: Vec<Vec<ModuleRequest>>,
        violations: Vec<AccessViolation>,
    }

    impl Model {
        fn serve_batches(&mut self) -> (Vec<ServedRead>, u32) {
            let mut reads = Vec::new();
            let mut busiest = 0u32;
            for module in 0..self.cells.len() {
                let batch = std::mem::take(&mut self.batches[module]);
                busiest = busiest.max(batch.len() as u32);
                for req in &batch {
                    if let ModuleRequest::Read { addr, tag } = *req {
                        let value = self.cells[module].get(&addr).copied().unwrap_or(0);
                        reads.push((module, addr, tag, value));
                    }
                }
                let mut writes: HashMap<u64, Vec<(usize, u64)>> = HashMap::new();
                for req in &batch {
                    if let ModuleRequest::Write { addr, value, proc } = *req {
                        writes.entry(addr).or_default().push((proc, value));
                    }
                }
                let mut addrs: Vec<u64> = writes.keys().copied().collect();
                addrs.sort_unstable();
                for addr in addrs {
                    let value =
                        resolve_write(self.mode, addr, &writes[&addr], &mut self.violations);
                    self.cells[module].insert(addr, value);
                }
            }
            (reads, busiest)
        }
    }

    const MODES: [AccessMode; 7] = [
        AccessMode::Erew,
        AccessMode::Crew,
        AccessMode::Crcw(WritePolicy::Common),
        AccessMode::Crcw(WritePolicy::Arbitrary),
        AccessMode::Crcw(WritePolicy::Priority),
        AccessMode::Crcw(WritePolicy::Max),
        AccessMode::Crcw(WritePolicy::Sum),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random batches over a few addresses (so writers collide, with
        /// few distinct values so Common sometimes agrees), several steps
        /// in a row, under every access mode and write policy: the module
        /// array and the model return the same reads and busiest batch,
        /// record the same violations in the same order, and leave the
        /// same cells.
        #[test]
        fn prop_serve_batches_matches_hashmap_model(seed: u64, modules in 1usize..5, steps in 1usize..6) {
            for mode in MODES {
                let mut rng = SeedSeq::new(seed).rng();
                let mut array = ModuleArray::new(modules, mode);
                let mut model = Model {
                    cells: vec![HashMap::new(); modules],
                    mode,
                    batches: vec![Vec::new(); modules],
                    violations: Vec::new(),
                };
                for _ in 0..steps {
                    for _ in 0..rng.gen_range(0usize..40) {
                        let module = rng.gen_range(0..modules);
                        let addr = rng.gen_range(0u64..6);
                        let req = if rng.gen_bool(0.5) {
                            ModuleRequest::Read { addr, tag: rng.gen() }
                        } else {
                            ModuleRequest::Write {
                                addr,
                                value: rng.gen_range(0u64..3),
                                proc: rng.gen_range(0usize..16),
                            }
                        };
                        array.buffer(module, req);
                        model.batches[module].push(req);
                    }
                    prop_assert_eq!(array.serve_batches(), model.serve_batches());
                    prop_assert_eq!(array.violations(), &model.violations[..]);
                    for (module, cells) in model.cells.iter().enumerate() {
                        for addr in 0..6 {
                            prop_assert_eq!(
                                array.peek(module, addr),
                                cells.get(&addr).copied().unwrap_or(0)
                            );
                        }
                    }
                }
            }
        }
    }
}
