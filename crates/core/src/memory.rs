//! Distributed memory modules with PRAM batch-service semantics.
//!
//! Each network memory module owns the cells placed at it, keyed by
//! storage key (the address itself, or `addr·R + j` for copy `j` under
//! replication) and holding a `(value, version)` pair. During a routing
//! phase a module only *buffers* arriving requests; when the phase
//! completes, the whole batch is served with read-before-write semantics
//! — all reads observe the pre-step cells, then all writes are applied
//! under the CRCW policy via the same `resolve_write` used by the
//! reference machine and stamped with the step's version. This
//! guarantees emulated results are bit-identical to the oracle
//! regardless of packet arrival order.
//!
//! The queue combines writes as the network does (footnote 3): under a
//! policy that merges, a write that reaches its module may fold into the
//! write of its key already buffered there ([`ModuleArray::fold_write`]).
//! A folded write is one batch entry, served once, so a module's service
//! time is its reads plus its distinct written keys.

use lnpram_pram::machine::resolve_write;
use lnpram_pram::model::{AccessMode, AccessViolation};
use std::collections::BTreeMap;

/// One buffered request at a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModuleRequest {
    /// Read of cell `key`, answered with `tag` attached.
    Read {
        /// The storage key.
        key: u64,
        /// Opaque reply tag the host routes the answer by: the pending
        /// entry the request left at the module on the star and leveled
        /// hosts (see [`crate::combining`]), the requesting processor on
        /// the mesh.
        tag: u32,
    },
    /// Write of `value` to cell `key` by `proc` (proc id breaks Priority
    /// ties).
    Write {
        /// The storage key.
        key: u64,
        /// Value written.
        value: u64,
        /// Originating processor (for Priority/Arbitrary resolution).
        proc: usize,
    },
}

/// A read served by a module, as [`ModuleArray::serve_batches`] returns
/// it. Reply packets carry their index in the served list as their id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedRead {
    /// The module that served it.
    pub module: usize,
    /// The storage key read.
    pub key: u64,
    /// The reply tag the host buffered the read with.
    pub tag: u32,
    /// The cell's value before this step's writes.
    pub value: u64,
    /// The version that value was written at (0 = initial memory).
    pub version: u64,
}

/// The set of memory modules of an emulating network.
#[derive(Debug, Clone)]
pub struct ModuleArray {
    /// Per module, storage key → `(value, version)`.
    cells: Vec<BTreeMap<u64, (u64, u64)>>,
    mode: AccessMode,
    batches: Vec<Vec<ModuleRequest>>,
    /// One bit per module, set while its batch may be non-empty: serving
    /// and clearing visit only those modules, in ascending order.
    touched: Vec<u64>,
    violations: Vec<AccessViolation>,
    /// One module's writes as `(key, (proc, value))`, in batch order
    /// until sorted ([`Self::serve_batches`]' scratch).
    writes: Vec<(u64, (usize, u64))>,
    /// One key's writers, the slice `resolve_write` takes.
    writers: Vec<(usize, u64)>,
}

impl ModuleArray {
    /// `modules` empty modules.
    pub fn new(modules: usize, mode: AccessMode) -> Self {
        ModuleArray {
            cells: vec![BTreeMap::new(); modules],
            mode,
            batches: vec![Vec::new(); modules],
            touched: vec![0; modules.div_ceil(64)],
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

    /// True if no module stores a cell yet.
    pub fn holds_no_cells(&self) -> bool {
        self.cells.iter().all(BTreeMap::is_empty)
    }

    /// Load a cell directly (initial-memory placement and remapping).
    pub fn poke(&mut self, module: usize, key: u64, value: u64, version: u64) {
        self.cells[module].insert(key, (value, version));
    }

    /// Read a cell's `(value, version)` directly (verification); a cell
    /// never stored reads `(0, 0)`.
    pub fn peek(&self, module: usize, key: u64) -> (u64, u64) {
        self.cells[module].get(&key).copied().unwrap_or((0, 0))
    }

    /// Drain all cells of all modules as `(key, (value, version))`
    /// (rehash remapping).
    pub fn drain_cells(&mut self) -> Vec<(u64, (u64, u64))> {
        let mut out = Vec::new();
        for m in &mut self.cells {
            out.extend(std::mem::take(m));
        }
        out
    }

    /// Buffer a request that arrived at `module` during the routing phase.
    #[inline]
    pub fn buffer(&mut self, module: usize, req: ModuleRequest) {
        self.touched[module / 64] |= 1 << (module % 64);
        self.batches[module].push(req);
    }

    /// Fold a write of `value` to `key` by `proc` into the write of `key`
    /// already buffered at `module`, combining the two `(value, proc)`
    /// pairs with `merge`, and return `true`; return `false`, buffering
    /// nothing, if the batch holds no write of `key`. The scan is in
    /// place over that module's batch alone, so a folded write stays one
    /// entry, served once.
    #[inline]
    pub fn fold_write(
        &mut self,
        module: usize,
        key: u64,
        value: u64,
        proc: usize,
        merge: impl FnOnce((u64, usize), (u64, usize)) -> (u64, usize),
    ) -> bool {
        for req in &mut self.batches[module] {
            if let ModuleRequest::Write {
                key: k,
                value: v,
                proc: p,
            } = req
            {
                if *k == key {
                    (*v, *p) = merge((*v, *p), (value, proc));
                    return true;
                }
            }
        }
        false
    }

    /// Serve every module's batch into `reads`: reads first (pre-write
    /// cells), then writes (CRCW resolution, keys ascending, each key's
    /// writers in arrival order), each written cell stamped `version`,
    /// modules ascending. `reads` is cleared first, so a caller that
    /// keeps it reuses its capacity. Returns the busiest module's batch
    /// size (the serial service time charged to this PRAM step).
    pub fn serve_batches(&mut self, version: u64, reads: &mut Vec<ServedRead>) -> u32 {
        let ModuleArray {
            cells,
            mode,
            batches,
            touched,
            violations,
            writes,
            writers,
        } = self;
        reads.clear();
        let mut busiest = 0u32;
        for module in take_touched(touched) {
            let (batch, cells) = (&mut batches[module], &mut cells[module]);
            busiest = busiest.max(batch.len() as u32);
            // Reads see the cells as they were: no write lands before the
            // whole batch has been read. `drain` hands the buffer back
            // empty, so the next step's `buffer` calls reuse its capacity.
            writes.clear();
            for req in batch.drain(..) {
                match req {
                    ModuleRequest::Read { key, tag } => {
                        let (value, version) = cells.get(&key).copied().unwrap_or((0, 0));
                        reads.push(ServedRead {
                            module,
                            key,
                            tag,
                            value,
                            version,
                        });
                    }
                    ModuleRequest::Write { key, value, proc } => writes.push((key, (proc, value))),
                }
            }
            // Group by key; the sort is stable, so Common still sees the
            // first writer first.
            writes.sort_by_key(|&(key, _)| key);
            for group in writes.chunk_by(|a, b| a.0 == b.0) {
                let key = group[0].0;
                writers.clear();
                writers.extend(group.iter().map(|&(_, w)| w));
                let value = resolve_write(*mode, key, writers, violations);
                cells.insert(key, (value, version));
            }
        }
        busiest
    }

    /// Discard all buffered (unserved) requests — used when a routing
    /// overrun triggers a rehash and the PRAM step restarts from scratch.
    pub fn clear_batches(&mut self) {
        for module in take_touched(&mut self.touched) {
            self.batches[module].clear();
        }
    }

    /// The requests buffered at `module` and not yet served.
    #[cfg(test)]
    pub(crate) fn batch(&self, module: usize) -> &[ModuleRequest] {
        &self.batches[module]
    }

    /// Access violations recorded so far (CRCW-Common mismatches).
    pub fn violations(&self) -> &[AccessViolation] {
        &self.violations
    }
}

/// The modules whose bits are set in `touched`, ascending, clearing the
/// bits as it goes.
fn take_touched(touched: &mut [u64]) -> impl Iterator<Item = usize> + '_ {
    touched.iter_mut().enumerate().flat_map(|(word, bits)| {
        let mut bits = std::mem::take(bits);
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                word * 64 + bit
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combining_host::{merge, mergeable_policy};
    use lnpram_math::rng::SeedSeq;
    use lnpram_pram::model::WritePolicy;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn read(module: usize, key: u64, tag: u32, (value, version): (u64, u64)) -> ServedRead {
        ServedRead {
            module,
            key,
            tag,
            value,
            version,
        }
    }

    #[test]
    fn batch_reads_see_pre_write_values() {
        let mut ma = ModuleArray::new(2, AccessMode::Crew);
        ma.poke(0, 10, 111, 0);
        ma.buffer(0, ModuleRequest::Read { key: 10, tag: 0 });
        ma.buffer(
            0,
            ModuleRequest::Write {
                key: 10,
                value: 222,
                proc: 3,
            },
        );
        let mut reads = Vec::new();
        let busiest = ma.serve_batches(5, &mut reads);
        assert_eq!(reads, vec![read(0, 10, 0, (111, 0))]);
        assert_eq!(busiest, 2);
        assert_eq!(ma.peek(0, 10), (222, 5), "writes carry the step's version");
    }

    #[test]
    fn write_resolution_matches_policy() {
        let mut ma = ModuleArray::new(1, AccessMode::Crcw(WritePolicy::Sum));
        for proc in 0..4 {
            ma.buffer(
                0,
                ModuleRequest::Write {
                    key: 5,
                    value: proc as u64 + 1,
                    proc,
                },
            );
        }
        ma.serve_batches(1, &mut Vec::new());
        assert_eq!(ma.peek(0, 5), (10, 1));
        assert!(ma.violations().is_empty());
    }

    #[test]
    fn common_mismatch_recorded() {
        let mut ma = ModuleArray::new(1, AccessMode::Crcw(WritePolicy::Common));
        ma.buffer(
            0,
            ModuleRequest::Write {
                key: 1,
                value: 7,
                proc: 0,
            },
        );
        ma.buffer(
            0,
            ModuleRequest::Write {
                key: 1,
                value: 8,
                proc: 1,
            },
        );
        ma.serve_batches(1, &mut Vec::new());
        assert_eq!(ma.violations().len(), 1);
    }

    #[test]
    fn drain_cells_roundtrip() {
        let mut ma = ModuleArray::new(3, AccessMode::Erew);
        ma.poke(0, 1, 10, 0);
        ma.poke(1, 2, 20, 4);
        ma.poke(2, 3, 30, 9);
        let mut cells = ma.drain_cells();
        cells.sort_unstable();
        assert_eq!(cells, vec![(1, (10, 0)), (2, (20, 4)), (3, (30, 9))]);
        assert_eq!(ma.peek(0, 1), (0, 0));
    }

    #[test]
    fn unwritten_cells_read_zero() {
        let mut ma = ModuleArray::new(1, AccessMode::Erew);
        ma.buffer(0, ModuleRequest::Read { key: 99, tag: 3 });
        let mut reads = vec![read(0, 1, 1, (1, 1))];
        ma.serve_batches(1, &mut reads);
        assert_eq!(
            reads,
            vec![read(0, 99, 3, (0, 0))],
            "the buffer is cleared first"
        );
    }

    /// `serve_batches` as it was before the sort-based grouping: cells
    /// in `HashMap`s, writers grouped by a fresh `HashMap` per module per
    /// step. Kept as the model the module array is checked against.
    struct Model {
        cells: Vec<HashMap<u64, (u64, u64)>>,
        mode: AccessMode,
        batches: Vec<Vec<ModuleRequest>>,
        violations: Vec<AccessViolation>,
    }

    impl Model {
        fn serve_batches(&mut self, version: u64) -> (Vec<ServedRead>, u32) {
            let mut reads = Vec::new();
            let mut busiest = 0u32;
            for module in 0..self.cells.len() {
                let batch = std::mem::take(&mut self.batches[module]);
                busiest = busiest.max(batch.len() as u32);
                for req in &batch {
                    if let ModuleRequest::Read { key, tag } = *req {
                        let cell = self.cells[module].get(&key).copied().unwrap_or((0, 0));
                        reads.push(read(module, key, tag, cell));
                    }
                }
                let mut writes: HashMap<u64, Vec<(usize, u64)>> = HashMap::new();
                for req in &batch {
                    if let ModuleRequest::Write { key, value, proc } = *req {
                        writes.entry(key).or_default().push((proc, value));
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

        /// Random batches over a few keys (so writers collide, with few
        /// distinct values so Common sometimes agrees), several steps in
        /// a row with a rising version, some keys pre-loaded at version
        /// 0, under every access mode and write policy: the module array
        /// and the model return the same reads (values and versions) and
        /// busiest batch, record the same violations in the same order,
        /// and leave the same cells.
        #[test]
        fn prop_serve_batches_matches_hashmap_model(
            seed: u64,
            // A few modules, or past one word of the touched bitmap.
            modules in prop_oneof![1usize..5, 63usize..70],
            steps in 1usize..6,
        ) {
            for mode in MODES {
                let mut rng = SeedSeq::new(seed).rng();
                let mut array = ModuleArray::new(modules, mode);
                let mut model = Model {
                    cells: vec![HashMap::new(); modules],
                    mode,
                    batches: vec![Vec::new(); modules],
                    violations: Vec::new(),
                };
                for module in 0..modules {
                    let key = rng.gen_range(0u64..6);
                    let value = rng.gen_range(0u64..3);
                    array.poke(module, key, value, 0);
                    model.cells[module].insert(key, (value, 0));
                }
                for version in 1..=steps as u64 {
                    for _ in 0..rng.gen_range(0usize..40) {
                        let module = rng.gen_range(0..modules);
                        let key = rng.gen_range(0u64..6);
                        let req = if rng.gen_bool(0.5) {
                            ModuleRequest::Read { key, tag: rng.gen() }
                        } else {
                            ModuleRequest::Write {
                                key,
                                value: rng.gen_range(0u64..3),
                                proc: rng.gen_range(0usize..16),
                            }
                        };
                        array.buffer(module, req);
                        model.batches[module].push(req);
                    }
                    if rng.gen_range(0u8..4) == 0 {
                        // A rehash restarts the step: nothing buffered is served.
                        array.clear_batches();
                        model.batches.iter_mut().for_each(Vec::clear);
                    }
                    let mut reads = Vec::new();
                    let busiest = array.serve_batches(version, &mut reads);
                    prop_assert_eq!((reads, busiest), model.serve_batches(version));
                    prop_assert_eq!(array.violations(), &model.violations[..]);
                    for (module, cells) in model.cells.iter().enumerate() {
                        for key in 0..6 {
                            prop_assert_eq!(
                                array.peek(module, key),
                                cells.get(&key).copied().unwrap_or((0, 0))
                            );
                        }
                    }
                }
            }
        }

        /// The module queue combines: under every policy that merges,
        /// folding each write into its module's buffered write of the
        /// same key ([`ModuleArray::fold_write`] with the protocol's
        /// merge) serves the same reads and leaves the same cells and
        /// versions as buffering every write, and the busiest batch is
        /// one entry per read plus one per distinct key written.
        #[test]
        fn prop_folded_writes_serve_like_buffered_ones(
            seed: u64,
            modules in 1usize..5,
            steps in 1usize..6,
        ) {
            for mode in MODES {
                let Some(policy) = mergeable_policy(mode) else { continue };
                let mut rng = SeedSeq::new(seed).rng();
                let mut folded = ModuleArray::new(modules, mode);
                let mut buffered = ModuleArray::new(modules, mode);
                for version in 1..=steps as u64 {
                    // Per module: reads, and the distinct keys written.
                    let mut load = vec![(0u32, Vec::new()); modules];
                    for _ in 0..rng.gen_range(0usize..40) {
                        let module = rng.gen_range(0..modules);
                        let key = rng.gen_range(0u64..6);
                        let req = if rng.gen_bool(0.3) {
                            load[module].0 += 1;
                            ModuleRequest::Read { key, tag: rng.gen() }
                        } else {
                            if !load[module].1.contains(&key) {
                                load[module].1.push(key);
                            }
                            ModuleRequest::Write {
                                key,
                                value: rng.gen(),
                                proc: rng.gen_range(0usize..16),
                            }
                        };
                        buffered.buffer(module, req);
                        let fold = |(value, proc)| {
                            let merge = |acc, next| merge(policy, acc, next);
                            folded.fold_write(module, key, value, proc, merge)
                        };
                        let write = match req {
                            ModuleRequest::Write { value, proc, .. } => Some((value, proc)),
                            ModuleRequest::Read { .. } => None,
                        };
                        if !write.is_some_and(fold) {
                            folded.buffer(module, req);
                        }
                    }
                    let busiest = load.iter().map(|(reads, keys)| reads + keys.len() as u32);
                    let (mut folded_reads, mut buffered_reads) = (Vec::new(), Vec::new());
                    prop_assert_eq!(
                        folded.serve_batches(version, &mut folded_reads),
                        busiest.max().unwrap_or(0)
                    );
                    buffered.serve_batches(version, &mut buffered_reads);
                    prop_assert_eq!(folded_reads, buffered_reads);
                    for module in 0..modules {
                        for key in 0..6 {
                            prop_assert_eq!(folded.peek(module, key), buffered.peek(module, key));
                        }
                    }
                }
                prop_assert!(folded.violations().is_empty() && buffered.violations().is_empty());
            }
        }
    }
}
