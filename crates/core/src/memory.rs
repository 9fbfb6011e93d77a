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

use lnpram_pram::machine::resolve_write;
use lnpram_pram::model::{AccessMode, AccessViolation};
use std::collections::HashMap;

/// One buffered request at a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModuleRequest {
    /// Read of `addr`. `trail` is the reply-routing tag: 0 under
    /// combining (one read per distinct address), the requesting
    /// processor id otherwise (one read per requester).
    Read {
        /// The shared-memory address.
        addr: u64,
        /// Reply trail tag (see [`crate::combining`]).
        trail: u32,
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
    cells: Vec<HashMap<u64, u64>>,
    mode: AccessMode,
    batches: Vec<Vec<ModuleRequest>>,
    violations: Vec<AccessViolation>,
}

impl ModuleArray {
    /// `modules` empty modules.
    pub fn new(modules: usize, mode: AccessMode) -> Self {
        ModuleArray {
            cells: vec![HashMap::new(); modules],
            mode,
            batches: vec![Vec::new(); modules],
            violations: Vec::new(),
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
            out.extend(m.drain());
        }
        out
    }

    /// Buffer a request that arrived at `module` during the routing phase.
    pub fn buffer(&mut self, module: usize, req: ModuleRequest) {
        self.batches[module].push(req);
    }

    /// Serve every module's batch: reads first (pre-write values), then
    /// writes (CRCW resolution). Returns the read results as
    /// `(module, addr, trail, value)` and the busiest module's batch size
    /// (the serial service time charged to this PRAM step).
    pub fn serve_batches(&mut self) -> (Vec<(usize, u64, u32, u64)>, u32) {
        let mut reads = Vec::new();
        let mut busiest = 0u32;
        for module in 0..self.cells.len() {
            let mut batch = std::mem::take(&mut self.batches[module]);
            busiest = busiest.max(batch.len() as u32);
            // Read phase.
            for req in &batch {
                if let ModuleRequest::Read { addr, trail } = *req {
                    let value = self.cells[module].get(&addr).copied().unwrap_or(0);
                    reads.push((module, addr, trail, value));
                }
            }
            // Write phase: group by address, resolve by policy.
            let mut writes: HashMap<u64, Vec<(usize, u64)>> = HashMap::new();
            for req in &batch {
                if let ModuleRequest::Write { addr, value, proc } = *req {
                    writes.entry(addr).or_default().push((proc, value));
                }
            }
            let mut addrs: Vec<u64> = writes.keys().copied().collect();
            addrs.sort_unstable();
            for addr in addrs {
                let winners = &writes[&addr];
                let value = resolve_write(self.mode, addr, winners, &mut self.violations);
                self.cells[module].insert(addr, value);
            }
            // Hand the buffer back empty: the next step's `buffer` calls
            // (made inside a routing run) reuse its capacity.
            batch.clear();
            self.batches[module] = batch;
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
    use lnpram_pram::model::WritePolicy;

    #[test]
    fn batch_reads_see_pre_write_values() {
        let mut ma = ModuleArray::new(2, AccessMode::Crew);
        ma.poke(0, 10, 111);
        ma.buffer(0, ModuleRequest::Read { addr: 10, trail: 0 });
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
        ma.buffer(0, ModuleRequest::Read { addr: 99, trail: 3 });
        let (reads, _) = ma.serve_batches();
        assert_eq!(reads, vec![(0, 99, 3, 0)]);
    }
}
