//! A library of classical PRAM programs.
//!
//! These serve three purposes: runnable examples of the public API,
//! correctness workloads for the network emulators (every program's final
//! memory is checked against [`PramMachine`](crate::machine::PramMachine)),
//! and the traffic generators behind the emulation tables (permutation
//! traffic for Theorem 2.5, hot-spot broadcast for Theorem 2.6).
//!
//! All programs keep their per-processor local state inside the program
//! value and are deterministic, as the [`PramProgram`] contract requires.

use crate::model::{MemOp, PramProgram};

// ---------------------------------------------------------------------
// Reduction max (EREW, O(log n) steps)
// ---------------------------------------------------------------------

/// Tree-reduction maximum of `values` (EREW): round `r` has processor `i`
/// combine cells `i·2^{r+1}` and `i·2^{r+1} + 2^r`; the answer lands in
/// cell 0. Three PRAM steps per round (read, read, write).
pub struct ReductionMax {
    values: Vec<u64>,
    n: usize,
    rounds: usize,
    stash: Vec<u64>,
}

impl ReductionMax {
    /// `values.len()` must be a power of two.
    pub fn new(values: Vec<u64>) -> Self {
        let n = values.len();
        assert!(n.is_power_of_two() && n >= 2, "need a power of two >= 2");
        ReductionMax {
            rounds: n.trailing_zeros() as usize,
            stash: vec![0; n],
            values,
            n,
        }
    }

    /// The expected answer.
    pub fn expected(&self) -> u64 {
        *self
            .values
            .iter()
            .max()
            .expect("values non-empty: the constructor generates one per processor")
    }

    /// Check the final memory image.
    pub fn verify(&self, memory: &[u64]) -> bool {
        memory[0] == self.expected()
    }
}

impl PramProgram for ReductionMax {
    fn processors(&self) -> usize {
        self.n / 2
    }
    fn address_space(&self) -> u64 {
        self.n as u64
    }
    fn initial_memory(&self) -> Vec<(u64, u64)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }
    fn op(&mut self, proc: usize, step: usize, last_read: Option<u64>) -> MemOp {
        let (round, phase) = (step / 3, step % 3);
        if round >= self.rounds {
            return MemOp::Halt;
        }
        let stride = 1u64 << round;
        let active = self.n >> (round + 1);
        if proc >= active {
            return MemOp::None;
        }
        let base = proc as u64 * stride * 2;
        match phase {
            0 => MemOp::Read(base),
            1 => {
                self.stash[proc] = last_read.expect("phase-0 read");
                MemOp::Read(base + stride)
            }
            _ => {
                let right = last_read.expect("phase-1 read");
                MemOp::Write(base, self.stash[proc].max(right))
            }
        }
    }
}

// ---------------------------------------------------------------------
// Prefix sum, Hillis–Steele with double buffering (EREW, O(log n))
// ---------------------------------------------------------------------

/// Inclusive prefix sum by the Hillis–Steele doubling scheme with two
/// buffers `A = [0, n)` and `B = [n, 2n)`. Each round reads `cur[i]`, then
/// `cur[i − 2^r]`, then writes `next[i]` — all exclusive because the two
/// reads happen in different PRAM steps.
pub struct PrefixSum {
    values: Vec<u64>,
    n: usize,
    rounds: usize,
    stash: Vec<u64>,
}

impl PrefixSum {
    /// Any `values.len() >= 1` works (rounds = ⌈log₂ n⌉).
    pub fn new(values: Vec<u64>) -> Self {
        let n = values.len();
        assert!(n >= 1);
        let rounds = usize::BITS as usize - (n - 1).leading_zeros() as usize;
        PrefixSum {
            stash: vec![0; n],
            rounds: if n == 1 { 0 } else { rounds },
            values,
            n,
        }
    }

    /// Which buffer holds the result: base address of the final buffer.
    pub fn result_base(&self) -> u64 {
        if self.rounds.is_multiple_of(2) {
            0
        } else {
            self.n as u64
        }
    }

    /// Expected inclusive prefix sums.
    pub fn expected(&self) -> Vec<u64> {
        self.values
            .iter()
            .scan(0u64, |acc, &v| {
                *acc = acc.wrapping_add(v);
                Some(*acc)
            })
            .collect()
    }

    /// Check the final memory image.
    pub fn verify(&self, memory: &[u64]) -> bool {
        let base = self.result_base() as usize;
        memory[base..base + self.n] == self.expected()[..]
    }
}

impl PramProgram for PrefixSum {
    fn processors(&self) -> usize {
        self.n
    }
    fn address_space(&self) -> u64 {
        2 * self.n as u64
    }
    fn initial_memory(&self) -> Vec<(u64, u64)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }
    fn op(&mut self, proc: usize, step: usize, last_read: Option<u64>) -> MemOp {
        let (round, phase) = (step / 3, step % 3);
        if round >= self.rounds {
            return MemOp::Halt;
        }
        let offset = 1usize << round;
        let (cur, next) = if round % 2 == 0 {
            (0u64, self.n as u64)
        } else {
            (self.n as u64, 0u64)
        };
        match phase {
            0 => MemOp::Read(cur + proc as u64),
            1 => {
                self.stash[proc] = last_read.expect("own value");
                if proc >= offset {
                    MemOp::Read(cur + (proc - offset) as u64)
                } else {
                    MemOp::None
                }
            }
            _ => {
                let add = if proc >= offset {
                    last_read.expect("shifted value")
                } else {
                    0
                };
                MemOp::Write(next + proc as u64, self.stash[proc].wrapping_add(add))
            }
        }
    }
}

// ---------------------------------------------------------------------
// List ranking by pointer jumping (CREW, O(log n))
// ---------------------------------------------------------------------

/// List ranking by pointer jumping: `succ` pointers live in `[0, n)`,
/// ranks in `[n, 2n)`. Each of ⌈log₂ n⌉ rounds does
/// `rank[i] += rank[succ[i]]; succ[i] = succ[succ[i]]` in five PRAM steps.
/// Reads of shared successors are concurrent — a genuinely CREW program
/// with data-dependent addressing (the hard case for an emulator).
pub struct ListRanking {
    succ: Vec<usize>,
    n: usize,
    rounds: usize,
    stash_succ: Vec<u64>,
    stash_rank: Vec<u64>,
}

impl ListRanking {
    /// `succ[i]` is the next element; the tail points to itself.
    pub fn new(succ: Vec<usize>) -> Self {
        let n = succ.len();
        assert!(n >= 1);
        for (i, &s) in succ.iter().enumerate() {
            assert!(s < n, "succ[{i}] out of range");
        }
        let rounds = if n <= 1 {
            0
        } else {
            usize::BITS as usize - (n - 1).leading_zeros() as usize
        };
        ListRanking {
            stash_succ: vec![0; n],
            stash_rank: vec![0; n],
            rounds,
            succ,
            n,
        }
    }

    /// Expected rank (distance to the tail) per element.
    pub fn expected(&self) -> Vec<u64> {
        (0..self.n)
            .map(|start| {
                let mut cur = start;
                let mut d = 0u64;
                while self.succ[cur] != cur {
                    cur = self.succ[cur];
                    d += 1;
                    assert!(d as usize <= self.n, "succ array has a cycle");
                }
                d
            })
            .collect()
    }

    /// Check the final memory image.
    pub fn verify(&self, memory: &[u64]) -> bool {
        let expect = self.expected();
        (0..self.n).all(|i| memory[self.n + i] == expect[i])
    }
}

impl ListRanking {
    /// Steps per round: read succ, read rank\[succ\], read own rank, write
    /// rank, read `succ[succ]`, write succ.
    pub const PHASES: usize = 6;

    fn initial_memory(&self) -> Vec<(u64, u64)> {
        let mut mem: Vec<(u64, u64)> = self
            .succ
            .iter()
            .enumerate()
            .map(|(i, &s)| (i as u64, s as u64))
            .collect();
        for (i, &s) in self.succ.iter().enumerate() {
            // rank = 1 unless tail.
            mem.push(((self.n + i) as u64, u64::from(s != i)));
        }
        mem
    }
}

/// [`ListRanking`] exposed as a 6-phase [`PramProgram`].
pub struct ListRankingProgram {
    inner: ListRanking,
}

impl ListRankingProgram {
    /// See [`ListRanking::new`].
    pub fn new(succ: Vec<usize>) -> Self {
        ListRankingProgram {
            inner: ListRanking::new(succ),
        }
    }

    /// Expected ranks.
    pub fn expected(&self) -> Vec<u64> {
        self.inner.expected()
    }

    /// Check final memory.
    pub fn verify(&self, memory: &[u64]) -> bool {
        self.inner.verify(memory)
    }
}

impl PramProgram for ListRankingProgram {
    fn processors(&self) -> usize {
        self.inner.n
    }
    fn address_space(&self) -> u64 {
        2 * self.inner.n as u64
    }
    fn initial_memory(&self) -> Vec<(u64, u64)> {
        self.inner.initial_memory()
    }
    fn op(&mut self, proc: usize, step: usize, last_read: Option<u64>) -> MemOp {
        let (round, phase) = (step / 6, step % 6);
        if round >= self.inner.rounds {
            return MemOp::Halt;
        }
        let n = self.inner.n as u64;
        let inner = &mut self.inner;
        match phase {
            0 => MemOp::Read(proc as u64),
            1 => {
                inner.stash_succ[proc] = last_read.expect("succ");
                MemOp::Read(n + inner.stash_succ[proc])
            }
            2 => {
                inner.stash_rank[proc] = last_read.expect("rank[succ]");
                MemOp::Read(n + proc as u64)
            }
            3 => {
                let own = last_read.expect("own rank");
                let add = if inner.stash_succ[proc] == proc as u64 {
                    0
                } else {
                    inner.stash_rank[proc]
                };
                MemOp::Write(n + proc as u64, own.wrapping_add(add))
            }
            4 => MemOp::Read(inner.stash_succ[proc]),
            _ => {
                let jumped = last_read.expect("succ[succ]");
                MemOp::Write(proc as u64, jumped)
            }
        }
    }
}

// ---------------------------------------------------------------------
// Odd–even transposition sort (EREW, O(n))
// ---------------------------------------------------------------------

/// Odd–even transposition sort of `n` values in `[0, n)`: `n` phases; in
/// phase `t`, the leader of each pair `(i, i+1)` with `i ≡ t (mod 2)`
/// reads both cells and writes them back in order (4 PRAM steps/phase).
pub struct OddEvenSort {
    values: Vec<u64>,
    n: usize,
    stash: Vec<u64>,
}

impl OddEvenSort {
    /// Sorts any `values.len() >= 1`.
    pub fn new(values: Vec<u64>) -> Self {
        let n = values.len();
        assert!(n >= 1);
        OddEvenSort {
            stash: vec![0; n],
            values,
            n,
        }
    }

    /// Expected sorted output.
    pub fn expected(&self) -> Vec<u64> {
        let mut v = self.values.clone();
        v.sort_unstable();
        v
    }

    /// Check the final memory image.
    pub fn verify(&self, memory: &[u64]) -> bool {
        memory[..self.n] == self.expected()[..]
    }
}

impl PramProgram for OddEvenSort {
    fn processors(&self) -> usize {
        self.n
    }
    fn address_space(&self) -> u64 {
        self.n as u64
    }
    fn initial_memory(&self) -> Vec<(u64, u64)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }
    fn op(&mut self, proc: usize, step: usize, last_read: Option<u64>) -> MemOp {
        let (phase_idx, sub) = (step / 4, step % 4);
        if phase_idx >= self.n {
            return MemOp::Halt;
        }
        // Pair leaders: i with i ≡ phase (mod 2) and i+1 < n.
        let is_leader = proc % 2 == phase_idx % 2 && proc + 1 < self.n;
        if !is_leader {
            return MemOp::None;
        }
        match sub {
            0 => MemOp::Read(proc as u64),
            1 => {
                self.stash[proc] = last_read.expect("left");
                MemOp::Read(proc as u64 + 1)
            }
            2 => {
                let right = last_read.expect("right");
                let left = self.stash[proc];
                self.stash[proc] = left.max(right);
                MemOp::Write(proc as u64, left.min(right))
            }
            _ => MemOp::Write(proc as u64 + 1, self.stash[proc]),
        }
    }
}

// ---------------------------------------------------------------------
// Histogram (CRCW-Sum, O(1))
// ---------------------------------------------------------------------

/// Histogram by concurrent combining writes: processor `i` reads its input
/// `x[i] ∈ [0, buckets)` from `[0, n)` and writes `1` into bucket cell
/// `n + x[i]` — all in the *same* step, so the CRCW-Sum policy accumulates
/// the counts. Two PRAM steps total; impossible without concurrent writes.
pub struct Histogram {
    inputs: Vec<u64>,
    buckets: u64,
    n: usize,
}

impl Histogram {
    /// `inputs[i] < buckets` required.
    pub fn new(inputs: Vec<u64>, buckets: u64) -> Self {
        assert!(inputs.iter().all(|&v| v < buckets));
        Histogram {
            n: inputs.len(),
            inputs,
            buckets,
        }
    }

    /// Expected bucket counts.
    pub fn expected(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.buckets as usize];
        for &v in &self.inputs {
            counts[v as usize] += 1;
        }
        counts
    }

    /// Check the final memory image.
    pub fn verify(&self, memory: &[u64]) -> bool {
        let base = self.n;
        let expect = self.expected();
        (0..self.buckets as usize).all(|b| memory[base + b] == expect[b])
    }
}

impl PramProgram for Histogram {
    fn processors(&self) -> usize {
        self.n
    }
    fn address_space(&self) -> u64 {
        self.n as u64 + self.buckets
    }
    fn initial_memory(&self) -> Vec<(u64, u64)> {
        self.inputs
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }
    fn op(&mut self, proc: usize, step: usize, last_read: Option<u64>) -> MemOp {
        match step {
            0 => MemOp::Read(proc as u64),
            1 => MemOp::Write(self.n as u64 + last_read.expect("input"), 1),
            _ => MemOp::Halt,
        }
    }
}

// ---------------------------------------------------------------------
// Broadcast hot-spot (CREW/CRCW concurrent-read stressor)
// ---------------------------------------------------------------------

/// Every processor reads cell 0 for `rounds` rounds and mirrors the value
/// into its own cell — the maximal concurrent-read hot spot, the workload
/// Theorem 2.6's packet combining exists for.
pub struct Broadcast {
    p: usize,
    rounds: usize,
    secret: u64,
}

impl Broadcast {
    /// `p` processors, `rounds` repetitions, broadcasting `secret`.
    pub fn new(p: usize, rounds: usize, secret: u64) -> Self {
        assert!(p >= 1 && rounds >= 1);
        Broadcast { p, rounds, secret }
    }

    /// Check the final memory image.
    pub fn verify(&self, memory: &[u64]) -> bool {
        (1..=self.p).all(|i| memory[i] == self.secret)
    }
}

impl PramProgram for Broadcast {
    fn processors(&self) -> usize {
        self.p
    }
    fn address_space(&self) -> u64 {
        self.p as u64 + 1
    }
    fn initial_memory(&self) -> Vec<(u64, u64)> {
        vec![(0, self.secret)]
    }
    fn op(&mut self, proc: usize, step: usize, last_read: Option<u64>) -> MemOp {
        let (round, phase) = (step / 2, step % 2);
        if round >= self.rounds {
            return MemOp::Halt;
        }
        match phase {
            0 => MemOp::Read(0),
            _ => MemOp::Write(proc as u64 + 1, last_read.expect("broadcast value")),
        }
    }
}

// ---------------------------------------------------------------------
// Matrix-vector product (CREW, O(n))
// ---------------------------------------------------------------------

/// Dense matrix–vector product `y = A·x` with one processor per row.
/// Layout: `A` row-major in `[0, n²)`, `x` in `[n², n²+n)`, `y` in
/// `[n²+n, n²+2n)`. Round `j` has every processor read its own `A[i][j]`
/// (exclusive) and then `x[j]` — all processors concurrently, making each
/// round a full read hot spot (a combining-friendly CREW workload).
pub struct MatVec {
    a: Vec<u64>,
    x: Vec<u64>,
    n: usize,
    acc: Vec<u64>,
    stash: Vec<u64>,
}

impl MatVec {
    /// `a` is row-major `n×n`; `x` has length n.
    pub fn new(a: Vec<u64>, x: Vec<u64>) -> Self {
        let n = x.len();
        assert!(n >= 1);
        assert_eq!(a.len(), n * n, "A must be n x n");
        MatVec {
            acc: vec![0; n],
            stash: vec![0; n],
            a,
            x,
            n,
        }
    }

    /// Expected product (wrapping arithmetic).
    pub fn expected(&self) -> Vec<u64> {
        (0..self.n)
            .map(|i| {
                (0..self.n).fold(0u64, |acc, j| {
                    acc.wrapping_add(self.a[i * self.n + j].wrapping_mul(self.x[j]))
                })
            })
            .collect()
    }

    /// Check the final memory image.
    pub fn verify(&self, memory: &[u64]) -> bool {
        let base = self.n * self.n + self.n;
        memory[base..base + self.n] == self.expected()[..]
    }
}

impl PramProgram for MatVec {
    fn processors(&self) -> usize {
        self.n
    }
    fn address_space(&self) -> u64 {
        (self.n * self.n + 2 * self.n) as u64
    }
    fn initial_memory(&self) -> Vec<(u64, u64)> {
        let mut mem: Vec<(u64, u64)> = self
            .a
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect();
        let base = (self.n * self.n) as u64;
        mem.extend(
            self.x
                .iter()
                .enumerate()
                .map(|(j, &v)| (base + j as u64, v)),
        );
        mem
    }
    fn op(&mut self, proc: usize, step: usize, last_read: Option<u64>) -> MemOp {
        let n = self.n;
        let (round, phase) = (step / 3, step % 3);
        if round > n {
            return MemOp::Halt;
        }
        if round == n {
            // Final round: write the accumulated dot product.
            return if phase == 0 {
                MemOp::Write((n * n + n + proc) as u64, self.acc[proc])
            } else {
                MemOp::Halt
            };
        }
        match phase {
            0 => MemOp::Read((proc * n + round) as u64), // A[i][j], exclusive
            1 => {
                self.stash[proc] = last_read.expect("A entry");
                MemOp::Read((n * n + round) as u64) // x[j], concurrent
            }
            _ => {
                let xj = last_read.expect("x entry");
                self.acc[proc] = self.acc[proc].wrapping_add(self.stash[proc].wrapping_mul(xj));
                MemOp::None
            }
        }
    }
}

// ---------------------------------------------------------------------
// Connected components (CRCW-Max, label propagation with shortcutting)
// ---------------------------------------------------------------------

/// Connected components by max-label propagation with pointer-jumping
/// shortcuts — the flagship CRCW workload (it *requires* a combining
/// write policy, exactly footnote 3's message combining).
///
/// Shared memory holds `label[v]` at address `v` for `v < V`, initialised
/// to `v`. Each undirected edge `(u, w)` gets **two** processors (one per
/// write endpoint) so that every round's writes land in a *single* PRAM
/// step — under CRCW-Max all concurrent writes to one label combine at
/// once, which keeps labels monotonically non-decreasing (a shortcut or
/// edge write spread over several steps could otherwise overwrite a
/// same-round increase with a stale smaller value). Processors `2E..2E+V`
/// own one vertex each and perform the pointer-jumping shortcut. One
/// round is 3 PRAM steps:
///
/// | step | edge procs `2i, 2i+1` for `(u, w)` | vertex proc `v`          |
/// |------|------------------------------------|--------------------------|
/// | 0    | read `label[u]`                    | read `label[v]`          |
/// | 1    | read `label[w]`                    | read `label[label[v]]`   |
/// | 2    | write `max` to `label[u]` / `label[w]` | write shortcut to `label[v]` |
///
/// Every written value is ≥ the cell's pre-step value (edge writers write
/// the max of two labels, one of which is the cell's own; the shortcut
/// value `label[label[v]] ≥ label[v]` since labels are vertex ids that
/// only grow), so the Max resolution is monotone and the labels converge
/// to the per-component maximum vertex id. Propagation moves one hop per
/// round and shortcutting doubles label-pointer chains, so convergence is
/// `O(log V)` on typical graphs and at most the diameter in the worst
/// case; the default round count is `V` (always sufficient) — use
/// [`ConnectedComponents::with_rounds`] to ablate convergence speed.
pub struct ConnectedComponents {
    edges: Vec<(usize, usize)>,
    vertices: usize,
    rounds: usize,
    stash: Vec<u64>,
}

impl ConnectedComponents {
    /// Graph on `vertices` vertices with the given edge list (endpoints
    /// must be `< vertices`; self-loops allowed and harmless).
    pub fn new(vertices: usize, edges: Vec<(usize, usize)>) -> Self {
        assert!(vertices >= 1);
        for &(u, w) in &edges {
            assert!(u < vertices && w < vertices, "edge endpoint out of range");
        }
        let procs = 2 * edges.len() + vertices;
        ConnectedComponents {
            edges,
            vertices,
            rounds: vertices,
            stash: vec![0; procs],
        }
    }

    /// Override the round count (ablation: how fast does shortcutting
    /// converge vs. pure propagation?).
    #[must_use]
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds.max(1);
        self
    }

    /// Expected final labels: per component, the maximum vertex id
    /// (computed sequentially by union–find).
    pub fn expected(&self) -> Vec<u64> {
        let mut parent: Vec<usize> = (0..self.vertices).collect();
        fn find(parent: &mut Vec<usize>, v: usize) -> usize {
            if parent[v] != v {
                let root = find(parent, parent[v]);
                parent[v] = root;
            }
            parent[v]
        }
        for &(u, w) in &self.edges {
            let (ru, rw) = (find(&mut parent, u), find(&mut parent, w));
            parent[ru.min(rw)] = ru.max(rw);
        }
        let mut max_of_root = vec![0u64; self.vertices];
        for v in 0..self.vertices {
            let r = find(&mut parent, v);
            max_of_root[r] = max_of_root[r].max(v as u64);
        }
        (0..self.vertices)
            .map(|v| {
                let r = find(&mut parent, v);
                max_of_root[r]
            })
            .collect()
    }

    /// Check the final labels in `memory[0..V]`.
    pub fn verify(&self, memory: &[u64]) -> bool {
        memory[..self.vertices] == self.expected()[..]
    }
}

impl PramProgram for ConnectedComponents {
    fn processors(&self) -> usize {
        2 * self.edges.len() + self.vertices
    }
    fn address_space(&self) -> u64 {
        self.vertices as u64
    }
    fn initial_memory(&self) -> Vec<(u64, u64)> {
        (0..self.vertices as u64).map(|v| (v, v)).collect()
    }
    fn op(&mut self, proc: usize, step: usize, last_read: Option<u64>) -> MemOp {
        let (round, phase) = (step / 3, step % 3);
        if round >= self.rounds {
            return MemOp::Halt;
        }
        let e2 = 2 * self.edges.len();
        if proc < e2 {
            let (u, w) = self.edges[proc / 2];
            match phase {
                0 => MemOp::Read(u as u64),
                1 => {
                    self.stash[proc] = last_read.expect("label[u]");
                    MemOp::Read(w as u64)
                }
                _ => {
                    let lw = last_read.expect("label[w]");
                    let value = self.stash[proc].max(lw);
                    // Even processor updates u, odd updates w — all in one
                    // step, so Max combining resolves every writer at once.
                    let target = if proc.is_multiple_of(2) { u } else { w };
                    MemOp::Write(target as u64, value)
                }
            }
        } else {
            let v = (proc - e2) as u64;
            match phase {
                0 => MemOp::Read(v),
                1 => MemOp::Read(last_read.expect("label[v]")),
                _ => MemOp::Write(v, last_read.expect("label[label[v]]")),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Permutation traffic (EREW, the Theorem 2.5 workload)
// ---------------------------------------------------------------------

/// Pure communication workload: in each round every processor reads the
/// cell of a fixed permutation, then writes its own cell — the
/// one-packet-per-processor pattern Theorems 2.1/2.5 are stated for.
pub struct PermutationTraffic {
    perm: Vec<usize>,
    rounds: usize,
}

impl PermutationTraffic {
    /// `perm` must be a permutation of `0..n`.
    pub fn new(perm: Vec<usize>, rounds: usize) -> Self {
        let n = perm.len();
        let mut seen = vec![false; n];
        for &d in &perm {
            assert!(d < n && !seen[d], "not a permutation");
            seen[d] = true;
        }
        PermutationTraffic { perm, rounds }
    }

    /// Check: cell i ends holding `perm[i] + round_count` accumulated…
    /// concretely each processor writes `read_value + 1` into its own cell,
    /// so after `rounds` rounds cell i holds a deterministic chase of the
    /// permutation; easiest check is re-execution, so verify just checks
    /// against the reference machine (done in tests).
    pub fn rounds(&self) -> usize {
        self.rounds
    }
}

impl PramProgram for PermutationTraffic {
    fn processors(&self) -> usize {
        self.perm.len()
    }
    fn address_space(&self) -> u64 {
        self.perm.len() as u64
    }
    fn initial_memory(&self) -> Vec<(u64, u64)> {
        (0..self.perm.len() as u64)
            .map(|i| (i, i * 10 + 1))
            .collect()
    }
    fn op(&mut self, proc: usize, step: usize, last_read: Option<u64>) -> MemOp {
        let (round, phase) = (step / 2, step % 2);
        if round >= self.rounds {
            return MemOp::Halt;
        }
        match phase {
            0 => MemOp::Read(self.perm[proc] as u64),
            _ => MemOp::Write(proc as u64, last_read.expect("perm read").wrapping_add(1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::PramMachine;
    use crate::model::{AccessMode, WritePolicy};
    use lnpram_math::rng::SeedSeq;

    fn run<P: PramProgram>(
        prog: &mut P,
        mode: AccessMode,
    ) -> (PramMachine, crate::machine::ExecReport) {
        let mut m = PramMachine::new(prog.address_space(), mode);
        let rep = m.run(prog, 100_000);
        (m, rep)
    }

    #[test]
    fn reduction_max_works_and_is_erew() {
        let mut rng = SeedSeq::new(1).rng();
        for k in [1usize, 2, 4, 6] {
            let values: Vec<u64> = (0..1 << k).map(|_| rng.gen_range(0..1000)).collect();
            let mut prog = ReductionMax::new(values);
            let expected = prog.expected();
            let (m, rep) = run(&mut prog, AccessMode::Erew);
            assert!(rep.violations.is_empty(), "k={k}: {:?}", rep.violations);
            assert_eq!(m.peek(0), expected, "k={k}");
            assert!(prog.verify(m.memory()));
            assert_eq!(rep.steps, 3 * k);
        }
    }

    #[test]
    fn prefix_sum_works_and_is_erew() {
        let mut rng = SeedSeq::new(2).rng();
        for n in [1usize, 2, 3, 7, 16, 33] {
            let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0..100)).collect();
            let mut prog = PrefixSum::new(values);
            let (m, rep) = run(&mut prog, AccessMode::Erew);
            assert!(rep.violations.is_empty(), "n={n}: {:?}", rep.violations);
            assert!(prog.verify(m.memory()), "n={n}");
        }
    }

    #[test]
    fn list_ranking_works_and_is_crew() {
        let mut rng = SeedSeq::new(3).rng();
        for n in [1usize, 2, 5, 16, 40] {
            // Random list: random order of nodes chained together.
            let mut order: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut order);
            let mut succ = vec![0usize; n];
            for w in order.windows(2) {
                succ[w[0]] = w[1];
            }
            let tail = *order.last().unwrap();
            succ[tail] = tail;
            let mut prog = ListRankingProgram::new(succ);
            let (m, rep) = run(&mut prog, AccessMode::Crew);
            assert!(rep.violations.is_empty(), "n={n}: {:?}", rep.violations);
            assert!(prog.verify(m.memory()), "n={n}");
        }
    }

    #[test]
    fn odd_even_sort_works_and_is_erew() {
        let mut rng = SeedSeq::new(4).rng();
        for n in [1usize, 2, 3, 8, 17, 32] {
            let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0..50)).collect();
            let mut prog = OddEvenSort::new(values);
            let (m, rep) = run(&mut prog, AccessMode::Erew);
            assert!(rep.violations.is_empty(), "n={n}: {:?}", rep.violations);
            assert!(prog.verify(m.memory()), "n={n}");
        }
    }

    #[test]
    fn histogram_needs_crcw_sum() {
        let mut rng = SeedSeq::new(5).rng();
        let inputs: Vec<u64> = (0..64).map(|_| rng.gen_range(0..8)).collect();
        let mut prog = Histogram::new(inputs.clone(), 8);
        let (m, rep) = run(&mut prog, AccessMode::Crcw(WritePolicy::Sum));
        assert!(rep.violations.is_empty());
        assert!(prog.verify(m.memory()));
        // Under CREW the same program is flagged.
        let mut prog2 = Histogram::new(inputs, 8);
        let (_m, rep) = run(&mut prog2, AccessMode::Crew);
        assert!(!rep.violations.is_empty());
    }

    #[test]
    fn broadcast_is_crew_hotspot() {
        let mut prog = Broadcast::new(32, 3, 99);
        let (m, rep) = run(&mut prog, AccessMode::Crew);
        assert!(rep.violations.is_empty());
        assert!(prog.verify(m.memory()));
        // EREW flags the hot spot.
        let mut prog2 = Broadcast::new(32, 1, 99);
        let (_m, rep) = run(&mut prog2, AccessMode::Erew);
        assert!(!rep.violations.is_empty());
    }

    #[test]
    fn matvec_works_and_is_crew() {
        let mut rng = SeedSeq::new(8).rng();
        for n in [1usize, 2, 5, 12] {
            let a: Vec<u64> = (0..n * n).map(|_| rng.gen_range(0..50)).collect();
            let x: Vec<u64> = (0..n).map(|_| rng.gen_range(0..50)).collect();
            let mut prog = MatVec::new(a.clone(), x.clone());
            let (m, rep) = run(&mut prog, AccessMode::Crew);
            assert!(rep.violations.is_empty(), "n={n}: {:?}", rep.violations);
            assert!(prog.verify(m.memory()), "n={n}");
            // EREW must flag the shared x reads for n >= 2.
            if n >= 2 {
                let mut prog2 = MatVec::new(a.clone(), x.clone());
                let (_m, rep) = run(&mut prog2, AccessMode::Erew);
                assert!(!rep.violations.is_empty());
            }
        }
    }

    #[test]
    fn connected_components_on_fixed_graphs() {
        // Two components {0,1,2,3} and {4,5}, plus isolated 6.
        let edges = vec![(0, 1), (1, 2), (2, 3), (4, 5)];
        let mut prog = ConnectedComponents::new(7, edges);
        assert_eq!(prog.expected(), vec![3, 3, 3, 3, 5, 5, 6]);
        let (m, rep) = run(&mut prog, AccessMode::Crcw(WritePolicy::Max));
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);
        assert!(prog.verify(m.memory()));
    }

    #[test]
    fn connected_components_path_graph_worst_case() {
        // A path needs the most rounds (propagation is distance-limited,
        // shortcutting compresses); V rounds must always converge.
        let n = 24usize;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let mut prog = ConnectedComponents::new(n, edges);
        let (m, rep) = run(&mut prog, AccessMode::Crcw(WritePolicy::Max));
        assert!(rep.violations.is_empty());
        assert!(prog.verify(m.memory()));
        assert!(m.memory()[..n].iter().all(|&l| l == (n - 1) as u64));
    }

    #[test]
    fn connected_components_shortcut_converges_fast() {
        // On a path of 32, pure propagation needs 31 rounds; with the
        // pointer-jumping shortcut ~2·log₂n rounds suffice.
        let n = 32usize;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let mut prog = ConnectedComponents::new(n, edges).with_rounds(12);
        let (m, rep) = run(&mut prog, AccessMode::Crcw(WritePolicy::Max));
        assert!(rep.violations.is_empty());
        assert!(prog.verify(m.memory()), "12 rounds should converge on P32");
    }

    #[test]
    fn connected_components_random_graphs() {
        let mut rng = SeedSeq::new(17).rng();
        for trial in 0..5u64 {
            let n = rng.gen_range(2..30usize);
            let m_edges = rng.gen_range(0..2 * n);
            let edges: Vec<(usize, usize)> = (0..m_edges)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            let mut prog = ConnectedComponents::new(n, edges);
            let (m, rep) = run(&mut prog, AccessMode::Crcw(WritePolicy::Max));
            assert!(rep.violations.is_empty(), "trial {trial}");
            assert!(prog.verify(m.memory()), "trial {trial}, n={n}");
        }
    }

    #[test]
    fn connected_components_needs_crcw() {
        // The same program under CREW must be flagged (concurrent writes).
        let edges = vec![(0, 1), (1, 2)];
        let mut prog = ConnectedComponents::new(3, edges);
        let (_m, rep) = run(&mut prog, AccessMode::Crew);
        assert!(!rep.violations.is_empty());
    }

    #[test]
    fn permutation_traffic_is_erew() {
        let mut rng = SeedSeq::new(6).rng();
        let mut perm: Vec<usize> = (0..64).collect();
        rng.shuffle(&mut perm);
        let mut prog = PermutationTraffic::new(perm, 4);
        let (_m, rep) = run(&mut prog, AccessMode::Erew);
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);
        assert_eq!(rep.steps, 8);
    }

    #[test]
    fn read_trace_is_deterministic() {
        let make = || {
            let values: Vec<u64> = (0..16).map(|i| (i * 7 + 3) % 32).collect();
            ReductionMax::new(values)
        };
        let (_, rep1) = run(&mut make(), AccessMode::Erew);
        let (_, rep2) = run(&mut make(), AccessMode::Erew);
        assert_eq!(rep1.read_trace, rep2.read_trace);
    }
}
