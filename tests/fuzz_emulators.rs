//! Differential fuzzing of the emulators against the reference PRAM.
//!
//! `FuzzProgram` drives every processor with a seed-derived stream of
//! random reads and writes (CRCW-legal by construction). Each processor
//! folds every value it reads into an accumulator that it keeps writing
//! back, so a single wrong read value — a mis-routed reply, a wrong
//! combining fan-out, a stale pre-write value — cascades into the final
//! memory image and fails the diff. This catches whole classes of
//! emulator bugs the structured program library can miss.

use lnpram::core::{EmuHost, PramEmulator};
use lnpram::prelude::*;
use lnpram_math::rng::splitmix64;

/// Deterministic random op stream; the schedule depends only on
/// `(seed, proc, step)`, the written *values* additionally on the reads.
struct FuzzProgram {
    seed: u64,
    procs: usize,
    space: u64,
    steps: usize,
    acc: Vec<u64>,
}

impl FuzzProgram {
    fn new(seed: u64, procs: usize, space: u64, steps: usize) -> Self {
        FuzzProgram {
            seed,
            procs,
            space,
            steps,
            acc: (0..procs as u64).map(|p| p * 0x9E37 + 1).collect(),
        }
    }

    fn roll(&self, proc: usize, step: usize) -> u64 {
        let mut s = self.seed ^ (proc as u64) << 32 ^ step as u64;
        splitmix64(&mut s)
    }
}

impl PramProgram for FuzzProgram {
    fn processors(&self) -> usize {
        self.procs
    }
    fn address_space(&self) -> u64 {
        self.space
    }
    fn initial_memory(&self) -> Vec<(u64, u64)> {
        (0..self.space)
            .map(|a| (a, a.wrapping_mul(31) + 7))
            .collect()
    }
    fn op(&mut self, proc: usize, step: usize, last_read: Option<u64>) -> MemOp {
        if let Some(v) = last_read {
            // Mix the read into this processor's state: wrong reads now
            // poison every subsequent write by this processor.
            self.acc[proc] = self.acc[proc].rotate_left(7) ^ v;
        }
        if step >= self.steps {
            return MemOp::Halt;
        }
        let r = self.roll(proc, step);
        let addr = r >> 8 & 0xFFFF_FFFF;
        let addr = addr % self.space;
        match r % 4 {
            0 | 1 => MemOp::Read(addr),
            2 => MemOp::Write(addr, self.acc[proc]),
            _ => MemOp::None,
        }
    }
}

fn oracle_image(seed: u64, procs: usize, space: u64, steps: usize, mode: AccessMode) -> Vec<u64> {
    let mut prog = FuzzProgram::new(seed, procs, space, steps);
    let mut m = PramMachine::new(space, mode);
    m.run(&mut prog, steps + 2);
    m.memory().to_vec()
}

#[test]
fn fuzz_leveled_emulator_butterfly() {
    let mode = AccessMode::Crcw(WritePolicy::Priority);
    for seed in 0..8u64 {
        let (procs, space, steps) = (32usize, 64u64, 12usize);
        let reference = oracle_image(seed, procs, space, steps, mode);
        let mut prog = FuzzProgram::new(seed, procs, space, steps);
        let mut emu = LeveledPramEmulator::new(
            RadixButterfly::new(2, 5),
            mode,
            space,
            EmulatorConfig {
                seed,
                ..Default::default()
            },
        );
        emu.run_program(&mut prog, steps + 2);
        assert_eq!(emu.memory_image(space), reference, "seed {seed}");
    }
}

#[test]
fn fuzz_leveled_emulator_shuffle_sum_policy() {
    let mode = AccessMode::Crcw(WritePolicy::Sum);
    for seed in 100..106u64 {
        let (procs, space, steps) = (27usize, 48u64, 10usize);
        let reference = oracle_image(seed, procs, space, steps, mode);
        let mut prog = FuzzProgram::new(seed, procs, space, steps);
        let mut emu = LeveledPramEmulator::new(
            UnrolledShuffle::n_way(3),
            mode,
            space,
            EmulatorConfig {
                seed,
                ..Default::default()
            },
        );
        emu.run_program(&mut prog, steps + 2);
        assert_eq!(emu.memory_image(space), reference, "seed {seed}");
    }
}

#[test]
fn fuzz_star_emulator() {
    let mode = AccessMode::Crcw(WritePolicy::Max);
    for seed in 200..206u64 {
        let (procs, space, steps) = (24usize, 40u64, 10usize);
        let reference = oracle_image(seed, procs, space, steps, mode);
        let mut prog = FuzzProgram::new(seed, procs, space, steps);
        let mut emu = StarPramEmulator::new(
            4,
            mode,
            space,
            EmulatorConfig {
                seed,
                ..Default::default()
            },
        );
        emu.run_program(&mut prog, steps + 2);
        assert_eq!(emu.memory_image(space), reference, "seed {seed}");
    }
}

#[test]
fn fuzz_star_emulator_combining_off() {
    // The non-combining path has its own trail bookkeeping — fuzz it too.
    let mode = AccessMode::Crcw(WritePolicy::Arbitrary);
    for seed in 300..305u64 {
        let (procs, space, steps) = (24usize, 32u64, 8usize);
        let reference = oracle_image(seed, procs, space, steps, mode);
        let mut prog = FuzzProgram::new(seed, procs, space, steps);
        let mut emu = StarPramEmulator::new(
            4,
            mode,
            space,
            EmulatorConfig {
                seed,
                combining: false,
                ..Default::default()
            },
        );
        emu.run_program(&mut prog, steps + 2);
        assert_eq!(emu.memory_image(space), reference, "seed {seed}");
    }
}

#[test]
fn fuzz_mesh_emulator() {
    let mode = AccessMode::Crcw(WritePolicy::Priority);
    for seed in 400..406u64 {
        let (procs, space, steps) = (25usize, 50u64, 10usize);
        let reference = oracle_image(seed, procs, space, steps, mode);
        let mut prog = FuzzProgram::new(seed, procs, space, steps);
        let mut emu = MeshPramEmulator::new(
            5,
            mode,
            space,
            EmulatorConfig {
                seed,
                ..Default::default()
            },
        );
        emu.run_program(&mut prog, steps + 2);
        assert_eq!(emu.memory_image(space), reference, "seed {seed}");
    }
}

#[test]
fn fuzz_mesh_emulator_const_queue() {
    // The constant-queue routing variant (Theorem 3.2's O(1)-queue
    // refinement) changes both routing phases — fuzz it like the plain
    // variant.
    let mode = AccessMode::Crcw(WritePolicy::Max);
    for seed in 600..605u64 {
        let (procs, space, steps) = (25usize, 40u64, 10usize);
        let reference = oracle_image(seed, procs, space, steps, mode);
        let mut prog = FuzzProgram::new(seed, procs, space, steps);
        let mut emu = MeshPramEmulator::new(
            5,
            mode,
            space,
            EmulatorConfig {
                seed,
                ..Default::default()
            },
        )
        .with_const_queue();
        emu.run_program(&mut prog, steps + 2);
        assert_eq!(emu.memory_image(space), reference, "seed {seed}");
    }
}

/// Run the fuzz program for `seed` on the emulator `build` returns,
/// replicated at R = 1, 3, 5, against the reference image.
fn fuzz_replicated<H: EmuHost>(
    host: &str,
    procs: usize,
    seeds: std::ops::Range<u64>,
    build: impl Fn(u64, EmulatorConfig) -> PramEmulator<H>,
) {
    let mode = AccessMode::Crcw(WritePolicy::Priority);
    let (space, steps) = (48u64, 10usize);
    for seed in seeds {
        let reference = oracle_image(seed, procs, space, steps, mode);
        for copies in [1usize, 3, 5] {
            let mut prog = FuzzProgram::new(seed, procs, space, steps);
            let cfg = EmulatorConfig {
                seed,
                ..Default::default()
            };
            let mut emu = build(space, cfg)
                .with_copies(copies)
                .expect("an odd copy count up to 7");
            emu.run_program(&mut prog, steps + 2);
            assert_eq!(
                emu.memory_image(space),
                reference,
                "{host}: seed {seed} copies {copies}"
            );
        }
    }
}

#[test]
fn fuzz_replicated_emulator() {
    // Replication has its own quorum and version machinery — a stale
    // copy winning anywhere, on any host, shows up here.
    let mode = AccessMode::Crcw(WritePolicy::Priority);
    fuzz_replicated("butterfly(2,5)", 32, 700..705, |space, cfg| {
        LeveledPramEmulator::new(RadixButterfly::new(2, 5), mode, space, cfg)
    });
    fuzz_replicated("star(4)", 24, 710..715, |space, cfg| {
        StarPramEmulator::new(4, mode, space, cfg)
    });
    fuzz_replicated("mesh(5)", 25, 720..725, |space, cfg| {
        MeshPramEmulator::new(5, mode, space, cfg)
    });
}

#[test]
fn fuzz_under_tight_budget_with_rehashes() {
    // Rehashing mid-program must not corrupt memory: force rehashes with a
    // minimal budget and still require bit-exact equivalence, on a leveled
    // host and on the star. Every rehash draws a fresh hash function and
    // remaps every stored cell and pending request, so a stale module
    // anywhere (the remap, or `h(a)` remembered across the draw) shows up
    // as a wrong image.
    let mode = AccessMode::Crcw(WritePolicy::Sum);
    let cfg = |seed| EmulatorConfig {
        seed,
        budget_factor: 1,
        max_rehashes: 16,
        ..Default::default()
    };
    for seed in 500..504u64 {
        let (procs, space, steps) = (16usize, 32u64, 8usize);
        let reference = oracle_image(seed, procs, space, steps, mode);
        let mut prog = FuzzProgram::new(seed, procs, space, steps);
        let mut emu = LeveledPramEmulator::new(RadixButterfly::new(2, 4), mode, space, cfg(seed));
        let report = emu.run_program(&mut prog, steps + 2);
        assert_eq!(emu.memory_image(space), reference, "butterfly, seed {seed}");
        assert!(report.rehashes > 0, "butterfly, seed {seed}: no rehash");
    }
    // Writes merge on the star and ride the phase-2 tree from their
    // source, so its overruns come from reads: with more cells than
    // processors few reads combine, and over 32 steps enough request
    // phases run at the tight budget that every seed overruns (each
    // rehashed 3 to 8 times when the shape was set).
    for seed in 510..514u64 {
        let (procs, space, steps) = (24usize, 96u64, 32usize);
        let reference = oracle_image(seed, procs, space, steps, mode);
        let mut prog = FuzzProgram::new(seed, procs, space, steps);
        let mut emu = StarPramEmulator::new(4, mode, space, cfg(seed));
        let report = emu.run_program(&mut prog, steps + 2);
        assert_eq!(emu.memory_image(space), reference, "star, seed {seed}");
        assert!(report.rehashes > 0, "star, seed {seed}: no rehash");
    }
}
