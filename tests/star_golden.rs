//! Behaviour pin for the star emulator: every simulated number of a
//! fixed set of runs, recorded before the star-graph kernel and the
//! combining tables were rewritten (ISSUE 13) and required unchanged
//! since. Host-side data structures may change; `EmuReport.steps` and
//! the final memory image may not.
//!
//! The golden lives in `tests/golden/star_emulation.txt`, one line per
//! run: a readable summary plus an FNV-1a digest over every `StepStats`
//! field of every PRAM step and every memory cell. On a mismatch the
//! test prints the lines it computed.

use lnpram::core::StepStats;
use lnpram::prelude::*;
use lnpram::routing::workloads;

const GOLDEN: &str = include_str!("golden/star_emulation.txt");

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(steps: &[StepStats], image: &[u64]) -> u64 {
    let mut h = Fnv::new();
    h.word(steps.len() as u64);
    for s in steps {
        for f in [
            s.request_steps,
            s.reply_steps,
            s.service_steps,
            s.requests,
            s.combined,
            s.max_queue,
            s.rehashes,
        ] {
            h.word(u64::from(f));
        }
    }
    h.word(image.len() as u64);
    for &cell in image {
        h.word(cell);
    }
    h.0
}

fn run<P: PramProgram>(
    n: usize,
    name: &str,
    mode: AccessMode,
    make: impl Fn() -> P,
    combining: bool,
) -> String {
    let mut prog = make();
    let space = prog.address_space();
    let cfg = EmulatorConfig {
        combining,
        seed: 13,
        ..EmulatorConfig::default()
    };
    let mut emu = StarPramEmulator::new(n, mode, space, cfg);
    let rep = emu.run_program(&mut prog, 200_000);
    let image = emu.memory_image(space);
    let mut oracle = PramMachine::new(space, mode);
    oracle.run(&mut make(), 200_000);
    assert_eq!(image, oracle.memory(), "{name} on the {n}-star");
    format!(
        "n={n} prog={name} combining={} pram_steps={} net_steps={} combined={} \
         max_queue={} rehashes={} digest={:016x}",
        u8::from(combining),
        rep.pram_steps,
        rep.network_steps(),
        rep.total_combined(),
        rep.steps.iter().map(|s| s.max_queue).max().unwrap_or(0),
        rep.rehashes,
        digest(&rep.steps, &image),
    )
}

/// Random graph with `v` vertices and `v` edges: `2E + V` processors.
fn random_edges(v: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut state = seed;
    (0..v)
        .map(|_| {
            let a = (lnpram::math::rng::splitmix64(&mut state) as usize) % v;
            let b = (lnpram::math::rng::splitmix64(&mut state) as usize) % v;
            (a, b)
        })
        .collect()
}

fn all_runs() -> Vec<String> {
    let mut lines = Vec::new();
    for n in [4usize, 5] {
        let p: usize = (1..=n).product();
        for combining in [true, false] {
            let perm = workloads::random_permutation(p, &mut SeedSeq::new(n as u64).rng());
            lines.push(run(
                n,
                "erew_permutation",
                AccessMode::Erew,
                || PermutationTraffic::new(perm.clone(), 3),
                combining,
            ));
            lines.push(run(
                n,
                "crew_broadcast",
                AccessMode::Crew,
                || Broadcast::new(p, 2, 31),
                combining,
            ));
            let v = p / 3;
            lines.push(run(
                n,
                "crcw_max_components",
                AccessMode::Crcw(WritePolicy::Max),
                || ConnectedComponents::new(v, random_edges(v, 0xC0FFEE + n as u64)),
                combining,
            ));
            lines.push(run(
                n,
                "crcw_sum_histogram",
                AccessMode::Crcw(WritePolicy::Sum),
                || Histogram::new((0..p as u64).map(|i| (i * 7 + 1) % 5).collect(), 5),
                combining,
            ));
        }
    }
    lines
}

#[test]
fn star_emulation_matches_golden() {
    let actual = all_runs();
    let golden: Vec<&str> = GOLDEN.lines().filter(|l| !l.starts_with('#')).collect();
    assert!(
        actual.iter().map(String::as_str).eq(golden.iter().copied()),
        "star emulation drifted from tests/golden/star_emulation.txt; computed:\n{}",
        actual.join("\n")
    );
}
