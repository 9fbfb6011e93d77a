//! Behaviour pin for the emulators `tests/star_golden.rs` does not
//! cover: the leveled host (butterfly and n-way shuffle), the mesh host
//! in its three configurations, and deterministic replication on the
//! butterfly, star and mesh hosts — plus one tight-budget run per hashed
//! host (star included), so the overrun → rehash → remap-charge path is
//! pinned too.
//!
//! The hashed lines were recorded before the three hashed emulators
//! were folded into one shell and are required unchanged since; the
//! replicated lines (host names ending `xR`, R copies per cell) were
//! re-recorded when replication became an address map of that shell.
//! The golden lives in
//! `tests/golden/emulation.txt`, one line per run: a readable summary
//! plus an FNV-1a digest over every `StepStats` field of every PRAM
//! step, the remap charge and every memory cell. On a mismatch the test
//! prints the lines it computed.

use lnpram::core::StepStats;
use lnpram::prelude::*;
use lnpram::routing::workloads;

const GOLDEN: &str = include_str!("golden/emulation.txt");

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

fn digest(steps: &[StepStats], remap_steps: u64, image: &[u64]) -> u64 {
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
    h.word(remap_steps);
    h.word(image.len() as u64);
    for &cell in image {
        h.word(cell);
    }
    h.0
}

/// The two calls the golden makes on every emulator. The emulators are
/// (and were, when the golden was recorded) distinct types with these
/// as inherent methods.
trait Emu {
    fn run<P: PramProgram>(&mut self, prog: &mut P) -> EmuReport;
    fn image(&self, space: u64) -> Vec<u64>;
}

macro_rules! impl_emu {
    ($($t:ty),* $(,)?) => {$(
        impl Emu for $t {
            fn run<P: PramProgram>(&mut self, prog: &mut P) -> EmuReport {
                self.run_program(prog, 200_000)
            }
            fn image(&self, space: u64) -> Vec<u64> {
                self.memory_image(space)
            }
        }
    )*};
}

impl_emu!(
    LeveledPramEmulator<RadixButterfly>,
    LeveledPramEmulator<UnrolledShuffle>,
    StarPramEmulator,
    MeshPramEmulator,
);

/// Run `make()` on the emulator `build` returns, check the image against
/// the reference machine, and format the golden line.
fn run<E: Emu, P: PramProgram>(
    host: &str,
    name: &str,
    mode: AccessMode,
    cfg: &EmulatorConfig,
    build: &impl Fn(AccessMode, u64, EmulatorConfig) -> E,
    make: impl Fn() -> P,
) -> String {
    let mut prog = make();
    let space = prog.address_space();
    let mut emu = build(mode, space, cfg.clone());
    let rep = emu.run(&mut prog);
    let image = emu.image(space);
    let mut oracle = PramMachine::new(space, mode);
    oracle.run(&mut make(), 200_000);
    assert_eq!(image, oracle.memory(), "{name} on {host}");
    format!(
        "host={host} prog={name} combining={} budget={} pram_steps={} net_steps={} \
         combined={} max_queue={} rehashes={} remap_steps={} digest={:016x}",
        u8::from(cfg.combining),
        cfg.budget_factor,
        rep.pram_steps,
        rep.network_steps(),
        rep.total_combined(),
        rep.steps.iter().map(|s| s.max_queue).max().unwrap_or(0),
        rep.rehashes,
        rep.remap_steps,
        digest(&rep.steps, rep.remap_steps, &image),
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

/// The four programs of the star golden, sized for `p` processors.
fn four_programs<E: Emu>(
    lines: &mut Vec<String>,
    host: &str,
    p: usize,
    cfg: &EmulatorConfig,
    build: &impl Fn(AccessMode, u64, EmulatorConfig) -> E,
) {
    let perm = workloads::random_permutation(p, &mut SeedSeq::new(p as u64).rng());
    lines.push(run(
        host,
        "erew_permutation",
        AccessMode::Erew,
        cfg,
        build,
        || PermutationTraffic::new(perm.clone(), 3),
    ));
    lines.push(run(
        host,
        "crew_broadcast",
        AccessMode::Crew,
        cfg,
        build,
        || Broadcast::new(p, 2, 31),
    ));
    let v = p / 3;
    lines.push(run(
        host,
        "crcw_max_components",
        AccessMode::Crcw(WritePolicy::Max),
        cfg,
        build,
        || ConnectedComponents::new(v, random_edges(v, 0xC0FFEE + p as u64)),
    ));
    lines.push(run(
        host,
        "crcw_sum_histogram",
        AccessMode::Crcw(WritePolicy::Sum),
        cfg,
        build,
        || Histogram::new((0..p as u64).map(|i| (i * 7 + 1) % 5).collect(), 5),
    ));
}

fn cfg(combining: bool) -> EmulatorConfig {
    EmulatorConfig {
        combining,
        seed: 13,
        ..EmulatorConfig::default()
    }
}

/// `budget_factor: 1` — the request phase overruns its first budget, so
/// the step rehashes, pays the remap charge and retries.
fn tight() -> EmulatorConfig {
    EmulatorConfig {
        budget_factor: 1,
        max_rehashes: 12,
        ..cfg(true)
    }
}

fn all_runs() -> Vec<String> {
    let mut lines = Vec::new();
    let butterfly = RadixButterfly::new(2, 5);
    let shuffle = UnrolledShuffle::n_way(3);
    for combining in [true, false] {
        let c = cfg(combining);
        four_programs(&mut lines, "butterfly(2,5)", 32, &c, &|m, s, c| {
            LeveledPramEmulator::new(butterfly, m, s, c)
        });
        four_programs(&mut lines, "shuffle(3)", 27, &c, &|m, s, c| {
            LeveledPramEmulator::new(shuffle, m, s, c)
        });
    }
    // The mesh host never combines: that axis stays at its default.
    let c = cfg(true);
    four_programs(&mut lines, "mesh(6)", 36, &c, &|m, s, c| {
        MeshPramEmulator::new(6, m, s, c)
    });
    // Direct map: the address space must fit the 36 nodes.
    four_programs(&mut lines, "mesh(6,local=2)", 30, &c, &|m, s, c| {
        MeshPramEmulator::new_local(6, m, s, 2, c).expect("30 cells fit the 6×6 mesh")
    });
    four_programs(&mut lines, "mesh(6,const-queue)", 36, &c, &|m, s, c| {
        MeshPramEmulator::new(6, m, s, c).with_const_queue()
    });
    // Replication is a placement: it runs on every host.
    for copies in [1usize, 3] {
        let host = format!("butterfly(2,5)x{copies}");
        four_programs(&mut lines, &host, 32, &c, &|m, s, c| {
            LeveledPramEmulator::new(butterfly, m, s, c)
                .with_copies(copies)
                .expect("an odd copy count up to 7")
        });
    }
    four_programs(&mut lines, "star(4)x3", 24, &c, &|m, s, c| {
        StarPramEmulator::new(4, m, s, c)
            .with_copies(3)
            .expect("an odd copy count up to 7")
    });
    four_programs(&mut lines, "mesh(6)x3", 36, &c, &|m, s, c| {
        MeshPramEmulator::new(6, m, s, c)
            .with_copies(3)
            .expect("an odd copy count up to 7")
    });
    let before = lines.len();
    four_programs(&mut lines, "butterfly(2,5)", 32, &tight(), &|m, s, c| {
        LeveledPramEmulator::new(butterfly, m, s, c)
    });
    four_programs(&mut lines, "star(4)", 24, &tight(), &|m, s, c| {
        StarPramEmulator::new(4, m, s, c)
    });
    four_programs(&mut lines, "mesh(8)", 64, &tight(), &|m, s, c| {
        MeshPramEmulator::new(8, m, s, c)
    });
    // Direct map: an overrun charges the broadcast and remaps nothing.
    four_programs(&mut lines, "mesh(10,local=2)", 94, &tight(), &|m, s, c| {
        MeshPramEmulator::new_local(10, m, s, 2, c).expect("94 cells fit the 10×10 mesh")
    });
    for (host, runs) in ["butterfly", "star", "mesh(8)", "mesh(10,local"]
        .iter()
        .zip(lines[before..].chunks(4))
    {
        assert!(
            runs.iter()
                .any(|l| l.starts_with(&format!("host={host}")) && !l.contains(" rehashes=0 ")),
            "no tight-budget run on {host} rehashed:\n{}",
            runs.join("\n")
        );
    }
    lines
}

#[test]
fn emulation_matches_golden() {
    let actual = all_runs();
    let golden: Vec<&str> = GOLDEN.lines().filter(|l| !l.starts_with('#')).collect();
    assert!(
        actual.iter().map(String::as_str).eq(golden.iter().copied()),
        "emulation drifted from tests/golden/emulation.txt; computed:\n{}",
        actual.join("\n")
    );
}
