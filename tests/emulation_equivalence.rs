//! Integration contract: every emulator × every program × its access mode
//! produces a final memory image bit-identical to the reference PRAM.
//!
//! This is the repository's central correctness claim — the emulation
//! theorems are about *time*; these tests pin down that the emulation is
//! actually an emulation.

use lnpram::core::{EmuHost, PramEmulator};
use lnpram::prelude::*;
use lnpram::routing::workloads;

/// Run one program twice — through an emulator-backed executor via `run`,
/// and directly on the reference machine — then diff memories.
fn oracle_image<P: PramProgram>(mut prog: P, mode: AccessMode) -> Vec<u64> {
    let space = prog.address_space();
    let mut m = PramMachine::new(space, mode);
    let rep = m.run(&mut prog, 200_000);
    assert!(
        rep.violations.is_empty(),
        "oracle flagged violations: {:?}",
        rep.violations
    );
    m.memory().to_vec()
}

fn scrambled_list(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SeedSeq::new(seed).rng();
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let mut succ = vec![0usize; n];
    for w in order.windows(2) {
        succ[w[0]] = w[1];
    }
    let tail = *order.last().expect("a list has at least one node");
    succ[tail] = tail;
    succ
}

macro_rules! check_on_leveled {
    ($make:expr, $mode:expr, $net:expr) => {{
        let mode = $mode;
        let mut prog = $make;
        let space = prog.address_space();
        let mut emu = LeveledPramEmulator::new($net, mode, space, EmulatorConfig::default());
        emu.run_program(&mut prog, 200_000);
        assert_eq!(
            emu.memory_image(space),
            oracle_image($make, mode),
            "leveled emulator diverged"
        );
    }};
}

#[test]
fn butterfly_runs_whole_program_library() {
    let net = RadixButterfly::new(2, 5); // 32 processors
    check_on_leveled!(
        ReductionMax::new((0..32).map(|i| (i * 7 + 3) % 101).collect()),
        AccessMode::Erew,
        net
    );
    check_on_leveled!(PrefixSum::new((1..=32).collect()), AccessMode::Erew, net);
    check_on_leveled!(
        OddEvenSort::new((0..32).map(|i| (i * 29 + 11) % 64).collect()),
        AccessMode::Erew,
        net
    );
    check_on_leveled!(
        ListRankingProgram::new(scrambled_list(32, 4)),
        AccessMode::Crew,
        net
    );
    check_on_leveled!(
        Histogram::new((0..32).map(|i| i % 6).collect(), 6),
        AccessMode::Crcw(WritePolicy::Sum),
        net
    );
    check_on_leveled!(Broadcast::new(32, 3, 0xDEAD), AccessMode::Crew, net);
    check_on_leveled!(
        MatVec::new(
            (0..32 * 32).map(|i| (i as u64 * 13 + 7) % 30).collect(),
            (0..32u64).map(|j| j % 9 + 1).collect(),
        ),
        AccessMode::Crew,
        net
    );
}

#[test]
fn nway_shuffle_runs_whole_program_library() {
    // Corollary 2.4/2.6 host: the 3-way shuffle, 27 processors.
    let net = UnrolledShuffle::n_way(3);
    check_on_leveled!(PrefixSum::new((1..=27).collect()), AccessMode::Erew, net);
    check_on_leveled!(
        OddEvenSort::new((0..27).map(|i| (i * 17 + 5) % 40).collect()),
        AccessMode::Erew,
        net
    );
    check_on_leveled!(
        ListRankingProgram::new(scrambled_list(27, 9)),
        AccessMode::Crew,
        net
    );
    check_on_leveled!(Broadcast::new(27, 2, 7), AccessMode::Crew, net);
}

#[test]
fn star_emulator_matches_oracle_on_programs() {
    for mode_prog in 0..4 {
        let space;
        let mode;
        let (emu_img, ref_img): (Vec<u64>, Vec<u64>) = match mode_prog {
            0 => {
                let make = || PrefixSum::new((1..=24).collect());
                mode = AccessMode::Erew;
                space = make().address_space();
                let mut emu = StarPramEmulator::new(4, mode, space, EmulatorConfig::default());
                let mut p = make();
                emu.run_program(&mut p, 200_000);
                (emu.memory_image(space), oracle_image(make(), mode))
            }
            1 => {
                let make = || ListRankingProgram::new(scrambled_list(24, 2));
                mode = AccessMode::Crew;
                space = make().address_space();
                let mut emu = StarPramEmulator::new(4, mode, space, EmulatorConfig::default());
                let mut p = make();
                emu.run_program(&mut p, 200_000);
                (emu.memory_image(space), oracle_image(make(), mode))
            }
            2 => {
                let make = || Histogram::new((0..24).map(|i| i % 7).collect(), 7);
                mode = AccessMode::Crcw(WritePolicy::Max);
                space = make().address_space();
                let mut emu = StarPramEmulator::new(4, mode, space, EmulatorConfig::default());
                let mut p = make();
                emu.run_program(&mut p, 200_000);
                (emu.memory_image(space), oracle_image(make(), mode))
            }
            _ => {
                let make = || Broadcast::new(24, 2, 555);
                mode = AccessMode::Crcw(WritePolicy::Priority);
                space = make().address_space();
                let mut emu = StarPramEmulator::new(4, mode, space, EmulatorConfig::default());
                let mut p = make();
                emu.run_program(&mut p, 200_000);
                (emu.memory_image(space), oracle_image(make(), mode))
            }
        };
        assert_eq!(
            emu_img, ref_img,
            "star emulator diverged (case {mode_prog})"
        );
    }
}

#[test]
fn mesh_emulator_matches_oracle_on_programs() {
    // 5x5 mesh, 25 processors.
    {
        let make = || PrefixSum::new((1..=25).collect());
        let mode = AccessMode::Erew;
        let space = make().address_space();
        let mut emu = MeshPramEmulator::new(5, mode, space, EmulatorConfig::default());
        let mut p = make();
        emu.run_program(&mut p, 200_000);
        assert_eq!(emu.memory_image(space), oracle_image(make(), mode));
    }
    {
        let make = || ListRankingProgram::new(scrambled_list(25, 6));
        let mode = AccessMode::Crew;
        let space = make().address_space();
        let mut emu = MeshPramEmulator::new(5, mode, space, EmulatorConfig::default());
        let mut p = make();
        emu.run_program(&mut p, 200_000);
        assert_eq!(emu.memory_image(space), oracle_image(make(), mode));
    }
    {
        let make = || Histogram::new((0..25).map(|i| i % 4).collect(), 4);
        let mode = AccessMode::Crcw(WritePolicy::Sum);
        let space = make().address_space();
        let mut emu = MeshPramEmulator::new(5, mode, space, EmulatorConfig::default());
        let mut p = make();
        emu.run_program(&mut p, 200_000);
        assert_eq!(emu.memory_image(space), oracle_image(make(), mode));
    }
}

#[test]
fn connected_components_across_emulators() {
    // The CRCW-Max flagship: two components plus an isolated vertex, run
    // on butterfly, star and mesh emulators against the oracle.
    let edges = vec![(0, 1), (1, 2), (2, 3), (5, 6), (6, 7), (4, 7)];
    let vertices = 9usize;
    let make = || ConnectedComponents::new(vertices, edges.clone()).with_rounds(vertices);
    let mode = AccessMode::Crcw(WritePolicy::Max);
    let space = make().address_space();
    let reference = oracle_image(make(), mode);
    assert!(make().verify(&reference), "oracle must solve CC");

    // 2·6 + 9 = 21 processors; butterfly(2,5) has 32, star(4) has 24,
    // mesh 5×5 has 25.
    let mut emu = LeveledPramEmulator::new(
        RadixButterfly::new(2, 5),
        mode,
        space,
        EmulatorConfig::default(),
    );
    emu.run_program(&mut make(), 10_000);
    assert_eq!(emu.memory_image(space), reference, "butterfly CC");

    let mut emu = StarPramEmulator::new(4, mode, space, EmulatorConfig::default());
    emu.run_program(&mut make(), 10_000);
    assert_eq!(emu.memory_image(space), reference, "star CC");

    let mut emu = MeshPramEmulator::new(5, mode, space, EmulatorConfig::default());
    emu.run_program(&mut make(), 10_000);
    assert_eq!(emu.memory_image(space), reference, "mesh CC");

    let emu = LeveledPramEmulator::new(
        RadixButterfly::new(2, 5),
        mode,
        space,
        EmulatorConfig::default(),
    );
    let mut emu = emu.with_copies(3).expect("an odd copy count up to 7");
    emu.run_program(&mut make(), 10_000);
    assert_eq!(emu.memory_image(space), reference, "replicated CC");
}

/// Prefix sum and list ranking over `procs` processors on the emulators
/// `build` returns, replicated at R = 1 and 3, against the oracle.
fn check_replicated<H: EmuHost>(
    host: &str,
    procs: usize,
    build: impl Fn(AccessMode, u64) -> PramEmulator<H>,
) {
    fn image<H: EmuHost>(
        emu: PramEmulator<H>,
        copies: usize,
        mut prog: impl PramProgram,
    ) -> Vec<u64> {
        let mut emu = emu.with_copies(copies).expect("an odd copy count up to 7");
        emu.run_program(&mut prog, 200_000);
        emu.memory_image(prog.address_space())
    }
    for copies in [1usize, 3] {
        let make = || PrefixSum::new((1..=procs as u64).collect());
        let (mode, space) = (AccessMode::Erew, make().address_space());
        assert_eq!(
            image(build(mode, space), copies, make()),
            oracle_image(make(), mode),
            "{host} R={copies} diverged on prefix sum"
        );
        let make = || ListRankingProgram::new(scrambled_list(procs, 13));
        let (mode, space) = (AccessMode::Crew, make().address_space());
        assert_eq!(
            image(build(mode, space), copies, make()),
            oracle_image(make(), mode),
            "{host} R={copies} diverged on list ranking"
        );
    }
}

#[test]
fn replicated_baseline_matches_oracle_on_programs() {
    // The deterministic [3]-style baseline must still be an exact
    // emulation on every host — its cost differs, not its semantics.
    let cfg = EmulatorConfig::default;
    check_replicated("butterfly(2,5)", 32, |mode, space| {
        LeveledPramEmulator::new(RadixButterfly::new(2, 5), mode, space, cfg())
    });
    check_replicated("star(4)", 24, |mode, space| {
        StarPramEmulator::new(4, mode, space, cfg())
    });
    check_replicated("mesh(5)", 25, |mode, space| {
        MeshPramEmulator::new(5, mode, space, cfg())
    });
}

#[test]
fn all_write_policies_agree_across_emulators() {
    // Same concurrent-write program under every policy: the butterfly,
    // star, mesh emulators and the oracle must agree exactly.
    for policy in [
        WritePolicy::Arbitrary,
        WritePolicy::Priority,
        WritePolicy::Max,
        WritePolicy::Sum,
    ] {
        let mode = AccessMode::Crcw(policy);
        let make = || Histogram::new((0..16).map(|i| (i * i) as u64 % 3).collect(), 3);
        let space = make().address_space();
        let reference = oracle_image(make(), mode);

        let mut emu = LeveledPramEmulator::new(
            RadixButterfly::new(2, 4),
            mode,
            space,
            EmulatorConfig::default(),
        );
        emu.run_program(&mut make(), 10_000);
        assert_eq!(emu.memory_image(space), reference, "butterfly {policy:?}");

        let mut emu = StarPramEmulator::new(4, mode, space, EmulatorConfig::default());
        emu.run_program(&mut make(), 10_000);
        assert_eq!(emu.memory_image(space), reference, "star {policy:?}");

        let mut emu = MeshPramEmulator::new(4, mode, space, EmulatorConfig::default());
        emu.run_program(&mut make(), 10_000);
        assert_eq!(emu.memory_image(space), reference, "mesh {policy:?}");
    }
}

#[test]
fn random_permutation_traffic_equivalence_many_seeds() {
    for seed in 0..5u64 {
        let mut rng = SeedSeq::new(seed).rng();
        let perm = workloads::random_permutation(32, &mut rng);
        let make = || PermutationTraffic::new(perm.clone(), 3);
        let mode = AccessMode::Erew;
        let space = make().address_space();
        let reference = oracle_image(make(), mode);

        let mut emu = LeveledPramEmulator::new(
            RadixButterfly::new(2, 5),
            mode,
            space,
            EmulatorConfig {
                seed,
                ..Default::default()
            },
        );
        emu.run_program(&mut make(), 10_000);
        assert_eq!(emu.memory_image(space), reference, "seed {seed}");
    }
}
