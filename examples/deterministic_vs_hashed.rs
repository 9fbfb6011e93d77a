//! Randomized hashing vs deterministic replication, head to head.
//!
//! The paper's scheme stores each shared cell once, at a *randomly
//! hashed* module, and re-hashes if routing ever times out. The
//! pre-existing deterministic alternative (reference \[3\], Alt–Hagerup–
//! Mehlhorn–Preparata) stores `2c − 1` fixed copies and reads/writes
//! quorums of `c`. Replication is only a different address map of the
//! same emulator (`with_copies`), so this example runs the same program
//! through both on a leveled host and on the 5-star, the
//! sub-logarithmic-diameter host the paper's argument is about, and
//! prints what the determinism costs.
//!
//! ```sh
//! cargo run --example deterministic_vs_hashed
//! ```

use lnpram::core::{EmuHost, PramEmulator};
use lnpram::prelude::*;
use lnpram::topology::leveled::Leveled;

/// One host's block: hashed, then replicated at R = 1, 3, 5, each on a
/// fresh emulator from `build` running `rounds` rounds of the
/// permutation `perm`; every memory image is checked against the
/// reference PRAM.
fn compare<H: EmuHost>(
    host: &str,
    perm: &[usize],
    rounds: usize,
    build: impl Fn(u64) -> PramEmulator<H>,
) {
    let make = || PermutationTraffic::new(perm.to_vec(), rounds);
    let space = make().address_space();
    let oracle = {
        let mut m = PramMachine::new(space, AccessMode::Erew);
        m.run(&mut make(), 10_000);
        m.memory().to_vec()
    };
    println!("host: {host}, workload: {rounds} rounds of permutation traffic");
    println!(
        "{:<24} {:>12} {:>16} {:>10}",
        "scheme", "pkts/access", "steps/PRAM step", "rehashes"
    );
    for copies in [None, Some(1), Some(3), Some(5)] {
        let mut emu = build(space);
        if let Some(r) = copies {
            emu = emu
                .with_copies(r)
                .expect("1, 3 and 5 are valid copy counts");
        }
        let report = emu.run_program(&mut make(), 10_000);
        // Semantics must be identical regardless of the memory organisation.
        assert_eq!(emu.memory_image(space), oracle, "{host} {copies:?}");
        println!(
            "{:<24} {:>12} {:>16.1} {:>10}",
            copies.map_or("hashed (paper)".into(), |r| format!("replicated R={r}")),
            emu.quorum(),
            report.mean_step_time(),
            report.rehashes
        );
    }
    println!();
}

fn main() {
    let cfg = EmulatorConfig::default;

    let net = RadixButterfly::new(2, 6); // 64 processors
    let perm = lnpram::routing::workloads::random_permutation(64, &mut SeedSeq::new(7).rng());
    compare(&net.name(), &perm, 8, |space| {
        LeveledPramEmulator::new(net, AccessMode::Erew, space, cfg())
    });

    // 120 processors, diameter 6.
    let perm = lnpram::routing::workloads::random_permutation(120, &mut SeedSeq::new(8).rng());
    compare("star(5)", &perm, 8, |space| {
        StarPramEmulator::new(5, AccessMode::Erew, space, cfg())
    });

    println!(
        "every memory image is bit-identical to the reference PRAM; only\n\
         the cost differs. R = 1 shows fixed placement alone is fine on\n\
         *random* traffic — the hashing is insurance against adversarial\n\
         patterns (`reproduce --only level_congestion` shows what that\n\
         looks like)."
    );
}
