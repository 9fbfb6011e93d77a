//! Theorem 3.3's locality property on the mesh.
//!
//! When every memory request originates within Manhattan distance `d` of
//! the cell's location, the mesh emulation finishes in `6d + o(d)` steps
//! instead of `4n + o(n)` — the emulation cost tracks the *request
//! locality*, not the machine size. This example sweeps `d` on a fixed
//! 32×32 mesh and prints the measured step cost.
//!
//! ```sh
//! cargo run --release --example mesh_locality
//! ```

use lnpram::prelude::*;
use lnpram::routing::workloads;
use lnpram::topology::Mesh;

fn main() {
    let n = 32usize;
    let mesh = Mesh::square(n);
    println!("32x32 mesh, d-local EREW permutation traffic (Theorem 3.3):\n");
    println!(
        "{:>4} {:>14} {:>10} {:>10}",
        "d", "steps/PRAM", "per d", "per n"
    );
    for d in [2usize, 4, 8, 16, 32] {
        let mut rng = SeedSeq::new(7).child(d as u64).rng();
        let dests = workloads::local_permutation(&mesh, d, &mut rng);
        let mut prog = PermutationTraffic::new(dests, 4);
        let space = prog.address_space();
        let mut emu =
            MeshPramEmulator::new_local(n, AccessMode::Erew, space, d, EmulatorConfig::default())
                .expect("a permutation's cells fit the direct map");
        let report = emu.run_program(&mut prog, 1000);

        // Also verify against the oracle — locality must not change results.
        let mut rng = SeedSeq::new(7).child(d as u64).rng();
        let dests = workloads::local_permutation(&mesh, d, &mut rng);
        let mut oracle = PramMachine::new(space, AccessMode::Erew);
        oracle.run(&mut PermutationTraffic::new(dests, 4), 1000);
        assert_eq!(emu.memory_image(space), oracle.memory());

        let t = report.mean_step_time();
        println!(
            "{d:>4} {t:>14.1} {:>10.2} {:>10.2}",
            t / d as f64,
            t / n as f64
        );
    }
    println!(
        "\nthe cost grows with d and stays well below the 4n ≈ {} global cost",
        4 * n
    );
}
