//! Routing showdown: the paper's algorithms against their baselines.
//!
//! Reproduces the headline comparisons in miniature:
//!
//! * mesh: three-stage (§3.4, `2n+o(n)`) vs Valiant–Brebner (`3n+o(n)`)
//!   vs greedy vs shearsort (sorting-based, non-oblivious);
//! * star graph and n-way shuffle: Õ(diameter) permutation routing —
//!   sub-logarithmic in the network size.
//!
//! ```sh
//! cargo run --release --example routing_showdown
//! ```

use lnpram::prelude::*;
use lnpram::routing::bitonic::bitonic_route;
use lnpram::routing::hypercube::CubeRoutingSession;
use lnpram::routing::{mesh_sort, workloads};
use lnpram::simnet::SimConfig;

fn main() {
    let n = 32;
    let trials = 5u64;
    println!("== permutation routing on the {n}x{n} mesh (mean of {trials} trials) ==");
    let mean = |f: &dyn Fn(u64) -> f64| (0..trials).map(f).sum::<f64>() / trials as f64;

    let three = MeshAlgorithm::ThreeStage {
        slice_rows: lnpram::routing::mesh::default_slice_rows(n),
    };
    let t3 = mean(&|s| {
        MeshRoutingSession::new(n, three, SimConfig::default())
            .route_permutation(s)
            .metrics
            .routing_time as f64
    });
    let tvb = mean(&|s| {
        MeshRoutingSession::new(n, MeshAlgorithm::ValiantBrebner, SimConfig::default())
            .route_permutation(s)
            .metrics
            .routing_time as f64
    });
    let tg = mean(&|s| {
        MeshRoutingSession::new(n, MeshAlgorithm::Greedy, SimConfig::default())
            .route_permutation(s)
            .metrics
            .routing_time as f64
    });
    let tsort = mean(&|s| {
        let mut rng = SeedSeq::new(s).rng();
        let dests = workloads::random_permutation(n * n, &mut rng);
        mesh_sort::shearsort_route(n, &dests).steps as f64
    });
    println!(
        "three-stage (paper): {t3:7.1} steps  = {:.2}n",
        t3 / n as f64
    );
    println!(
        "valiant-brebner:     {tvb:7.1} steps  = {:.2}n",
        tvb / n as f64
    );
    println!(
        "greedy XY:           {tg:7.1} steps  = {:.2}n",
        tg / n as f64
    );
    println!(
        "shearsort (sorting): {tsort:7.1} steps  = {:.2}n",
        tsort / n as f64
    );
    println!();

    println!("== sub-logarithmic-diameter networks (Theorems 2.2 / 2.3) ==");
    for star_n in [4usize, 5, 6] {
        let rep = StarRoutingSession::new(star_n, SimConfig::default()).route_permutation(1);
        println!(
            "star({star_n}):   N = {:>5}, diameter {:>2}, routed in {:>3} steps ({:.2}x diameter)",
            lnpram::math::perm::factorial(star_n),
            rep.norm(),
            rep.metrics.routing_time,
            rep.time_per_norm()
        );
    }
    for sh_n in [3usize, 4] {
        let sh = DWayShuffle::n_way(sh_n);
        let rep = ShuffleRoutingSession::new(sh, SimConfig::default()).route_permutation(1);
        println!(
            "shuffle({sh_n}): N = {:>5}, diameter {:>2}, routed in {:>3} steps ({:.2}x diameter)",
            sh.num_nodes(),
            rep.norm(),
            rep.metrics.routing_time,
            rep.time_per_norm()
        );
    }
    println!();

    println!("== the cube-class taxonomy of §2.2.1 (k = 10, N = 1024) ==");
    let k = 10usize;
    let dests = workloads::random_permutation(1 << k, &mut SeedSeq::new(1).child(0).rng());
    let bit = bitonic_route(k, &dests, SimConfig::default());
    let val = CubeRoutingSession::new(k, SimConfig::default()).route_permutation(1);
    println!(
        "batcher bitonic (non-oblivious, queue-free): {:>3} steps, max queue {}",
        bit.metrics.routing_time, bit.metrics.max_queue
    );
    println!(
        "valiant two-phase (oblivious, randomized):   {:>3} steps, max queue {}",
        val.metrics.routing_time, val.metrics.max_queue
    );
}
