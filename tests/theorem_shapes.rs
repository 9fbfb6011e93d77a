//! Integration checks of the paper's *quantitative* claims at test-friendly
//! sizes: the full-size sweeps live in `reproduce`; these assert the
//! shape (who wins, what scales with what) so regressions are caught by
//! `cargo test`.

use lnpram::prelude::*;
use lnpram::routing::ranade;
use lnpram::routing::{mesh::default_slice_rows, mesh_sort, workloads};
use lnpram::simnet::SimConfig;

/// Mean of `f(seed)` over seeded trials, fanned out across cores by the
/// workspace trial-runner (`lnpram_math::stats::par_trial_values`; results
/// are per-seed deterministic regardless of thread schedule).
/// `LNPRAM_TRIALS` overrides the per-site trial count, so CI can throttle
/// the statistics-heavy tests without touching the assertions.
fn mean<F: Fn(u64) -> f64 + Sync>(trials: u64, f: F) -> f64 {
    let values = lnpram::math::stats::par_trial_values(lnpram_bench::trial_count(trials), f);
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

#[test]
fn theorem_21_leveled_routing_is_linear_in_levels() {
    // time/ℓ must stay bounded as ℓ doubles (butterfly 2^6 → 2^12 rows).
    let c6 = mean(3, |s| {
        LeveledRoutingSession::new(RadixButterfly::new(2, 6), SimConfig::default())
            .route_permutation(s)
            .time_per_norm()
    });
    let c12 = mean(3, |s| {
        LeveledRoutingSession::new(RadixButterfly::new(2, 12), SimConfig::default())
            .route_permutation(s)
            .time_per_norm()
    });
    assert!(c6 >= 2.0, "path alone is 2ℓ");
    assert!(
        c12 < 1.8 * c6,
        "constant must not grow with ℓ: {c6:.2} -> {c12:.2}"
    );
}

#[test]
fn theorem_22_23_sublogarithmic_hosts() {
    // Star and shuffle route permutations within a small multiple of
    // their (sub-logarithmic) diameters.
    let star = StarRoutingSession::new(6, SimConfig::default()).route_permutation(3);
    assert!(star.completed);
    assert_eq!(star.metrics.delivered, 720);
    assert!(
        star.time_per_norm() < 8.0,
        "star(6): {:.2}x diameter",
        star.time_per_norm()
    );

    let sh = DWayShuffle::n_way(4);
    let rep = ShuffleRoutingSession::new(sh, SimConfig::default()).route_permutation(3);
    assert!(rep.completed);
    assert!(
        rep.time_per_norm() < 10.0,
        "shuffle(4): {:.2}x diameter",
        rep.time_per_norm()
    );
}

#[test]
fn theorem_24_relation_routing_scales_with_h() {
    // ℓ-relation routing stays Õ(ℓ): time grows ~linearly in h, not worse.
    let net = RadixButterfly::new(4, 3);
    let t1 = mean(3, |s| {
        LeveledRoutingSession::new(net, SimConfig::default())
            .route_relation(1, s)
            .metrics
            .routing_time as f64
    });
    let t3 = mean(3, |s| {
        LeveledRoutingSession::new(net, SimConfig::default())
            .route_relation(3, s)
            .metrics
            .routing_time as f64
    });
    assert!(t3 < 4.5 * t1, "h=3 should cost ≲3x h=1: {t1:.1} -> {t3:.1}");
}

#[test]
fn theorem_31_mesh_three_stage_beats_baselines() {
    let n = 24;
    let three = MeshAlgorithm::ThreeStage {
        slice_rows: default_slice_rows(n),
    };
    let t3 = mean(4, |s| {
        MeshRoutingSession::new(n, three, SimConfig::default())
            .route_permutation(s)
            .metrics
            .routing_time as f64
    });
    let tvb = mean(4, |s| {
        MeshRoutingSession::new(n, MeshAlgorithm::ValiantBrebner, SimConfig::default())
            .route_permutation(s)
            .metrics
            .routing_time as f64
    });
    let tsort = mean(2, |s| {
        let mut rng = SeedSeq::new(s).rng();
        let dests = workloads::random_permutation(n * n, &mut rng);
        mesh_sort::shearsort_route(n, &dests).steps as f64
    });
    assert!(t3 < tvb, "three-stage {t3:.0} must beat VB {tvb:.0}");
    assert!(t3 < tsort / 2.0, "and be far below sorting ({tsort:.0})");
    assert!(
        t3 / n as f64 <= 3.5,
        "≈2n + o(n): got {:.2}n",
        t3 / n as f64
    );
}

#[test]
fn theorem_32_mesh_emulation_constant() {
    // 4n + o(n): at n = 12 (small) allow up to 8n but require moderation;
    // the bench sweeps show convergence toward ~4 for large n.
    let n = 12usize;
    let mut rng = SeedSeq::new(1).rng();
    let perm = workloads::random_permutation(n * n, &mut rng);
    let mut prog = PermutationTraffic::new(perm, 4);
    let mut emu = MeshPramEmulator::new(
        n,
        AccessMode::Erew,
        prog.address_space(),
        EmulatorConfig::default(),
    );
    let report = emu.run_program(&mut prog, 1000);
    assert_eq!(report.rehashes, 0);
    let per_n = report.mean_step_time() / n as f64;
    assert!(per_n < 8.0, "mesh emulation {per_n:.2}n");
}

#[test]
fn theorem_33_locality_tracks_d() {
    let n = 24usize;
    let mesh = lnpram::topology::Mesh::square(n);
    let step_time = |d: usize| {
        let mut rng = SeedSeq::new(3).child(d as u64).rng();
        let dests = workloads::local_permutation(&mesh, d, &mut rng);
        let mut prog = PermutationTraffic::new(dests, 3);
        let mut emu = MeshPramEmulator::new_local(
            n,
            AccessMode::Erew,
            prog.address_space(),
            d,
            EmulatorConfig::default(),
        )
        .expect("a permutation's cells fit the direct map");
        emu.run_program(&mut prog, 1000);
        emu.report().mean_step_time()
    };
    let t3 = step_time(3);
    let t12 = step_time(12);
    assert!(t3 < t12, "cost must grow with d: {t3:.1} vs {t12:.1}");
    // 6d + o(d) shape: t(d)/d bounded by a small constant.
    assert!(t3 / 3.0 < 8.0, "t(3)/3 = {:.1}", t3 / 3.0);
    assert!(t12 / 12.0 < 8.0, "t(12)/12 = {:.1}", t12 / 12.0);
}

#[test]
fn ranade_comparator_constant_is_impractical_on_mesh() {
    // §3's motivation: Ranade's butterfly emulation, embedded on the
    // mesh, has a large constant; the paper's direct algorithm is ~4n.
    // Measure the butterfly constant and apply the embedding model at a
    // size where the dilation sum has converged (n = 64).
    let rep = ranade::ranade_random(12, 1); // butterfly for n² = 4096
    let n = 64usize;
    let est = ranade::mesh_embedding_steps(n, rep.time_per_level());
    let ranade_per_n = est / n as f64;
    assert!(
        ranade_per_n > 3.0 * 4.0,
        "Ranade-on-mesh model should be several times the paper's 4n: {ranade_per_n:.0}n"
    );
}

#[test]
fn lemma_21_retry_with_real_leveled_routing() {
    use lnpram::routing::leveled::LeveledRoutingSession;
    use lnpram::routing::retry::{retry_route, RetryPolicy};
    use lnpram::routing::RouteRequest;

    // Deliberately tight budget so some attempts fail, then verify the
    // retry schedule converges. All packets re-route per attempt with
    // fresh randomness (a conservative variant of the lemma's schedule),
    // recycling one warmed session engine across every attempt.
    let net = RadixButterfly::new(2, 6);
    let mut rng = SeedSeq::new(11).rng();
    let dests = workloads::random_permutation(64, &mut rng);
    let budget = (2 * 6) as u32 + 2; // barely above the bare path length
    let policy = RetryPolicy {
        attempt_budget: budget,
        max_attempts: 20,
    };
    let mut session = LeveledRoutingSession::new(net, SimConfig::default());
    let report = retry_route(&mut session, &RouteRequest::dests(dests, 1000), policy);
    assert!(report.succeeded, "retry must converge");
    assert!(
        report.total_steps <= 2 * u64::from(budget) * report.attempts as u64,
        "lemma's c1*c2*f(N) accounting"
    );
}

#[test]
fn hash_load_bound_lemma_22_shape() {
    use lnpram::hash::analysis::{karlin_upfal_max_load_bound, max_load};
    use lnpram::hash::HashFamily;
    // N requests to N modules with S = ℓ: measured max load stays below
    // the γ at which the analytic bound goes below 1/trials.
    let n = 1u64 << 10;
    let fam = HashFamily::new(1 << 20, n, 10);
    let gamma = 30u32;
    assert!(karlin_upfal_max_load_bound(n, n, 10, gamma as u64) < 1e-6);
    for t in 0..20u64 {
        let h = fam.sample(&mut SeedSeq::new(42).child(t).rng());
        let load = max_load(&h, (0..n).map(|i| i * 31 + 7));
        assert!(load < gamma, "trial {t}: load {load} >= {gamma}");
    }
}

#[test]
fn section_221_routing_taxonomy_on_the_cube() {
    // §2.2.1's three-way trade, measured at one size: Batcher bitonic
    // (non-oblivious) is queue-free but Θ(log²N); Valiant's randomized
    // oblivious routing is Õ(log N) with small queues; both deliver
    // every packet of every permutation.
    use lnpram::routing::bitonic::bitonic_route;
    use lnpram::routing::hypercube::CubeRoutingSession;
    let k = 9usize;
    // The permutation `route_permutation(3)` draws.
    let dests = workloads::random_permutation(1 << k, &mut SeedSeq::new(3).child(0).rng());
    let bit = bitonic_route(k, &dests, SimConfig::default());
    let val = CubeRoutingSession::new(k, SimConfig::default()).route_permutation(3);
    assert!(bit.completed && val.completed);
    assert_eq!(bit.metrics.delivered, 1 << k);
    assert_eq!(val.metrics.delivered, 1 << k);
    assert_eq!(bit.metrics.max_queue, 1, "sorting needs no queues");
    assert_eq!(bit.metrics.routing_time, (k * (k + 1) / 2) as u32);
    assert!(
        val.metrics.routing_time < bit.metrics.routing_time,
        "Õ(log N) beats Θ(log² N) at k = {k}"
    );
}

#[test]
fn thm32_const_queue_refinement_preserves_time_and_caps_queue() {
    // The Theorem 3.2 refinement: same 4n + o(n) emulation cost, queues
    // bounded by a small constant.
    let n = 8usize;
    let perm: Vec<usize> = (0..n * n).map(|i| (i * 13 + 5) % (n * n)).collect();
    let run = |const_queue: bool| {
        let mut prog = PermutationTraffic::new(perm.clone(), 4);
        let mut emu = MeshPramEmulator::new(
            n,
            AccessMode::Erew,
            prog.address_space(),
            EmulatorConfig::default(),
        );
        if const_queue {
            emu = emu.with_const_queue();
        }
        let rep = emu.run_program(&mut prog, 1000);
        let worst_queue = rep.steps.iter().map(|s| s.max_queue).max().unwrap_or(0);
        (rep.mean_step_time(), worst_queue)
    };
    let (t_plain, _q_plain) = run(false);
    let (t_cq, q_cq) = run(true);
    assert!(q_cq <= 8, "const-queue variant saw queue {q_cq}");
    // The in-block walk costs o(n): allow 50% overhead at this tiny size.
    assert!(
        t_cq <= 1.5 * t_plain,
        "refinement cost {t_cq:.1} vs plain {t_plain:.1}"
    );
}

#[test]
fn replication_cost_scales_with_quorum() {
    // The [3]-style deterministic baseline pays ~c× traffic per access;
    // its per-step time must be monotone in the replication level.
    use lnpram::topology::leveled::RadixButterfly;
    let net = RadixButterfly::new(2, 5);
    let perm: Vec<usize> = (0..32).map(|i| (i * 7 + 3) % 32).collect();
    let time = |copies: usize| {
        let mut prog = PermutationTraffic::new(perm.clone(), 4);
        let space = prog.address_space();
        let emu = LeveledPramEmulator::new(net, AccessMode::Erew, space, EmulatorConfig::default());
        let mut emu = emu.with_copies(copies).expect("an odd copy count up to 7");
        emu.run_program(&mut prog, 1000).mean_step_time()
    };
    let (t1, t3, t5) = (time(1), time(3), time(5));
    assert!(
        t1 < t3 && t3 < t5,
        "expected monotone cost: {t1:.1} {t3:.1} {t5:.1}"
    );
}
