//! §2 — leveled networks, the star graph and the n-way shuffle:
//! routing (Theorems 2.1–2.4), the retry and hashing lemmas, and PRAM
//! step emulation (Theorems 2.5, 2.6), plus the two ablations of §2's
//! design choices (hash degree, phase-1 randomization).

use super::{permutation_traffic, seeded};
use crate::{fmt, measure, trials, Report, Table, Trials};
use lnpram_core::{EmuHost, EmulatorConfig, LeveledPramEmulator, PramEmulator, StarPramEmulator};
use lnpram_hash::analysis::{karlin_upfal_max_load_bound, max_load};
use lnpram_hash::HashFamily;
use lnpram_math::perm::factorial;
use lnpram_math::rng::SeedSeq;
use lnpram_math::stats::{par_trial_values, Summary};
use lnpram_pram::model::{AccessMode, MemOp, PramProgram, WritePolicy};
use lnpram_pram::programs::{Broadcast, Histogram, PrefixSum};
use lnpram_routing::retry::{retry_route, RetryPolicy, RetryRouteReport};
use lnpram_routing::shuffle::ShuffleRoutingSession;
use lnpram_routing::{
    workloads, DoubledLeveled, LeveledRoutingSession, RouteRequest, Router, StarRoutingSession,
};
use lnpram_simnet::SimConfig;
use lnpram_topology::leveled::{Leveled, LeveledNet, RadixButterfly, UnrolledShuffle};
use lnpram_topology::{DWayShuffle, Network};

fn thm21_sweep<L: Leveled + Copy>(r: &mut Report, t: &mut Table, nets: &[L], n_trials: u64) {
    for net in nets {
        let session = || LeveledRoutingSession::new(*net, SimConfig::default());
        let m = measure(n_trials, |s| session().route_permutation(s).metrics);
        let ell = net.levels() as f64;
        r.claim(&net.name(), "time/l", m.time.mean / ell, 3.0);
        t.row(&[
            net.name(),
            net.width().to_string(),
            net.levels().to_string(),
            net.degree().to_string(),
            fmt::dist(&m.time),
            fmt::f(m.time.mean / ell, 2),
            fmt::dist(&m.queue),
            fmt::f(m.queue.mean / ell, 2),
        ]);
    }
}

/// Theorem 2.1: permutation routing on leveled networks completes in
/// Õ(ℓ) steps with FIFO queues of size O(ℓ).
///
/// Sweeps butterfly and shuffle-leveled instances across sizes; for each,
/// reports routing time normalised by ℓ (the theorem's constant must stay
/// flat as N grows) and the max FIFO queue normalised by ℓ.
pub fn thm21(r: &mut Report, scale: Trials) {
    let n_trials = scale.count(10);
    let mut t = Table::new(
        "Theorem 2.1 — permutation routing on leveled networks (Algorithm 2.1, FIFO)",
        "network | N | levels | deg | time (p95/max) | time/l | queue (p95/max) | queue/l",
    );
    let butterflies = [
        RadixButterfly::new(2, 6),
        RadixButterfly::new(2, 8),
        RadixButterfly::new(2, 10),
        RadixButterfly::new(2, 12),
        RadixButterfly::new(2, 14),
        RadixButterfly::new(4, 4),
        RadixButterfly::new(4, 6),
        RadixButterfly::new(8, 4),
    ];
    thm21_sweep(r, &mut t, &butterflies, n_trials);
    let shuffles = [
        UnrolledShuffle::new(3, 3),
        UnrolledShuffle::new(3, 5),
        UnrolledShuffle::new(4, 4),
        UnrolledShuffle::new(5, 5),
        UnrolledShuffle::new(6, 6),
    ];
    thm21_sweep(r, &mut t, &shuffles, n_trials);
    r.table(&t);
    r.note(
        "paper: time = Õ(l), queue = O(l); the normalised columns must stay\n\
         bounded as N grows — the paths alone account for time/l = 2.0.",
    );
}

/// Theorem 2.2 / Corollary 2.1: permutation and partial n-relation
/// routing on the n-star graph in Õ(n) steps.
///
/// Note the scale column: the diameter is *sub-logarithmic* in N = n!
/// (star(7) has 5040 nodes and diameter 9, where log2 N ≈ 12.3).
pub fn thm22(r: &mut Report, scale: Trials) {
    let mut t = Table::new(
        "Theorem 2.2 / Cor 2.1 — routing on the n-star (Algorithm 2.2, FIFO)",
        "n | N=n! | diam | log2 N | perm time | time/diam | n-rel time | rel/(n*diam) | max queue",
    );
    let star = |n: usize| StarRoutingSession::new(n, SimConfig::default());
    // The randomized permutation times, kept for the second table.
    let mut randomized = Vec::new();
    for n in [4usize, 5, 6, 7] {
        let n_trials = scale.count(if n >= 7 { 3 } else { 8 });
        let diameter = 3 * (n - 1) / 2;
        let diam = diameter as f64;
        let perm = measure(n_trials, |s| star(n).route_permutation(s).metrics);
        let rel = measure(n_trials.min(3), |s| star(n).route_relation(n, s).metrics).time;
        r.claim(
            &format!("star({n})"),
            "time/diam",
            perm.time.mean / diam,
            3.0,
        );
        t.row(&[
            n.to_string(),
            factorial(n).to_string(),
            diameter.to_string(),
            fmt::f((factorial(n) as f64).log2(), 1),
            fmt::dist(&perm.time),
            fmt::f(perm.time.mean / diam, 2),
            fmt::dist(&rel),
            fmt::f(rel.mean / (n as f64 * diam), 2),
            fmt::f(perm.queue.mean, 1),
        ]);
        randomized.push((n, n_trials, diam, perm.time));
    }
    r.table(&t);
    r.note(
        "paper: Õ(n) — the time/diam column stays bounded while the diameter\n\
         falls ever further below log2 N (the first sub-logarithmic emulation).\n",
    );

    // §2.3.3 also gives a deterministic algorithm: one canonical traversal,
    // no randomization — faster on random inputs, no w.h.p. guarantee (an
    // adversary can congest it, which is what phase 1's randomization
    // buys insurance against).
    let mut t = Table::new(
        "§2.3.3 deterministic vs randomized star routing (random permutations)",
        "n | deterministic | det/diam | randomized (Alg 2.2) | rand/diam",
    );
    for (n, n_trials, diam, rnd) in randomized.into_iter().skip(1) {
        let det = measure(n_trials, |s| {
            let mut rng = SeedSeq::new(s).child(0).rng();
            let dests = workloads::random_permutation(factorial(n), &mut rng);
            star(n).route_direct(&dests).metrics
        })
        .time;
        t.row(&[
            n.to_string(),
            fmt::dist(&det),
            fmt::f(det.mean / diam, 2),
            fmt::dist(&rnd),
            fmt::f(rnd.mean / diam, 2),
        ]);
    }
    r.table(&t);
    r.note("the randomized two-phase pays ~2x path for a distribution-free guarantee.");
}

/// Theorem 2.3 / Corollary 2.2: permutation and partial n-relation
/// routing on the n-way shuffle in Õ(n) — beating Valiant's
/// Õ(n log n / log log n) bound for this network.
pub fn thm23(r: &mut Report, scale: Trials) {
    let mut t = Table::new(
        "Theorem 2.3 / Cor 2.2 — routing on the n-way shuffle (Algorithm 2.3, FIFO)",
        "n | N=n^n | diam | perm time | time/n | valiant bound | n-rel time | max queue",
    );
    for n in [2usize, 3, 4, 5] {
        let sh = DWayShuffle::n_way(n);
        let shuffle = || ShuffleRoutingSession::new(sh, SimConfig::default());
        let n_trials = scale.count(if n >= 5 { 4 } else { 10 });
        let perm = measure(n_trials, |s| shuffle().route_permutation(s).metrics);
        let rel = measure(n_trials.min(3), |s| shuffle().route_relation(n, s).metrics).time;
        let nf = n as f64;
        r.claim(&sh.name(), "time/n", perm.time.mean / nf, 3.5);
        // Valiant's general d-way bound: O(n log n / log log n) — show the
        // growth factor it would add at this n.
        let valiant = if n >= 3 {
            nf * nf.ln() / nf.ln().ln().max(0.2)
        } else {
            nf
        };
        t.row(&[
            n.to_string(),
            sh.num_nodes().to_string(),
            n.to_string(),
            fmt::dist(&perm.time),
            fmt::f(perm.time.mean / nf, 2),
            fmt::f(valiant, 1),
            fmt::dist(&rel),
            fmt::f(perm.queue.mean, 1),
        ]);
    }
    r.table(&t);
    r.note("paper: Õ(n), optimal (diameter n); Valiant's scheme gives the 'valiant bound' column shape.");
}

fn thm24_sweep<L: Leveled + Copy>(t: &mut Table, net: L, n_trials: u64) {
    let ell = net.levels();
    for h in [1usize, ell.div_ceil(2).max(1), ell, 2 * ell] {
        let session = || LeveledRoutingSession::new(net, SimConfig::default());
        let m = measure(n_trials, |s| session().route_relation(h, s).metrics);
        t.row(&[
            net.name(),
            net.width().to_string(),
            ell.to_string(),
            h.to_string(),
            fmt::dist(&m.time),
            fmt::f(m.time.mean / ell as f64, 2),
            fmt::f(m.time.mean / (ell * h.max(1)) as f64, 2),
            fmt::f(m.queue.mean, 1),
        ]);
    }
}

/// Theorem 2.4: partial ℓ-relation routing on an ℓ-level degree-d
/// leveled network with ℓ = O(d) completes in Õ(ℓ).
///
/// Sweeps the relation arity h up to 2ℓ on hosts in the ℓ = O(d) regime
/// (d-ary butterflies with ℓ = d and the n-way shuffle) — time must grow
/// linearly in h (the per-node injection bound), staying Õ(ℓ) at h = ℓ.
pub fn thm24(r: &mut Report, _: Trials) {
    let mut t = Table::new(
        "Theorem 2.4 — partial h-relation routing on leveled networks (l = O(d))",
        "network | N | l | h | time | time/l | time/(l*h) | max queue",
    );
    thm24_sweep(&mut t, RadixButterfly::new(4, 4), 6);
    thm24_sweep(&mut t, RadixButterfly::new(6, 4), 6);
    thm24_sweep(&mut t, UnrolledShuffle::n_way(4), 6);
    thm24_sweep(&mut t, UnrolledShuffle::n_way(5), 4);
    r.table(&t);
    r.note("paper: at h = l the routing is Õ(l); time/(l*h) flat = linear growth in h.");
}

/// Lemma 2.1: retrying a randomized routing amplifies its success
/// probability from 1 − N^{−ε} to 1 − N^{−c₂ε} at cost c₁c₂·f(N).
///
/// With a deliberately bare step budget (2ℓ + slack), single attempts
/// fail often; the table shows the measured per-attempt failure rate and
/// the empirical success rate after k attempts tracking rate^k.
pub fn lemma21(r: &mut Report, _: Trials) {
    let net = RadixButterfly::new(2, 8); // 256 rows, l = 8
    let ell = 8u32;
    let runs = 60u64;
    // One engine for the whole table: every retry of every run recycles
    // it (Engine::reset) instead of rebuilding the 2l-column queue state.
    let mut session = LeveledRoutingSession::new(net, SimConfig::default());

    let mut t = Table::new(
        "Lemma 2.1 — retry amplification on butterfly(2,8), budget = 2l + slack",
        "slack | p(fail single) | mean attempts | p(fail <=2 tries) | p^2 (predicted) | charged/f(N)",
    );
    for slack in [2u32, 3, 4, 5] {
        let policy = RetryPolicy {
            attempt_budget: 2 * ell + slack,
            max_attempts: 40,
        };
        // Attempt k of run `run` draws its intermediates from seed
        // `run * 1000 + k`.
        let outcomes: Vec<RetryRouteReport> = (0..runs)
            .map(|run| {
                let dests = workloads::random_permutation(256, &mut SeedSeq::new(run).rng());
                retry_route(
                    &mut session,
                    &RouteRequest::dests(dests, run * 1000),
                    policy,
                )
            })
            .collect();
        let mean =
            |of: fn(&RetryRouteReport) -> f64| outcomes.iter().map(of).sum::<f64>() / runs as f64;
        let p1 = mean(|o| f64::from(u8::from(o.attempts > 1)));
        // A budget below the achievable routing time is the regime where
        // Lemma 2.1's premise (success prob >= 1 - N^-eps per attempt)
        // fails; count give-ups instead of asserting.
        let gave_up = outcomes.iter().filter(|o| !o.succeeded).count();
        let mut row = vec![slack.to_string(), fmt::f(p1, 3)];
        if gave_up > 0 {
            row.push(format!(
                ">{} (gave up {gave_up}/{runs})",
                policy.max_attempts
            ));
            row.extend(["-".into(), "-".into(), "-".into()]);
        } else {
            let charged = mean(|o| o.total_steps as f64) / (2.0 * ell as f64);
            row.push(fmt::f(mean(|o| o.attempts as f64), 2));
            row.push(fmt::f(mean(|o| f64::from(u8::from(o.attempts > 2))), 3));
            row.extend([fmt::f(p1 * p1, 3), fmt::f(charged, 2)]);
        }
        t.row(&row);
    }
    r.table(&t);
    r.note(
        "paper: failure prob drops exponentially in the number of retries\n\
              (measured p(fail after 2) tracks p(fail single)^2).",
    );
}

/// Lemma 2.2: under a random h ∈ H of degree δ = S, the probability that
/// a module receives ≥ γ of the |S| requested items is at most
/// C(|S|,δ)·N^{−δ}/C(γ,δ).
///
/// Hashes N requested addresses into N modules over many sampled
/// functions; reports the measured max-load distribution next to the γ
/// at which the analytic (union) bound crosses 1/trials and 10^{-9}.
pub fn lemma22(r: &mut Report, scale: Trials) {
    fn gamma_for(bound: f64, n: u64, delta: u64) -> u64 {
        (delta + 1..10_000)
            .find(|&g| karlin_upfal_max_load_bound(n, n, delta, g) <= bound)
            .unwrap_or(0)
    }
    let n_trials = scale.count(40);
    let mut t = Table::new(
        "Lemma 2.2 — max module load of N requests on N modules under h ~ H",
        "N | delta=S | measured max (p95/max) | gamma@1/trials | gamma@1e-9 | trials >= gamma@1/trials",
    );
    for (n_pow, delta) in [(8u32, 8u64), (10, 10), (12, 12), (12, 24), (14, 14)] {
        let n = 1u64 << n_pow;
        let fam = HashFamily::new(n * 16, n, delta as usize);
        // Requested set: one address per processor (a permutation step).
        let set: Vec<u64> = (0..n).map(|i| i * 13 + 5).collect();
        let loads = par_trial_values(n_trials, |s| {
            let h = fam.sample(&mut SeedSeq::new(s).rng());
            max_load(&h, set.iter().copied()) as f64
        });
        let g1 = gamma_for(1.0 / n_trials as f64, n, delta);
        let violations = loads.iter().filter(|&&load| load >= g1 as f64).count();
        t.row(&[
            format!("2^{n_pow}"),
            delta.to_string(),
            fmt::dist(&Summary::of(&loads)),
            g1.to_string(),
            gamma_for(1e-9, n, delta).to_string(),
            violations.to_string(),
        ]);
    }
    r.table(&t);
    r.note(
        "paper: with delta = c*l, loads beyond c*l have probability N^-alpha;\n\
              measured maxima sit at the gamma where the bound crosses 1/trials.",
    );
}

/// One thm25 row: `rounds` of permutation traffic (drawn from `seed`)
/// on `emu`, whose slowdown per diameter must stay within `bound`.
fn thm25_row<H: EmuHost>(
    r: &mut Report,
    t: &mut Table,
    name: String,
    mut emu: PramEmulator<H>,
    rounds: usize,
    seed: u64,
    bound: f64,
) {
    let width = emu.processors();
    let mut prog = permutation_traffic(width, seed, rounds);
    let rep = emu.run_program(&mut prog, 10_000);
    let per_diam = rep.slowdown_per_diameter(emu.diameter());
    r.claim(&name, "steps per diameter", per_diam, bound);
    r.claim(&name, "rehashes", rep.rehashes as f64, 0.0);
    t.row(&[
        name,
        width.to_string(),
        emu.diameter().to_string(),
        fmt::f(rep.mean_step_time(), 1),
        fmt::f(per_diam, 2),
        rep.max_step_time().to_string(),
        rep.rehashes.to_string(),
    ]);
}

/// Theorem 2.5 / Corollaries 2.3, 2.4: one EREW PRAM step emulated in
/// Õ(ℓ) on leveled networks — the star graph and n-way shuffle included,
/// i.e. in sub-logarithmic time.
///
/// Workload: permutation read+write traffic (one request per processor
/// per step). Reports mean network steps per PRAM step normalised by the
/// host diameter, plus rehash counts (the §2.1 remap rule should almost
/// never fire at the default budget).
pub fn thm25(r: &mut Report, _: Trials) {
    fn leveled<L: Leveled + Copy>(r: &mut Report, t: &mut Table, net: L, seed: u64) {
        let space = net.width() as u64;
        let emu = LeveledPramEmulator::new(net, AccessMode::Erew, space, seeded(seed));
        thm25_row(r, t, net.name(), emu, 6, seed, 3.0);
    }
    let mut t = Table::new(
        "Theorem 2.5 / Cor 2.3-2.4 — EREW PRAM step emulation in O~(diameter)",
        "host | N | diam | steps/PRAM step | per diam | worst step | rehashes",
    );
    for (k, seed) in [(6usize, 1u64), (8, 2), (10, 3), (12, 4)] {
        leveled(r, &mut t, RadixButterfly::new(2, k), seed);
    }
    leveled(r, &mut t, RadixButterfly::new(4, 4), 5);
    leveled(r, &mut t, UnrolledShuffle::n_way(3), 6);
    leveled(r, &mut t, UnrolledShuffle::n_way(4), 7);
    leveled(r, &mut t, UnrolledShuffle::n_way(5), 8);
    for (n, seed) in [(4usize, 9u64), (5, 10), (6, 11)] {
        let emu = StarPramEmulator::new(n, AccessMode::Erew, factorial(n) as u64, seeded(seed));
        thm25_row(r, &mut t, format!("star({n})"), emu, 4, seed, 5.0);
    }
    r.table(&t);
    r.note(
        "paper: per-diameter slowdown is a constant (optimal emulation);\n\
              for star/shuffle the diameter is sub-logarithmic in N.",
    );
}

/// Skewed many-one read traffic: each processor repeatedly reads a cell
/// drawn once from {80% → 8 hot cells, 20% → uniform}.
struct SkewedReads {
    targets: Vec<u64>,
    rounds: usize,
}

impl SkewedReads {
    fn new(p: usize, space: u64, rounds: usize, seed: u64) -> Self {
        let mut rng = SeedSeq::new(seed).child(77).rng();
        let targets = (0..p)
            .map(|_| {
                if rng.gen_bool(0.8) {
                    rng.gen_range(0..8u64)
                } else {
                    rng.gen_range(0..space)
                }
            })
            .collect();
        SkewedReads { targets, rounds }
    }
}

impl PramProgram for SkewedReads {
    fn processors(&self) -> usize {
        self.targets.len()
    }
    fn address_space(&self) -> u64 {
        self.targets.len() as u64
    }
    fn initial_memory(&self) -> Vec<(u64, u64)> {
        (0..self.address_space()).map(|a| (a, a * 3 + 1)).collect()
    }
    fn op(&mut self, proc: usize, step: usize, _lr: Option<u64>) -> MemOp {
        if step / 2 >= self.rounds {
            MemOp::Halt
        } else if step.is_multiple_of(2) {
            MemOp::Read(self.targets[proc])
        } else {
            MemOp::None
        }
    }
}

/// Theorem 2.6 / Corollaries 2.5, 2.6: one CRCW step in Õ(ℓ) via packet
/// combining (also serves as ablation A4: combining on/off).
///
/// Workloads: the full hot spot (all processors read one cell) and a
/// skewed many-one pattern (80% of reads hit 8 cells). Reports emulation
/// time and the busiest module batch with combining on vs off.
pub fn thm26(r: &mut Report, _: Trials) {
    /// One row per combining setting: `prog()` on the CREW emulator
    /// `build(address_space, cfg)` makes.
    fn rows<H: EmuHost, P: PramProgram>(
        t: &mut Table,
        (host, workload): (String, &str),
        prog: impl Fn() -> P,
        build: impl Fn(u64, EmulatorConfig) -> PramEmulator<H>,
    ) {
        for combining in [true, false] {
            let mut prog = prog();
            let cfg = EmulatorConfig {
                combining,
                ..Default::default()
            };
            let rep = build(prog.address_space(), cfg).run_program(&mut prog, 10_000);
            let busiest = rep.steps.iter().map(|s| s.service_steps).max().unwrap_or(0);
            t.row(&[
                host.clone(),
                workload.into(),
                combining.to_string(),
                fmt::f(rep.mean_step_time(), 1),
                busiest.to_string(),
                rep.total_combined().to_string(),
            ]);
        }
    }
    let mut t = Table::new(
        "Theorem 2.6 / A4 — CRCW combining on concurrent-read workloads",
        "host | workload | combining | steps/PRAM step | busiest module | combines",
    );
    for k in [6usize, 8, 10] {
        let net = RadixButterfly::new(2, k);
        rows(
            &mut t,
            (net.name(), "hot spot"),
            || Broadcast::new(net.width(), 3, 5),
            |space, cfg| LeveledPramEmulator::new(net, AccessMode::Crew, space, cfg),
        );
    }
    let net = UnrolledShuffle::n_way(4);
    rows(
        &mut t,
        (net.name(), "80/20 skew"),
        || SkewedReads::new(256, 256, 3, 9),
        |space, cfg| LeveledPramEmulator::new(net, AccessMode::Crew, space, cfg),
    );
    // Star host (Corollary 2.5).
    rows(
        &mut t,
        ("star(5)".into(), "hot spot"),
        || Broadcast::new(120, 3, 5),
        |space, cfg| StarPramEmulator::new(5, AccessMode::Crew, space, cfg),
    );
    r.table(&t);
    r.note(
        "paper: combining keeps CRCW steps at O~(l) — busiest-module load\n\
              collapses from N (all concurrent readers) to O(1).\n",
    );
    thm26_writes(r);
}

/// Theorem 2.6's concurrent writes: a CRCW-Sum histogram (every
/// processor adds 1 to one of 8 buckets) against the same host's EREW
/// prefix sum, in network steps per PRAM step, with the writes merged
/// en route and folded at their modules, and the busiest module batch
/// of the histogram's write step.
fn thm26_writes(r: &mut Report) {
    const BUCKETS: u64 = 8;
    fn row<H: EmuHost>(
        r: &mut Report,
        t: &mut Table,
        (host, procs): (String, usize),
        build: impl Fn(AccessMode, u64) -> PramEmulator<H>,
    ) {
        let inputs = (0..procs as u64).map(|i| i % BUCKETS).collect();
        let mut histogram = Histogram::new(inputs, BUCKETS);
        let mut emu = build(
            AccessMode::Crcw(WritePolicy::Sum),
            histogram.address_space(),
        );
        let written = emu.run_program(&mut histogram, 10_000);
        assert!(histogram.verify(&emu.memory_image(histogram.address_space())));
        let mut prefix = PrefixSum::new((1..=procs as u64).collect());
        let summed =
            build(AccessMode::Erew, prefix.address_space()).run_program(&mut prefix, 10_000);
        let (written_step, summed_step) = (written.mean_step_time(), summed.mean_step_time());
        let ratio = written_step / summed_step;
        // Step 0 reads the inputs; step 1 writes the buckets.
        let busiest = written.steps[1].service_steps;
        r.claim(&host, "histogram / prefix-sum", ratio, 1.5);
        r.claim(
            &host,
            "busiest module on the write step",
            f64::from(busiest),
            BUCKETS as f64,
        );
        t.row(&[
            host,
            procs.to_string(),
            fmt::f(written_step, 1),
            fmt::f(summed_step, 1),
            fmt::f(ratio, 2),
            busiest.to_string(),
            written.total_write_merges().to_string(),
        ]);
    }
    fn leveled<L: Leveled + Copy>(r: &mut Report, t: &mut Table, net: L) {
        row(r, t, (net.name(), net.width()), |mode, space| {
            LeveledPramEmulator::new(net, mode, space, EmulatorConfig::default())
        });
    }
    let mut t = Table::new(
        "Theorem 2.6 — CRCW-Sum histogram (8 buckets) against the EREW prefix sum",
        "host | N | histogram steps/PRAM step | prefix-sum steps/PRAM step | ratio | busiest module | write merges",
    );
    for n in [5usize, 6, 7] {
        row(
            r,
            &mut t,
            (format!("star({n})"), factorial(n)),
            |mode, space| StarPramEmulator::new(n, mode, space, EmulatorConfig::default()),
        );
    }
    for k in [6usize, 8, 10] {
        leveled(r, &mut t, RadixButterfly::new(2, k));
    }
    leveled(r, &mut t, UnrolledShuffle::n_way(4));
    r.table(&t);
    r.note(
        "paper: combining keeps concurrent writes at O~(l) too — same-address\n\
              writes merge where their routes meet and fold in their module's\n\
              queue, so a histogram costs about what an EREW step does and the\n\
              busiest module serves each bucket once.",
    );
}

/// Ablation A3: the hash-family degree S = cL of §2.1.
///
/// Low-degree polynomials (S = 1, 2) have weaker independence: adversarial
/// address sets (an arithmetic progression) can pile onto few modules and
/// force rehashes; S = cL restores the Lemma 2.2 tail. Reports max module
/// load on an adversarial set, plus emulation time and rehashes.
pub fn ablate_hash_degree(r: &mut Report, scale: Trials) {
    let net = RadixButterfly::new(2, 10); // 1024 processors, diameter 20
    let n = 1024u64;
    let diam = 20usize;
    let n_trials = scale.count(25);

    let mut t = Table::new(
        "Ablation A3 — hash degree S (butterfly(2,10), N = 1024)",
        "S | max load: stride set | max load: random set | emu steps/PRAM | rehashes",
    );
    // Adversarial structured set: arithmetic progression of stride N.
    let stride: Vec<u64> = (0..n).map(|i| i * n).collect();
    let rnd_set: Vec<u64> = {
        let mut rng = SeedSeq::new(999).rng();
        (0..n).map(|_| rng.gen_range(0..n * 64)).collect()
    };
    for s_deg in [1usize, 2, diam / 2, diam, 2 * diam] {
        let fam = HashFamily::new(n * 64, n, s_deg);
        let max_load_over = |set: &[u64]| {
            trials(n_trials, |s| {
                let h = fam.sample(&mut SeedSeq::new(s).rng());
                max_load(&h, set.iter().copied()) as f64
            })
        };
        // Emulation with this degree.
        let mut prog = permutation_traffic(1024, 1, 3);
        let mut emu = LeveledPramEmulator::new(
            net,
            AccessMode::Erew,
            1024,
            EmulatorConfig {
                hash_degree_override: Some(s_deg),
                // A degree-S=1 hash maps everything to one module; allow
                // the emulator to rehash its way through (still S=1, so
                // the step cost explodes instead — the point of the row).
                max_rehashes: 40,
                budget_factor: 64,
                seed: s_deg as u64,
                ..Default::default()
            },
        );
        let rep = emu.run_program(&mut prog, 1000);
        t.row(&[
            s_deg.to_string(),
            fmt::dist(&max_load_over(&stride)),
            fmt::dist(&max_load_over(&rnd_set)),
            fmt::f(rep.mean_step_time(), 1),
            rep.rehashes.to_string(),
        ]);
    }
    r.table(&t);
    r.note(
        "paper: S = cL gives the interpolation-counting tail of Lemma 2.2;\n\
              constant-degree hashes lose it on structured address sets.",
    );
}

/// Table A6 — what the phase-1 randomization buys: per-level link-load
/// balance on a leveled network.
///
/// Algorithm 2.1's first phase sends every packet to a uniformly random
/// last-column node. The ablation (`route_direct`) skips it and follows
/// the fixed unique path. On an adversarial permutation (bit-reversal on
/// the binary butterfly) the fixed paths pile onto a few links; with
/// randomization every level's load is near-uniform.
///
/// Reported per level of the doubled network: the max link load and the
/// imbalance factor (max/mean over used links).
pub fn level_congestion(r: &mut Report, _: Trials) {
    /// Max and mean load over the used links of each level of the
    /// doubled network, from CSR-ordered link loads.
    fn per_level(loads: &[u32], inner: RadixButterfly) -> Vec<(u32, f64)> {
        let net = LeveledNet::forward(DoubledLeveled::new(inner));
        // Per level: (max load, total load, used links).
        let mut acc = vec![(0u32, 0u64, 0u32); 2 * inner.levels()];
        let mut link = 0usize;
        for node in 0..net.num_nodes() {
            let (col, _) = net.split(node);
            for _port in 0..net.out_degree(node) {
                if let Some(level) = acc.get_mut(col).filter(|_| loads[link] > 0) {
                    *level = (
                        level.0.max(loads[link]),
                        level.1 + u64::from(loads[link]),
                        level.2 + 1,
                    );
                }
                link += 1;
            }
        }
        acc.into_iter()
            .map(|(max, total, used)| (max, total as f64 / f64::from(used.max(1))))
            .collect()
    }

    let k = 12usize;
    let inner = RadixButterfly::new(2, k);
    let n = 1usize << k;
    let bit_reversal = workloads::bit_reversal(n);
    let cfg = SimConfig {
        record_link_loads: true,
        ..Default::default()
    };
    let mut session = LeveledRoutingSession::new(inner, cfg);
    let direct = session.route_direct(&bit_reversal);
    let random = session.route_with_dests(&bit_reversal, SeedSeq::new(1));

    let mut t = Table::new(
        format!("Table A6 — per-level link load, bit-reversal on butterfly(2,{k}) (N = {n})"),
        "level | direct max | direct max/mean | randomized max | randomized max/mean",
    );
    let dl = per_level(&direct.metrics.link_loads, inner);
    let rl = per_level(&random.metrics.link_loads, inner);
    for (lvl, (d, rnd)) in dl.iter().zip(rl.iter()).enumerate() {
        t.row(&[
            lvl.to_string(),
            d.0.to_string(),
            fmt::f(f64::from(d.0) / d.1.max(1e-9), 1),
            rnd.0.to_string(),
            fmt::f(f64::from(rnd.0) / rnd.1.max(1e-9), 1),
        ]);
    }
    r.table(&t);
    r.note(format!(
        "routing time: direct {} steps vs randomized {} steps (path length 2ℓ = {}).",
        direct.metrics.routing_time,
        random.metrics.routing_time,
        2 * k
    ));
    r.note(format!(
        "overall imbalance (max/mean over used links): direct {:.1}, randomized {:.1}.",
        direct.metrics.link_imbalance(),
        random.metrics.link_imbalance()
    ));
    r.note(
        "paper (§2.2.1/§2.3): a fixed oblivious path system has permutations\n\
         that concentrate N^(1/2)-ish load on one link; the random intermediate\n\
         destination equalises every level's load w.h.p.",
    );
}
