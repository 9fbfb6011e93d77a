//! What a workload is: a fixed, seeded list of requests sent one at a
//! time (one client, closed loop) through a public entry point of the
//! program, plus the simulated results every request must reproduce.

use crate::layers::Trace;
use crate::stats::{censored_percentile, Digest};
use lnpram_math::stats::Histogram;

/// How many requests a workload holds and how they are timed. Counts
/// are fixed, never timed, so every simulated number is exact.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Distinct pre-generated requests; a round sends each once.
    pub distinct: usize,
    /// Consecutive requests timed as one unit (≥ 0.5 ms of work on the
    /// reference box, so the clock reads cost nothing); divides
    /// `distinct`.
    pub group: usize,
}

/// Static description of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Stream id mixed into every request seed.
    pub id: u64,
    /// Why the workload exists (one line, repeated in `BENCHMARK.json`).
    pub why: &'static str,
    /// Full-size counts.
    pub full: Size,
    /// `--smoke` counts.
    pub smoke: Size,
}

/// The simulated result of one request, reduced to what is pooled.
pub struct Outcome {
    /// Operations offered: packets, or one PRAM program.
    pub attempted: u64,
    /// Operations that failed: packets not delivered inside the step
    /// budget, or a program whose memory image is wrong.
    pub failed: u64,
    /// Goodput numerator: delivered packets (emulation: memory requests).
    pub work: u64,
    /// Numerator of `sim_steps_per_norm` (routing time / trace steps /
    /// network steps).
    pub steps: u64,
    /// Denominator of `sim_steps_per_norm` (the theorem's normalizer).
    pub norm: u64,
    /// The step budget an undelivered operation exhausted.
    pub budget: u32,
    /// Largest link queue.
    pub max_queue: u64,
    /// Simulated latency samples, one-step buckets (packets:
    /// injection/admission → delivery of each delivered packet;
    /// emulation: network steps of each PRAM step).
    pub latency: Histogram,
    /// Latency samples that never completed (undelivered packets): the
    /// +∞ bucket of `latency`.
    pub censored: u64,
    /// A failed correctness check, if any.
    pub error: Option<String>,
}

impl Outcome {
    /// Fold of every simulated number of this request.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for x in [
            self.attempted,
            self.failed,
            self.work,
            self.steps,
            self.max_queue,
            self.censored,
        ] {
            d.push(x);
        }
        d.push_hist(&self.latency);
        d.value()
    }
}

/// Simulated results pooled over the distinct requests of a workload:
/// pure functions of the seed, bit-equal between runs.
pub struct Sim {
    /// Operations offered.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Goodput numerator.
    pub work: u64,
    /// Σ steps.
    pub steps: u64,
    /// Σ normalizers.
    pub norm: u64,
    /// Largest step budget seen.
    pub budget: u32,
    /// Largest link queue.
    pub max_queue: u64,
    /// Pooled latency samples.
    pub latency: Histogram,
    /// Pooled +∞ bucket of `latency`.
    pub censored: u64,
    /// Fold of the per-request digests, in request order.
    pub digest: Digest,
}

impl Default for Sim {
    fn default() -> Self {
        Sim {
            attempted: 0,
            failed: 0,
            work: 0,
            steps: 0,
            norm: 0,
            budget: 0,
            max_queue: 0,
            latency: Histogram::new(1),
            censored: 0,
            digest: Digest::default(),
        }
    }
}

impl Sim {
    /// Pool one request.
    pub fn absorb(&mut self, o: &Outcome) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.work += o.work;
        self.steps += o.steps;
        self.norm += o.norm;
        self.budget = self.budget.max(o.budget);
        self.max_queue = self.max_queue.max(o.max_queue);
        self.latency.absorb(&o.latency);
        self.censored += o.censored;
        self.digest.push(o.digest());
    }

    /// The theorem constant: Σ steps ÷ Σ normalizers.
    pub fn steps_per_norm(&self) -> f64 {
        self.steps as f64 / self.norm.max(1) as f64
    }

    /// Latency percentile over **offered** samples; the ones that never
    /// completed read as the step budget.
    pub fn latency_percentile(&self, q: f64) -> f64 {
        censored_percentile(&self.latency, self.censored, q, f64::from(self.budget))
    }
}

/// One benchmark workload. Inputs are generated from the seed when the
/// workload is constructed, before anything is timed; the program under
/// test only ever sees the generated inputs.
pub trait Workload {
    /// Static description.
    fn spec(&self) -> &'static Spec;

    /// The counts in use (full or smoke).
    fn size(&self) -> Size;

    /// What a user does before the first request — topology, session or
    /// engine (and partition plan), one warm-up request — kept as the
    /// session `call` uses.
    fn setup(&mut self);

    /// The same construction, dropped at once: one `setup_s` sample that
    /// leaves the measured session warm.
    fn setup_sample(&self);

    /// Send request `i` (`< distinct`) through the public entry point.
    fn call(&mut self, i: usize) -> Outcome;

    /// Checks made once, outside timing.
    fn verify(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// The traced pass: replay requests with spans recorded around the
    /// calls into each layer, and run the layer probes.
    fn trace(&mut self, t: &mut Trace);

    /// `lnpram` arguments that run this workload's topology through the
    /// command line (for `cli.spawn_ms`).
    fn cli_args(&self) -> &'static [&'static str];
}
