//! The experiment registry: every table and figure of the reproduction,
//! in the order `reproduce` prints them.
//!
//! An [`Experiment`] is an id, the part of the paper it reproduces, and
//! a function that writes its tables into a [`Report`]. Experiments are
//! grouped by paper section — [`figures`], [`section2`] (leveled
//! networks, star, shuffle), [`section3`] (the mesh), [`baselines`]
//! (the comparisons the introduction and §2.2.1 argue from) and
//! [`systems`] (adaptive routing and degraded serving, beyond the paper)
//! — and call the routing sessions and `PramEmulator` hosts directly.

pub mod baselines;
pub mod figures;
pub mod section2;
pub mod section3;
pub mod systems;

use crate::{Report, Trials};
use lnpram_core::EmulatorConfig;
use lnpram_math::rng::SeedSeq;
use lnpram_pram::programs::PermutationTraffic;
use lnpram_routing::mesh::default_slice_rows;
use lnpram_routing::{workloads, MeshAlgorithm};

/// One table or figure of the reproduction.
#[derive(Debug)]
pub struct Experiment {
    /// Short name, the `--only` argument and the `## <id>` heading.
    pub id: &'static str,
    /// The part of the paper it reproduces, e.g. `"Theorem 2.1"`.
    pub source: &'static str,
    /// Run the experiment, appending its output to the report.
    pub run: fn(&mut Report, Trials),
}

/// The registry literal: each entry is the experiment's function and the
/// part of the paper it reproduces; the id is the function's name.
macro_rules! experiments {
    ($($module:ident::$run:ident => $source:literal,)*) => {
        &[$(Experiment { id: stringify!($run), source: $source, run: $module::$run }),*]
    };
}

/// Every experiment, in output order.
pub const EXPERIMENTS: &[Experiment] = experiments![
    figures::figure1 => "Figure 1",
    figures::figure2 => "Figure 2",
    figures::figure3 => "Figure 3",
    figures::figure4 => "Figure 4",
    figures::figure5 => "Figure 5",
    section2::thm21 => "Theorem 2.1",
    section2::thm22 => "Theorem 2.2 / Corollary 2.1",
    section2::thm23 => "Theorem 2.3 / Corollary 2.2",
    section2::thm24 => "Theorem 2.4",
    section2::lemma21 => "Lemma 2.1",
    section2::lemma22 => "Lemma 2.2",
    section3::cor31_33 => "Corollaries 3.1-3.3",
    section2::thm25 => "Theorem 2.5 / Corollaries 2.3-2.4",
    section2::thm26 => "Theorem 2.6 / Corollaries 2.5-2.6",
    section3::linear_array_lemma => "§3.4.1 linear-array lemma",
    baselines::intro_star_vs_cube => "§1 / §2.3.4 star vs hypercube",
    baselines::adversarial_mesh => "§2.2.1 why randomize (table I2)",
    baselines::deterministic_baseline => "§1 / §2.1 replicated-memory baseline (table D1)",
    baselines::batcher_baseline => "§2.2.1 Batcher vs Valiant (table I3)",
    baselines::constant_degree_hosts => "§2.3.1 constant-degree hosts (table I4)",
    section3::thm31 => "Theorem 3.1",
    section3::thm32 => "Theorem 3.2",
    section3::thm33 => "Theorem 3.3",
    section3::ablate_discipline => "§3.4 queue discipline (ablation A1)",
    section3::ablate_slice => "§3.4 slice height (ablation A2)",
    section2::ablate_hash_degree => "§2.1 hash degree (ablation A3)",
    section3::ablate_const_queue => "Theorem 3.2 constant queues (ablation A5)",
    section2::level_congestion => "§2.2.1 / §2.3 phase-1 randomization (table A6)",
    systems::adaptive_vs_oblivious => "beyond the paper: adaptive vs oblivious routing",
    systems::degraded_serve => "beyond the paper: serving under link failures",
];

/// `rounds` of permutation read+write traffic over `width` processors,
/// the permutation drawn from `seed`.
fn permutation_traffic(width: usize, seed: u64, rounds: usize) -> PermutationTraffic {
    let mut rng = SeedSeq::new(seed).rng();
    PermutationTraffic::new(workloads::random_permutation(width, &mut rng), rounds)
}

/// The default emulator configuration with its hash functions drawn
/// from `seed`.
fn seeded(seed: u64) -> EmulatorConfig {
    EmulatorConfig {
        seed,
        ..Default::default()
    }
}

/// The paper's three-stage mesh algorithm at its default slice height.
fn three_stage(n: usize) -> MeshAlgorithm {
    MeshAlgorithm::ThreeStage {
        slice_rows: default_slice_rows(n),
    }
}

/// An `--only` argument that names no experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownExperiment(pub String);

impl std::fmt::Display for UnknownExperiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        write!(
            f,
            "unknown experiment '{}'; the experiments are: {}",
            self.0,
            ids.join(", ")
        )
    }
}

impl std::error::Error for UnknownExperiment {}

/// The experiments named by `ids`, in the order given; all of them, in
/// registry order, when `ids` is empty.
pub fn select(ids: &[String]) -> Result<Vec<&'static Experiment>, UnknownExperiment> {
    if ids.is_empty() {
        return Ok(EXPERIMENTS.iter().collect());
    }
    ids.iter()
        .map(|id| {
            EXPERIMENTS
                .iter()
                .find(|e| e.id == id)
                .ok_or_else(|| UnknownExperiment(id.clone()))
        })
        .collect()
}

impl Report {
    /// Run `experiment` and append its section — `## <id>`, a blank
    /// line, the experiment's output, a blank line, `---`, a blank line
    /// — returning the section's text.
    pub fn run(&mut self, experiment: &Experiment, trials: Trials) -> &str {
        let start = self.text().len();
        self.section = experiment.id;
        self.note(format!("## {}\n", experiment.id));
        (experiment.run)(self, trials);
        self.note("\n---\n");
        &self.text()[start..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENTS.len());
    }

    #[test]
    fn select_keeps_the_given_order_and_rejects_unknown_ids() {
        let picked = select(&["thm22".into(), "figure1".into()]).unwrap();
        assert_eq!(picked[0].id, "thm22");
        assert_eq!(picked[1].id, "figure1");
        assert_eq!(select(&[]).unwrap().len(), EXPERIMENTS.len());
        let err = select(&["thm99".into()]).unwrap_err();
        assert_eq!(err, UnknownExperiment("thm99".into()));
        assert!(err.to_string().contains("thm21, thm22"));
    }

    #[test]
    fn a_section_is_heading_body_rule() {
        let mut report = Report::default();
        let demo = Experiment {
            id: "demo",
            source: "nowhere",
            run: |r, _| r.note("body"),
        };
        assert_eq!(
            report.run(&demo, Trials(None)),
            "## demo\n\nbody\n\n---\n\n"
        );
    }
}
