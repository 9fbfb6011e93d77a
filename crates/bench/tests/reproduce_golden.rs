//! Byte-exact golden of the paper's tables and figures.
//!
//! `golden/reproduce_t2.txt` is what `reproduce` prints at
//! `LNPRAM_TRIALS=2`: every experiment of the registry, in order, each
//! rendered as
//!
//! ```text
//! ## <id>\n\n<the experiment's output, byte for byte>\n---\n\n
//! ```
//!
//! and a last line `claims: N checked, 0 violated` — the bounds the
//! theorem experiments state through `Report::claim`, none of which may
//! fail at either scale.
//!
//! `EXPERIMENTS.md` at the repository root is the same rendering at
//! paper sizes (`LNPRAM_TRIALS` unset); CI diffs a fresh run against
//! it. Both files were first recorded from the per-table binaries the
//! registry replaced. Every printed number is a function of the seeds
//! alone, so neither file depends on the thread count or the build
//! profile. The trial count is pinned here as a value, whatever
//! `LNPRAM_TRIALS` says in the environment.

use lnpram_bench::experiments::EXPERIMENTS;
use lnpram_bench::{Report, Trials};

#[test]
fn tables_and_figures_match_the_golden_at_two_trials() {
    let mut report = Report::default();
    for experiment in EXPERIMENTS {
        report.run(experiment, Trials(Some(2)));
    }
    assert_eq!(report.violations(), &[] as &[String], "violated claims");
    let out = format!("{}{}", report.text(), report.claims_summary());
    let golden = include_str!("golden/reproduce_t2.txt");
    if let Some(line) = out.lines().zip(golden.lines()).position(|(a, b)| a != b) {
        panic!(
            "output differs from golden/reproduce_t2.txt at line {}:\n  got:    {:?}\n  golden: {:?}",
            line + 1,
            out.lines().nth(line),
            golden.lines().nth(line)
        );
    }
    assert_eq!(
        out.len(),
        golden.len(),
        "one output is a prefix of the other"
    );
}
