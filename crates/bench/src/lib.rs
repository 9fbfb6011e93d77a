//! # lnpram-bench
//!
//! The reproduction harness: every table and figure of the paper is an
//! [`Experiment`](experiments::Experiment) in the
//! [`experiments::EXPERIMENTS`] registry, run by the one `reproduce`
//! binary. This library holds the shared machinery — trial runners,
//! distribution digests, plain-text table rendering and the [`Report`]
//! the experiments write into — so every experiment stays a thin
//! definition. Host time is `bench_layers/`'s business, not this
//! crate's.
//!
//! Conventions:
//!
//! * every randomized experiment reports over ≥ `trials` seeds with the
//!   mean / p95 / max of the measured quantity;
//! * every time is reported both raw and normalised by the theorem's unit
//!   (ℓ, the diameter, or n) so the bound's *constant* is visible;
//! * every printed number is a simulated quantity — a pure function of
//!   the seeds, independent of host, thread count and build profile — so
//!   `reproduce`'s output is compared byte for byte: `EXPERIMENTS.md` at
//!   the repository root is that output at paper sizes, and
//!   `tests/reproduce_golden.rs` pins it at two trials.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod json;

use lnpram_math::stats::{par_trial_values, Summary};
use lnpram_simnet::Metrics;

/// The `LNPRAM_TRIALS` rule as a value: `None` runs each trial loop at
/// its own paper-size default, `Some(n)` runs every such loop `n` times.
/// Counts an experiment hard-codes are not trial loops in this sense and
/// ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trials(pub Option<u64>);

impl Trials {
    /// Read `LNPRAM_TRIALS`; `0` or garbage means unset. The only place
    /// this crate reads the environment — `main` functions and tests
    /// call it, experiments take the value.
    pub fn from_env() -> Self {
        Trials(parse_trials(std::env::var("LNPRAM_TRIALS").ok().as_deref()))
    }

    /// Number of trials to actually run at a site whose paper-size
    /// default is `default`.
    pub fn count(self, default: u64) -> u64 {
        self.0.unwrap_or(default)
    }
}

/// `Trials::from_env().count(default)`, for tests and examples.
///
/// CI sets `LNPRAM_TRIALS` to a small value so `cargo test -q` stays
/// fast, while `reproduce` keeps its full-size sweeps when the variable
/// is unset.
pub fn trial_count(default: u64) -> u64 {
    Trials::from_env().count(default)
}

/// The parsing rule behind [`Trials::from_env`], separated so tests
/// don't have to mutate process environment (`setenv` racing another
/// thread's `getenv` is UB on glibc).
fn parse_trials(var: Option<&str>) -> Option<u64> {
    var.and_then(|v| v.trim().parse().ok()).filter(|&n| n > 0)
}

/// Run `f` for seeds `0..trials` and summarise the returned values: the
/// workspace's parallel trial-runner under the name the experiments use.
///
/// Trials run across worker threads (std scoped threads, one per core,
/// work handed out by an atomic counter). The per-seed closure must be
/// `Sync` — the experiments' are, since they build their own sessions.
/// Results are collected in seed order, so the summary is identical to
/// the serial loop's (determinism is per seed, not per schedule).
pub use lnpram_math::stats::par_summary as trials;

/// Routing time and maximum queue length over seeds `0..trials`, both
/// read from **one** simulation per seed (runs are deterministic per
/// seed, so two passes would only repeat the work).
pub struct Measured {
    /// Digest of `metrics.routing_time`.
    pub time: Summary,
    /// Digest of `metrics.max_queue`.
    pub queue: Summary,
}

/// Run `f` — one simulation, returning its metrics — for seeds
/// `0..trials` in parallel, seed order preserved, and digest each run's
/// routing time and maximum queue.
pub fn measure<F>(trials: u64, f: F) -> Measured
where
    F: Fn(u64) -> Metrics + Sync,
{
    let (time, queue): (Vec<f64>, Vec<f64>) = par_trial_values(trials, |seed| {
        let metrics = f(seed);
        (metrics.routing_time as f64, metrics.max_queue as f64)
    })
    .into_iter()
    .unzip();
    Measured {
        time: Summary::of(&time),
        queue: Summary::of(&queue),
    }
}

/// A plain-text table builder with fixed-width columns.
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and its column names, written as the
    /// header row reads: `"n | time (p95/max) | time/n"`.
    pub fn new(title: impl Into<String>, header: &str) -> Self {
        Table {
            title: title.into(),
            header: header.split('|').map(|s| s.trim().to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = format!("## {}\n\n", self.title);
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::from("|");
            for (w, cell) in widths.iter().zip(cells) {
                line.push_str(&format!(" {cell:>w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        out.push('\n');
        out
    }
}

/// The text an experiment produces — tables, notes, figure renderings —
/// accumulated in memory so a test can compare it without spawning a
/// process, plus the outcome of every bound it [claims](Report::claim).
#[derive(Debug, Default)]
pub struct Report {
    text: String,
    /// Id of the experiment being run, for violation messages.
    section: &'static str,
    claims: usize,
    violations: Vec<String>,
}

impl Report {
    /// Append a rendered table.
    pub fn table(&mut self, table: &Table) {
        self.text.push_str(&table.render());
    }

    /// Append `text` and a newline (what `println!` would have printed).
    pub fn note(&mut self, text: impl AsRef<str>) {
        self.text.push_str(text.as_ref());
        self.text.push('\n');
    }

    /// Everything appended so far.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// State a bound the paper asserts: on table row `row`, `value` of
    /// `metric` must not exceed `bound`. A claim prints nothing where it
    /// is made; [`Report::claims_summary`] reports the count and every
    /// violation.
    pub fn claim(&mut self, row: &str, metric: &str, value: f64, bound: f64) {
        self.claims += 1;
        // False for a NaN too, which therefore counts as a violation.
        if value <= bound {
            return;
        }
        let section = self.section;
        self.violations.push(format!(
            "{section} / {row}: {metric} = {value:.2} exceeds {bound:.2}"
        ));
    }

    /// The claims that did not hold, one message each.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// `claims: N checked, V violated`, then one line per violation —
    /// the last thing `reproduce` prints.
    pub fn claims_summary(&self) -> String {
        let (checked, violated) = (self.claims, self.violations.len());
        let mut out = format!("claims: {checked} checked, {violated} violated\n");
        for violation in &self.violations {
            out.push_str(&format!("  violated: {violation}\n"));
        }
        out
    }
}

/// Format helpers for table cells.
pub mod fmt {
    use lnpram_math::stats::Summary;

    /// `mean (p95/max)` of a summary, one decimal.
    pub fn dist(s: &Summary) -> String {
        format!("{:.1} ({:.1}/{:.0})", s.mean, s.p95, s.max)
    }

    /// A float with the given precision.
    pub fn f(x: f64, prec: usize) -> String {
        format!("{x:.prec$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trials_summary() {
        let s = trials(10, |seed| seed as f64);
        assert_eq!(s.count, 10);
        assert!((s.mean - 4.5).abs() < 1e-12);
    }

    #[test]
    fn par_trials_matches_serial() {
        let serial: Vec<f64> = (0..16u64).map(|seed| (seed * seed) as f64).collect();
        let parallel = trials(16, |seed| (seed * seed) as f64);
        assert_eq!(Summary::of(&serial), parallel);
    }

    #[test]
    fn trial_count_parsing() {
        let count = |var| Trials(parse_trials(var)).count(12);
        assert_eq!(count(None), 12);
        assert_eq!(count(Some("3")), 3);
        assert_eq!(count(Some(" 5 ")), 5);
        assert_eq!(count(Some("0")), 12);
        assert_eq!(count(Some("not-a-number")), 12);
        assert_eq!(count(Some("")), 12);
    }

    #[test]
    fn claims_are_counted_and_violations_reported() {
        let mut r = Report::default();
        r.claim("row a", "time/l", 2.7, 3.0);
        r.claim("row b", "time/l", 3.0, 3.0);
        assert_eq!(r.claims_summary(), "claims: 2 checked, 0 violated\n");
        r.claim("row c", "time/l", 3.01, 3.0);
        r.claim("row d", "rehashes", f64::NAN, 0.0);
        assert_eq!(r.violations().len(), 2);
        assert_eq!(
            r.claims_summary(),
            "claims: 4 checked, 2 violated\n  \
             violated:  / row c: time/l = 3.01 exceeds 3.00\n  \
             violated:  / row d: rehashes = NaN exceeds 0.00\n"
        );
        assert!(
            r.text().is_empty(),
            "a claim prints nothing where it is made"
        );
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", "a | long-col");
        t.row(&["1".into(), "2".into()]);
        t.row(&["100".into(), "x".into()]);
        let r = t.render();
        assert!(r.contains("## demo"));
        assert!(r.contains("| 100 |"));
        let widths: Vec<usize> = r
            .lines()
            .skip(2)
            .filter(|l| !l.is_empty())
            .map(str::len)
            .collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{r}");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn row_arity_checked() {
        let mut t = Table::new("demo", "a | b");
        t.row(&["only-one".into()]);
    }
}
