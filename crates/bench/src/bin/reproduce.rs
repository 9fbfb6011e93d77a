//! Reproduce the paper's tables and figures: run the experiments of
//! [`lnpram_bench::experiments::EXPERIMENTS`] and print their report.
//!
//! ```sh
//! cargo run --release -p lnpram-bench --bin reproduce                  # everything
//! cargo run --release -p lnpram-bench --bin reproduce -- --list        # ids and sources
//! cargo run --release -p lnpram-bench --bin reproduce -- --only thm21 thm32
//! ```
//!
//! The full output at paper sizes is `EXPERIMENTS.md`; `LNPRAM_TRIALS=n`
//! shrinks every trial loop to `n` seeds.

use lnpram_bench::experiments::{select, EXPERIMENTS};
use lnpram_bench::{Report, Trials};
use std::process::ExitCode;

const USAGE: &str = "usage: reproduce [--list | --only <id>...]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids = match args.split_first() {
        None => &[][..],
        Some((flag, [])) if flag == "--list" => {
            for e in EXPERIMENTS {
                println!("{:<24}{}", e.id, e.source);
            }
            return ExitCode::SUCCESS;
        }
        Some((flag, ids)) if flag == "--only" && !ids.is_empty() => ids,
        Some(_) => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let selected = match select(ids) {
        Ok(selected) => selected,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let trials = Trials::from_env();
    let mut report = Report::default();
    for experiment in selected {
        print!("{}", report.run(experiment, trials));
    }
    print!("{}", report.claims_summary());
    // Exit 1 when a claim is violated.
    ExitCode::from(u8::from(!report.violations().is_empty()))
}
