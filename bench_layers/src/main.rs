//! `bench_layers` — the repository's benchmark (see `BENCHMARK.json` at
//! the root and `README.md` beside this package).
//!
//! ```text
//! bench_layers --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! bench_layers --all [--seed N] [--seconds S]     every workload, both passes
//! bench_layers --smoke                            tiny counts, every workload
//! bench_layers --check A.tsv B.tsv                compare two result files
//! bench_layers --print-manifest                   BENCHMARK.json from the registry
//! ```
//!
//! One client, closed loop, single process. `--trace 0` measures the
//! end-to-end metrics with tracing off; `--trace 1` replays requests
//! with spans recorded around the calls into each layer and reports the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`. Any failed
//! correctness check makes the exit code non-zero.

#![forbid(unsafe_code)]

mod layers;
mod measure;
mod metrics;
mod report;
mod spans;
mod stats;
mod workload;
mod workloads;

use report::Row;
use std::process::ExitCode;

const DEFAULT_SEED: u64 = 1;

/// What one pass of one workload produced.
struct Pass {
    rows: Vec<Row>,
    metrics: Vec<(&'static metrics::Def, f64)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Pass {
    /// The contract's result line.
    fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(d, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name, v, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    fn print(&self) {
        for r in &self.rows {
            println!(
                "{:<10} {:<14} {:<36} {:>22} {}",
                r.kind, r.workload, r.metric, r.value, r.unit
            );
        }
        for e in &self.errors {
            println!("CHECK FAILED: {e}");
        }
    }
}

/// Run one pass of workload `name`.
fn run(name: &str, seed: u64, seconds: f64, trace: bool, smoke: bool) -> Result<Pass, String> {
    let mut w = workloads::build(name, seed, smoke)
        .ok_or_else(|| format!("unknown workload {name} (see --help)"))?;
    let mut pass = if trace {
        let t = layers::traced_pass(w.as_mut(), seconds, smoke);
        let metrics = t.values();
        let mut rows: Vec<Row> = metrics
            .iter()
            .map(|(d, v)| Row::metric("per_layer", name, d, *v))
            .collect();
        rows.push(Row::info(name, "spans", "count", t.rec.spans().len()));
        if !smoke {
            let path = report::out_dir().join(format!("trace_{name}.json"));
            std::fs::create_dir_all(report::out_dir())
                .and_then(|()| std::fs::write(&path, t.rec.to_json(name)))
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        Pass {
            rows,
            metrics,
            attempted: t.attempted,
            failed: t.failed,
            errors: t.errors,
        }
    } else {
        let e = measure::end_to_end(w.as_mut(), seconds, smoke);
        let values = [
            e.setup_s,
            e.req_per_s,
            e.pkts_per_s,
            e.sim.steps_per_norm(),
            e.sim.latency_percentile(0.5),
            e.sim.latency_percentile(0.99),
        ];
        let metrics: Vec<_> = metrics::END_TO_END.iter().zip(values).collect();
        let mut rows: Vec<Row> = metrics
            .iter()
            .map(|(d, v)| Row::metric("end_to_end", name, d, *v))
            .collect();
        rows.extend([
            Row::info(name, "sim_digest", "hash", e.sim.digest.value()),
            Row::info(name, "attempted", "count", e.attempted),
            Row::info(name, "failed", "count", e.failed),
            Row::info(
                name,
                "sim_lat_samples",
                "count",
                e.sim.latency.total() + e.sim.censored,
            ),
            Row::info(name, "sim_max_queue", "count", e.sim.max_queue),
            Row::info(name, "rounds", "count", e.rounds),
            Row::info(name, "setup_samples", "count", e.setups),
        ]);
        Pass {
            rows,
            metrics,
            attempted: e.attempted,
            failed: e.failed,
            errors: e.errors,
        }
    };
    for (d, v) in &pass.metrics {
        if !v.is_finite() {
            pass.errors
                .push(format!("{name}: {} is not a finite number", d.name));
        }
    }
    Ok(pass)
}

/// Every workload, both passes; writes `out/results.{tsv,json}`.
fn run_all(seed: u64, seconds: f64, smoke: bool) -> Result<bool, String> {
    let mut rows = Vec::new();
    let mut correct = true;
    for spec in workloads::SPECS {
        for trace in [false, true] {
            let pass = run(spec.name, seed, seconds, trace, smoke)?;
            pass.print();
            correct &= pass.errors.is_empty();
            rows.extend(pass.rows);
        }
    }
    if !smoke {
        report::write_results("results", seed, &rows).map_err(|e| format!("write results: {e}"))?;
        println!("wrote {}", report::out_dir().join("results.tsv").display());
    }
    Ok(correct)
}

fn usage() -> String {
    let names: Vec<&str> = workloads::SPECS.iter().map(|s| s.name).collect();
    format!(
        "usage: bench_layers --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
         bench_layers --all [--seed N] [--seconds S] | --smoke | --check A.tsv B.tsv | --print-manifest",
        names.join("|")
    )
}

fn real_main(args: &[String]) -> Result<bool, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = metrics::RUN_SECONDS as f64;
    let mut trace = false;
    let (mut all, mut smoke) = (false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value("a name")?.clone()),
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=60.0).contains(&seconds) {
                    return Err("--seconds must lie in 0..=60".into());
                }
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--all" => all = true,
            "--smoke" => smoke = true,
            "--check" => {
                let (a, b) = (value("two files")?.clone(), value("two files")?.clone());
                let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
                let (table, pass) = report::check(&read(&a)?, &read(&b)?)?;
                print!("{table}");
                println!("{}", if pass { "PASS" } else { "FAIL" });
                return Ok(pass);
            }
            "--print-manifest" => {
                print!("{}", metrics::manifest());
                return Ok(true);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(true);
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if all || smoke {
        return run_all(seed, seconds, smoke);
    }
    let name = workload.ok_or_else(usage)?;
    let pass = run(&name, seed, seconds, trace, false)?;
    pass.print();
    let stem = format!("{name}.trace{}", u8::from(trace));
    report::write_results(&stem, seed, &pass.rows).map_err(|e| format!("write results: {e}"))?;
    println!("{}", pass.json_line());
    Ok(pass.errors.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact part of a pass: everything but host times.
    fn exact(pass: &Pass) -> Vec<(String, String)> {
        pass.rows
            .iter()
            .filter(|r| {
                r.metric == "sim_digest" || metrics::find(&r.metric).is_some_and(|d| d.exact)
            })
            .map(|r| (r.metric.clone(), r.value.clone()))
            .collect()
    }

    #[test]
    fn smoke_of_every_workload_is_correct_exact_and_seeded() {
        for spec in workloads::SPECS {
            let a = run(spec.name, 1, 0.0, false, true).unwrap();
            let b = run(spec.name, 1, 0.0, false, true).unwrap();
            let c = run(spec.name, 2, 0.0, false, true).unwrap();
            assert!(a.errors.is_empty(), "{}: {:?}", spec.name, a.errors);
            assert_eq!(a.failed, 0, "{}", spec.name);
            assert!(a.attempted >= 1);
            assert_eq!(exact(&a), exact(&b), "{}: same seed", spec.name);
            assert_ne!(exact(&a), exact(&c), "{}: another seed", spec.name);
            assert_eq!(a.metrics.len(), metrics::END_TO_END.len());
            for (d, v) in &a.metrics {
                assert!(v.is_finite() && *v > 0.0, "{} {} = {v}", spec.name, d.name);
            }
            assert!(a
                .json_line()
                .starts_with("{\"correct\": true, \"attempted\": "));
        }
    }

    #[test]
    fn traced_smoke_reports_every_layer_metric() {
        for spec in workloads::SPECS {
            let a = run(spec.name, 1, 0.0, true, true).unwrap();
            let b = run(spec.name, 1, 0.0, true, true).unwrap();
            assert!(a.errors.is_empty(), "{}: {:?}", spec.name, a.errors);
            assert_eq!(a.metrics.len(), metrics::PER_LAYER.len());
            assert_eq!(exact(&a), exact(&b), "{}: exact layer counts", spec.name);
            let get = |n: &str| a.metrics.iter().find(|(d, _)| d.name == n).unwrap().1;
            assert!(get("bench.host_req_us_p50") > 0.0);
            assert!(get("topology.nodes") > 0.0);
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(real_main(&args("--workload nope")).is_err());
        assert!(real_main(&args("--workload")).is_err());
        assert!(real_main(&args("--trace 2 --workload route_dense")).is_err());
        assert!(real_main(&args("--seconds 61 --workload route_dense")).is_err());
        assert!(real_main(&args("--frobnicate")).is_err());
        assert!(real_main(&[]).is_err());
        assert_eq!(real_main(&args("--help")), Ok(true));
    }
}
