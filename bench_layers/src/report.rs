//! Result rows, the files a run leaves under `bench_layers/out/`, and
//! `--check A B`.
//!
//! The flat `results.tsv` (`kind\tworkload\tmetric\tunit\tvalue`) is the
//! format `--check` reads back, so no JSON parser is needed anywhere;
//! `results.json` carries the same rows for other tools.

use crate::metrics::{self, Better};
use lnpram_bench::json;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// One printed number.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// `end_to_end`, `per_layer` or `info` (counts that are not metrics:
    /// operations, blocks, the digest).
    pub kind: &'static str,
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// The value as measured, with all its digits (`info` rows may hold
    /// integers wider than a float).
    pub value: String,
}

impl Row {
    /// A metric row.
    pub fn metric(kind: &'static str, workload: &str, def: &metrics::Def, value: f64) -> Row {
        Row {
            kind,
            workload: workload.to_string(),
            metric: def.name.to_string(),
            unit: def.unit.to_string(),
            value: value.to_string(),
        }
    }

    /// An `info` row.
    pub fn info(workload: &str, metric: &str, unit: &str, value: impl ToString) -> Row {
        Row {
            kind: "info",
            workload: workload.to_string(),
            metric: metric.to_string(),
            unit: unit.to_string(),
            value: value.to_string(),
        }
    }
}

/// Where a run writes: `out/` inside the benchmark's own directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write `out/<stem>.tsv` and `out/<stem>.json`.
pub fn write_results(stem: &str, seed: u64, rows: &[Row]) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(format!("{stem}.tsv")), to_tsv(rows))?;
    let objects: Vec<String> = rows
        .iter()
        .map(|r| {
            json::Obj::new()
                .str_field("kind", r.kind)
                .str_field("workload", &r.workload)
                .str_field("metric", &r.metric)
                .str_field("unit", &r.unit)
                .str_field("value", &r.value)
                .render()
        })
        .collect();
    let doc = json::Obj::new()
        .str_field("bench", "bench_layers")
        .field("seed", seed)
        .field("rows", json::array_lines(&objects, 4))
        .render_lines(2);
    std::fs::write(dir.join(format!("{stem}.json")), doc + "\n")
}

/// Rows as tab-separated lines under a header.
pub fn to_tsv(rows: &[Row]) -> String {
    let mut out = String::from("kind\tworkload\tmetric\tunit\tvalue\n");
    for r in rows {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\n",
            r.kind, r.workload, r.metric, r.unit, r.value
        ));
    }
    out
}

/// `(workload, metric) → value` of a results `.tsv`.
fn parse_tsv(text: &str) -> Result<BTreeMap<(String, String), String>, String> {
    let mut map = BTreeMap::new();
    for (n, line) in text.lines().enumerate().skip(1) {
        let cols: Vec<&str> = line.split('\t').collect();
        let [_, workload, metric, _, value] = cols[..] else {
            return Err(format!("line {}: expected 5 tab-separated columns", n + 1));
        };
        map.insert(
            (workload.to_string(), metric.to_string()),
            value.to_string(),
        );
    }
    Ok(map)
}

/// Compare run `b` against baseline `a` (both `.tsv` texts). Returns the
/// printed table and whether `b` passes: every exact metric and digest
/// equal, every bounded metric no worse than its bound, no more failed
/// operations.
pub fn check(a: &str, b: &str) -> Result<(String, bool), String> {
    let (a, b) = (parse_tsv(a)?, parse_tsv(b)?);
    let mut out = format!(
        "{:<14} {:<34} {:>18} {:>18} {:>9}  verdict\n",
        "workload", "metric", "A (base)", "B", "B/A"
    );
    let mut pass = true;
    for ((workload, metric), va) in &a {
        let Some(vb) = b.get(&(workload.clone(), metric.clone())) else {
            out.push_str(&format!("{workload:<14} {metric:<34} missing from B\n"));
            pass = false;
            continue;
        };
        let def = metrics::find(metric);
        let (fa, fb) = (va.parse::<f64>(), vb.parse::<f64>());
        let ratio = match (&fa, &fb) {
            (Ok(x), Ok(y)) if *x != 0.0 => format!("{:.4}", y / x),
            _ => "-".to_string(),
        };
        let (verdict, ok) = match (def, fa, fb) {
            _ if metric == "sim_digest" || def.is_some_and(|d| d.exact) => {
                if va == vb {
                    ("equal", true)
                } else {
                    ("differs (exact)", false)
                }
            }
            (_, Ok(x), Ok(y)) if metric == "failed" => {
                if y <= x {
                    ("ok", true)
                } else {
                    ("more failed", false)
                }
            }
            (
                Some(metrics::Def {
                    bound: Some(bound),
                    better,
                    ..
                }),
                Ok(x),
                Ok(y),
            ) => {
                let worse = match better {
                    Better::Lower => y > x * (1.0 + bound),
                    Better::Higher => y < x * (1.0 - bound),
                };
                if worse {
                    ("worse than bound", false)
                } else {
                    ("within bound", true)
                }
            }
            _ => ("-", true),
        };
        pass &= ok;
        out.push_str(&format!(
            "{workload:<14} {metric:<34} {va:>18} {vb:>18} {ratio:>9}  {verdict}\n"
        ));
    }
    Ok((out, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(req: f64, p99: f64, digest: u64, failed: u64) -> String {
        let def = |n| metrics::find(n).expect("registered");
        to_tsv(&[
            Row::metric("end_to_end", "route_dense", def("req_per_s"), req),
            Row::metric("end_to_end", "route_dense", def("sim_lat_p99_steps"), p99),
            Row::metric("per_layer", "route_dense", def("simnet.run_us"), req / 7.0),
            Row::info("route_dense", "sim_digest", "hash", digest),
            Row::info("route_dense", "failed", "count", failed),
        ])
    }

    #[test]
    fn check_passes_within_bounds_and_on_unbounded_layer_moves() {
        let (table, pass) = check(&rows(1000.0, 24.5, 7, 0), &rows(950.0, 24.5, 7, 0)).unwrap();
        assert!(pass, "{table}");
        assert!(table.contains("within bound"));
        assert!(table.contains("0.9500"));
        assert!(table.contains("equal"));
    }

    #[test]
    fn check_fails_on_each_kind_of_regression() {
        let base = rows(1000.0, 24.5, 7, 0);
        let slower = check(&base, &rows(700.0, 24.5, 7, 0)).unwrap();
        assert!(!slower.1 && slower.0.contains("worse than bound"));
        let inexact = check(&base, &rows(1000.0, 24.6, 7, 0)).unwrap();
        assert!(!inexact.1 && inexact.0.contains("differs (exact)"));
        let digest = check(&base, &rows(1000.0, 24.5, 8, 0)).unwrap();
        assert!(!digest.1);
        let failed = check(&base, &rows(1000.0, 24.5, 7, 3)).unwrap();
        assert!(!failed.1 && failed.0.contains("more failed"));
        // Faster, and fewer failures, is never a failure.
        assert!(
            check(&rows(1000.0, 24.5, 7, 3), &rows(2000.0, 24.5, 7, 0))
                .unwrap()
                .1
        );
        // A row that disappeared is.
        let short = base.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(!check(&base, &short).unwrap().1);
        assert!(check("kind\nbroken line", &base).is_err());
    }
}
