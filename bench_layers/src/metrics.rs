//! The metric registry: every name the benchmark prints, with its unit,
//! direction and (end to end) regression bound. `BENCHMARK.json` at the
//! repository root is rendered from these tables (`--print-manifest`)
//! and a test keeps the two equal.

use crate::workloads;
use lnpram_bench::json;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric definition. `bound` is the share of the baseline by which an
/// end-to-end metric may get worse before it counts as a regression;
/// per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound (end to end only).
    pub bound: Option<f64>,
    /// A pure function of the seed: must be bit-equal between two runs of
    /// one commit with one seed.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn sim(name: &'static str, unit: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
        exact: true,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

/// How long one run measures.
pub const RUN_SECONDS: u64 = 15;

/// End-to-end metrics, reported by every workload with `--trace 0`.
///
/// Host rates are read at the clean floor (see `measure`); the simulated
/// ones are pure functions of the seed, and their bounds only have to
/// cover how much they differ from seed to seed. The host bounds are as
/// wide as a bound may be: in its noisy hours the reference box moves
/// whole 15-second runs by 10–20 % (README, "Steadiness"), so a tighter
/// gate would reject unchanged code. A claim of a gain needs paired
/// alternating runs, not this gate.
pub const END_TO_END: &[Def] = &[
    host("setup_s", "s", Better::Lower, 0.25),
    host("req_per_s", "1/s", Better::Higher, 0.25),
    host("pkts_per_s", "1/s", Better::Higher, 0.25),
    sim("sim_steps_per_norm", "ratio", 0.10),
    sim("sim_lat_p50_steps", "steps", 0.10),
    sim("sim_lat_p99_steps", "steps", 0.25),
];

use Better::{Higher, Lower};

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer that is not on a workload's path reads 0 there.
pub const PER_LAYER: &[Def] = &[
    // The benchmark itself: diagnostics, move nothing.
    layer("bench.block_rate_p50", "1/s", Higher),
    layer("bench.block_rate_spread", "ratio", Lower),
    layer("bench.host_req_us_p50", "us", Lower),
    layer("bench.host_req_us_tail", "us", Lower),
    layer("bench.host_req_tail_q", "ratio", Higher),
    layer("bench.host_req_samples", "count", Higher),
    layer("bench.peak_rss_mb", "MB", Lower),
    layer("bench.trace_overhead_frac", "ratio", Lower),
    // topology → setup_s, all workloads.
    layer("topology.build_us", "us", Lower),
    count("topology.nodes", "count", Lower),
    count("topology.links", "count", Lower),
    // simnet → pkts_per_s on route_dense, req_per_s on route_sparse.
    layer("simnet.engine_build_us", "us", Lower),
    layer("simnet.reset_us", "us", Lower),
    layer("simnet.run_us", "us", Lower),
    layer("simnet.run_share", "ratio", Lower),
    count("simnet.steps_per_req", "steps", Lower),
    layer("simnet.steps_per_s", "1/s", Higher),
    count("simnet.hops_per_req", "count", Lower),
    layer("simnet.ns_per_hop", "ns", Lower),
    layer("simnet.ns_per_step", "ns", Lower),
    layer("simnet.transmit_share", "ratio", Lower),
    layer("simnet.process_share", "ratio", Lower),
    count("simnet.max_queue", "count", Lower),
    count("simnet.queued_pkt_steps_per_req", "count", Lower),
    layer("simnet.queue_fifo_ns_per_op", "ns", Lower),
    layer("simnet.queue_ff_ns_per_op", "ns", Lower),
    layer("simnet.fault_gate_overhead_frac", "ratio", Lower),
    // shard → req_per_s on serve_sharded only.
    layer("shard.plan_build_us", "us", Lower),
    layer("shard.exchange_share", "ratio", Lower),
    count("shard.boundary_pkts_per_step", "count", Lower),
    layer("shard.k2_t1_over_serial", "ratio", Higher),
    layer("shard.k2_t2_over_serial", "ratio", Higher),
    // routing → req_per_s on route_dense, route_sparse.
    layer("routing.inject_us", "us", Lower),
    layer("routing.inject_share", "ratio", Lower),
    layer("routing.session_overhead_us", "us", Lower),
    layer("routing.demux_overhead_frac", "ratio", Lower),
    layer("routing.batch_t4_over_sequential", "ratio", Lower),
    // serve → req_per_s, sim_lat_p99_steps on serve_sharded, serve_faulted.
    layer("serve.trace_build_us", "us", Lower),
    layer("serve.admit_share", "ratio", Lower),
    count("serve.deferred_req_steps_per_trace", "count", Lower),
    count("serve.max_backlog", "count", Lower),
    count("serve.rejected", "count", Lower),
    count("serve.stranded_pkts_per_trace", "count", Lower),
    count("serve.steps_per_trace", "steps", Lower),
    count("serve.fairness_index", "ratio", Higher),
    count("serve.slo_attainment", "ratio", Higher),
    layer("serve.overhead_vs_route_frac", "ratio", Lower),
    count("serve.max_rate_pkts_per_step", "count", Higher),
    // adaptive → req_per_s on adaptive_mesh only.
    layer("adaptive.price_us", "us", Lower),
    layer("adaptive.price_share", "ratio", Lower),
    layer("adaptive.run_us", "us", Lower),
    count("adaptive.iterations", "count", Lower),
    count("adaptive.max_link_load", "count", Lower),
    layer("adaptive.cost_over_oblivious", "ratio", Lower),
    // hash, pram, core → req_per_s, sim_steps_per_norm on emulate_star.
    layer("hash.sample_us", "us", Lower),
    layer("hash.eval_ns", "ns", Lower),
    count("hash.max_module_load", "count", Lower),
    layer("pram.reference_run_us", "us", Lower),
    count("pram.steps_per_program", "steps", Lower),
    layer("core.emulator_build_us", "us", Lower),
    layer("core.emulate_step_us_p50", "us", Lower),
    count("core.request_steps", "steps", Lower),
    count("core.reply_steps", "steps", Lower),
    count("core.service_steps", "steps", Lower),
    count("core.requests_per_step", "count", Lower),
    count("core.combined_per_step", "count", Higher),
    count("core.rehashes_per_program", "count", Lower),
    count("core.max_queue", "count", Lower),
    // The only number that includes process start and flag parsing.
    layer("cli.spawn_ms", "ms", Lower),
];

/// Look a metric up by name in either table.
pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> String {
    let strings = |xs: &[&str]| -> String {
        let quoted: Vec<String> = xs.iter().map(|s| json::string(s)).collect();
        format!("[{}]", quoted.join(", "))
    };
    let workloads: Vec<String> = workloads::SPECS
        .iter()
        .map(|s| {
            json::Obj::new()
                .str_field("name", s.name)
                .str_field("why", s.why)
                .render()
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            json::Obj::new()
                .str_field("name", d.name)
                .str_field("unit", d.unit)
                .str_field("better", d.better.name())
                .field("bound", d.bound.expect("end-to-end metrics are bounded"))
                .render()
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            json::Obj::new()
                .str_field("name", d.name)
                .str_field("unit", d.unit)
                .str_field("better", d.better.name())
                .render()
        })
        .collect();
    json::Obj::new()
        .field(
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "bench_layers/Cargo.toml",
                "--",
            ]),
        )
        .field("paths", strings(&["bench_layers"]))
        .field("run_seconds", RUN_SECONDS)
        .field("workloads", json::array_lines(&workloads, 4))
        .field("end_to_end", json::array_lines(&end_to_end, 4))
        .field("per_layer", json::array_lines(&per_layer, 4))
        .render_lines(2)
        + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn registry_meets_the_manifest_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.extend(workloads::SPECS.iter().map(|s| s.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&workloads::SPECS.len()));
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.unit.len() <= 16, "{}", d.name);
            assert!(
                d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                d.name
            );
        }
        for d in END_TO_END {
            let b = d.bound.expect("bounded");
            assert!(b > 0.0 && b <= 0.25, "{}", d.name);
        }
        let setup = find("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
        for s in workloads::SPECS {
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
        }
        assert!(manifest().len() <= 64 * 1024);
    }

    #[test]
    fn committed_manifest_is_the_rendered_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `--print-manifest > BENCHMARK.json`"
        );
    }
}
