//! The traced pass: per-layer numbers, taken apart from the end-to-end
//! ones (which are always measured with tracing off).
//!
//! The part common to every workload lives here — untraced per-request
//! timing (the reference for `bench.trace_overhead_frac`), the queue
//! micro-probe, the command-line spawn, peak memory — and each workload
//! adds its own replay and probes through [`Workload::trace`].

use crate::metrics;
use crate::spans::Recorder;
use crate::stats::{median, percentile, tail_quantile};
use crate::workload::Workload;
use lnpram_routing::RouteBackend;
use lnpram_shard::AnyEngine;
use lnpram_simnet::queue::{LinkQueue, PacketPool};
use lnpram_simnet::{Discipline, Packet, SimConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// What a traced pass collects.
pub struct Trace {
    /// Spans recorded around the calls into each layer.
    pub rec: Recorder,
    /// Per-layer metric values by registered name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Failed correctness checks.
    pub errors: Vec<String>,
    /// Operations attempted by the untraced calls of the pass.
    pub attempted: u64,
    /// Operations failed among them.
    pub failed: u64,
    /// Tiny counts (`--smoke`).
    pub smoke: bool,
}

impl Trace {
    fn new(smoke: bool) -> Self {
        Trace {
            rec: Recorder::default(),
            layers: BTreeMap::new(),
            errors: Vec::new(),
            attempted: 0,
            failed: 0,
            smoke,
        }
    }

    /// Record a per-layer metric (the name must be registered).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            metrics::PER_LAYER.iter().any(|d| d.name == name),
            "unregistered per-layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// Record a failed check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// `full` repetitions, or `small` under `--smoke`.
    pub fn reps(&self, full: usize, small: usize) -> usize {
        if self.smoke {
            small
        } else {
            full
        }
    }

    /// `bench.trace_overhead_frac`: traced ÷ untraced time of the same
    /// requests − 1.
    pub fn set_trace_overhead(&mut self, traced_ns: u64, untraced_us: f64) {
        self.set(
            "bench.trace_overhead_frac",
            traced_ns as f64 / 1e3 / untraced_us.max(f64::MIN_POSITIVE) - 1.0,
        );
    }

    /// The set-up layers of a backend the benchmark owns: time to build
    /// the topology side (`make`) and the engine, and the engine's size.
    /// Returns the backend and one engine for the replay.
    pub fn set_build_layers<B: RouteBackend>(
        &mut self,
        make: fn() -> B,
        cfg: &SimConfig,
    ) -> (B, AnyEngine) {
        let reps = self.reps(9, 1);
        self.set("topology.build_us", median_us(reps, |_| make()));
        let backend = make();
        self.set(
            "simnet.engine_build_us",
            median_us(reps, |_| backend.build_engine(1, cfg)),
        );
        let eng = backend.build_engine(1, cfg);
        self.set("topology.nodes", eng.num_nodes() as f64);
        self.set("topology.links", eng.num_links() as f64);
        (backend, eng)
    }

    /// Every registered per-layer metric, 0 where the layer is not on
    /// this workload's path.
    pub fn values(&self) -> Vec<(&'static metrics::Def, f64)> {
        metrics::PER_LAYER
            .iter()
            .map(|d| (d, self.layers.get(d.name).copied().unwrap_or(0.0)))
            .collect()
    }
}

/// Wall time of `f` in microseconds.
pub fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e6)
}

/// Median wall time of `f(0..reps)` in microseconds.
pub fn median_us<T>(reps: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    let us: Vec<f64> = (0..reps).map(|i| time_us(|| f(i)).1).collect();
    median(&us)
}

/// Which side of an A/B probe a call measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The baseline.
    A,
    /// The variant.
    B,
}

/// Medians of the microseconds `f` reports for sides A and B of
/// repetition `i` (it times its own section), run in interleaved pairs
/// with the order alternating, so both sides see the same noise regime
/// (slow episodes on this box last seconds, a pair lasts milliseconds).
pub fn ab_us(reps: usize, mut f: impl FnMut(usize, Side) -> f64) -> (f64, f64) {
    let (mut ta, mut tb) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for i in 0..reps {
        if i % 2 == 0 {
            ta.push(f(i, Side::A));
            tb.push(f(i, Side::B));
        } else {
            tb.push(f(i, Side::B));
            ta.push(f(i, Side::A));
        }
    }
    (median(&ta), median(&tb))
}

/// `B ÷ A − 1` from [`ab_us`]: the fractional cost of B over A.
pub fn overhead_frac(reps: usize, f: impl FnMut(usize, Side) -> f64) -> f64 {
    let (ta, tb) = ab_us(reps, f);
    tb / ta.max(f64::MIN_POSITIVE) - 1.0
}

/// The traced pass of one workload.
pub fn traced_pass(w: &mut dyn Workload, seconds: f64, smoke: bool) -> Trace {
    let mut t = Trace::new(smoke);
    let size = w.size();
    w.setup();
    for i in 0..size.distinct {
        let out = w.call(i);
        t.attempted += out.attempted;
        t.failed += out.failed;
        t.errors.extend(out.error);
    }

    // Untraced per-request times over whole rounds, for about a third
    // of the pass: the p50/tail diagnostics, and the spread of the rates
    // of ~0.1 s blocks that marks a noisy run.
    let started = Instant::now();
    let (mut req_us, mut rates) = (Vec::new(), Vec::new());
    let (mut block, mut calls) = (Instant::now(), 0usize);
    while started.elapsed().as_secs_f64() < 0.3 * seconds || rates.len() < 2 {
        for i in 0..size.distinct {
            let (out, us) = time_us(|| w.call(i));
            t.attempted += out.attempted;
            t.failed += out.failed;
            req_us.push(us);
        }
        calls += size.distinct;
        if block.elapsed().as_secs_f64() >= 0.1 || smoke {
            rates.push(calls as f64 / block.elapsed().as_secs_f64());
            (block, calls) = (Instant::now(), 0);
        }
    }
    let q = tail_quantile(req_us.len());
    t.set("bench.block_rate_p50", median(&rates));
    t.set(
        "bench.block_rate_spread",
        percentile(&rates, 0.9) / percentile(&rates, 0.1).max(f64::MIN_POSITIVE),
    );
    t.set("bench.host_req_us_p50", median(&req_us));
    t.set("bench.host_req_us_tail", percentile(&req_us, q));
    t.set("bench.host_req_tail_q", q);
    t.set("bench.host_req_samples", req_us.len() as f64);

    w.trace(&mut t);

    let (fifo, ff) = queue_probe(t.reps(200_000, 2_000));
    t.set("simnet.queue_fifo_ns_per_op", fifo);
    t.set("simnet.queue_ff_ns_per_op", ff);
    // The smoke pass runs inside `cargo test`; it builds nothing.
    if !smoke {
        match cli_spawn_ms(w.cli_args(), 10) {
            Ok(ms) => t.set("cli.spawn_ms", ms),
            Err(e) => t.errors.push(e),
        }
    }
    t.set("bench.peak_rss_mb", peak_rss_mb());
    t
}

/// Nanoseconds per `LinkQueue` push + select + commit_pop on a
/// `PacketPool`, at a standing occupancy of 16, under FIFO and under
/// furthest-destination-first.
fn queue_probe(ops: usize) -> (f64, f64) {
    let run = |disc: Discipline| -> f64 {
        let mut pool = PacketPool::new();
        let mut q = LinkQueue::new();
        for i in 0..16usize {
            q.push(
                &mut pool,
                Packet::new(i as u32, 0, 1).with_priority((i * 37 % 23) as u32),
            );
        }
        let t = Instant::now();
        for _ in 0..ops {
            let sel = q.select(&pool, disc).expect("standing occupancy");
            let pkt = q.commit_pop(&mut pool, sel);
            q.push(&mut pool, black_box(pkt));
        }
        t.elapsed().as_secs_f64() * 1e9 / ops as f64
    };
    (run(Discipline::Fifo), run(Discipline::FurthestFirst))
}

/// The repository root: the benchmark's package sits directly under it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// Build the `lnpram` command-line binary (a no-op when it is current)
/// and return its path.
fn cli_binary() -> Result<PathBuf, String> {
    let root = repo_root();
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "lnpram",
        ])
        .current_dir(&root)
        .status()
        .map_err(|e| format!("cli: cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cli: building lnpram failed ({status})"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) if Path::new(&dir).is_absolute() => PathBuf::from(dir),
        // Cargo resolves a relative CARGO_TARGET_DIR against the
        // directory it runs in, which for the build above is the root.
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    Ok(target.join("release").join("lnpram"))
}

/// 10th percentile of `spawns` spawn-to-exit times of `lnpram <args>`.
fn cli_spawn_ms(args: &[&str], spawns: usize) -> Result<f64, String> {
    let bin = cli_binary()?;
    let mut ms = Vec::with_capacity(spawns);
    for _ in 0..spawns {
        let t = Instant::now();
        let out = Command::new(&bin)
            .args(args)
            .output()
            .map_err(|e| format!("cli: cannot spawn {}: {e}", bin.display()))?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        if !out.status.success() {
            return Err(format!(
                "cli: lnpram {} exited with {}",
                args.join(" "),
                out.status
            ));
        }
    }
    Ok(percentile(&ms, 0.1))
}

/// Peak resident set (`VmHWM`) in MB; 0 where `/proc` has none.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ab_probe_orders_and_ratio() {
        let mut order = Vec::new();
        let medians = ab_us(3, |i, side| {
            order.push((side, i));
            match side {
                Side::A => [5.0, 1.0, 3.0][i],
                Side::B => [6.0, 60.0, 12.0][i],
            }
        });
        use Side::{A, B};
        assert_eq!(order, vec![(A, 0), (B, 0), (B, 1), (A, 1), (A, 2), (B, 2)]);
        assert_eq!(medians, (3.0, 12.0));
        let frac = overhead_frac(1, |_, side| if side == A { 4.0 } else { 5.0 });
        assert_eq!(frac, 0.25);
    }

    #[test]
    fn queue_probe_and_rss_read_positive() {
        let (fifo, ff) = queue_probe(1_000);
        assert!(fifo > 0.0 && ff > 0.0);
        assert!(peak_rss_mb() >= 0.0);
    }
}
