//! `lnpram` — command-line front end to the library.
//!
//! ```text
//! lnpram audit   --topology star --n 4
//! lnpram route   --topology mesh --n 32 --algorithm three-stage --trials 8
//! lnpram serve   --topology butterfly --k 5 --tenants 4 --requests 32
//! lnpram emulate --host butterfly --k 6 --program prefix-sum
//! lnpram help
//! ```
//!
//! Argument parsing is hand-rolled (`--key value` pairs after a
//! subcommand) to stay within the approved dependency set. Failures are
//! typed ([`CliError`]) so argument mistakes (`--tenants 0`, `--shards`
//! out of range), unknown names and simulation failures are reported
//! distinctly instead of panicking or silently clamping.

#![forbid(unsafe_code)]

use lnpram::adaptive::{AdaptiveBackend, AdaptiveConfig, AdaptiveRoutingSession};
use lnpram::core::{
    EmuHost, EmuReport, EmulatorConfig, LeveledPramEmulator, MeshPramEmulator, PramEmulator,
    StarPramEmulator,
};
use lnpram::pram::machine::PramMachine;
use lnpram::pram::model::{AccessMode, PramProgram, WritePolicy};
use lnpram::pram::programs::{ConnectedComponents, Histogram, PrefixSum, ReductionMax};
use lnpram::routing::ccc::CccBackend;
use lnpram::routing::hypercube::CubeBackend;
use lnpram::routing::leveled::LeveledBackend;
use lnpram::routing::mesh::{
    canonical_discipline, default_block_rows, default_slice_rows, MeshAlgorithm, MeshBackend,
};
use lnpram::routing::shuffle::ShuffleBackend;
use lnpram::routing::star::StarBackend;
use lnpram::routing::{
    OpenLoopWorkload, OverloadPolicy, RouteBackend, RouteRequest, Router, RoutingSession,
    RunExtras, Serve, ServeConfig, ServeError, ServeSession,
};
use lnpram::shard::MAX_SHARDS;
use lnpram::simnet::{Discipline, ServeEvent, ServeEventLog, SimConfig};
use lnpram::topology::graph::audit;
use lnpram::topology::hypercube::Hypercube;
use lnpram::topology::leveled::{audit_unique_paths, Leveled, RadixButterfly, UnrolledShuffle};
use lnpram::topology::{CubeConnectedCycles, DWayShuffle, Mesh, Network, StarGraph};
use std::collections::HashMap;
use std::fmt;
use std::process::ExitCode;

/// Every way an `lnpram` invocation can fail, typed so argument
/// mistakes, unknown names and simulation failures print distinctly
/// (and tests can match on the class, not the prose).
#[derive(Debug, Clone, PartialEq, Eq)]
enum CliError {
    /// A required flag was not given.
    MissingFlag(&'static str),
    /// A flag's value failed validation (bad number, zero tenants,
    /// shard count out of range, ...).
    InvalidFlag {
        flag: String,
        value: String,
        reason: String,
    },
    /// An unknown command / topology / algorithm / program name.
    Unknown { what: &'static str, got: String },
    /// The simulation itself failed (budget exhausted, divergence).
    Run(String),
    /// A typed serve-layer failure ([`ServeError`]).
    Serve(ServeError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingFlag(flag) => write!(f, "--{flag} required"),
            CliError::InvalidFlag {
                flag,
                value,
                reason,
            } => {
                write!(f, "--{flag} {value}: {reason}")
            }
            CliError::Unknown { what, got } => write!(f, "unknown {what} '{got}'"),
            CliError::Run(msg) => write!(f, "{msg}"),
            CliError::Serve(err) => write!(f, "serve: {err}"),
        }
    }
}

impl From<ServeError> for CliError {
    fn from(err: ServeError) -> Self {
        CliError::Serve(err)
    }
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, CliError> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| CliError::InvalidFlag {
                flag: key.clone(),
                value: String::new(),
                reason: "expected --flag".into(),
            })?;
        let value = it.next().ok_or_else(|| CliError::InvalidFlag {
            flag: key.to_string(),
            value: String::new(),
            reason: "needs a value".into(),
        })?;
        flags.insert(key.to_string(), value.clone());
    }
    Ok(flags)
}

fn get_usize(
    flags: &HashMap<String, String>,
    key: &str,
    default: usize,
) -> Result<usize, CliError> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| CliError::InvalidFlag {
            flag: key.to_string(),
            value: v.clone(),
            reason: "not a number".into(),
        }),
    }
}

fn get_u64(flags: &HashMap<String, String>, key: &str, default: u64) -> Result<u64, CliError> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| CliError::InvalidFlag {
            flag: key.to_string(),
            value: v.clone(),
            reason: "not a number".into(),
        }),
    }
}

/// A numeric flag whose value is out of range.
fn invalid_flag(flag: &str, value: usize, reason: String) -> CliError {
    CliError::InvalidFlag {
        flag: flag.into(),
        value: value.to_string(),
        reason,
    }
}

/// `--tenants` must be ≥ 1: zero tenants is a request for no work and
/// was historically clamped to 1 silently.
fn get_tenants(flags: &HashMap<String, String>, default: u64) -> Result<u64, CliError> {
    let tenants = get_u64(flags, "tenants", default)?;
    if tenants == 0 {
        return Err(invalid_flag("tenants", 0, "must be ≥ 1".into()));
    }
    Ok(tenants)
}

/// `--shards` is 0/1 (serial engine) or 2..=MAX_SHARDS (partitioned
/// lockstep). Larger values used to be clamped deep inside the engine;
/// the CLI now refuses them up front.
fn get_shards(flags: &HashMap<String, String>) -> Result<usize, CliError> {
    let shards = get_usize(flags, "shards", 0)?;
    if shards > MAX_SHARDS {
        let reason = format!("must be 0/1 (serial) or 2..={MAX_SHARDS}");
        return Err(invalid_flag("shards", shards, reason));
    }
    Ok(shards)
}

/// The `--n`-star, or a typed error for an `n` that has no star graph
/// (`StarGraph::new` panics on those).
fn star_graph(n: usize) -> Result<StarGraph, CliError> {
    StarGraph::try_new(n).map_err(|e| invalid_flag("n", n, e.to_string()))
}

/// The radix-`d` butterfly with `--k` levels, or a typed error for a
/// size `RadixButterfly::new` panics on or whose doubled network (the
/// `(2k+1)·d^k` nodes Algorithm 2.1 routes on) outgrows 32-bit node ids.
fn butterfly(d: usize, k: usize) -> Result<RadixButterfly, CliError> {
    if d < 2 {
        return Err(invalid_flag("d", d, "butterfly needs d >= 2".into()));
    }
    let nodes = u32::try_from(k)
        .ok()
        .and_then(|k| d.checked_pow(k))
        .and_then(|width| width.checked_mul(2 * k + 1));
    if !(1..=31).contains(&k) || nodes.is_none_or(|nodes| nodes > u32::MAX as usize) {
        let reason = format!(
            "butterfly needs 1 <= k <= 31 and (2k+1)*{d}^k nodes within 32-bit ids, got {k}"
        );
        return Err(invalid_flag("k", k, reason));
    }
    Ok(RadixButterfly::new(d, k))
}

/// The side `--n` of a mesh: at least one row, and `n²` nodes within
/// 32-bit ids.
fn mesh_side(n: usize) -> Result<usize, CliError> {
    if (1..=65_535).contains(&n) {
        Ok(n)
    } else {
        let reason = format!("mesh needs 1 <= n <= 65535, got {n}");
        Err(invalid_flag("n", n, reason))
    }
}

const HELP: &str = "\
lnpram — PRAM emulation on leveled networks (Palis–Rajasekaran–Wei, ICPP 1991)

USAGE: lnpram <command> [--flag value]...

COMMANDS
  audit    Structural audit of a topology (degree, diameter, symmetry,
           unique-path/delta property where applicable).
             --topology star|shuffle|mesh|butterfly|ccc   (required)
             --n <size>       star n / shuffle digits / mesh side / ccc k  [4]
             --d <radix>      shuffle way / butterfly radix        [= n / 2]
             --k <levels>     butterfly levels                     [4]

  route    Route random permutations through the unified Router API and
           report time/queue statistics.
             --topology butterfly|star|mesh|cube|ccc|shuffle   (required)
             --n, --d, --k    as for audit (cube: --k dimensions)
             --algorithm three-stage|const-queue|greedy|valiant  (mesh) [three-stage]
             --backend oblivious|adaptive   routing backend      [oblivious]
                              (adaptive: congestion-priced source
                              routing; flat topologies only; its
                              congestion penalty is fixed at the
                              library default, there is no flag)
             --seed <s>       base seed                           [0]
             --trials <t>     number of seeds                     [5]
             --shards <K>     partitioned lockstep engine, 2..=15 [0]
             --tenants <T>    T tenants per trial, each routed alone
                              and reported as one batch
                              (route_batch), T ≥ 1                [1]
             --trace <path>   write the run's event log as JSONL
                              (adaptive: per-iteration route_iteration
                              pricing records; single-tenant only)

  serve    Always-on routing service: one long-lived engine, requests
           admitted mid-run from an open-loop arrival process; tenants
           share ONE network at once (contention, fairness) instead of
           the isolated runs of route --tenants.
             --topology butterfly|star|mesh|cube|ccc|shuffle   (required)
             --n, --d, --k    as for route
             --backend oblivious|adaptive   routing backend      [oblivious]
             --tenants <T>    tenants, round-robin over requests  [2]
             --requests <R>   total requests in the trace         [32]
             --interval <I>   steps between arrivals (0 = burst)  [4]
             --packets <P>    packets per request                 [8]
             --seed <s>       workload seed                       [0]
             --shards <K>     partitioned lockstep engine, 2..=15 [0]
             --max-inflight <W>  admission high-water mark on the
                              in-flight packet count (0 = off)    [0]
             --max-queue <W>  admission high-water mark on any
                              link queue's occupancy (0 = off)    [0]
             --capacity <C>   admission-buffer capacity           [unbounded]
             --policy queue|reject  behavior at capacity          [queue]
             --slo <L>        latency SLO in steps (for the
                              attainment column)                  [64]
             --trace <path>   write the run's serve event log as JSONL
                              (admit / defer / reject / tenant_join /
                              tenant_leave / fault / complete)

  stats    Summarize an event log written by serve --trace or
           route --trace: per-event counts, admitted packets,
           completion latency distribution, and (for adaptive route
           traces) the per-iteration max-link-load convergence series.
             --trace <path>   the JSONL log to summarize   (required)

  emulate  Run a PRAM program through an emulator and verify against the
           reference machine.
             --host butterfly|star|mesh               (required)
             --program prefix-sum|reduction-max|histogram|connected-components  [prefix-sum]
             --n / --k        host size (star n, mesh side, butterfly levels)
             --copies <R>     deterministic replication: R fixed copies
                              per cell (odd, 1..=7) instead of one
                              hashed copy, on any host             [hashed]
             --seed <s>                                            [0]

  help     This message.
";

fn cmd_audit(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let topo = flags
        .get("topology")
        .ok_or(CliError::MissingFlag("topology"))?;
    let n = get_usize(flags, "n", 4)?;
    match topo.as_str() {
        "star" => {
            let g = star_graph(n)?;
            print_audit(&g);
            println!(
                "paper: degree n−1 = {}, diameter ⌊3(n−1)/2⌋ = {}",
                n - 1,
                g.diameter()
            );
        }
        "shuffle" => {
            let d = get_usize(flags, "d", n)?;
            let g = DWayShuffle::new(d, n);
            print_audit(&g);
            let lv = UnrolledShuffle::new(d, n);
            audit_unique_paths(&lv)
                .map_err(|e| CliError::Run(format!("delta audit failed: {e}")))?;
            println!("unique-path (delta) property: ok on the unrolled form");
        }
        "mesh" => {
            let g = Mesh::square(mesh_side(n)?);
            print_audit(&g);
            println!("paper: diameter 2n−2 = {}", 2 * n - 2);
        }
        "ccc" => {
            let g = lnpram::topology::CubeConnectedCycles::new(n.max(3));
            print_audit(&g);
            println!("constant degree 3; diameter 2k+⌊k/2⌋−2 for k ≥ 4");
        }
        "butterfly" => {
            let d = get_usize(flags, "d", 2)?;
            let k = get_usize(flags, "k", 4)?;
            let lv = butterfly(d, k)?;
            audit_unique_paths(&lv)
                .map_err(|e| CliError::Run(format!("delta audit failed: {e}")))?;
            println!(
                "butterfly(r={d}, k={k}): width {} levels {k}, unique-path: ok",
                Leveled::width(&lv)
            );
        }
        other => {
            return Err(CliError::Unknown {
                what: "topology",
                got: other.into(),
            })
        }
    }
    Ok(())
}

fn print_audit<N: Network>(g: &N) {
    let rep = audit(g);
    println!(
        "{}: {} nodes, {} directed links",
        g.name(),
        g.num_nodes(),
        g.num_links()
    );
    println!(
        "max degree {}, diameter {:?}, degree-symmetric: {}",
        rep.max_degree, rep.diameter, rep.symmetric
    );
}

/// The mesh algorithm named by `--algorithm`.
fn mesh_algorithm(flags: &HashMap<String, String>, n: usize) -> Result<MeshAlgorithm, CliError> {
    match flags
        .get("algorithm")
        .map(String::as_str)
        .unwrap_or("three-stage")
    {
        "three-stage" => Ok(MeshAlgorithm::ThreeStage {
            slice_rows: default_slice_rows(n),
        }),
        "const-queue" => Ok(MeshAlgorithm::ThreeStageConstQueue {
            slice_rows: default_slice_rows(n),
            block_rows: default_block_rows(n),
        }),
        "greedy" => Ok(MeshAlgorithm::Greedy),
        "valiant" => Ok(MeshAlgorithm::ValiantBrebner),
        other => Err(CliError::Unknown {
            what: "mesh algorithm",
            got: other.into(),
        }),
    }
}

/// The `--backend` flag: the paper's oblivious routers (default) or the
/// adaptive congestion-priced router.
fn backend_flag(flags: &HashMap<String, String>) -> Result<&str, CliError> {
    match flags
        .get("backend")
        .map(String::as_str)
        .unwrap_or("oblivious")
    {
        b @ ("oblivious" | "adaptive") => Ok(b),
        other => Err(CliError::Unknown {
            what: "backend",
            got: other.into(),
        }),
    }
}

/// What `route` and `serve` build from the backend `--topology` and
/// `--backend` name.
trait BackendUser: Sized {
    type Out;

    /// `discipline` is the one the backend's own routing session pins
    /// (the mesh algorithms' canonical one, FIFO everywhere else).
    fn with<B: RouteBackend + 'static>(self, backend: B, discipline: Discipline) -> Self::Out;

    fn with_adaptive(self, backend: AdaptiveBackend) -> Self::Out {
        self.with(backend, Discipline::Fifo)
    }
}

/// The one `--topology` dispatch: build the named backend from its size
/// flags and hand it to `user`. `--backend adaptive` prices a CSR
/// snapshot of the same network instead; leveled topologies (butterfly)
/// deliver at their last column — node id ≠ coordinate — so they are
/// refused with a typed error instead of misrouting.
fn with_backend<U: BackendUser>(
    topo: &str,
    flags: &HashMap<String, String>,
    user: U,
) -> Result<U::Out, CliError> {
    let adaptive = backend_flag(flags)? == "adaptive";
    if let (true, Some(algorithm)) = (adaptive, flags.get("algorithm")) {
        return Err(CliError::InvalidFlag {
            flag: "algorithm".into(),
            value: algorithm.clone(),
            reason: "the adaptive backend prices its own paths; --algorithm names an \
                     oblivious mesh algorithm"
                .into(),
        });
    }
    let n = get_usize(flags, "n", 4)?;
    let priced = |net: &dyn Network| {
        AdaptiveBackend::try_new(net, AdaptiveConfig::default()).map_err(|err| {
            CliError::InvalidFlag {
                flag: "backend".into(),
                value: "adaptive".into(),
                reason: err.to_string(),
            }
        })
    };
    Ok(match topo {
        "star" => {
            let star = star_graph(n)?;
            if adaptive {
                user.with_adaptive(priced(&star)?)
            } else {
                user.with(StarBackend::new(star), Discipline::Fifo)
            }
        }
        "shuffle" => {
            let shuffle = DWayShuffle::new(get_usize(flags, "d", n)?, n);
            if adaptive {
                user.with_adaptive(priced(&shuffle)?)
            } else {
                user.with(ShuffleBackend::new(shuffle), Discipline::Fifo)
            }
        }
        "butterfly" if adaptive => {
            return Err(CliError::InvalidFlag {
                flag: "backend".into(),
                value: "adaptive".into(),
                reason: "adaptive prices flat topologies (node id == coordinate); \
                         butterfly delivers at its last column — use the oblivious backend"
                    .into(),
            })
        }
        "butterfly" => {
            let d = get_usize(flags, "d", 2)?;
            let k = get_usize(flags, "k", 4)?;
            user.with(LeveledBackend::new(butterfly(d, k)?), Discipline::Fifo)
        }
        "cube" => {
            let k = get_usize(flags, "k", 8)?;
            if adaptive {
                user.with_adaptive(priced(&Hypercube::new(k))?)
            } else {
                user.with(CubeBackend::new(k), Discipline::Fifo)
            }
        }
        "ccc" if adaptive => user.with_adaptive(priced(&CubeConnectedCycles::new(n.max(3)))?),
        "ccc" => user.with(CccBackend::new(n.max(3)), Discipline::Fifo),
        "mesh" => {
            let mesh = Mesh::square(mesh_side(n)?);
            if adaptive {
                user.with_adaptive(priced(&mesh)?)
            } else {
                let alg = mesh_algorithm(flags, n)?;
                user.with(MeshBackend::new(mesh, alg), canonical_discipline(alg))
            }
        }
        other => {
            return Err(CliError::Unknown {
                what: "topology",
                got: other.into(),
            })
        }
    })
}

/// The session `route` drives — every topology behind one `dyn Router`.
/// The adaptive one stays concrete: its backend's work counts are not
/// part of `dyn Router`.
enum RouteSession {
    Oblivious(Box<dyn Router>),
    Adaptive(Box<AdaptiveRoutingSession>),
}

struct MakeRouter(SimConfig);

impl BackendUser for MakeRouter {
    type Out = RouteSession;

    fn with<B: RouteBackend + 'static>(self, backend: B, discipline: Discipline) -> RouteSession {
        let cfg = SimConfig {
            discipline,
            ..self.0
        };
        RouteSession::Oblivious(Box::new(RoutingSession::with_backend(backend, cfg)))
    }

    fn with_adaptive(self, backend: AdaptiveBackend) -> RouteSession {
        RouteSession::Adaptive(Box::new(AdaptiveRoutingSession::from_backend(
            backend, self.0,
        )))
    }
}

/// The serving session `serve` drives — every backend behind one
/// `dyn Serve`, under the configured discipline.
struct MakeServe(SimConfig, ServeConfig);

impl BackendUser for MakeServe {
    type Out = Box<dyn Serve>;

    fn with<B: RouteBackend + 'static>(self, backend: B, _: Discipline) -> Box<dyn Serve> {
        Box::new(ServeSession::new(backend, &self.0, self.1))
    }
}

fn cmd_route(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let topo = flags
        .get("topology")
        .ok_or(CliError::MissingFlag("topology"))?;
    let seed = get_u64(flags, "seed", 0)?;
    let trials = get_u64(flags, "trials", 5)?.max(1);
    let tenants = get_tenants(flags, 1)?;
    let shards = get_shards(flags)?;
    let cfg = SimConfig {
        shards,
        ..SimConfig::default()
    };
    let mut session = with_backend(topo, flags, MakeRouter(cfg))?;
    let router: &mut dyn Router = match &mut session {
        RouteSession::Oblivious(router) => router.as_mut(),
        RouteSession::Adaptive(session) => session.as_mut(),
    };
    let mut times = Vec::new();
    let mut queues = Vec::new();
    let mut norm = 1usize;
    let mut adaptive_stats: Option<(u32, u32)> = None;
    let trace_path = flags.get("trace");
    if trace_path.is_some() && tenants > 1 {
        return Err(CliError::InvalidFlag {
            flag: "trace".into(),
            value: "(path)".into(),
            reason: "route tracing is single-tenant; drop --tenants or --trace".into(),
        });
    }
    let mut log = ServeEventLog::new();
    if tenants > 1 {
        // Multi-tenant batches: each trial routes `tenants` independent
        // permutations, each alone, and reports them as one batch.
        for t in 0..trials {
            let reqs: Vec<RouteRequest> = (0..tenants)
                .map(|i| RouteRequest::permutation(seed + t * tenants + i).with_tenant(i))
                .collect();
            let batch = router.route_batch(&reqs);
            if !batch.completed {
                return Err(CliError::Run("batched routing did not complete".into()));
            }
            for tr in &batch.tenants {
                times.push(f64::from(tr.metrics.routing_time));
            }
            queues.push(batch.metrics.max_queue as f64);
            norm = batch.extras.norm().max(1);
            if let RunExtras::Adaptive {
                iterations,
                max_load,
            } = batch.extras
            {
                adaptive_stats = Some((iterations, max_load));
            }
        }
    } else {
        for t in 0..trials {
            let req = RouteRequest::permutation(seed + t);
            let rep = if trace_path.is_some() {
                router.route_traced(&req, &mut log)
            } else {
                router.route(&req)
            };
            if !rep.completed {
                return Err(CliError::Run("routing did not complete".into()));
            }
            times.push(f64::from(rep.metrics.routing_time));
            queues.push(rep.metrics.max_queue as f64);
            norm = rep.norm().max(1);
            if let RunExtras::Adaptive {
                iterations,
                max_load,
            } = rep.extras
            {
                adaptive_stats = Some((iterations, max_load));
            }
        }
    }
    if let Some(path) = trace_path {
        std::fs::write(path, log.to_jsonl())
            .map_err(|e| CliError::Run(format!("write {path}: {e}")))?;
        println!("wrote {} route events to {path}", log.events().len());
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let max = |v: &[f64]| v.iter().cloned().fold(f64::MIN, f64::max);
    let suffix = if tenants > 1 {
        format!(" ({tenants} tenants per batch)")
    } else {
        String::new()
    };
    println!(
        "{} permutation routing over {trials} trials{suffix}: time mean {:.1} max {:.0} \
         (×{:.2} of norm {norm}), max queue mean {:.1}",
        router.topology(),
        mean(&times),
        max(&times),
        mean(&times) / norm as f64,
        mean(&queues),
    );
    if let (Some((iterations, max_load)), RouteSession::Adaptive(session)) =
        (adaptive_stats, &session)
    {
        println!(
            "adaptive pricing (last trial): {iterations} iteration(s), \
             final max link load {max_load} (= norm); {}",
            session.backend().price_work()
        );
    }
    Ok(())
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let topo = flags
        .get("topology")
        .ok_or(CliError::MissingFlag("topology"))?;
    let tenants = get_tenants(flags, 2)?;
    let requests = get_usize(flags, "requests", 32)?.max(1);
    let interval = get_u64(flags, "interval", 4)? as u32;
    let packets = get_usize(flags, "packets", 8)?.max(1);
    let seed = get_u64(flags, "seed", 0)?;
    let shards = get_shards(flags)?;
    let slo = get_u64(flags, "slo", 64)?;
    let policy = match flags.get("policy").map(String::as_str).unwrap_or("queue") {
        "queue" => OverloadPolicy::Queue,
        "reject" => OverloadPolicy::Reject,
        other => {
            return Err(CliError::Unknown {
                what: "overload policy",
                got: other.into(),
            })
        }
    };
    let cfg = ServeConfig {
        high_water_in_flight: get_usize(flags, "max-inflight", 0)?,
        high_water_queue: get_usize(flags, "max-queue", 0)?,
        admission_capacity: get_usize(flags, "capacity", usize::MAX)?,
        policy,
        ..ServeConfig::default()
    };
    let sim = SimConfig {
        shards,
        ..SimConfig::default()
    };
    let mut serve = with_backend(topo, flags, MakeServe(sim, cfg))?;
    let workload = OpenLoopWorkload {
        tenants,
        requests,
        interval,
        packets_per_request: packets,
        seed,
    };
    let report = if let Some(trace_path) = flags.get("trace") {
        // The traced path is the same trace `run_open_loop` materializes
        // internally, so the report (and every latency in the log's
        // `complete` events) is bit-identical to the untraced run.
        let trace = workload.trace(serve.num_sources());
        let mut log = ServeEventLog::new();
        let report = serve.run_trace_traced(&trace, &mut log)?;
        std::fs::write(trace_path, log.to_jsonl())
            .map_err(|e| CliError::Run(format!("write {trace_path}: {e}")))?;
        println!("wrote {} serve events to {trace_path}", log.events().len());
        report
    } else {
        serve.run_open_loop(&workload)?
    };
    let engine = if serve.is_sharded() {
        format!("sharded×{shards}")
    } else {
        "serial".into()
    };
    println!(
        "{} serve ({engine}): {} requests over {} steps ({} admitted, {} rejected, {} pending)",
        serve.topology(),
        report.requests.len(),
        report.steps,
        report.admitted,
        report.rejected,
        report.requests.len() - report.admitted - report.rejected,
    );
    println!(
        "throughput {:.2} pkts/step, latency p50 {} p99 {} max {}, SLO≤{slo}: {:.1}%",
        report.throughput_per_step(),
        report.latency_quantile(0.5),
        report.latency_quantile(0.99),
        report.metrics.latency.max(),
        100.0 * report.slo_attainment(slo),
    );
    println!(
        "backpressure: max backlog {}, deferred request-steps {}; fairness (Jain) {:.3}",
        report.max_backlog,
        report.deferred_request_steps,
        report.fairness_index(),
    );
    for ts in report.tenant_stats() {
        println!(
            "  tenant {}: {} requests ({} completed, {} rejected), {}/{} pkts delivered, \
             mean latency {:.1}",
            ts.tenant,
            ts.requests,
            ts.completed,
            ts.rejected,
            ts.delivered,
            ts.injected,
            ts.mean_latency(),
        );
    }
    if !report.completed {
        return Err(CliError::Run(format!(
            "serve stopped at the {}-step budget with packets still in flight",
            report.steps
        )));
    }
    Ok(())
}

fn cmd_stats(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let path = flags.get("trace").ok_or(CliError::MissingFlag("trace"))?;
    let body =
        std::fs::read_to_string(path).map_err(|e| CliError::Run(format!("read {path}: {e}")))?;
    let mut counts = [0u64; ServeEvent::NAMES.len()];
    let mut packets = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    let mut rejects: Vec<(&str, u64)> = Vec::new();
    // Per-iteration max-load series of adaptive route traces, in file
    // order; `iter == 0` marks the start of each pricing run.
    let mut route_iters: Vec<(u32, u32)> = Vec::new();
    let mut last_step = 0u32;
    for (lineno, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = ServeEvent::from_json_line(line)
            .map_err(|e| CliError::Run(format!("{path}:{}: {e}: {line}", lineno + 1)))?;
        for (count, name) in counts.iter_mut().zip(ServeEvent::NAMES) {
            *count += u64::from(name == event.name());
        }
        last_step = last_step.max(event.step());
        match event {
            ServeEvent::Admit { packets: p, .. } => packets += p as u64,
            ServeEvent::Reject { reason, .. } => {
                match rejects.iter_mut().find(|(r, _)| *r == reason) {
                    Some((_, c)) => *c += 1,
                    None => rejects.push((reason, 1)),
                }
            }
            ServeEvent::Complete { latency, .. } => latencies.push(u64::from(latency)),
            ServeEvent::RouteIteration { iter, max_load, .. } => {
                route_iters.push((iter, max_load));
            }
            _ => {}
        }
    }
    println!(
        "{path}: {} events over steps 0..={last_step}",
        counts.iter().sum::<u64>()
    );
    for (name, count) in ServeEvent::NAMES.iter().zip(counts) {
        if count > 0 {
            println!("  {name:<13} {count}");
        }
    }
    for (reason, count) in &rejects {
        println!("  reject[{reason}] {count}");
    }
    println!("admitted packets: {packets}");
    if !latencies.is_empty() {
        latencies.sort_unstable();
        let q = |p: f64| latencies[((latencies.len() - 1) as f64 * p).round() as usize];
        let mean = latencies.iter().sum::<u64>() as f64 / latencies.len() as f64;
        println!(
            "completion latency (steps): p50 {} p99 {} max {} mean {:.1} over {} requests",
            q(0.50),
            q(0.99),
            latencies[latencies.len() - 1],
            mean,
            latencies.len()
        );
    }
    if !route_iters.is_empty() {
        // Each pricing run restarts at iter 0; summarize every run's
        // initial → final max link load so convergence is visible even
        // for multi-trial traces.
        let mut runs: Vec<&[(u32, u32)]> = Vec::new();
        let mut start = 0usize;
        for i in 1..route_iters.len() {
            if route_iters[i].0 == 0 {
                runs.push(&route_iters[start..i]);
                start = i;
            }
        }
        runs.push(&route_iters[start..]);
        // The pricer keeps the *best* iteration's path set (the series
        // may end on a patience-expired regression), so each run's
        // converged load is its series minimum.
        let worst_converged = runs
            .iter()
            .map(|r| r.iter().map(|&(_, l)| l).min().unwrap_or(0))
            .max()
            .unwrap_or(0);
        println!(
            "adaptive pricing: {} run(s), worst converged max link load {worst_converged}",
            runs.len()
        );
        for (i, run) in runs.iter().enumerate() {
            let series: Vec<String> = run.iter().map(|&(_, l)| l.to_string()).collect();
            println!(
                "  run {i}: {} iteration(s), max load {}",
                run.len(),
                series.join(" -> ")
            );
        }
    }
    Ok(())
}

/// The host `emulate --host` names, its size flags validated.
enum Host {
    Butterfly(Box<RadixButterfly>),
    Star(StarGraph),
    Mesh(usize),
}

impl Host {
    fn from_flags(flags: &HashMap<String, String>) -> Result<Self, CliError> {
        let host = flags.get("host").ok_or(CliError::MissingFlag("host"))?;
        Ok(match host.as_str() {
            "butterfly" => Host::Butterfly(Box::new(butterfly(2, get_usize(flags, "k", 5)?)?)),
            "star" => Host::Star(star_graph(get_usize(flags, "n", 4)?)?),
            "mesh" => Host::Mesh(mesh_side(get_usize(flags, "n", 5)?)?),
            other => {
                return Err(CliError::Unknown {
                    what: "host",
                    got: other.into(),
                })
            }
        })
    }

    fn processors(&self) -> usize {
        match self {
            Host::Butterfly(bf) => bf.width(),
            Host::Star(star) => star.num_nodes(),
            Host::Mesh(n) => n * n,
        }
    }
}

/// Run `make()`'s program on `host`, with `copies` replicas per cell if
/// given, and diff the final memory image against the reference
/// machine's.
fn emulate_on<P: PramProgram>(
    host: Host,
    copies: Option<usize>,
    cfg: &EmulatorConfig,
    mode: AccessMode,
    make: impl Fn() -> P,
) -> Result<(), CliError> {
    /// Every host is the one emulator over a different `EmuHost`.
    fn run<H: EmuHost>(
        emu: PramEmulator<H>,
        copies: Option<usize>,
        prog: &mut impl PramProgram,
    ) -> Result<(Vec<u64>, EmuReport), CliError> {
        let mut emu = match copies {
            Some(r) => emu
                .with_copies(r)
                .map_err(|e| invalid_flag("copies", r, e.to_string()))?,
            None => emu,
        };
        let rep = emu.run_program(prog, 1_000_000);
        Ok((emu.memory_image(prog.address_space()), rep))
    }
    let mut prog = make();
    let space = prog.address_space();
    let cfg = cfg.clone();
    let (name, (image, rep)) = match host {
        Host::Butterfly(bf) => (
            "butterfly",
            run(
                LeveledPramEmulator::new(*bf, mode, space, cfg),
                copies,
                &mut prog,
            )?,
        ),
        Host::Star(star) => (
            "star",
            run(
                StarPramEmulator::new(star.n(), mode, space, cfg),
                copies,
                &mut prog,
            )?,
        ),
        Host::Mesh(n) => (
            "mesh",
            run(
                MeshPramEmulator::new(n, mode, space, cfg),
                copies,
                &mut prog,
            )?,
        ),
    };
    let mut oracle = PramMachine::new(space, mode);
    oracle.run(&mut make(), 1_000_000);
    if image != oracle.memory() {
        return Err(CliError::Run(format!(
            "{name}: emulated memory diverged from the reference PRAM"
        )));
    }
    println!("{name}: memory image matches the reference PRAM ({space} cells)");
    println!(
        "mean network steps per PRAM step: {:.1}",
        rep.mean_step_time()
    );
    let merges = rep.total_write_merges();
    println!(
        "combined: {} read joins en route, {merges} write merges (en route or at the module)",
        rep.total_combined() - merges
    );
    Ok(())
}

fn cmd_emulate(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let host = Host::from_flags(flags)?;
    let copies = flags
        .get("copies")
        .map(|_| get_usize(flags, "copies", 0))
        .transpose()?;
    let seed = get_u64(flags, "seed", 0)?;
    let program = flags
        .get("program")
        .map(String::as_str)
        .unwrap_or("prefix-sum");
    let cfg = EmulatorConfig {
        seed,
        ..Default::default()
    };
    // Each program picks its own processor count to fit the host.
    let procs = host.processors();

    match program {
        "prefix-sum" => {
            let values: Vec<u64> = (1..=procs as u64).collect();
            emulate_on(host, copies, &cfg, AccessMode::Erew, move || {
                PrefixSum::new(values.clone())
            })
        }
        "reduction-max" => {
            // The reduction tree needs a power of two of values, two per
            // processor: the largest that fits (star and mesh hosts have
            // `n!` and `n²` processors).
            let len = 1u64 << (2 * procs).ilog2();
            let values: Vec<u64> = (0..len).map(|i| (i * 37 + 5) % 1000).collect();
            emulate_on(host, copies, &cfg, AccessMode::Erew, move || {
                ReductionMax::new(values.clone())
            })
        }
        "histogram" => {
            let inputs: Vec<u64> = (0..procs as u64).map(|i| i % 8).collect();
            emulate_on(
                host,
                copies,
                &cfg,
                AccessMode::Crcw(WritePolicy::Sum),
                move || Histogram::new(inputs.clone(), 8),
            )
        }
        "connected-components" => {
            // Random graph sized so 2E + V fits the host.
            let v = (procs / 3).max(2).min(procs);
            let e = (procs - v) / 2;
            let mut rng_state = seed ^ 0xC0FFEE;
            let edges: Vec<(usize, usize)> = (0..e)
                .map(|_| {
                    let a = (lnpram::math::rng::splitmix64(&mut rng_state) as usize) % v;
                    let b = (lnpram::math::rng::splitmix64(&mut rng_state) as usize) % v;
                    (a, b)
                })
                .collect();
            emulate_on(
                host,
                copies,
                &cfg,
                AccessMode::Crcw(WritePolicy::Max),
                move || ConnectedComponents::new(v, edges.clone()),
            )
        }
        other => Err(CliError::Unknown {
            what: "program",
            got: other.into(),
        }),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        print!("{HELP}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            Ok(())
        }
        "audit" | "route" | "serve" | "stats" | "emulate" => match parse_flags(rest) {
            Err(e) => Err(e),
            Ok(flags) => match cmd.as_str() {
                "audit" => cmd_audit(&flags),
                "route" => cmd_route(&flags),
                "serve" => cmd_serve(&flags),
                "stats" => cmd_stats(&flags),
                _ => cmd_emulate(&flags),
            },
        },
        other => Err(CliError::Unknown {
            what: "command",
            got: other.to_string(),
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(
                e,
                CliError::Unknown {
                    what: "command",
                    ..
                }
            ) {
                eprintln!("try: lnpram help");
            }
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary argument lists parse to flags or a typed error,
        /// never a panic, and so does reading a number out of them.
        #[test]
        fn prop_parse_flags_never_panics(seed: u64, argc in 0usize..6) {
            let mut rng = lnpram::math::rng::SeedSeq::new(seed).rng();
            let pieces = ["--", "-", "", "n", "shards", "tenants", "4", "-1", "99999999999999999999", "é", " ", "="];
            let args: Vec<String> = (0..argc)
                .map(|_| {
                    let parts = rng.gen_range(0..4);
                    (0..parts).map(|_| pieces[rng.gen_range(0..pieces.len())]).collect()
                })
                .collect();
            if let Ok(flags) = parse_flags(&args) {
                prop_assert!(flags.len() <= argc / 2);
                let _ = get_usize(&flags, "n", 4);
                let _ = get_shards(&flags);
                let _ = get_tenants(&flags, 1);
            } else {
                prop_assert!(argc > 0, "no arguments is no flags, not an error");
            }
        }
    }
}
