//! Behaviour pin for what a [`TraceSink`] *sees*: the exact callback
//! sequence, with arguments, of a fixed set of traced runs, recorded
//! before the step loop was unified (ISSUE 14) and required unchanged
//! since. `trace_neutrality.rs` pins that tracing does not change
//! outcomes; this pins the observation itself — which phases open and
//! close in which order, what `on_fault` / per-shard windows and
//! boundary counts report, every step sample and every serve event. No
//! wall-clock value is recorded. (ISSUE 21 deleted a per-step transmit
//! hook only the serial engine called; the golden lost its tokens and
//! nothing else, and `StepSample::arrivals` carries the same number
//! from both engines.)
//!
//! The golden lives in `tests/golden/sink_callbacks.txt`: one section
//! per run, one line per step. On a mismatch the test writes what it
//! computed next to the test binaries and names the first line that
//! differs.

use lnpram::adaptive::AdaptiveRoutingSession;
use lnpram::prelude::*;
use lnpram::routing::leveled::LeveledBackend;
use lnpram::routing::serve::{AdmissionEntry, Serve, ServeConfig, ServeSession};
use lnpram::simnet::trace::{Phase, ServeEvent, StepSample, TraceSink};
use lnpram::simnet::Fault;

const GOLDEN: &str = include_str!("golden/sink_callbacks.txt");

/// Logs every callback as one token; a step begin starts a new line.
#[derive(Default)]
struct Recorder {
    log: String,
}

impl Recorder {
    fn token(&mut self, t: String) {
        self.log.push(' ');
        self.log.push_str(&t);
    }
}

impl TraceSink for Recorder {
    fn on_step_begin(&mut self, step: u32) {
        self.log.push_str(&format!("\nstep {step}:"));
    }
    fn on_phase_start(&mut self, phase: Phase) {
        self.token(format!("+{}", phase.name()));
    }
    fn on_phase_end(&mut self, phase: Phase) {
        self.token(format!("-{}", phase.name()));
    }
    fn on_shard_phase_start(&mut self, shard: usize, phase: Phase) {
        self.token(format!("+{}@{shard}", phase.name()));
    }
    fn on_shard_phase_end(&mut self, shard: usize, phase: Phase) {
        self.token(format!("-{}@{shard}", phase.name()));
    }
    fn on_fault(&mut self, step: u32, link: usize, blocked: bool) {
        self.token(format!("fault({step},{link},{blocked})"));
    }
    fn on_boundary(&mut self, shard: usize, packets: usize) {
        self.token(format!("boundary({shard},{packets})"));
    }
    fn on_step_end(&mut self, s: &StepSample) {
        self.token(format!(
            "end(step={},in_flight={},arrivals={},deliveries={},max_queue={},backlog={})",
            s.step, s.in_flight, s.arrivals, s.deliveries, s.max_queue_len, s.backlog
        ));
    }
    fn on_serve_event(&mut self, event: &ServeEvent) {
        self.token(event.to_json_line().replace(' ', ""));
    }
}

fn sim(shards: usize) -> SimConfig {
    SimConfig {
        shards,
        ..SimConfig::default()
    }
}

fn route_butterfly(shards: usize) -> String {
    let mut session = LeveledRoutingSession::new(RadixButterfly::new(2, 6), sim(shards));
    let mut rec = Recorder::default();
    let rep = session.route_traced(&RouteRequest::permutation(14), &mut rec);
    assert!(rep.completed);
    rec.log
}

fn route_adaptive_mesh() -> String {
    let mut session = AdaptiveRoutingSession::new(&Mesh::square(8), sim(0));
    let mut rec = Recorder::default();
    let rep = session.route_traced(&RouteRequest::permutation(14), &mut rec);
    assert!(rep.completed);
    rec.log
}

/// Three tenants under a tight in-flight watermark (deferrals), two
/// links failing and recovering mid-trace, tenant 1 away for steps 3–7
/// (one of its requests refused, a later one served).
fn serve_butterfly(shards: usize) -> String {
    let cfg = ServeConfig {
        high_water_in_flight: 48,
        max_steps: 400,
        ..ServeConfig::default()
    };
    let backend = LeveledBackend::new(RadixButterfly::new(2, 6));
    let mut session = ServeSession::new(backend, &sim(shards), cfg);
    let req = |seed: u64, tenant: u64| RouteRequest::permutation(seed).with_tenant(tenant);
    let trace = vec![
        AdmissionEntry::request(0, req(1, 0)),
        AdmissionEntry::request(0, req(2, 1)),
        AdmissionEntry::fault(2, Fault::LinkFail { link: 3 }),
        AdmissionEntry::fault(
            2,
            Fault::LinkDegrade {
                link: 70,
                period: 3,
            },
        ),
        AdmissionEntry::request(2, req(3, 2)),
        AdmissionEntry::leave(3, 1),
        AdmissionEntry::request(5, req(4, 1)),
        AdmissionEntry::join(8, 1),
        AdmissionEntry::request(9, req(5, 1)),
        AdmissionEntry::fault(12, Fault::LinkRecover { link: 3 }),
        AdmissionEntry::fault(20, Fault::LinkRecover { link: 70 }),
    ];
    let mut rec = Recorder::default();
    let rep = session
        .run_trace_traced(&trace, &mut rec)
        .expect("the butterfly serves");
    assert!(rep.completed);
    assert_eq!((rep.admitted, rep.rejected), (4, 1));
    assert!(rep.deferred_request_steps > 0);
    rec.log
}

fn computed() -> String {
    let sections = [
        ("route_traced butterfly(2,6) serial", route_butterfly(0)),
        ("route_traced butterfly(2,6) K=2", route_butterfly(2)),
        ("route_traced adaptive mesh 8x8", route_adaptive_mesh()),
        ("run_trace_traced butterfly(2,6) serial", serve_butterfly(0)),
        ("run_trace_traced butterfly(2,6) K=2", serve_butterfly(2)),
    ];
    sections
        .iter()
        .map(|(name, log)| format!("## {name}\n{}\n", log.trim_start_matches('\n')))
        .collect()
}

#[test]
fn sink_callbacks_match_golden() {
    let actual = computed();
    let golden: String = GOLDEN
        .lines()
        .filter(|l| !l.starts_with("# "))
        .map(|l| format!("{l}\n"))
        .collect();
    if actual != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("sink_callbacks.txt");
        std::fs::write(&path, &actual).expect("write the computed log");
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "sink callbacks drifted from tests/golden/sink_callbacks.txt at line {} \
             (comment lines not counted); computed log written to {}",
            line + 1,
            path.display()
        );
    }
}

/// What the sharded engine adds to a sink's view is per-shard tokens
/// only (shard transmit windows, boundary counts): with those filtered
/// out, the K = 2 log of a run is the serial log.
#[test]
fn serial_and_sharded_logs_differ_only_by_per_shard_tokens() {
    let whole_engine = |log: String| -> String {
        log.split(' ')
            .filter(|t| !t.contains('@') && !t.starts_with("boundary("))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let sharded = route_butterfly(2);
    assert!(sharded.contains("+transmit@1"), "K=2 reports per-shard");
    assert_eq!(route_butterfly(0), whole_engine(sharded));
}
