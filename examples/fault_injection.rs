//! Fault injection and the Lemma 2.1 retry schedule.
//!
//! The lemma: a routing that succeeds with probability `1 − N^{−ε}` per
//! attempt can be amplified to `1 − N^{−c₂ε}` by retrying packets that
//! miss their deadline (failed attempts trace back and relaunch with
//! fresh randomness). This example makes failures *real* in two ways:
//!
//! 1. **Tight deadlines** — budget below the typical routing time, so
//!    some attempts genuinely miss;
//! 2. **Fault plans** — a scripted schedule of link and node failures
//!    installed on the engine, with `route_with_faults` running the
//!    deterministic recovery loop: survivors are re-routed with fresh
//!    intermediates, packets whose destination died are reported as a
//!    typed lost set.
//!
//! ```sh
//! cargo run --example fault_injection
//! ```

use lnpram::routing::retry::{retry_route, RetryPolicy};
use lnpram::routing::{LeveledRoutingSession, RouteBackend, RouteRequest, Router};
use lnpram::simnet::{Fault, FaultEvent, FaultPlan, SimConfig};
use lnpram::topology::leveled::RadixButterfly;

fn main() {
    tight_deadline_retries();
    fault_plan_recovery();
}

/// Part 1: the leveled network under a deliberately tight deadline.
fn tight_deadline_retries() {
    // 256 rows, path length 2ℓ = 16. Observed routing times are 19–21
    // steps; a 20-step deadline misses on the seeds that need 21 — real,
    // occasional failures.
    let mut session = LeveledRoutingSession::new(RadixButterfly::new(2, 8), SimConfig::default());
    let policy = RetryPolicy {
        attempt_budget: 20,
        max_attempts: 8,
    };
    let budget = policy.attempt_budget;
    let mut failures = 0usize;
    let trials = 20u64;
    for seed in 0..trials {
        // The whole permutation retries when incomplete, with fresh
        // intermediates per attempt (the lemma's requirement).
        let report = retry_route(
            &mut session,
            &RouteRequest::permutation(seed * 1000),
            policy,
        );
        if report.attempts > 1 {
            failures += report.attempts - 1;
        }
        assert!(report.succeeded, "retries must eventually succeed");
    }
    println!(
        "leveled retry: {trials} permutations under a {budget}-step deadline \
         (path length 16): {failures} failed attempts, all recovered by retry"
    );
}

/// Part 2: a scripted failure plan — a transient link outage plus a
/// permanently dead delivery node — routed with deterministic recovery.
/// Survivable packets stranded by the faults are drained, re-injected
/// with fresh random intermediates (the lemma's retry, per packet), and
/// packets destined to the dead node come back as a typed lost set
/// instead of being silently dropped or retried forever.
fn fault_plan_recovery() {
    let mut session = LeveledRoutingSession::new(RadixButterfly::new(2, 5), SimConfig::default());
    // Row 3's delivery node dies at step 0; link 1 fails at step 2 and
    // is repaired at step 9. The plan replays identically on every
    // recovery attempt (same adversity, fresh routing randomness).
    let dead_row = 3u32;
    let plan = FaultPlan::new(vec![
        FaultEvent {
            step: 0,
            fault: Fault::NodeFail {
                node: session.backend().dest_node(dead_row as usize),
            },
        },
        FaultEvent {
            step: 2,
            fault: Fault::LinkFail { link: 1 },
        },
        FaultEvent {
            step: 9,
            fault: Fault::LinkRecover { link: 1 },
        },
    ]);
    let report = session
        .route_with_faults(
            &RouteRequest::permutation(42),
            &plan,
            RetryPolicy {
                attempt_budget: 300,
                max_attempts: 6,
            },
        )
        .expect("leveled networks support fault plans");

    assert!(report.completed, "every survivable packet is delivered");
    assert!(
        report.lost.iter().all(|l| l.dest == dead_row),
        "only the dead destination loses packets"
    );
    assert_eq!(
        report.delivered() + report.lost.len(),
        report.injected,
        "every packet is accounted for: delivered or typed lost"
    );
    println!(
        "fault plan on butterfly(2,5): {} injected, {} delivered in the degraded \
         first pass, {} recovered by retry, {} lost to the dead node \
         ({} attempts, {} charged steps)",
        report.injected,
        report.delivered_first,
        report.recovered,
        report.lost.len(),
        report.attempts,
        report.total_steps,
    );
}
