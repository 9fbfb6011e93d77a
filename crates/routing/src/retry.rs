//! Lemma 2.1: success-probability amplification by retrying.
//!
//! If a randomized routing realizes any permutation within `c₁·f(N)` steps
//! with probability `≥ 1 − N^{−ε}`, running it up to `c₂` times (packets
//! that miss the deadline trace their paths back — paying another
//! `≤ c₁·f(N)` steps — and try again with fresh randomness) succeeds within
//! `c₁c₂·f(N)` steps with probability `≥ 1 − N^{−c₂ε}`.
//!
//! [`retry_route`] implements the schedule over the topology-generic
//! [`Router`] trait: one retry loop serves every topology (leveled,
//! star, mesh, cube, CCC, shuffle, adaptive) and any `dyn Router`. Each
//! attempt recycles the session's warmed engine (`set_max_steps` +
//! `reset`) instead of rebuilding the network, the partition plan and
//! all per-link queue state — on small networks that rebuild costs more
//! than the attempt itself.
//!
//! The schedule is all-or-nothing per request (the `lemma21` experiment
//! runs it with deliberately tight deadlines so failures are actually
//! observable); [`Router::route_with_faults`] is the per-packet
//! survivor schedule under a fault plan.
//!
//! ```
//! use lnpram_routing::retry::{retry_route, RetryPolicy};
//! use lnpram_routing::star::StarRoutingSession;
//! use lnpram_routing::{RouteRequest, Router};
//! use lnpram_simnet::SimConfig;
//!
//! // The same schedule drives any topology behind `dyn Router`.
//! let mut session = StarRoutingSession::new(4, SimConfig::default());
//! let router: &mut dyn Router = &mut session;
//! let report = retry_route(
//!     router,
//!     &RouteRequest::permutation(7),
//!     RetryPolicy { attempt_budget: 10_000, max_attempts: 3 },
//! );
//! assert!(report.succeeded);
//! assert_eq!(report.attempts, 1);
//! // The budget override is restored after the schedule.
//! assert_eq!(session.step_budget(), SimConfig::default().max_steps);
//! ```

use crate::router::{RouteRequest, Router, RunReport};

/// Retry schedule parameters.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Step budget per attempt (`c₁·f(N)` in the lemma).
    pub attempt_budget: u32,
    /// Maximum number of attempts (`c₂`).
    pub max_attempts: usize,
}

/// Report of a [`retry_route`] schedule.
#[derive(Debug, Clone)]
pub struct RetryRouteReport {
    /// Attempts executed.
    pub attempts: usize,
    /// Did the final attempt complete?
    pub succeeded: bool,
    /// Total charged steps: a successful final attempt costs its own
    /// routing time; every failed attempt is charged `2 × budget`
    /// (deadline + trace-back), as in the lemma's accounting.
    pub total_steps: u64,
    /// The last attempt's report (the successful one when
    /// `succeeded`).
    pub last: RunReport,
}

/// Run `req` on `router` under `policy` until an attempt completes or
/// attempts are exhausted — Lemma 2.1 over the topology-generic
/// [`Router`] trait (works on any concrete session or `dyn Router`).
///
/// The lemma retries the **same problem instance** with fresh *routing*
/// randomness: randomly-drawn workloads (permutation / h-relation) are
/// materialized once from `req.seed`, then attempt `k` re-routes them
/// with random intermediates drawn from seed `req.seed + k`, under a
/// step budget of `policy.attempt_budget`; packets that miss the
/// deadline trace back (charged `2 × budget`) and the request retries.
/// (Attempt 0 is bit-identical to `router.route(req)`.) Deterministic
/// patterns ([`RoutePattern::Direct`](crate::RoutePattern::Direct)) have no
/// routing randomness — every attempt repeats the first outcome. The
/// router's previous step budget is restored before returning.
pub fn retry_route<R: Router + ?Sized>(
    router: &mut R,
    req: &RouteRequest,
    policy: RetryPolicy,
) -> RetryRouteReport {
    assert!(policy.max_attempts >= 1);
    let pattern = req.pattern.pinned(router.num_sources(), req.seed);
    let restore = router.step_budget();
    router.set_max_steps(policy.attempt_budget);
    let mut attempt_req = RouteRequest {
        pattern,
        seed: req.seed,
        tenant: req.tenant,
    };
    let mut total_steps = 0u64;
    let mut attempts = 0usize;
    let report = loop {
        attempt_req.seed = req.seed.wrapping_add(attempts as u64);
        let rep = router.route(&attempt_req);
        attempts += 1;
        if rep.completed {
            total_steps += u64::from(rep.metrics.routing_time);
            break rep;
        }
        total_steps += 2 * u64::from(policy.attempt_budget);
        if attempts >= policy.max_attempts {
            break rep;
        }
    };
    router.set_max_steps(restore);
    RetryRouteReport {
        attempts,
        succeeded: report.completed,
        total_steps,
        last: report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_recovery_reports_typed_lost_instead_of_burning_attempts() {
        // Lemma 2.1 retrying amplifies the success probability only of
        // packets that CAN succeed. With a destination's delivery node
        // dead, a naive retry loop re-routes the doomed packet on every
        // attempt and still fails; `route_with_faults` classifies it
        // against `FaultPlan::dead_nodes` after the first miss and
        // terminates with a typed lost set.
        use crate::leveled::LeveledRoutingSession;
        use crate::router::{RouteBackend, RouteRequest, Router};
        use lnpram_simnet::{Fault, FaultEvent, FaultPlan, SimConfig};
        use lnpram_topology::leveled::RadixButterfly;

        let mut session =
            LeveledRoutingSession::new(RadixButterfly::new(2, 3), SimConfig::default());
        let node = session.backend().dest_node(0);
        let plan = FaultPlan::new(vec![FaultEvent {
            step: 0,
            fault: Fault::NodeFail { node },
        }]);
        let policy = RetryPolicy {
            attempt_budget: 400,
            max_attempts: 9,
        };
        let rep = session
            .route_with_faults(&RouteRequest::permutation(3), &plan, policy)
            .expect("leveled supports faults");
        assert!(rep.completed, "survivable packets all deliver");
        assert_eq!(rep.lost.len(), 1);
        assert_eq!(rep.lost[0].dest, 0);
        assert_eq!(rep.stranded, 0);
        assert!(
            rep.attempts <= 2,
            "dead destination must not burn the 9-attempt cap, took {}",
            rep.attempts
        );
    }

    #[test]
    fn partial_fault_retry_recovers_survivors_with_fresh_intermediates() {
        // A permanently dead first-phase link strands only the packets
        // whose random via routes across it; each retry redraws the
        // intermediates (seed + k), so survivors route around the dead
        // link and recover — the partial-retry path of the recovery
        // schedule, exercised end to end.
        use crate::leveled::LeveledRoutingSession;
        use crate::router::{RouteRequest, Router};
        use lnpram_simnet::{Fault, FaultEvent, FaultPlan, SimConfig};
        use lnpram_topology::leveled::RadixButterfly;

        let mut session =
            LeveledRoutingSession::new(RadixButterfly::new(2, 3), SimConfig::default());
        let plan = FaultPlan::new(vec![FaultEvent {
            step: 0,
            fault: Fault::LinkFail { link: 0 },
        }]);
        let policy = RetryPolicy {
            attempt_budget: 60,
            max_attempts: 10,
        };
        // Fixed seed chosen so attempt 0 strands at least one packet on
        // the dead link (everything below is deterministic in it).
        let rep = session
            .route_with_faults(&RouteRequest::permutation(6), &plan, policy)
            .expect("leveled supports faults");
        assert!(rep.completed, "a dead link is survivable via retries");
        assert!(rep.lost.is_empty(), "no destination died");
        assert!(
            rep.attempts >= 2 && rep.recovered >= 1,
            "seed 6 must exercise the partial-retry path \
             (attempts {}, recovered {})",
            rep.attempts,
            rep.recovered
        );
        assert_eq!(rep.delivered(), rep.injected);
        // Lemma accounting: failed attempts charge 2× budget, the
        // final success its own routing time.
        let failed = (rep.attempts - 1) as u64;
        assert!(rep.total_steps > failed * 2 * 60);
        assert!(rep.total_steps <= failed * 2 * 60 + 60);
    }

    #[test]
    fn retry_route_succeeds_across_topologies() {
        // The generic schedule on three different Router impls behind
        // one trait object: tight budgets fail, the relaxed policy
        // succeeds, and the winning attempt matches a freshly built session.
        use crate::ccc::CccRoutingSession;
        use crate::hypercube::CubeRoutingSession;
        use crate::star::StarRoutingSession;
        use lnpram_simnet::SimConfig;

        let sessions: [fn() -> Box<dyn Router>; 3] = [
            || Box::new(StarRoutingSession::new(4, SimConfig::default())),
            || Box::new(CubeRoutingSession::new(4, SimConfig::default())),
            || Box::new(CccRoutingSession::new(3, SimConfig::default())),
        ];
        for session in sessions {
            let router = &mut *session();
            let budget = SimConfig::default().max_steps;
            // A 1-step budget cannot finish any permutation here.
            let failed = retry_route(
                router,
                &RouteRequest::permutation(5),
                RetryPolicy {
                    attempt_budget: 1,
                    max_attempts: 2,
                },
            );
            assert!(!failed.succeeded, "{}", router.topology());
            assert_eq!(failed.attempts, 2);
            assert_eq!(failed.total_steps, 2 * 2);
            assert_eq!(router.step_budget(), budget, "budget restored");
            let ok = retry_route(
                router,
                &RouteRequest::permutation(5),
                RetryPolicy {
                    attempt_budget: budget,
                    max_attempts: 3,
                },
            );
            assert!(ok.succeeded, "{}", router.topology());
            assert_eq!(ok.attempts, 1);
            assert_eq!(
                ok.total_steps,
                u64::from(ok.last.metrics.routing_time),
                "successful attempt charged its own time"
            );
            // The failed attempts left packets mid-flight in the engine.
            assert_eq!(
                ok.last.metrics.routing_time,
                session()
                    .route(&RouteRequest::permutation(5))
                    .metrics
                    .routing_time,
                "session attempt diverged from a freshly built session"
            );
        }
    }

    #[test]
    fn retry_route_pins_workload_and_reseeds_intermediates() {
        // The lemma's schedule: the SAME permutation each attempt,
        // fresh via randomness per attempt. Find a budget that the
        // base-seed intermediates miss but some later attempt's make,
        // then check the schedule converges by reseeding — and that
        // attempt 0 is bit-identical to a plain route of the request.
        use crate::star::StarRoutingSession;
        use crate::workloads;
        use lnpram_math::rng::SeedSeq;
        use lnpram_simnet::SimConfig;

        let base_seed = 5u64;
        let mut probe = StarRoutingSession::new(4, SimConfig::default());
        let dests = workloads::random_permutation(
            probe.num_sources(),
            &mut SeedSeq::new(base_seed).child(0).rng(),
        );
        // Attempt k's outcome: same dests, vias from seed base + k.
        let t0 = probe
            .route_with_dests(&dests, SeedSeq::new(base_seed))
            .metrics
            .routing_time;
        let mut pick = None;
        for off in 1..16u64 {
            let t = probe
                .route_with_dests(&dests, SeedSeq::new(base_seed + off))
                .metrics
                .routing_time;
            if t < t0 {
                pick = Some((off, t));
                break;
            }
        }
        let Some((off, t_win)) = pick else {
            return; // pathologically uniform times — nothing to test
        };
        // Budget admits the winning attempt but not the earlier ones.
        let budget = t_win;
        let mut session = StarRoutingSession::new(4, SimConfig::default());
        let rep = retry_route(
            &mut session,
            &RouteRequest::permutation(base_seed),
            RetryPolicy {
                attempt_budget: budget,
                max_attempts: off as usize + 1,
            },
        );
        assert!(rep.succeeded, "reseeding must reach an admissible attempt");
        assert!(rep.attempts >= 2, "the base intermediates must not fit");
        assert_eq!(rep.attempts, off as usize + 1);
        assert_eq!(
            rep.last.metrics.routing_time, t_win,
            "the winning attempt routes the pinned permutation with the \
             attempt's intermediates — not a redrawn workload"
        );
    }
}
