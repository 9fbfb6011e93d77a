//! The end-to-end pass: tracing off, one client, closed loop.
//!
//! A run is a reference pass over the workload's distinct requests
//! (which pools the simulated results and fixes the digest every later
//! call must reproduce) followed by timed rounds until `seconds` have
//! passed. A round sends every distinct request once, timed in fixed
//! **units** of `group` consecutive requests, so one unit is always the
//! same work. The host rate is `distinct ÷ Σ over units of the unit's
//! shortest time`: each piece of work is read at its own clean floor,
//! which one-sided slow episodes cannot move unless they cover every
//! round of the run (README, "Noise", has the measurement behind this
//! choice). Fresh set-ups are timed between units all along the run, so
//! the `setup_s` samples do not sit in one noise episode; their median
//! is reported.

use crate::stats::median;
use crate::workload::{Sim, Size, Workload};
use std::time::Instant;

/// Fewest timed rounds a full run takes.
const MIN_ROUNDS: usize = 5;

/// Seconds between two set-up samples.
const SETUP_EVERY_S: f64 = 0.25;

/// The timed units of a workload: unit `u` is requests
/// `u·group .. (u+1)·group` of the distinct set.
pub struct Units {
    group: usize,
    /// Per unit, the seconds of every round.
    samples: Vec<Vec<f64>>,
}

impl Units {
    /// Units for `size` (the group must divide the distinct count).
    pub fn new(size: Size) -> Self {
        assert!(
            size.group >= 1 && size.distinct.is_multiple_of(size.group),
            "group must divide distinct"
        );
        Units {
            group: size.group,
            samples: vec![Vec::new(); size.distinct / size.group],
        }
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The request indices of unit `u`.
    pub fn requests(&self, u: usize) -> std::ops::Range<usize> {
        u * self.group..(u + 1) * self.group
    }

    /// Record that unit `u` took `seconds` this round.
    pub fn record(&mut self, u: usize, seconds: f64) {
        self.samples[u].push(seconds);
    }

    /// Seconds one pass over the distinct set takes at the clean floor:
    /// Σ over units of the unit's shortest time.
    pub fn floor_seconds(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.iter().copied().fold(f64::INFINITY, f64::min))
            .sum()
    }
}

/// One `setup_s` sample: the shortest of three back-to-back fresh
/// set-ups. The first runs on caches the workload has just emptied and
/// its time depends on what was evicted; the later ones time the set-up
/// itself.
fn timed_setup(w: &dyn Workload) -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            w.setup_sample();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Result of the end-to-end pass.
pub struct EndToEnd {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Requests per second at the clean floor.
    pub req_per_s: f64,
    /// Delivered packets per second at the clean floor (goodput).
    pub pkts_per_s: f64,
    /// Simulated results pooled over the distinct requests.
    pub sim: Sim,
    /// Operations attempted over the whole run.
    pub attempted: u64,
    /// Operations failed over the whole run.
    pub failed: u64,
    /// Timed rounds.
    pub rounds: usize,
    /// Set-up samples.
    pub setups: usize,
    /// Failed correctness checks.
    pub errors: Vec<String>,
}

/// Run the end-to-end pass of `w` for `seconds` (`smoke`: one round).
pub fn end_to_end(w: &mut dyn Workload, seconds: f64, smoke: bool) -> EndToEnd {
    let size = w.size();
    let mut errors = Vec::new();

    w.setup();

    let mut sim = Sim::default();
    let mut digests = Vec::with_capacity(size.distinct);
    for i in 0..size.distinct {
        let out = w.call(i);
        digests.push(out.digest());
        sim.absorb(&out);
        errors.extend(out.error);
    }
    if let Err(e) = w.verify() {
        errors.push(e);
    }

    let (mut attempted, mut failed) = (sim.attempted, sim.failed);
    let mut units = Units::new(size);
    let mut reproduced = true;
    let min_rounds = if smoke { 1 } else { MIN_ROUNDS };
    let mut setup_s = vec![timed_setup(w)];
    let started = Instant::now();
    let mut last_setup = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || started.elapsed().as_secs_f64() < seconds {
        for u in 0..units.len() {
            let t = Instant::now();
            for i in units.requests(u) {
                let out = w.call(i);
                reproduced &= out.digest() == digests[i];
                attempted += out.attempted;
                failed += out.failed;
            }
            units.record(u, t.elapsed().as_secs_f64());

            if last_setup.elapsed().as_secs_f64() >= SETUP_EVERY_S {
                setup_s.push(timed_setup(w));
                last_setup = Instant::now();
            }
        }
        rounds += 1;
    }
    if !reproduced {
        errors.push(format!(
            "{}: a timed call did not reproduce its reference results",
            w.spec().name
        ));
    }

    let floor = units.floor_seconds();
    EndToEnd {
        setup_s: median(&setup_s),
        req_per_s: size.distinct as f64 / floor,
        pkts_per_s: sim.work as f64 / floor,
        sim,
        attempted,
        failed,
        rounds,
        setups: setup_s.len(),
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_reads_each_unit_at_its_own_shortest_time() {
        let mut units = Units::new(Size {
            distinct: 6,
            group: 2,
        });
        assert_eq!(units.len(), 3);
        assert_eq!(units.requests(2), 4..6);
        // Ten rounds; a slow episode covers all but round 7 of every unit
        // and unit 1 is five times the work of the others.
        for round in 0..10 {
            let slow = if round == 7 { 1.0 } else { 1.6 };
            units.record(0, 0.010 * slow);
            units.record(1, 0.050 * slow);
            units.record(2, 0.010 * slow);
        }
        assert!((units.floor_seconds() - 0.070).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "group must divide distinct")]
    fn group_must_divide_distinct() {
        Units::new(Size {
            distinct: 5,
            group: 2,
        });
    }
}
