//! Emulator configuration and statistics.

/// Parameters of a PRAM emulation.
///
/// [`PramEmulator`](crate::PramEmulator) on the leveled, star and mesh
/// hosts, hashed or replicated, honours every field except where a field
/// says otherwise.
#[derive(Debug, Clone)]
pub struct EmulatorConfig {
    /// Request-phase step budget as a multiple of the host's phase bound
    /// (`d(ℓ)` in §2.1: "the communication is supposed to be finished in
    /// d(ℓ) time" — `2ℓ` leveled, `2·diameter` star, `4n` mesh). A
    /// request phase that overruns triggers a rehash.
    pub budget_factor: u32,
    /// Explicit hash degree S, overriding the default `S = L` (the
    /// host's diameter, §2.1's `S = cL` at `c = 1`) when set (the A3
    /// ablation uses this to force constant-degree hashing).
    pub hash_degree_override: Option<usize>,
    /// Give up after this many rehashes within one PRAM step (the budget
    /// doubles after each, so this also bounds the worst-case step time).
    pub max_rehashes: u32,
    /// Enable CRCW combining on the leveled and star hosts (Theorem 2.6 /
    /// footnote 3). With this off, concurrent reads of one cell are
    /// serviced as separate packets — the ablation of table A4. Does not
    /// reach the mesh host, which never combines (§3 analyses EREW).
    pub combining: bool,
    /// Seed for hash sampling and routing randomness.
    pub seed: u64,
}

impl Default for EmulatorConfig {
    fn default() -> Self {
        EmulatorConfig {
            budget_factor: 16,
            hash_degree_override: None,
            max_rehashes: 8,
            combining: true,
            seed: 0,
        }
    }
}

/// Statistics for one emulated PRAM step.
#[derive(Debug, Clone, Default)]
pub struct StepStats {
    /// Network steps of the request phase.
    pub request_steps: u32,
    /// Network steps of the reply phase.
    pub reply_steps: u32,
    /// Serial service steps at the busiest module (batch size).
    pub service_steps: u32,
    /// Request packets injected (after local issue).
    pub requests: u32,
    /// Combining events: read requests absorbed into pending entries plus
    /// write merges (footnote 3).
    pub combined: u32,
    /// The write merges, of [`Self::combined`]: same-step merges en route
    /// and folds into a module's buffered write of the same key.
    pub write_merges: u32,
    /// Largest link queue seen in either phase.
    pub max_queue: u32,
    /// Rehashes triggered while emulating this step.
    pub rehashes: u32,
}

impl StepStats {
    /// Total charged time of this PRAM step in network steps.
    pub fn total_steps(&self) -> u32 {
        self.request_steps + self.reply_steps + self.service_steps
    }
}

/// Aggregate report of an emulated program run.
#[derive(Debug, Clone, Default)]
pub struct EmuReport {
    /// Emulated PRAM steps.
    pub pram_steps: usize,
    /// Per-step statistics.
    pub steps: Vec<StepStats>,
    /// Total rehash events.
    pub rehashes: u32,
    /// Total charged remap steps (rehash redistribution cost).
    pub remap_steps: u64,
}

impl EmuReport {
    /// Total network steps over all PRAM steps (excluding remap charges).
    pub fn network_steps(&self) -> u64 {
        self.steps.iter().map(|s| u64::from(s.total_steps())).sum()
    }

    /// Mean network steps per PRAM step.
    pub fn mean_step_time(&self) -> f64 {
        if self.steps.is_empty() {
            0.0
        } else {
            self.network_steps() as f64 / self.steps.len() as f64
        }
    }

    /// Worst single-step time.
    pub fn max_step_time(&self) -> u32 {
        self.steps
            .iter()
            .map(StepStats::total_steps)
            .max()
            .unwrap_or(0)
    }

    /// The emulation constant: mean step time divided by `diameter` — the
    /// quantity Theorems 2.5/2.6 and 3.2 bound by a constant.
    pub fn slowdown_per_diameter(&self, diameter: usize) -> f64 {
        self.mean_step_time() / diameter.max(1) as f64
    }

    /// Total combining events: read joins plus write merges.
    pub fn total_combined(&self) -> u64 {
        self.steps.iter().map(|s| u64::from(s.combined)).sum()
    }

    /// Total write merges (en route and in module queues), of
    /// [`Self::total_combined`].
    pub fn total_write_merges(&self) -> u64 {
        self.steps.iter().map(|s| u64::from(s.write_merges)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_total_adds_phases() {
        let s = StepStats {
            request_steps: 10,
            reply_steps: 12,
            service_steps: 3,
            ..Default::default()
        };
        assert_eq!(s.total_steps(), 25);
    }

    #[test]
    fn report_aggregates() {
        let mut rep = EmuReport::default();
        for (a, b) in [(5u32, 7u32), (9, 11)] {
            rep.steps.push(StepStats {
                request_steps: a,
                reply_steps: b,
                combined: 2,
                write_merges: 1,
                ..Default::default()
            });
        }
        rep.pram_steps = 2;
        assert_eq!(rep.network_steps(), 32);
        assert!((rep.mean_step_time() - 16.0).abs() < 1e-12);
        assert_eq!(rep.max_step_time(), 20);
        assert!((rep.slowdown_per_diameter(8) - 2.0).abs() < 1e-12);
        assert_eq!(rep.total_combined(), 4);
        assert_eq!(rep.total_write_merges(), 2);
    }

    #[test]
    fn empty_report_is_zero() {
        let rep = EmuReport::default();
        assert_eq!(rep.mean_step_time(), 0.0);
        assert_eq!(rep.max_step_time(), 0);
    }
}
