//! Descriptive statistics for experiment reporting.
//!
//! Every table in EXPERIMENTS.md reports, per configuration, the
//! distribution of a measured quantity (routing steps, queue length,
//! bucket load) over trials. [`Summary`] holds the standard digest;
//! [`Histogram`] supports delay-distribution figures.

/// Digest of a sample: count, mean, standard deviation, min/max and
/// selected percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
    /// Median (p50).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarise a sample of `f64`s. Panics on an empty sample.
    pub fn of(data: &[f64]) -> Self {
        assert!(!data.is_empty(), "Summary::of on empty sample");
        let count = data.len();
        let mean = data.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (count - 1) as f64
        } else {
            0.0
        };
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        Summary {
            count,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            p50: percentile_sorted(&sorted, 0.50),
            p95: percentile_sorted(&sorted, 0.95),
            p99: percentile_sorted(&sorted, 0.99),
        }
    }
}

/// Evaluate `f(seed)` for seeds `0..trials` across worker threads and
/// return the values in seed order.
///
/// This is the workspace's parallel trial-runner: every table, figure and
/// statistics-heavy test is a `mean over independent seeded simulations`
/// loop, and the per-seed runs share no state, so they scale with cores.
/// Work is handed out by an atomic counter (cheap dynamic balancing — the
/// routing times of different seeds vary), each worker keeps a local
/// `(seed, value)` list, and results are re-sorted by seed afterwards, so
/// the output is **identical to the serial loop** regardless of thread
/// schedule: determinism is per seed, not per schedule.
pub fn par_trial_values<T, F>(trials: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let workers = std::env::var("LNPRAM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&w| w > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
    par_trial_values_with_workers(trials, workers, f)
}

/// [`par_trial_values`] with an explicit worker count (normally one per
/// core; override the default with the `LNPRAM_THREADS` environment
/// variable). `workers <= 1` runs the plain serial loop.
pub fn par_trial_values_with_workers<T, F>(trials: u64, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let workers = workers.min(trials.max(1) as usize);
    if workers <= 1 {
        return (0..trials).map(f).collect();
    }
    let next = std::sync::atomic::AtomicU64::new(0);
    let per_worker: Vec<Vec<(u64, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let seed = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if seed >= trials {
                            break local;
                        }
                        local.push((seed, f(seed)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("trial worker panicked"))
            .collect()
    });
    let mut tagged: Vec<(u64, T)> = per_worker.into_iter().flatten().collect();
    tagged.sort_unstable_by_key(|&(seed, _)| seed);
    tagged.into_iter().map(|(_, v)| v).collect()
}

/// [`Summary`] of `f(seed)` over seeds `0..trials`, computed in parallel.
pub fn par_summary<F>(trials: u64, f: F) -> Summary
where
    F: Fn(u64) -> f64 + Sync,
{
    Summary::of(&par_trial_values(trials, f))
}

/// Percentile by the nearest-rank method on pre-sorted data.
fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    debug_assert!((0.0..=1.0).contains(&q));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// A fixed-width histogram over `u64` observations (delay distributions,
/// queue occupancies).
#[derive(Debug, Clone)]
pub struct Histogram {
    bucket_width: u64,
    counts: Vec<u64>,
    total: u64,
    max_seen: u64,
}

impl Histogram {
    /// New histogram with the given bucket width (`>= 1`).
    pub fn new(bucket_width: u64) -> Self {
        assert!(bucket_width >= 1);
        Histogram {
            bucket_width,
            counts: Vec::new(),
            total: 0,
            max_seen: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        // Width 1 (every latency histogram) needs no divide.
        let idx = if self.bucket_width == 1 {
            value
        } else {
            value / self.bucket_width
        } as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
        self.max_seen = self.max_seen.max(value);
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest observation recorded (0 if empty).
    pub fn max(&self) -> u64 {
        self.max_seen
    }

    /// Iterate `(bucket_lower_bound, count)` for non-empty buckets.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(move |(i, &c)| (i as u64 * self.bucket_width, c))
    }

    /// Lower bound of the bucket holding the `q`-quantile observation
    /// (`q` in `0.0..=1.0`; nearest-rank over the recorded counts). With
    /// `bucket_width == 1` this is the exact empirical percentile — the
    /// p50/p99 latency figures the serve bench reports. Returns 0 on an
    /// empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        debug_assert!((0.0..=1.0).contains(&q));
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return i as u64 * self.bucket_width;
            }
        }
        self.max_seen
    }

    /// Add every observation of `other` into `self` (bucket-wise; the
    /// widths must match). Used to merge per-request latency histograms
    /// into per-tenant ones.
    pub fn absorb(&mut self, other: &Histogram) {
        assert_eq!(
            self.bucket_width, other.bucket_width,
            "absorb requires equal bucket widths"
        );
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.total += other.total;
        self.max_seen = self.max_seen.max(other.max_seen);
    }

    /// Fraction of observations strictly above `threshold` — the empirical
    /// tail probability compared against Chernoff bounds in the tables.
    pub fn tail_fraction(&self, threshold: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let above: u64 = self
            .counts
            .iter()
            .enumerate()
            .filter(|(i, _)| (*i as u64 + 1) * self.bucket_width > threshold + 1)
            .map(|(i, &c)| {
                // Buckets entirely above the threshold count fully; the
                // straddling bucket is counted fully too (conservative).
                let lower = i as u64 * self.bucket_width;
                if lower > threshold {
                    c
                } else {
                    0
                }
            })
            .sum();
        above as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_constant_sample() {
        let s = Summary::of(&[5.0; 10]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.p50, 5.0);
    }

    #[test]
    fn summary_known_values() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.mean - 2.5).abs() < 1e-12);
        // sample std dev of 1..4 = sqrt(5/3)
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.p99, 4.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn summary_empty_panics() {
        let _ = Summary::of(&[]);
    }

    #[test]
    fn percentile_nearest_rank() {
        let data: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let s = Summary::of(&data);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.p99, 99.0);
    }

    #[test]
    fn par_trial_values_matches_serial_order() {
        let serial: Vec<f64> = (0..33).map(|s| (s * s) as f64).collect();
        let parallel = par_trial_values(33, |s| (s * s) as f64);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_trial_values_threaded_path_is_seed_ordered() {
        // Force real threads (the auto path may pick 1 worker on a
        // single-core host) with uneven per-seed work so workers finish
        // out of order; results must still come back in seed order.
        let serial: Vec<f64> = (0..64).map(|s| (s * 3 + 1) as f64).collect();
        for workers in [2, 4, 16, 100] {
            let parallel = par_trial_values_with_workers(64, workers, |s| {
                if s % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                (s * 3 + 1) as f64
            });
            assert_eq!(serial, parallel, "workers={workers}");
        }
    }

    #[test]
    fn par_trial_values_degenerate_counts() {
        assert!(par_trial_values(0, |_| 1.0).is_empty());
        assert_eq!(par_trial_values(1, |s| s as f64), vec![0.0]);
        assert!(par_trial_values_with_workers(0, 8, |_| 1.0).is_empty());
    }

    #[test]
    fn par_summary_and_mean_agree() {
        let s = par_summary(10, |seed| seed as f64);
        assert_eq!(s.count, 10);
        assert!((s.mean - 4.5).abs() < 1e-12);
        let values = par_trial_values(10, |seed| seed as f64);
        assert!((values.iter().sum::<f64>() / 10.0 - s.mean).abs() < 1e-12);
    }

    #[test]
    fn histogram_basics() {
        let mut h = Histogram::new(10);
        for v in [0u64, 5, 9, 10, 25, 99] {
            h.record(v);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.max(), 99);
        let buckets: Vec<(u64, u64)> = h.buckets().collect();
        assert_eq!(buckets, vec![(0, 3), (10, 1), (20, 1), (90, 1)]);
    }

    #[test]
    fn histogram_tail_fraction() {
        let mut h = Histogram::new(1);
        for v in 0..100u64 {
            h.record(v);
        }
        let t = h.tail_fraction(89);
        assert!((t - 0.10).abs() < 1e-9, "got {t}");
        assert_eq!(h.tail_fraction(1000), 0.0);
    }

    #[test]
    fn histogram_percentiles_nearest_rank() {
        let mut h = Histogram::new(1);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.5), 50);
        assert_eq!(h.percentile(0.99), 99);
        assert_eq!(h.percentile(1.0), 100);
        assert_eq!(h.percentile(0.0), 1); // clamped to rank 1
        assert_eq!(Histogram::new(1).percentile(0.5), 0);
    }

    #[test]
    fn histogram_absorb_merges_counts() {
        let mut a = Histogram::new(1);
        let mut b = Histogram::new(1);
        a.record(1);
        a.record(2);
        b.record(2);
        b.record(9);
        a.absorb(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.max(), 9);
        let counts: Vec<(u64, u64)> = a.buckets().collect();
        assert_eq!(counts, vec![(1, 1), (2, 2), (9, 1)]);
    }
}
