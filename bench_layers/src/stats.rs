//! Estimators and seeded mixing shared by every workload.
//!
//! On the reference box (2 cores, KVM guest) arithmetic is steady to
//! ±1 % but anything that touches memory sees one-sided slow episodes
//! of +10–40 % lasting from a fraction of a second to over a minute, so
//! host rates are read at the floor of fixed pieces of work (`measure`)
//! and host times elsewhere as medians (README, "Noise").

use lnpram_math::rng::splitmix64;
use lnpram_math::stats::Histogram;

/// The seed of request `i` of workload `workload` under run seed `seed`.
pub fn mix(seed: u64, workload: u64, i: u64) -> u64 {
    let mut s =
        seed ^ workload.wrapping_mul(0xA076_1D64_78BD_642F) ^ i.wrapping_mul(0xE703_7ED1_A0B4_28DB);
    splitmix64(&mut s)
}

/// Order-sensitive 64-bit fold of simulated results: two runs agree on
/// every folded number iff their digests agree (up to hash collision).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0x6C6E_7072_616D_0001)
    }
}

impl Digest {
    /// Fold one number.
    pub fn push(&mut self, x: u64) {
        let mut s = self.0 ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = splitmix64(&mut s);
    }

    /// Fold every non-empty bucket of `h`.
    pub fn push_hist(&mut self, h: &Histogram) {
        for (lo, count) in h.buckets() {
            self.push(lo);
            self.push(count);
        }
    }

    /// The folded value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Nearest-rank percentile of `samples` (`q` in `0..=1`); 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The highest quantile of an `n`-sample set that still has at least
/// ten samples beyond it (never below the median).
pub fn tail_quantile(n: usize) -> f64 {
    if n < 20 {
        0.5
    } else {
        1.0 - 10.0 / n as f64
    }
}

/// Percentile of a one-step-bucket latency histogram pooled over
/// **offered** operations: the `undelivered` ones sit in a +∞ bucket and
/// read as `budget` (the step budget they exhausted). Inside a bucket
/// the value is interpolated linearly, so the percentile moves smoothly
/// with the distribution instead of jumping a whole step when the rank
/// crosses a bucket edge. 0 when nothing was offered.
pub fn censored_percentile(h: &Histogram, undelivered: u64, q: f64, budget: f64) -> f64 {
    let offered = h.total() + undelivered;
    if offered == 0 {
        return 0.0;
    }
    let rank = (q * offered as f64).max(f64::MIN_POSITIVE);
    let mut before = 0u64;
    for (lo, count) in h.buckets() {
        if rank <= (before + count) as f64 {
            return lo as f64 + (rank - before as f64) / count as f64;
        }
        before += count;
    }
    budget
}

/// Fraction of **offered** operations delivered within `limit` steps.
pub fn within_limit(h: &Histogram, undelivered: u64, limit: u64) -> f64 {
    let offered = h.total() + undelivered;
    if offered == 0 {
        return 1.0;
    }
    let ok: u64 = h
        .buckets()
        .filter(|&(lo, _)| lo <= limit)
        .map(|(_, c)| c)
        .sum();
    ok as f64 / offered as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(5), 0.5);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(1000), 0.99);
    }

    #[test]
    fn censored_percentile_counts_undelivered_as_budget() {
        let mut h = Histogram::new(1);
        for _ in 0..70 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(20);
        }
        // 80 delivered, 20 stranded: p50 inside the first bucket, p99 in
        // the +inf bucket, p75 in the second bucket.
        assert!((censored_percentile(&h, 20, 0.5, 2000.0) - (10.0 + 50.0 / 70.0)).abs() < 1e-12);
        assert_eq!(censored_percentile(&h, 20, 0.99, 2000.0), 2000.0);
        assert!((censored_percentile(&h, 20, 0.75, 2000.0) - 20.5).abs() < 1e-12);
        // With nothing stranded the same p99 is a delivered latency.
        assert!(censored_percentile(&h, 0, 0.99, 2000.0) < 21.0);
        assert_eq!(censored_percentile(&Histogram::new(1), 0, 0.5, 9.0), 0.0);
        assert_eq!(censored_percentile(&Histogram::new(1), 4, 0.5, 9.0), 9.0);
    }

    #[test]
    fn within_limit_is_over_offered() {
        let mut h = Histogram::new(1);
        for v in [1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(within_limit(&h, 0, 64), 0.75);
        assert_eq!(within_limit(&h, 4, 64), 0.375);
        assert_eq!(within_limit(&Histogram::new(1), 0, 64), 1.0);
    }

    #[test]
    fn mix_and_digest_separate_inputs() {
        assert_ne!(mix(1, 0, 0), mix(2, 0, 0));
        assert_ne!(mix(1, 0, 0), mix(1, 1, 0));
        assert_ne!(mix(1, 0, 0), mix(1, 0, 1));
        assert_eq!(mix(7, 3, 9), mix(7, 3, 9));
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.push(1);
        a.push(2);
        b.push(2);
        b.push(1);
        assert_ne!(a, b, "order-sensitive");
        let mut h = Histogram::new(1);
        h.record(5);
        let mut c = Digest::default();
        c.push_hist(&h);
        assert_ne!(c, Digest::default());
    }
}
