//! Run metrics: routing time, queue sizes, delivery latencies.
//!
//! These are precisely the three quantities the paper uses to assess a
//! routing scheme (§2.2.1): *routing time* (step at which the last packet
//! arrives), *queue size* (maximum packets resident at any link queue at
//! any time), and the latency distribution (for delay-vs-bound tables).

use lnpram_math::stats::Histogram;

/// Metrics accumulated by one [`Engine`](crate::engine::Engine) run.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// Packets delivered.
    pub delivered: usize,
    /// Step at which the last delivery happened (the routing time).
    pub routing_time: u32,
    /// Maximum length any link queue reached.
    pub max_queue: usize,
    /// Total packet-steps spent queued (for average-occupancy reporting).
    pub queued_packet_steps: u64,
    /// Steps actually executed.
    pub steps: u32,
    /// Histogram of per-packet latency (delivery step − injection step).
    pub latency: Histogram,
    /// Per-link traversal counts in link-id order, populated only when
    /// [`SimConfig::record_link_loads`](crate::engine::SimConfig) is set
    /// (used by the congestion-balance tables).
    pub link_loads: Vec<u32>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            delivered: 0,
            routing_time: 0,
            max_queue: 0,
            queued_packet_steps: 0,
            steps: 0,
            latency: Histogram::new(1),
            link_loads: Vec::new(),
        }
    }
}

impl Metrics {
    /// Record a delivery at `step` for a packet injected at `injected_at`
    /// (what [`Outbox::deliver`](crate::Outbox::deliver) does on an
    /// engine). Public so a reference engine driving a capture-mode
    /// outbox records deliveries exactly the same way.
    ///
    /// A delivery before its injection step is a bookkeeping error (e.g. a
    /// serve driver admitting packets with a stale step counter); debug
    /// builds panic on it rather than silently clamping the latency to 0.
    pub fn on_delivery(&mut self, step: u32, injected_at: u32) {
        self.delivered += 1;
        self.routing_time = self.routing_time.max(step);
        let latency = step.checked_sub(injected_at);
        debug_assert!(
            latency.is_some(),
            "delivery at step {step} precedes injection at step {injected_at}"
        );
        self.latency.record(u64::from(latency.unwrap_or(0)));
    }

    /// Add the deliveries `part` recorded (count, routing time, latency
    /// histogram) into `self` — what a threaded sharded run does with
    /// each worker's metrics. Sum, max and bucket-wise sum commute, so
    /// the result equals recording every delivery here in any order.
    pub fn absorb_deliveries(&mut self, part: &Metrics) {
        self.delivered += part.delivered;
        self.routing_time = self.routing_time.max(part.routing_time);
        self.latency.absorb(&part.latency);
    }

    /// Mean queue occupancy per executed step (packet-steps / steps).
    pub fn mean_queue_occupancy(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.queued_packet_steps as f64 / f64::from(self.steps)
        }
    }

    /// Load-imbalance factor over the used links: max load / mean load of
    /// links that carried at least one packet. 1.0 = perfectly balanced.
    /// Requires [`link_loads`](Self::link_loads) to have been recorded.
    pub fn link_imbalance(&self) -> f64 {
        let used: Vec<u32> = self.link_loads.iter().copied().filter(|&l| l > 0).collect();
        if used.is_empty() {
            return 1.0;
        }
        let max = *used.iter().max().expect("non-empty") as f64;
        let mean = used.iter().map(|&l| l as f64).sum::<f64>() / used.len() as f64;
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_updates_routing_time_and_latency() {
        let mut m = Metrics::default();
        m.on_delivery(10, 0);
        m.on_delivery(7, 2);
        assert_eq!(m.delivered, 2);
        assert_eq!(m.routing_time, 10);
        assert_eq!(m.latency.total(), 2);
        assert_eq!(m.latency.max(), 10);
    }

    /// A delivery recorded before its injection step is a bookkeeping
    /// error (stale step counter in a driver) and must be caught loudly
    /// in debug builds instead of clamping the latency to 0.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "precedes injection")]
    fn misordered_injection_is_caught() {
        let mut m = Metrics::default();
        m.on_delivery(3, 7);
    }

    #[test]
    fn occupancy_division() {
        let m = Metrics {
            steps: 4,
            queued_packet_steps: 10,
            ..Metrics::default()
        };
        assert!((m.mean_queue_occupancy() - 2.5).abs() < 1e-12);
        let empty = Metrics::default();
        assert_eq!(empty.mean_queue_occupancy(), 0.0);
    }

    #[test]
    fn link_imbalance_math() {
        let mut m = Metrics::default();
        assert_eq!(m.link_imbalance(), 1.0); // nothing recorded
        m.link_loads = vec![0, 4, 2, 0, 6]; // used: 4, 2, 6 → mean 4, max 6
        assert!((m.link_imbalance() - 1.5).abs() < 1e-12);
        m.link_loads = vec![3, 3, 3];
        assert!((m.link_imbalance() - 1.0).abs() < 1e-12);
    }
}
