//! Per-tag delivery demultiplexing: split one run's delivery metrics by
//! [`Packet::tag`](crate::Packet).
//!
//! Serving co-routes several tenants' requests through one engine run,
//! with each packet's `tag` carrying its tenant slot (a routing batch is
//! not one run: `route_batch` folds each tenant's isolated run).
//! [`TagDemux`] wraps any [`Protocol`] and observes the deliveries the
//! inner protocol emits, accumulating one [`TagMetrics`] per tag —
//! delivered count, routing time and the latency histogram, recorded
//! exactly the way the engine's global [`Metrics`] are
//! (`on_delivery(step, injected_at)` per delivery). Because both the
//! serial [`Engine`](crate::Engine) and the sharded coordinator drive
//! the protocol through the same callbacks in the same order, the demux
//! is transparent: wrapping changes no outcome, it only *attributes*
//! deliveries.
//!
//! The demux is [`Shardable`] when its inner protocol is: its own state
//! is per-tag counts, which commute, so the per-tag metrics of the
//! clones merge by sum, max and [`Histogram::absorb`].

use crate::metrics::Metrics;
use crate::packet::Packet;
use crate::protocol::{Outbox, Protocol, Shardable};
use lnpram_math::stats::Histogram;

/// Delivery metrics of one tag (tenant) within a shared run: the subset
/// of [`Metrics`] attributable to individual packets.
/// Queue residency is engine-global (queues are shared state) and stays
/// on the run's aggregate metrics.
#[derive(Debug, Clone)]
pub struct TagMetrics {
    /// Packets of this tag delivered.
    pub delivered: usize,
    /// Step at which this tag's last delivery happened.
    pub routing_time: u32,
    /// Per-packet latency histogram of this tag's deliveries.
    pub latency: Histogram,
}

impl Default for TagMetrics {
    fn default() -> Self {
        TagMetrics {
            delivered: 0,
            routing_time: 0,
            latency: Histogram::new(1),
        }
    }
}

impl TagMetrics {
    /// Record one delivery (mirrors [`Metrics::on_delivery`], including
    /// the debug-build panic on a delivery that precedes its injection
    /// step — a misordered-admission bookkeeping error, not a latency of
    /// zero).
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

    /// Add `part`'s deliveries into `self` (the per-tag
    /// [`Metrics::absorb_deliveries`]).
    pub fn absorb(&mut self, part: &TagMetrics) {
        self.delivered += part.delivered;
        self.routing_time = self.routing_time.max(part.routing_time);
        self.latency.absorb(&part.latency);
    }

    /// Does this tag's slice of the run match `m` delivery-for-delivery?
    /// (The equality the batched-vs-isolated contract pins: delivered
    /// count, routing time, and the full latency distribution.)
    pub fn matches(&self, m: &Metrics) -> bool {
        self.delivered == m.delivered
            && self.routing_time == m.routing_time
            && self.latency.buckets().eq(m.latency.buckets())
    }
}

/// A [`Protocol`] wrapper accumulating per-tag delivery metrics.
///
/// Every delivered packet's `tag` must be `< tags` — the demux indexes a
/// dense table by tag and panics on out-of-range tags (a tagging bug,
/// not a routing outcome).
#[derive(Clone)]
pub struct TagDemux<P> {
    inner: P,
    per_tag: Vec<TagMetrics>,
}

impl<P: Protocol> TagDemux<P> {
    /// Wrap `inner`, tracking tags `0..tags`.
    pub fn new(inner: P, tags: usize) -> Self {
        TagDemux {
            inner,
            per_tag: (0..tags).map(|_| TagMetrics::default()).collect(),
        }
    }

    /// The accumulated per-tag metrics, consuming the wrapper.
    pub fn into_metrics(self) -> Vec<TagMetrics> {
        self.per_tag
    }

    fn record(&mut self, out: &Outbox, from: usize, step: u32) {
        for pkt in &out.delivered()[from..] {
            self.per_tag[pkt.tag as usize].on_delivery(step, pkt.injected_at);
        }
    }
}

impl<P: Protocol> Protocol for TagDemux<P> {
    fn on_packet(&mut self, node: usize, pkt: Packet, step: u32, out: &mut Outbox) {
        let before = out.delivered().len();
        self.inner.on_packet(node, pkt, step, out);
        self.record(out, before, step);
    }

    fn on_step_end(&mut self, step: u32) {
        self.inner.on_step_end(step);
    }
}

impl<P: Shardable> Shardable for TagDemux<P> {
    fn merge(&mut self, part: Self) {
        for (mine, theirs) in self.per_tag.iter_mut().zip(&part.per_tag) {
            mine.absorb(theirs);
        }
        self.inner.merge(part.inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, SimConfig};
    use lnpram_topology::graph::ExplicitNetwork;
    use lnpram_topology::Network;

    /// Forward toward node n-1 on a path; deliver at the destination.
    fn forward(net: &ExplicitNetwork) -> impl Protocol + '_ {
        move |node: usize, pkt: Packet, _s: u32, out: &mut Outbox| {
            if node == pkt.dest as usize {
                out.deliver(pkt);
            } else {
                let port = (0..net.out_degree(node))
                    .find(|&p| net.neighbor(node, p) == node + 1)
                    .expect("forward port");
                out.send(port, pkt);
            }
        }
    }

    #[test]
    fn demux_splits_deliveries_by_tag_and_sums_to_global() {
        let net = ExplicitNetwork::undirected(4, &[(0, 1), (1, 2), (2, 3)], "path4");
        let mut eng = Engine::new(&net, SimConfig::default());
        // Tag 0: two packets 0→3 (one delayed by contention);
        // tag 1: one packet 1→2.
        eng.inject(0, Packet::new(0, 0, 3).with_tag(0));
        eng.inject(0, Packet::new(1, 0, 3).with_tag(0));
        eng.inject(1, Packet::new(2, 1, 2).with_tag(1));
        let mut demux = TagDemux::new(forward(&net), 2);
        let out = eng.run(&mut demux);
        assert!(out.completed);
        let tags = demux.into_metrics();
        assert_eq!(tags[0].delivered, 2);
        assert_eq!(tags[1].delivered, 1);
        assert_eq!(tags[1].routing_time, 1);
        assert_eq!(tags[0].routing_time, out.metrics.routing_time);
        assert_eq!(
            tags[0].delivered + tags[1].delivered,
            out.metrics.delivered,
            "tag metrics partition the global deliveries"
        );
        let merged: u64 = tags.iter().map(|t| t.latency.total()).sum();
        assert_eq!(merged, out.metrics.latency.total());
    }

    /// Mirror of the `Metrics` misordered-injection guard: per-tag
    /// accounting panics (debug builds) on a delivery that precedes its
    /// injection step.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "precedes injection")]
    fn misordered_injection_is_caught_per_tag() {
        let mut t = TagMetrics::default();
        t.on_delivery(1, 4);
    }

    #[test]
    fn wrapping_changes_no_outcome() {
        let net = ExplicitNetwork::undirected(5, &[(0, 1), (1, 2), (2, 3), (3, 4)], "path5");
        let run = |wrap: bool| {
            let mut eng = Engine::new(&net, SimConfig::default());
            for i in 0..4u32 {
                eng.inject(i as usize, Packet::new(i, i, 4).with_tag(u64::from(i % 2)));
            }
            if wrap {
                let mut p = TagDemux::new(forward(&net), 2);
                eng.run(&mut p)
            } else {
                let mut p = forward(&net);
                eng.run(&mut p)
            }
        };
        let plain = run(false);
        let tapped = run(true);
        assert_eq!(plain.metrics.routing_time, tapped.metrics.routing_time);
        assert_eq!(plain.metrics.delivered, tapped.metrics.delivered);
        assert_eq!(
            plain.metrics.queued_packet_steps,
            tapped.metrics.queued_packet_steps
        );
    }
}
