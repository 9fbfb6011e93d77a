//! The per-node protocol: what a node does with an arriving packet.
//!
//! A [`Protocol`] is the node-local program of the routing or emulation
//! algorithm. The engine calls [`Protocol::on_packet`] for every packet
//! arriving at (or injected into) a node; the protocol responds through the
//! [`Outbox`], its handle on the node's out-links, by forwarding on
//! out-ports, delivering locally, or absorbing (CRCW combining) — and may
//! emit *several* packets (reply fan-out), which is how the paper's
//! unit-time combining (footnote 3) is expressed.

use crate::engine::LinkState;
use crate::metrics::Metrics;
use crate::packet::Packet;

/// A protocol callback's handle on the out-links of the node being
/// processed.
///
/// An engine hands every callback an outbox onto its own link state:
/// [`Outbox::send`] pushes the packet onto the node's link at once and
/// [`Outbox::deliver`] counts the delivery into the run's metrics at
/// once, so nothing is buffered and replayed between the callback and
/// the queues. The outbox borrows the engine's state for one callback;
/// it owns nothing.
///
/// [`Outbox::default`] is the *capture* mode instead: it only records the
/// callback's `(port, packet)` sends and its deliveries, for a reference
/// engine or a unit test to read through [`Outbox::sends`] and
/// [`Outbox::delivered`].
#[derive(Debug, Default)]
pub struct Outbox<'a> {
    to: Target<'a>,
}

#[derive(Debug)]
enum Target<'a> {
    /// Engine mode: sends land on `links`, deliveries count into
    /// `metrics` (and are kept in `links.delivered` for the callback).
    Links {
        links: &'a mut LinkState,
        metrics: &'a mut Metrics,
        /// First link id of the node's ports, and their count.
        base: usize,
        degree: usize,
        /// The node id the port check names (global on a shard engine).
        node: usize,
        step: u32,
        /// `links.in_flight` when the callback began.
        mark: usize,
    },
    Capture {
        sends: Vec<(usize, Packet)>,
        delivered: Vec<Packet>,
    },
}

impl Default for Target<'_> {
    fn default() -> Self {
        Target::Capture {
            sends: Vec::new(),
            delivered: Vec::new(),
        }
    }
}

impl<'a> Outbox<'a> {
    /// The outbox of a callback at step `step` at local node `local` of
    /// `links`, which the port check calls `node`.
    #[inline]
    pub(crate) fn direct(
        links: &'a mut LinkState,
        metrics: &'a mut Metrics,
        local: usize,
        node: usize,
        step: u32,
    ) -> Self {
        let (base, degree) = links.ports(local);
        links.delivered.clear();
        let mark = links.in_flight;
        Outbox {
            to: Target::Links {
                links,
                metrics,
                base,
                degree,
                node,
                step,
                mark,
            },
        }
    }

    /// Forward `pkt` on `port` of the current node (enqueued this step,
    /// eligible to traverse the link from the next step on). Panics if
    /// the node has no such port.
    #[inline]
    pub fn send(&mut self, port: usize, pkt: Packet) {
        match &mut self.to {
            Target::Links {
                links,
                base,
                degree,
                node,
                ..
            } => {
                assert!(
                    port < *degree,
                    "protocol sent on invalid port {port} of node {node}"
                );
                links.push(*base + port, pkt);
            }
            Target::Capture { sends, .. } => sends.push((port, pkt)),
        }
    }

    /// The packet has reached its destination; record it as delivered at
    /// the current step.
    #[inline]
    pub fn deliver(&mut self, pkt: Packet) {
        match &mut self.to {
            Target::Links {
                links,
                metrics,
                step,
                ..
            } => {
                metrics.on_delivery(*step, pkt.injected_at);
                links.delivered.push(pkt);
            }
            Target::Capture { delivered, .. } => delivered.push(pkt),
        }
    }

    /// Number of sends made so far this callback (lets protocols detect
    /// whether a fan-out emitted anything).
    pub fn pending_sends(&self) -> usize {
        match &self.to {
            Target::Links { links, mark, .. } => links.in_flight - mark,
            Target::Capture { sends, .. } => sends.len(),
        }
    }

    /// Absorb the packet silently (combining: the packet's request has been
    /// merged into an already-forwarded one). Equivalent to doing nothing,
    /// spelled out for readability at call sites.
    pub fn absorb(&mut self, _pkt: Packet) {}

    /// The forwards captured so far, as `(port, packet)`. Capture mode
    /// only: an engine's outbox has already queued its sends, and this
    /// is empty.
    pub fn sends(&self) -> &[(usize, Packet)] {
        match &self.to {
            Target::Links { .. } => &[],
            Target::Capture { sends, .. } => sends,
        }
    }

    /// The packets delivered by the current callback.
    pub fn delivered(&self) -> &[Packet] {
        match &self.to {
            Target::Links { links, .. } => &links.delivered,
            Target::Capture { delivered, .. } => delivered,
        }
    }

    /// Empty the captured sends and deliveries, keeping their capacity —
    /// what a reference engine does after applying a callback's effects.
    pub fn clear(&mut self) {
        match &mut self.to {
            Target::Links { links, .. } => links.delivered.clear(),
            Target::Capture { sends, delivered } => {
                sends.clear();
                delivered.clear();
            }
        }
    }
}

/// A node-local routing/emulation program.
///
/// Call order, the one ordering contract of every engine ([`Engine`],
/// and `lnpram-shard`'s `ShardedEngine` on both of its loops; on the
/// threaded one each clone of a [`Shardable`] protocol sees this order
/// restricted to its own nodes): a run hands the protocol
///
/// * first the injections, in injection order, at step 0 (packets an
///   admission hook injects later come at their step, in injection
///   order, after that step's arrivals);
/// * then each step's arrivals, one [`Protocol::on_packet`] per packet,
///   in ascending id of the link it crossed;
/// * then [`Protocol::on_step_end`] for the step.
///
/// So a node sees a step's arrivals in the id order of its in-links, and
/// footnote 3's unit-time combining is a callback that folds an arrival
/// into one that reached the same node earlier in the same step.
///
/// Determinism contract: `on_packet` must depend only on its arguments and
/// on protocol-internal state mutated in engine call order. All randomness
/// must be pre-assigned to packets (e.g. the `via` field) or drawn from a
/// seeded RNG inside the protocol, so that runs are reproducible.
///
/// [`Engine`]: crate::Engine
pub trait Protocol {
    /// Handle `pkt` arriving at `node` at the end of `step` (injections are
    /// processed with `step = 0` before the first transmission).
    fn on_packet(&mut self, node: usize, pkt: Packet, step: u32, out: &mut Outbox);

    /// Called after all arrivals of a step have been processed. Protocols
    /// that batch per-step work (e.g. memory-module service) hook here.
    fn on_step_end(&mut self, _step: u32) {}
}

/// A protocol the sharded engine may split: one clone per worker thread,
/// each driven over a fixed set of nodes, merged back when the run ends.
///
/// Node-local contract: a `Shardable` protocol's callback at node `v`
/// touches nothing but
///
/// * state keyed by `v` (its routing table, the requests buffered at its
///   module), and
/// * shared state whose order across nodes nobody observes: updates that
///   commute (delivery counters, histograms, a list the caller reads in
///   an order of its own) or values that only *name* something (ids
///   handed out in creation order, carried by packets and looked up,
///   never compared, sorted or routed on).
///
/// That contract is what makes the split exact. Each clone sees the
/// [`Protocol`] call order restricted to its own nodes: every callback at
/// `v`, its injections included, runs on the one clone that owns `v`, in
/// the order a serial run makes them, and only a link's tail node pushes
/// onto its queue. So every queue sees the same pushes in the same order,
/// and `merge` folds the clones' shared records, which commute, together.
///
/// There is no default `merge`: a protocol that records nothing says so
/// with an empty body, and one that records (delivery counts, histograms)
/// must fold a clone's records into `self` or lose them. Every clone is
/// taken when the run starts, so whatever `self` recorded before then is
/// in every clone too; a protocol whose `merge` adds is built fresh for
/// each run, as [`TagDemux`](crate::TagDemux) is by every caller.
pub trait Shardable: Protocol + Clone + Send {
    /// Fold `part`, a clone of `self` that took some nodes' callbacks,
    /// back into `self`.
    fn merge(&mut self, part: Self);
}

impl<F> Protocol for F
where
    F: FnMut(usize, Packet, u32, &mut Outbox),
{
    fn on_packet(&mut self, node: usize, pkt: Packet, step: u32, out: &mut Outbox) {
        self(node, pkt, step, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_collects_sends_and_deliveries() {
        let mut out = Outbox::default();
        let p = Packet::new(1, 0, 5);
        out.send(2, p);
        out.deliver(p);
        out.absorb(p);
        assert_eq!(out.sends(), &[(2, p)]);
        assert_eq!(out.pending_sends(), 1);
        assert_eq!(out.delivered(), &[p]);
        out.clear();
        assert!(out.sends().is_empty() && out.delivered().is_empty());
    }

    #[test]
    fn closures_are_protocols() {
        let mut seen = 0usize;
        {
            let mut proto = |_node: usize, pkt: Packet, _step: u32, out: &mut Outbox| {
                seen += 1;
                out.deliver(pkt);
            };
            let mut out = Outbox::default();
            proto.on_packet(3, Packet::new(0, 0, 3), 1, &mut out);
            assert_eq!(out.delivered().len(), 1);
        }
        assert_eq!(seen, 1);
    }
}
