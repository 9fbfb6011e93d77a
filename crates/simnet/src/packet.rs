//! The packet: a `(source, destination)` pair plus protocol state.
//!
//! §2.2.1 of the paper defines a packet as a `(source, destination)` pair;
//! the algorithms additionally thread through a random intermediate node
//! (Valiant phase-1 target), a phase indicator, a priority key for the
//! furthest-destination-first discipline, and an opaque payload word used
//! by the PRAM emulator (memory address / value / requester encoding).
//!
//! `Packet` is `Copy` and 48 bytes so that queue operations never allocate.

/// A routed packet. All node references are flat node ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Unique id (stable across the run; assigned by the injector).
    pub id: u32,
    /// Originating node.
    pub src: u32,
    /// Final destination node.
    pub dest: u32,
    /// Random intermediate destination (Valiant phase 1), or `NO_NODE`.
    pub via: u32,
    /// Second intermediate destination, or `NO_NODE`. The constant-queue
    /// mesh refinement (Theorem 3.2's `O(1)` queue claim, after \[6\] and
    /// Corollary 3.3) targets a random node inside the destination's
    /// `log n`-row block before the final in-block walk.
    pub via2: u32,
    /// Protocol-defined phase counter (e.g. 0 = toward `via`, 1 = toward
    /// `dest`; the mesh router uses 0/1/2 for its three stages).
    pub phase: u8,
    /// Hops taken within the current phase (the d-way-shuffle route is
    /// position-dependent: the digit to insert at hop `s` is digit `s−1`
    /// of the target).
    pub hop: u8,
    /// Where this packet was last forwarded from, as the forwarding
    /// protocol records it, or `NO_NODE`. The CRCW combining emulator
    /// turns it into the reply port it stores per address — the paper's
    /// "direction bits" (Theorem 2.6) along which read replies fan back
    /// out: the leveled host leaves the sending node here, the star host
    /// the out-port the packet left on, which (SWAP edges being
    /// involutions) is also the port back.
    pub prev: u32,
    /// Priority key for priority disciplines; larger = served first.
    pub priority: u32,
    /// Step at which the packet was injected.
    pub injected_at: u32,
    /// Opaque payload (PRAM address, value, or combined-request encoding).
    pub tag: u64,
}

/// Sentinel for "no node" in [`Packet::via`].
pub const NO_NODE: u32 = u32::MAX;

impl Packet {
    /// A fresh packet from `src` to `dest` with defaults elsewhere.
    pub fn new(id: u32, src: u32, dest: u32) -> Self {
        Packet {
            id,
            src,
            dest,
            via: NO_NODE,
            via2: NO_NODE,
            phase: 0,
            hop: 0,
            prev: NO_NODE,
            priority: 0,
            injected_at: 0,
            tag: 0,
        }
    }

    /// Builder-style: set the random intermediate node.
    #[must_use]
    pub fn with_via(mut self, via: u32) -> Self {
        self.via = via;
        self
    }

    /// Builder-style: set the second intermediate node.
    #[must_use]
    pub fn with_via2(mut self, via2: u32) -> Self {
        self.via2 = via2;
        self
    }

    /// Builder-style: set the payload tag.
    #[must_use]
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// Builder-style: set the priority key.
    #[must_use]
    pub fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let p = Packet::new(7, 1, 2)
            .with_via(9)
            .with_tag(0xABCD)
            .with_priority(3);
        assert_eq!(p.id, 7);
        assert_eq!(p.src, 1);
        assert_eq!(p.dest, 2);
        assert_eq!(p.via, 9);
        assert_eq!(p.tag, 0xABCD);
        assert_eq!(p.priority, 3);
        assert_eq!(p.phase, 0);
    }

    #[test]
    fn packet_is_small() {
        // Queues hold packets by value; keep the struct compact.
        assert!(std::mem::size_of::<Packet>() <= 48);
    }
}
