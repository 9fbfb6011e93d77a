//! The slab-backed path arena and the source-routed path protocol.
//!
//! Every routed packet carries only two `u32`s of routing state — `via`
//! is its span index in the arena, `via2` its position along the span —
//! so the per-step protocol does zero allocation and no per-packet
//! `Vec` churn: all paths live in one flat link-id slab shared by every
//! packet of the run. The protocol reads the arena immutably, which is
//! what keeps the sharded engine's process phase bit-identical to the
//! serial one.

use crate::graph::LinkGraph;
use lnpram_simnet::{Outbox, Packet, Protocol, Shardable};

/// A flat slab of link-id paths. Span `s` is
/// `links[spans[s].0 .. spans[s].0 + spans[s].1]`.
#[derive(Debug, Clone, Default)]
pub struct PathArena {
    links: Vec<u32>,
    spans: Vec<(u32, u32)>,
}

impl PathArena {
    /// Empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop all spans (capacity kept for the next run).
    pub fn clear(&mut self) {
        self.links.clear();
        self.spans.clear();
    }

    /// Append `path` and return its span index.
    pub fn push(&mut self, path: &[u32]) -> u32 {
        let start = self.links.len() as u32;
        self.links.extend_from_slice(path);
        self.spans.push((start, path.len() as u32));
        (self.spans.len() - 1) as u32
    }

    /// Become a copy of `other`, keeping this arena's capacity.
    pub(crate) fn copy_from(&mut self, other: &PathArena) {
        self.clear();
        self.links.extend_from_slice(&other.links);
        self.spans.extend_from_slice(&other.spans);
    }

    /// The link-id path of span `span`.
    pub fn span(&self, span: u32) -> &[u32] {
        let (start, len) = self.spans[span as usize];
        &self.links[start as usize..(start + len) as usize]
    }

    /// Number of spans stored.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if no spans are stored.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// The source-routed protocol: each packet follows its precomputed
/// arena span hop by hop and delivers when the span is exhausted.
/// Stateless apart from the shared immutable borrows, so it composes
/// with the tag demux unchanged.
#[derive(Clone)]
pub struct PathProtocol<'a> {
    arena: &'a PathArena,
    graph: &'a LinkGraph,
}

impl<'a> PathProtocol<'a> {
    /// Protocol over `arena`'s paths on `graph`.
    pub fn new(arena: &'a PathArena, graph: &'a LinkGraph) -> Self {
        PathProtocol { arena, graph }
    }
}

impl Shardable for PathProtocol<'_> {
    fn merge(&mut self, _part: Self) {}
}

impl Protocol for PathProtocol<'_> {
    fn on_packet(&mut self, node: usize, pkt: Packet, _step: u32, out: &mut Outbox) {
        let span = self.arena.span(pkt.via);
        let pos = pkt.via2 as usize;
        if pos >= span.len() {
            out.deliver(pkt);
        } else {
            let link = span[pos];
            let port = (link - self.graph.first_link(node)) as usize;
            out.send(port, pkt.with_via2(pkt.via2 + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_slabs_paths() {
        let mut a = PathArena::new();
        assert!(a.is_empty());
        let s0 = a.push(&[1, 2, 3]);
        let s1 = a.push(&[]);
        let s2 = a.push(&[7]);
        assert_eq!((s0, s1, s2), (0, 1, 2));
        assert_eq!(a.span(s0), &[1, 2, 3]);
        assert_eq!(a.span(s1), &[] as &[u32]);
        assert_eq!(a.span(s2), &[7]);
        assert_eq!(a.len(), 3);
        a.clear();
        assert!(a.is_empty());
    }

    #[test]
    fn a_copy_replaces_what_the_arena_held() {
        let mut a = PathArena::new();
        a.push(&[1, 2, 3]);
        a.push(&[4]);
        let mut b = PathArena::new();
        b.push(&[5, 5, 5, 5]);
        b.copy_from(&a);
        a.clear();
        assert_eq!(b.len(), 2);
        assert_eq!(b.span(0), &[1, 2, 3]);
        assert_eq!(b.span(1), &[4]);
    }
}
