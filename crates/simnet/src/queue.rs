//! Pooled per-link output queues and queueing disciplines.
//!
//! The paper assesses routing schemes by routing time, queue size and
//! queueing discipline (§2.2.1). Two disciplines appear:
//!
//! * **FIFO** — used by the universal leveled-network algorithm
//!   (Theorem 2.1 explicitly promises FIFO queues);
//! * **furthest-destination-first** — used by the mesh algorithm (§3.4),
//!   where contention is resolved in favour of the packet with the larger
//!   remaining distance (encoded in [`Packet::priority`]).
//!
//! Storage is a single slab arena — [`PacketPool`] — shared by every
//! queue of an engine, held as two parallel arrays: the packets, and the
//! `u32` `next` index threading each slot onto a per-link FIFO chain or
//! the free list. Chain and free-list walks read only the 4-byte `next`
//! words, never the 48-byte packets beside them. A [`LinkQueue`] is four
//! `u32`s (16 bytes): head and tail of its chain, its length and its pop
//! count. Enqueue and pop never touch the allocator once the arena has
//! grown to the high-water mark of a run, and tearing a queue down costs
//! nothing.
//!
//! Selection is split into a read-only [`LinkQueue::select`] (returns the
//! slot to extract) and a mutating [`LinkQueue::commit_pop`];
//! [`LinkQueue::pop`] is the two in sequence. Both halves are public
//! because `bench_layers` calls them. The engine's transmit phase does
//! not copy the selected packet at all: `LinkQueue::detach` unlinks its
//! slot from the chain and hands the slot over, still holding the
//! packet, and the process phase copies it out with `PacketPool::take`
//! just before the protocol callback whose first send recycles that
//! slot. So a hop reads and writes each packet once.
//!
//! A queue keeps no high-water mark of its own: the engine raises one
//! counter on every push, which is the `max_queue` metric Theorem-level
//! queue bounds (O(ℓ), O(log n), O(1)) are checked against.

use crate::packet::Packet;

/// Sentinel index terminating slot chains ("no slot").
pub(crate) const NIL: u32 = u32::MAX;

/// Queueing discipline for resolving link contention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Discipline {
    /// First-in first-out (paper's preference: simplest hardware).
    #[default]
    Fifo,
    /// Largest [`Packet::priority`] first (furthest-destination-first when
    /// the router sets `priority` to the remaining distance); FIFO among
    /// equals.
    FurthestFirst,
}

/// The slab arena backing every [`LinkQueue`] of one engine: slot `i`
/// is `pkts[i]` plus `next[i]`, the intrusive link that chains both
/// per-link FIFOs and the free list.
///
/// Freed slots go on the free list and are recycled before the arrays
/// grow, so steady-state traffic allocates nothing.
#[derive(Debug, Clone)]
pub struct PacketPool {
    pkts: Vec<Packet>,
    next: Vec<u32>,
    free_head: u32,
}

impl Default for PacketPool {
    fn default() -> Self {
        PacketPool::new()
    }
}

impl PacketPool {
    /// An empty pool.
    pub fn new() -> Self {
        PacketPool {
            pkts: Vec::new(),
            next: Vec::new(),
            free_head: NIL,
        }
    }

    /// Slots currently backing the pool (occupied + free); the arena's
    /// high-water mark.
    pub fn capacity(&self) -> usize {
        self.pkts.len()
    }

    /// Store `pkt`, recycling a free slot if one exists.
    #[inline]
    fn alloc(&mut self, pkt: Packet) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            self.free_head = self.next[idx as usize];
            self.pkts[idx as usize] = pkt;
            self.next[idx as usize] = NIL;
            idx
        } else {
            let idx = self.pkts.len() as u32;
            assert!(idx != NIL, "packet pool exhausted the u32 index space");
            self.pkts.push(pkt);
            self.next.push(NIL);
            idx
        }
    }

    /// Return `idx` to the free list (the packet value is left in place;
    /// it is dead storage until the slot is recycled).
    #[inline]
    pub(crate) fn free(&mut self, idx: u32) {
        self.next[idx as usize] = self.free_head;
        self.free_head = idx;
    }

    /// Copy the packet out of the [detached](LinkQueue::detach) slot
    /// `idx` and free the slot. The free list is LIFO, so the next
    /// [`LinkQueue::push`] writes into this still-hot slot.
    #[inline]
    pub(crate) fn take(&mut self, idx: u32) -> Packet {
        let pkt = self.pkts[idx as usize];
        self.free(idx);
        pkt
    }

    /// Drop every slot but keep the arena's backing allocation, so a
    /// reused engine re-warms without touching the allocator.
    pub fn clear(&mut self) {
        self.pkts.clear();
        self.next.clear();
        self.free_head = NIL;
    }

    #[inline]
    pub(crate) fn pkt(&self, idx: u32) -> &Packet {
        &self.pkts[idx as usize]
    }

    fn next(&self, idx: u32) -> u32 {
        self.next[idx as usize]
    }

    /// Walk the free list, marking each slot in `seen` (sized to
    /// [`capacity`](Self::capacity)). Errors on an out-of-range index or
    /// a revisited slot (a free-list cycle, or a slot shared with a
    /// queue chain walked earlier into the same bitmap). Returns the
    /// free-slot count.
    pub(crate) fn walk_free(&self, seen: &mut [bool]) -> Result<usize, String> {
        let mut count = 0usize;
        let mut cur = self.free_head;
        while cur != NIL {
            let i = cur as usize;
            if i >= self.capacity() {
                return Err(format!(
                    "free list points at slot {i} beyond capacity {}",
                    self.capacity()
                ));
            }
            if seen[i] {
                return Err(format!("slot {i} reached twice via the free list"));
            }
            seen[i] = true;
            count += 1;
            cur = self.next[i];
        }
        Ok(count)
    }
}

/// A pending extraction chosen by [`LinkQueue::select`]: the slot to
/// remove and its predecessor in the chain (`NIL` when it is the head).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selection {
    slot: u32,
    prev: u32,
}

/// The output queue of one directed link: head/tail indices of its
/// arrival-order chain in the shared [`PacketPool`], plus counters.
#[derive(Debug, Clone)]
pub struct LinkQueue {
    head: u32,
    // `len` and `pops` are kept apart: adjacent, a pop updates both with
    // one 8-byte load and store, and that load cannot be forwarded from
    // the 4-byte `len` store of a push just before it.
    len: u32,
    tail: u32,
    pops: u32,
}

impl Default for LinkQueue {
    fn default() -> Self {
        LinkQueue::new()
    }
}

impl LinkQueue {
    /// An empty queue.
    pub fn new() -> Self {
        LinkQueue {
            head: NIL,
            tail: NIL,
            len: 0,
            pops: 0,
        }
    }

    /// Number of queued packets.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Packets that have traversed this link (successful pop count) — the
    /// per-link load used by the congestion tables.
    pub fn pops(&self) -> u32 {
        self.pops
    }

    /// Enqueue a packet (position depends only on arrival order; selection
    /// order is the discipline's business).
    #[inline]
    pub fn push(&mut self, pool: &mut PacketPool, pkt: Packet) {
        let idx = pool.alloc(pkt);
        if self.tail == NIL {
            self.head = idx;
        } else {
            pool.next[self.tail as usize] = idx;
        }
        self.tail = idx;
        self.len += 1;
    }

    /// Choose the packet to transmit this step under `disc` without
    /// mutating anything, or `None` if empty. Ties under
    /// [`Discipline::FurthestFirst`] break toward the earliest arrival
    /// (the chain *is* arrival order, so the first strict maximum wins —
    /// exactly the old `VecDeque` scan's order).
    pub fn select(&self, pool: &PacketPool, disc: Discipline) -> Option<Selection> {
        if self.head == NIL {
            return None;
        }
        match disc {
            Discipline::Fifo => Some(Selection {
                slot: self.head,
                prev: NIL,
            }),
            Discipline::FurthestFirst => {
                let mut best = Selection {
                    slot: self.head,
                    prev: NIL,
                };
                let mut best_priority = pool.pkt(self.head).priority;
                let mut prev = self.head;
                let mut cur = pool.next(self.head);
                while cur != NIL {
                    let p = pool.pkt(cur).priority;
                    if p > best_priority {
                        best = Selection { slot: cur, prev };
                        best_priority = p;
                    }
                    prev = cur;
                    cur = pool.next(cur);
                }
                Some(best)
            }
        }
    }

    /// Extract a previously [`select`](Self::select)ed packet: O(1) chain
    /// unlink, no shifting, slot returned to the pool's free list.
    pub fn commit_pop(&mut self, pool: &mut PacketPool, sel: Selection) -> Packet {
        let slot = self.detach(pool, sel);
        pool.take(slot)
    }

    /// Unlink a [`select`](Self::select)ed packet's slot from the chain
    /// and count one traversal, without reading the packet or freeing the
    /// slot: the caller now holds it, and frees it with
    /// [`PacketPool::take`] or [`PacketPool::free`].
    #[inline]
    pub(crate) fn detach(&mut self, pool: &mut PacketPool, sel: Selection) -> u32 {
        let Selection { slot, prev } = sel;
        let after = pool.next(slot);
        if prev == NIL {
            self.head = after;
        } else {
            pool.next[prev as usize] = after;
        }
        if self.tail == slot {
            self.tail = prev;
        }
        self.len -= 1;
        self.pops += 1;
        slot
    }

    /// Select and remove the packet to transmit this step under `disc`,
    /// or `None` if empty.
    pub fn pop(&mut self, pool: &mut PacketPool, disc: Discipline) -> Option<Packet> {
        self.select(pool, disc)
            .map(|sel| self.commit_pop(pool, sel))
    }

    /// Iterate queued packets in arrival order (for inspection/tests).
    pub fn iter<'a>(&'a self, pool: &'a PacketPool) -> impl Iterator<Item = &'a Packet> {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                None
            } else {
                let pkt = pool.pkt(cur);
                cur = pool.next(cur);
                Some(pkt)
            }
        })
    }

    /// Remove all packets into `out` in arrival order, freeing the slots.
    pub fn drain_into(&mut self, pool: &mut PacketPool, out: &mut Vec<Packet>) {
        let mut cur = self.head;
        while cur != NIL {
            out.push(*pool.pkt(cur));
            let next = pool.next(cur);
            pool.free(cur);
            cur = next;
        }
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
    }

    /// Remove all packets, returning them in arrival order.
    pub fn drain(&mut self, pool: &mut PacketPool) -> Vec<Packet> {
        let mut out = Vec::with_capacity(self.len());
        self.drain_into(pool, &mut out);
        out
    }

    /// Forget the chain and zero every counter (the pool is cleared
    /// separately — this is the per-link half of `Engine::reset`).
    pub fn reset(&mut self) {
        *self = LinkQueue::new();
    }

    /// Walk this queue's chain, marking each slot in `seen` (the same
    /// bitmap passed to every queue of the pool plus
    /// [`PacketPool::walk_free`], so cycles *and* cross-chain slot
    /// sharing both surface as a revisit). Verifies the walked length
    /// matches `len` and the last slot matches `tail`. Returns the
    /// chain length.
    pub(crate) fn check_chain(
        &self,
        pool: &PacketPool,
        seen: &mut [bool],
    ) -> Result<usize, String> {
        let mut count = 0usize;
        let mut cur = self.head;
        let mut last = NIL;
        while cur != NIL {
            let i = cur as usize;
            if i >= pool.capacity() {
                return Err(format!(
                    "queue chain points at slot {i} beyond capacity {}",
                    pool.capacity()
                ));
            }
            if seen[i] {
                return Err(format!(
                    "slot {i} reached twice (chain cycle or slot shared across chains)"
                ));
            }
            seen[i] = true;
            count += 1;
            last = cur;
            cur = pool.next(cur);
        }
        if count != self.len as usize {
            return Err(format!(
                "queue len counter {} disagrees with walked chain length {count}",
                self.len
            ));
        }
        if last != self.tail {
            return Err(format!(
                "queue tail {} does not terminate the chain (walk ended at {})",
                index_or_nil(self.tail),
                index_or_nil(last)
            ));
        }
        Ok(count)
    }
}

fn index_or_nil(idx: u32) -> String {
    if idx == NIL {
        "NIL".to_string()
    } else {
        idx.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn pkt(id: u32, priority: u32) -> Packet {
        Packet::new(id, 0, 1).with_priority(priority)
    }

    #[test]
    fn fifo_order() {
        let mut pool = PacketPool::new();
        let mut q = LinkQueue::new();
        for i in 0..5 {
            q.push(&mut pool, pkt(i, 100 - i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop(&mut pool, Discipline::Fifo))
            .map(|p| p.id)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn furthest_first_order() {
        let mut pool = PacketPool::new();
        let mut q = LinkQueue::new();
        q.push(&mut pool, pkt(0, 3));
        q.push(&mut pool, pkt(1, 9));
        q.push(&mut pool, pkt(2, 9));
        q.push(&mut pool, pkt(3, 1));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop(&mut pool, Discipline::FurthestFirst))
            .map(|p| p.id)
            .collect();
        // 9s first in arrival order, then 3, then 1.
        assert_eq!(order, vec![1, 2, 0, 3]);
    }

    #[test]
    fn pop_empty_is_none() {
        let mut pool = PacketPool::new();
        let mut q = LinkQueue::new();
        assert_eq!(q.pop(&mut pool, Discipline::Fifo), None);
        assert_eq!(q.pop(&mut pool, Discipline::FurthestFirst), None);
    }

    #[test]
    fn pops_count_traversals() {
        let mut pool = PacketPool::new();
        let mut q = LinkQueue::new();
        assert_eq!(q.pops(), 0);
        q.pop(&mut pool, Discipline::Fifo); // empty pop does not count
        assert_eq!(q.pops(), 0);
        for i in 0..3 {
            q.push(&mut pool, pkt(i, 0));
        }
        q.pop(&mut pool, Discipline::Fifo);
        q.pop(&mut pool, Discipline::FurthestFirst);
        assert_eq!(q.pops(), 2);
    }

    #[test]
    fn drain_returns_arrival_order() {
        let mut pool = PacketPool::new();
        let mut q = LinkQueue::new();
        q.push(&mut pool, pkt(2, 5));
        q.push(&mut pool, pkt(1, 9));
        let ids: Vec<u32> = q.drain(&mut pool).into_iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![2, 1]);
        assert!(q.is_empty());
    }

    #[test]
    fn slots_are_recycled_not_grown() {
        let mut pool = PacketPool::new();
        let mut q = LinkQueue::new();
        for i in 0..8 {
            q.push(&mut pool, pkt(i, 0));
        }
        let warm = pool.capacity();
        for round in 0..100u32 {
            let p = q.pop(&mut pool, Discipline::Fifo).unwrap();
            q.push(&mut pool, p);
            assert_eq!(pool.capacity(), warm, "round {round} grew the arena");
        }
    }

    #[test]
    fn interleaved_queues_share_one_pool() {
        let mut pool = PacketPool::new();
        let mut a = LinkQueue::new();
        let mut b = LinkQueue::new();
        for i in 0..6 {
            a.push(&mut pool, pkt(i, i));
            b.push(&mut pool, pkt(100 + i, 0));
        }
        a.pop(&mut pool, Discipline::FurthestFirst);
        b.pop(&mut pool, Discipline::Fifo);
        let a_ids: Vec<u32> = a.iter(&pool).map(|p| p.id).collect();
        let b_ids: Vec<u32> = b.iter(&pool).map(|p| p.id).collect();
        assert_eq!(a_ids, vec![0, 1, 2, 3, 4]); // 5 had max priority, gone
        assert_eq!(b_ids, vec![101, 102, 103, 104, 105]);
    }

    /// The old `VecDeque`-based queue, kept as an executable model: max
    /// scan with strict `>` (first maximum wins) plus positional remove.
    struct ModelQueue {
        items: VecDeque<Packet>,
    }

    impl ModelQueue {
        fn pop(&mut self, disc: Discipline) -> Option<Packet> {
            match disc {
                Discipline::Fifo => self.items.pop_front(),
                Discipline::FurthestFirst => {
                    if self.items.is_empty() {
                        return None;
                    }
                    let mut best = 0usize;
                    for i in 1..self.items.len() {
                        if self.items[i].priority > self.items[best].priority {
                            best = i;
                        }
                    }
                    self.items.remove(best)
                }
            }
        }
    }

    /// Satellite pin: the pooled chain queue must reproduce the old
    /// implementation's pop order *exactly* — same `(priority,
    /// arrival)` selection, same tie-breaks — over randomized
    /// push/pop interleavings under both disciplines.
    #[test]
    fn pop_order_pins_old_implementation() {
        for disc in [Discipline::Fifo, Discipline::FurthestFirst] {
            let mut state = 0x5EED_u64 ^ (disc == Discipline::Fifo) as u64;
            let mut pool = PacketPool::new();
            let mut q = LinkQueue::new();
            let mut model = ModelQueue {
                items: VecDeque::new(),
            };
            let mut id = 0u32;
            for _ in 0..2000 {
                let r = lnpram_math::rng::splitmix64(&mut state);
                if !r.is_multiple_of(3) || q.is_empty() {
                    // Small priority range to force plenty of ties.
                    let p = pkt(id, (r >> 8) as u32 % 4);
                    id += 1;
                    q.push(&mut pool, p);
                    model.items.push_back(p);
                } else {
                    let got = q.pop(&mut pool, disc);
                    let want = model.pop(disc);
                    assert_eq!(got, want, "{disc:?} diverged after {id} pushes");
                }
            }
            // Drain both to the end.
            while let Some(want) = model.pop(disc) {
                assert_eq!(q.pop(&mut pool, disc), Some(want));
            }
            assert!(q.is_empty());
        }
    }
}
