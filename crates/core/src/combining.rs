//! CRCW packet combining: pending tables with reply fan-out.
//!
//! Theorem 2.6 upgrades the EREW emulation to CRCW by "combining all
//! incoming packets having the same destination into one packet and
//! storing log d direction bits … to make sure each requesting processor
//! receives a reply" (footnote 3: any number of same-destination arrivals
//! combine in unit time).
//!
//! We realise this with a *pending table* at every node, keyed by
//! `(address, trail)`: the first read request for a key is forwarded and
//! opens an entry; subsequent requests for the same key are absorbed,
//! appending their arrival direction to the entry's fan-out list (those
//! are the direction bits). The read reply retraces the request tree in
//! reverse: at each node it pops the entry and emits one copy per
//! recorded direction, plus a local delivery if this node's own processor
//! requested the cell.
//!
//! Correctness rests on the routes being *memoryless and convergent*:
//! once two requests for the same key meet at a node, their remaining
//! paths coincide (true for the unique-path phase of leveled networks,
//! for the greedy star route, and for the deterministic legs of the mesh
//! algorithm), so the absorbed request's reply is guaranteed to pass back
//! through the absorbing node.
//!
//! The `trail` component of the key is 0 when combining is enabled; with
//! combining disabled (ablation A4) it is the requesting processor id, so
//! every request keeps a private trail and nothing merges.
//!
//! **Storage.** The per-node tables are one open-addressed table keyed
//! `(node, address, trail)`; fan-out and chain lists are linked cells in
//! one arena. Nothing is allocated per entry, a reset touches only the
//! slots used since the last one, and no answer depends on slot order,
//! so the layout is invisible to the simulation.

/// Where a pending request came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The processor co-located with this node issued it.
    Local,
    /// It arrived from this neighboring node.
    FromNode(u32),
    /// It continues another pending trail *at this same node* — used where
    /// a private random-phase trail joins the shared convergent-phase tree
    /// (the star/mesh emulators; see the deadlock discussion below). When
    /// the reply consumes this entry it immediately processes the chained
    /// trail's entry at the same node.
    Chain(u32),
}

const NIL: u32 = u32::MAX;

/// A list of `u32`s in registration order, stored in the arena of the
/// [`PendingTables`] that handed it out. Read it with
/// [`PendingTables::iter`] or [`PendingTables::next`]; it stays readable
/// until those tables are reset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingList {
    head: u32,
    tail: u32,
}

impl PendingList {
    const EMPTY: PendingList = PendingList {
        head: NIL,
        tail: NIL,
    };

    /// Does the list hold nothing (any more)?
    pub fn is_empty(&self) -> bool {
        self.head == NIL
    }
}

/// One pending read: the fan-out targets awaiting the reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingEntry {
    /// Neighbor nodes to copy the reply to.
    pub fanout: PendingList,
    /// Trails to continue at this same node (see [`Source::Chain`]).
    pub chains: PendingList,
    /// Deliver to this node's own processor too?
    pub local: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Empty,
    Live,
    /// Taken by a reply; keeps probe sequences intact until the next reset.
    Taken,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    addr: u64,
    node: u32,
    trail: u32,
    entry: PendingEntry,
    state: State,
}

const VACANT: Slot = Slot {
    addr: 0,
    node: 0,
    trail: 0,
    entry: PendingEntry {
        fanout: PendingList::EMPTY,
        chains: PendingList::EMPTY,
        local: false,
    },
    state: State::Empty,
};

/// Pending-read tables for every node of the emulating network.
#[derive(Debug, Clone)]
pub struct PendingTables {
    /// Open addressing, linear probing; the length is a power of two and
    /// at most half the slots are ever non-empty.
    slots: Vec<Slot>,
    /// Indices of the non-empty slots, in claim order.
    used: Vec<u32>,
    /// List cells `(value, next)`; lists only grow, and only at the tail.
    cells: Vec<(u32, u32)>,
    live: usize,
    combined: u32,
}

impl PendingTables {
    /// Tables for a network of `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        PendingTables {
            slots: vec![VACANT; nodes.next_power_of_two().max(64)],
            used: Vec::new(),
            cells: Vec::new(),
            live: 0,
            combined: 0,
        }
    }

    /// Home slot of a key. The keys come from the simulation itself, so a
    /// fixed multiply–xorshift mix is enough.
    fn home(&self, node: u32, addr: u64, trail: u32) -> usize {
        let key = (u64::from(node) << 32 | u64::from(trail)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut x = addr ^ key;
        x ^= x >> 32;
        x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        x ^= x >> 32;
        x as usize & (self.slots.len() - 1)
    }

    /// The live slot of the key, or the empty slot that ends its probe
    /// sequence.
    fn probe(&self, node: u32, addr: u64, trail: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(node, addr, trail);
        loop {
            let s = &self.slots[i];
            if s.state == State::Empty
                || (s.state == State::Live && s.addr == addr && s.node == node && s.trail == trail)
            {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Double the table, carrying the live entries over in claim order.
    fn grow(&mut self) {
        let doubled = vec![VACANT; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        for u in std::mem::take(&mut self.used) {
            let s = old[u as usize];
            if s.state == State::Live {
                let i = self.probe(s.node, s.addr, s.trail);
                self.slots[i] = s;
                self.used.push(i as u32);
            }
        }
    }

    fn push(cells: &mut Vec<(u32, u32)>, list: &mut PendingList, value: u32) {
        let cell = cells.len() as u32;
        cells.push((value, NIL));
        if list.head == NIL {
            list.head = cell;
        } else {
            cells[list.tail as usize].1 = cell;
        }
        list.tail = cell;
    }

    /// Register a read request for `(addr, trail)` arriving at `node` from
    /// `source`. Returns `true` when this is the first request for the key
    /// here — the caller must forward the packet. `false` means absorbed
    /// (a combining event).
    pub fn register(&mut self, node: usize, addr: u64, trail: u32, source: Source) -> bool {
        if (self.used.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let node = node as u32;
        let i = self.probe(node, addr, trail);
        let slot = &mut self.slots[i];
        let first = slot.state == State::Empty;
        if first {
            *slot = Slot {
                addr,
                node,
                trail,
                state: State::Live,
                ..VACANT
            };
            self.used.push(i as u32);
            self.live += 1;
        }
        match source {
            Source::Local => {
                debug_assert!(!slot.entry.local, "one op per processor per step");
                slot.entry.local = true;
            }
            Source::FromNode(u) => Self::push(&mut self.cells, &mut slot.entry.fanout, u),
            Source::Chain(t) => Self::push(&mut self.cells, &mut slot.entry.chains, t),
        }
        if !first {
            self.combined += 1;
        }
        first
    }

    /// Remove and return the entry for `(addr, trail)` at `node` — called
    /// when the reply passes through. Panics if no entry exists (a reply
    /// must always follow a registered request path).
    pub fn take(&mut self, node: usize, addr: u64, trail: u32) -> PendingEntry {
        let i = self.probe(node as u32, addr, trail);
        let slot = &mut self.slots[i];
        assert!(
            slot.state == State::Live,
            "reply at node {node} for ({addr},{trail}) with no pending entry"
        );
        slot.state = State::Taken;
        self.live -= 1;
        slot.entry
    }

    /// Pop the front of `list`: the values come out in the order they
    /// were registered. Works on a copy of the list, so a taken entry can
    /// be walked while other entries are taken.
    pub fn next(&self, list: &mut PendingList) -> Option<u32> {
        if list.head == NIL {
            return None;
        }
        let (value, next) = self.cells[list.head as usize];
        list.head = next;
        Some(value)
    }

    /// The values of `list` in registration order.
    pub fn iter(&self, mut list: PendingList) -> impl Iterator<Item = u32> + '_ {
        std::iter::from_fn(move || self.next(&mut list))
    }

    /// Combining events since construction or the last [`Self::reset`].
    pub fn combined(&self) -> u32 {
        self.combined
    }

    /// Clear all entries and the combining counter (start of a PRAM step
    /// or after a rehash). Costs O(entries registered since the last
    /// reset), not O(nodes).
    pub fn reset(&mut self) {
        for &i in &self.used {
            self.slots[i as usize].state = State::Empty;
        }
        self.used.clear();
        self.cells.clear();
        self.live = 0;
        self.combined = 0;
    }

    /// Are all tables empty? (After a completed reply phase they must be —
    /// asserted by the emulators in debug builds.)
    pub fn all_clear(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnpram_math::rng::SeedSeq;
    use proptest::prelude::*;
    use rand::Rng;
    use std::collections::HashMap;

    fn values(pt: &PendingTables, list: PendingList) -> Vec<u32> {
        pt.iter(list).collect()
    }

    #[test]
    fn first_registration_forwards_rest_absorb() {
        let mut pt = PendingTables::new(4);
        assert!(pt.register(2, 100, 0, Source::Local));
        assert!(!pt.register(2, 100, 0, Source::FromNode(1)));
        assert!(!pt.register(2, 100, 0, Source::FromNode(3)));
        assert_eq!(pt.combined(), 2);
        let e = pt.take(2, 100, 0);
        assert!(e.local);
        assert_eq!(values(&pt, e.fanout), vec![1, 3]);
        assert!(pt.all_clear());
    }

    #[test]
    fn distinct_trails_do_not_merge() {
        let mut pt = PendingTables::new(2);
        assert!(pt.register(0, 100, 7, Source::Local));
        assert!(pt.register(0, 100, 8, Source::FromNode(1)));
        assert_eq!(pt.combined(), 0);
    }

    #[test]
    fn distinct_addresses_do_not_merge() {
        let mut pt = PendingTables::new(2);
        assert!(pt.register(1, 5, 0, Source::Local));
        assert!(pt.register(1, 6, 0, Source::Local));
        assert_eq!(pt.combined(), 0);
    }

    #[test]
    fn per_node_isolation() {
        let mut pt = PendingTables::new(3);
        assert!(pt.register(0, 9, 0, Source::Local));
        assert!(pt.register(1, 9, 0, Source::FromNode(0)));
        assert_eq!(pt.combined(), 0);
        let e = pt.take(1, 9, 0);
        assert_eq!(values(&pt, e.fanout), vec![0]);
        assert!(!pt.all_clear());
        pt.take(0, 9, 0);
        assert!(pt.all_clear());
    }

    #[test]
    fn chained_trails_count_as_combining() {
        let mut pt = PendingTables::new(2);
        assert!(pt.register(0, 4, 0, Source::Chain(7)));
        assert!(!pt.register(0, 4, 0, Source::Chain(9)));
        assert_eq!(pt.combined(), 1);
        let e = pt.take(0, 4, 0);
        assert_eq!(values(&pt, e.chains), vec![7, 9]);
        assert!(e.fanout.is_empty());
    }

    #[test]
    #[should_panic(expected = "no pending entry")]
    fn reply_without_request_panics() {
        let mut pt = PendingTables::new(1);
        pt.take(0, 1, 0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut pt = PendingTables::new(2);
        pt.register(0, 1, 0, Source::Local);
        pt.register(0, 1, 0, Source::FromNode(1));
        pt.reset();
        assert!(pt.all_clear());
        assert_eq!(pt.combined(), 0);
    }

    #[test]
    fn taken_lists_stay_readable_while_the_table_changes() {
        // The star reply walks one entry's chains while taking others.
        let mut pt = PendingTables::new(1);
        pt.register(0, 1, 0, Source::Chain(5));
        pt.register(0, 1, 0, Source::Chain(6));
        pt.register(0, 1, 5, Source::FromNode(2));
        pt.register(0, 1, 6, Source::FromNode(3));
        let e = pt.take(0, 1, 0);
        let mut chains = e.chains;
        let mut seen = Vec::new();
        while let Some(t) = pt.next(&mut chains) {
            let inner = pt.take(0, 1, t);
            assert!(pt.register(0, 77, t, Source::FromNode(9)), "fresh key");
            seen.push((t, values(&pt, inner.fanout)));
        }
        assert_eq!(seen, vec![(5, vec![2]), (6, vec![3])]);
    }

    #[test]
    fn growth_keeps_every_live_entry() {
        let mut pt = PendingTables::new(1); // 64 slots: grows several times
        for k in 0..1000u64 {
            assert!(pt.register((k % 7) as usize, k, (k % 3) as u32, Source::Local));
            assert!(!pt.register(
                (k % 7) as usize,
                k,
                (k % 3) as u32,
                Source::FromNode(k as u32)
            ));
            if k % 5 == 0 {
                pt.take((k % 7) as usize, k, (k % 3) as u32);
            }
        }
        for k in (0..1000u64).filter(|k| k % 5 != 0) {
            let e = pt.take((k % 7) as usize, k, (k % 3) as u32);
            assert!(e.local);
            assert_eq!(values(&pt, e.fanout), vec![k as u32]);
        }
        assert!(pt.all_clear());
    }

    /// The implementation this module had before the flat table: one
    /// `HashMap` per node, one `Vec` per list. Kept as the model the
    /// flat table is checked against.
    #[derive(Default)]
    struct ModelEntry {
        fanout: Vec<u32>,
        chains: Vec<u32>,
        local: bool,
    }

    struct Model {
        tables: Vec<HashMap<(u64, u32), ModelEntry>>,
        combined: u32,
    }

    impl Model {
        fn register(&mut self, node: usize, addr: u64, trail: u32, source: Source) -> bool {
            let entry = self.tables[node].entry((addr, trail)).or_default();
            let first = entry.fanout.is_empty() && entry.chains.is_empty() && !entry.local;
            match source {
                Source::Local => entry.local = true,
                Source::FromNode(u) => entry.fanout.push(u),
                Source::Chain(t) => entry.chains.push(t),
            }
            self.combined += u32::from(!first);
            first
        }

        fn reset(&mut self) {
            self.tables.iter_mut().for_each(HashMap::clear);
            self.combined = 0;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random register / take / reset sequences over a small key
        /// space (so keys collide, get taken and come back): the flat
        /// table and the model agree on every return value, on
        /// `combined()` and `all_clear()` after every operation, and on
        /// which `take`s hit "no pending entry".
        #[test]
        fn prop_flat_table_matches_hashmap_model(nodes in 1usize..6, len in 1usize..600, seed: u64) {
            let mut rng = SeedSeq::new(seed).rng();
            let mut flat = PendingTables::new(nodes);
            let mut model = Model {
                tables: (0..nodes).map(|_| HashMap::new()).collect(),
                combined: 0,
            };
            for _ in 0..len {
                let kind = rng.gen_range(0u8..40);
                let node = rng.gen_range(0..nodes);
                // Spread the addresses over both halves of the word.
                let addr = rng.gen_range(0u64..5).wrapping_mul(0x1_0000_0001);
                let trail = rng.gen_range(0u32..3);
                let value = rng.gen_range(0u32..50);
                match kind {
                    0..=23 => {
                        let has_local = model.tables[node]
                            .get(&(addr, trail))
                            .is_some_and(|e| e.local);
                        let source = match kind % 3 {
                            0 if !has_local => Source::Local,
                            1 => Source::Chain(value),
                            _ => Source::FromNode(value),
                        };
                        prop_assert_eq!(
                            flat.register(node, addr, trail, source),
                            model.register(node, addr, trail, source)
                        );
                    }
                    24..=38 => match model.tables[node].remove(&(addr, trail)) {
                        Some(want) => {
                            let got = flat.take(node, addr, trail);
                            prop_assert_eq!(got.local, want.local);
                            prop_assert_eq!(got.fanout.is_empty(), want.fanout.is_empty());
                            prop_assert_eq!(values(&flat, got.fanout), want.fanout);
                            prop_assert_eq!(values(&flat, got.chains), want.chains);
                        }
                        None => {
                            let mut probe = flat.clone();
                            let panic = std::panic::catch_unwind(move || {
                                probe.take(node, addr, trail);
                            })
                            .expect_err("take without an entry must panic");
                            let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
                            prop_assert!(msg.contains("no pending entry"), "{}", msg);
                        }
                    },
                    _ => {
                        flat.reset();
                        model.reset();
                    }
                }
                prop_assert_eq!(flat.combined(), model.combined);
                prop_assert_eq!(
                    flat.all_clear(),
                    model.tables.iter().all(HashMap::is_empty)
                );
            }
        }
    }
}
