//! CRCW packet combining: pending tables with reply fan-out.
//!
//! Theorem 2.6 upgrades the EREW emulation to CRCW by "combining all
//! incoming packets having the same destination into one packet and
//! storing log d direction bits … to make sure each requesting processor
//! receives a reply" (footnote 3: any number of same-destination arrivals
//! combine in unit time).
//!
//! We realise this with a *pending entry* at every node a read request
//! passes, named by an [`EntryId`]. A request packet carries the id of
//! the entry it left at the previous node; the next node records the
//! reply port back to that node and that id as a [`Hop`] of its own entry
//! — those are the direction bits. On the *shared* tree the first request
//! for `(node, address)` opens the entry ([`PendingTables::join`]) and is
//! forwarded; later ones are absorbed, appending their hop to the
//! entry's fan-out list. A *private* trail, which no other request can
//! meet, opens its entries without any lookup ([`PendingTables::open`]).
//! The read reply retraces the request tree in reverse: a reply packet
//! carries the id of the entry it is bound for, so at each node it takes
//! that entry by id and emits one copy per recorded hop, bound for the
//! recorded neighbour entry, plus a local delivery if this node's own
//! processor requested the cell.
//!
//! Correctness rests on the routes being *memoryless and convergent*:
//! once two requests for the same address meet at a node, their remaining
//! paths coincide (true for the unique-path phase of leveled networks,
//! for the greedy star route, and for the deterministic legs of the mesh
//! algorithm), so the absorbed request's reply is guaranteed to pass back
//! through the absorbing node.
//!
//! With combining disabled (ablation A4) every trail is private, so
//! nothing merges.
//!
//! **Storage.** Entries live in one vector indexed by id, so taking an
//! entry is an array read. Each fan-out or chain list holds its first
//! hop inline and links the rest as cells of one arena, so an entry's
//! opening hop never reaches the arena: only the hops of requests that
//! joined a list after its first do. Only [`PendingTables::join`] looks
//! anything up: one open-addressed table keyed `(node, address)` maps
//! the shared tree to entry ids. Nothing is allocated per entry once
//! warm, a reset touches only the slots used since the last one, and no
//! answer depends on slot order, so the layout is invisible to the
//! simulation.

/// The name of one pending entry, handed out by [`PendingTables`] in
/// creation order. Request and reply packets carry it as a `u32` word.
/// It is only a name — looked up, never compared, sorted or routed on —
/// so the order in which nodes create entries is invisible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryId(pub u32);

/// One copy of a reply: leave on `port`, bound for `entry` at the
/// neighbour that port leads to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Out-port of this node on the reply network.
    pub port: u32,
    /// The entry the request left at that neighbour.
    pub entry: EntryId,
}

/// Where a pending request came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The processor co-located with this node issued it.
    Local,
    /// It arrived over a link; the reply goes back along this hop.
    Link(Hop),
    /// It continues another pending entry *at this same node* — used where
    /// a private random-phase trail joins the shared convergent-phase tree
    /// (the star emulator; see the deadlock discussion there). When the
    /// reply consumes this entry it immediately processes the chained
    /// entry at the same node.
    Chain(EntryId),
}

const NIL: u32 = u32::MAX;

/// No hop: the inline slot of an empty list. No entry id is `NIL`.
const NO_HOP: Hop = Hop {
    port: NIL,
    entry: EntryId(NIL),
};

/// A list of [`Hop`]s in registration order: the first inline, the rest
/// in the arena of the [`PendingTables`] that handed it out. Read it
/// with [`PendingTables::iter`] or [`PendingTables::next`]; it stays
/// readable until those tables are reset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingList {
    /// The first hop, or [`NO_HOP`].
    first: Hop,
    /// Arena cells of the hops after it.
    head: u32,
    tail: u32,
}

impl PendingList {
    const EMPTY: PendingList = PendingList {
        first: NO_HOP,
        head: NIL,
        tail: NIL,
    };

    /// Does the list hold nothing (any more)?
    pub fn is_empty(&self) -> bool {
        self.first.entry == NO_HOP.entry && self.head == NIL
    }
}

/// One pending read: the fan-out targets awaiting the reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingEntry {
    /// Neighbour entries to copy the reply to.
    pub fanout: PendingList,
    /// Entries to continue at this same node (see [`Source::Chain`]);
    /// their hops' `port` is unused.
    pub chains: PendingList,
    /// Deliver to this node's own processor too?
    pub local: bool,
}

const FRESH: PendingEntry = PendingEntry {
    fanout: PendingList::EMPTY,
    chains: PendingList::EMPTY,
    local: false,
};

/// A shared-tree key and the entry it names; `entry == NIL` is empty.
#[derive(Debug, Clone, Copy)]
struct Slot {
    addr: u64,
    node: u32,
    entry: u32,
}

const VACANT: Slot = Slot {
    addr: 0,
    node: 0,
    entry: NIL,
};

/// What a [`PendingTables`] has done since it was built, resets
/// included: pure functions of the requests it was handed, so a change
/// that moves them changed the work, whatever the clock says.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableWork {
    /// Entries opened, on the shared tree or a private trail.
    pub opened: u64,
    /// Shared-tree keys looked up ([`PendingTables::join`] calls).
    pub joined: u64,
    /// Requests absorbed into a live entry (combining events).
    pub absorbed: u64,
    /// Arena cells written: hops after the first of their list.
    pub cells: u64,
}

/// Pending-read tables for every node of the emulating network.
#[derive(Debug, Clone)]
pub struct PendingTables {
    /// Every entry since the last reset, indexed by id, with whether a
    /// reply has yet to take it.
    entries: Vec<(PendingEntry, bool)>,
    /// The shared tree's `(node, address)` keys: open addressing, linear
    /// probing; the length is a power of two and at most half the slots
    /// are ever non-empty.
    slots: Vec<Slot>,
    /// Indices of the non-empty slots, in claim order.
    used: Vec<u32>,
    /// List cells `(hop, next)`; lists only grow, and only at the tail.
    cells: Vec<(Hop, u32)>,
    live: usize,
    combined: u32,
    work: TableWork,
}

impl PendingTables {
    /// Tables for a network of `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        PendingTables {
            entries: Vec::new(),
            slots: vec![VACANT; nodes.next_power_of_two().max(64)],
            used: Vec::new(),
            cells: Vec::new(),
            live: 0,
            combined: 0,
            work: TableWork::default(),
        }
    }

    /// Home slot of a key. The keys come from the simulation itself, so a
    /// fixed multiply–xorshift mix is enough.
    #[inline]
    fn home(&self, node: u32, addr: u64) -> usize {
        let mut x = addr ^ u64::from(node).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 32;
        x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        x ^= x >> 32;
        x as usize & (self.slots.len() - 1)
    }

    /// The slot holding the key, or the empty slot that ends its probe
    /// sequence.
    #[inline]
    fn probe(&self, node: u32, addr: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(node, addr);
        loop {
            let s = &self.slots[i];
            if s.entry == NIL || (s.addr == addr && s.node == node) {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Double the key table, carrying the keys over in claim order.
    fn grow(&mut self) {
        let doubled = vec![VACANT; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        for u in std::mem::take(&mut self.used) {
            let s = old[u as usize];
            let i = self.probe(s.node, s.addr);
            self.slots[i] = s;
            self.used.push(i as u32);
        }
    }

    #[inline]
    fn push(cells: &mut Vec<(Hop, u32)>, list: &mut PendingList, hop: Hop) {
        if list.first.entry == NO_HOP.entry {
            list.first = hop;
            return;
        }
        let cell = cells.len() as u32;
        cells.push((hop, NIL));
        if list.head == NIL {
            list.head = cell;
        } else {
            cells[list.tail as usize].1 = cell;
        }
        list.tail = cell;
    }

    /// Record `source` in `entry`.
    #[inline]
    fn add(cells: &mut Vec<(Hop, u32)>, entry: &mut PendingEntry, source: Source) {
        match source {
            Source::Local => {
                debug_assert!(!entry.local, "one op per processor per step");
                entry.local = true;
            }
            Source::Link(hop) => Self::push(cells, &mut entry.fanout, hop),
            Source::Chain(chained) => Self::push(
                cells,
                &mut entry.chains,
                Hop {
                    port: NIL,
                    entry: chained,
                },
            ),
        }
    }

    /// Open a fresh entry holding `source` — a private trail, which no
    /// other request can meet, so nothing is looked up.
    #[inline]
    pub fn open(&mut self, source: Source) -> EntryId {
        let id = self.entries.len() as u32;
        let mut entry = FRESH;
        Self::add(&mut self.cells, &mut entry, source);
        self.entries.push((entry, true));
        self.live += 1;
        EntryId(id)
    }

    /// Register a read request for `addr` arriving at `node` from
    /// `source` on the shared tree. `Some(id)` when no live entry for the
    /// key exists here: the entry `id` is opened and the caller must
    /// forward the packet. `None` means absorbed into the live entry (a
    /// combining event).
    #[inline]
    pub fn join(&mut self, node: usize, addr: u64, source: Source) -> Option<EntryId> {
        if (self.used.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let node = node as u32;
        let i = self.probe(node, addr);
        let claimed = self.slots[i].entry;
        self.work.joined += 1;
        if claimed != NIL && self.entries[claimed as usize].1 {
            Self::add(
                &mut self.cells,
                &mut self.entries[claimed as usize].0,
                source,
            );
            self.combined += 1;
            return None;
        }
        if claimed == NIL {
            self.used.push(i as u32);
        }
        let id = self.open(source);
        self.slots[i] = Slot {
            addr,
            node,
            entry: id.0,
        };
        Some(id)
    }

    /// [`join`](Self::join) the shared tree when `combining`, else
    /// [`open`](Self::open) a private entry (ablation A4).
    #[inline]
    pub fn register(
        &mut self,
        combining: bool,
        node: usize,
        addr: u64,
        source: Source,
    ) -> Option<EntryId> {
        if combining {
            self.join(node, addr, source)
        } else {
            Some(self.open(source))
        }
    }

    /// Remove and return entry `id` — called when the reply bound for it
    /// arrives. Panics if `id` is not a live entry (a reply must always
    /// follow a registered request path).
    #[inline]
    pub fn take(&mut self, id: EntryId) -> PendingEntry {
        match self.entries.get_mut(id.0 as usize) {
            Some((entry, live @ true)) => {
                *live = false;
                self.live -= 1;
                *entry
            }
            _ => panic!("reply for entry {} with no pending entry", id.0),
        }
    }

    /// Pop the front of `list`: the hops come out in the order they were
    /// registered. Works on a copy of the list, so a taken entry can be
    /// walked while other entries are taken.
    #[inline]
    pub fn next(&self, list: &mut PendingList) -> Option<Hop> {
        if list.first.entry != NO_HOP.entry {
            return Some(std::mem::replace(&mut list.first, NO_HOP));
        }
        if list.head == NIL {
            return None;
        }
        let (hop, next) = self.cells[list.head as usize];
        list.head = next;
        Some(hop)
    }

    /// The hops of `list` in registration order.
    #[inline]
    pub fn iter(&self, mut list: PendingList) -> impl Iterator<Item = Hop> + '_ {
        std::iter::from_fn(move || self.next(&mut list))
    }

    /// Combining events since construction or the last [`Self::reset`].
    pub fn combined(&self) -> u32 {
        self.combined
    }

    /// The work done since construction, across resets.
    pub fn work(&self) -> TableWork {
        TableWork {
            opened: self.work.opened + self.entries.len() as u64,
            joined: self.work.joined,
            absorbed: self.work.absorbed + u64::from(self.combined),
            cells: self.work.cells + self.cells.len() as u64,
        }
    }

    /// Clear all entries and the combining counter (start of a PRAM step
    /// or after a rehash). Costs O(entries registered since the last
    /// reset), not O(nodes).
    pub fn reset(&mut self) {
        self.work = self.work();
        for &i in &self.used {
            self.slots[i as usize].entry = NIL;
        }
        self.used.clear();
        self.entries.clear();
        self.cells.clear();
        self.live = 0;
        self.combined = 0;
    }

    /// Are all tables empty? (After a completed reply phase they must be:
    /// [`CombiningHost`](crate::combining_host::CombiningHost) asserts it
    /// at the end of every reply phase, in every build.)
    pub fn all_clear(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnpram_math::rng::SeedSeq;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn link(port: u32, entry: u32) -> Source {
        Source::Link(Hop {
            port,
            entry: EntryId(entry),
        })
    }

    fn ports(pt: &PendingTables, list: PendingList) -> Vec<u32> {
        pt.iter(list).map(|h| h.port).collect()
    }

    fn chained(pt: &PendingTables, list: PendingList) -> Vec<u32> {
        pt.iter(list).map(|h| h.entry.0).collect()
    }

    #[test]
    fn first_registration_forwards_rest_absorb() {
        let mut pt = PendingTables::new(4);
        let id = pt.join(2, 100, Source::Local).expect("first");
        assert_eq!(pt.join(2, 100, link(1, 7)), None);
        assert_eq!(pt.join(2, 100, link(3, 8)), None);
        assert_eq!(pt.combined(), 2);
        let e = pt.take(id);
        assert!(e.local);
        assert_eq!(ports(&pt, e.fanout), vec![1, 3]);
        assert_eq!(chained(&pt, e.fanout), vec![7, 8]);
        assert!(pt.all_clear());
    }

    #[test]
    fn first_hops_stay_inline_and_joiners_take_cells() {
        let mut pt = PendingTables::new(4);
        let id = pt.join(1, 100, link(1, 7)).expect("first");
        pt.open(Source::Chain(id));
        assert_eq!(pt.work().cells, 0, "each list's first hop is inline");
        assert_eq!(pt.join(1, 100, link(2, 8)), None);
        assert_eq!(pt.join(1, 100, Source::Chain(EntryId(9))), None);
        assert_eq!(pt.join(1, 100, link(3, 5)), None);
        let work = TableWork {
            opened: 2,
            joined: 4,
            absorbed: 3,
            // The second fan-out hop and the third; the chain is inline.
            cells: 2,
        };
        assert_eq!(pt.work(), work);
        let e = pt.take(id);
        assert_eq!(ports(&pt, e.fanout), vec![1, 2, 3]);
        assert_eq!(chained(&pt, e.chains), vec![9]);
        pt.reset();
        assert_eq!(pt.work(), work, "the counts survive a reset");
    }

    #[test]
    fn distinct_trails_do_not_merge() {
        // Private trails: every `open` is an entry of its own, and
        // opening leaves the shared key free.
        let mut pt = PendingTables::new(2);
        let a = pt.open(Source::Local);
        let b = pt.open(link(1, 0));
        assert_ne!(a, b);
        assert!(pt.join(0, 100, link(1, 0)).is_some());
        assert_eq!(pt.combined(), 0);
        assert_eq!(pt.register(false, 0, 100, link(2, 1)), Some(EntryId(3)));
        assert_eq!(pt.register(true, 0, 100, link(2, 1)), None);
    }

    #[test]
    fn distinct_addresses_do_not_merge() {
        let mut pt = PendingTables::new(2);
        assert!(pt.join(1, 5, Source::Local).is_some());
        assert!(pt.join(1, 6, Source::Local).is_some());
        assert_eq!(pt.combined(), 0);
    }

    #[test]
    fn per_node_isolation() {
        let mut pt = PendingTables::new(3);
        let at0 = pt.join(0, 9, Source::Local).expect("first at node 0");
        let at1 = pt.join(1, 9, link(0, at0.0)).expect("first at node 1");
        assert_eq!(pt.combined(), 0);
        let e = pt.take(at1);
        assert_eq!(
            pt.iter(e.fanout).collect::<Vec<_>>(),
            vec![Hop {
                port: 0,
                entry: at0
            }]
        );
        assert!(!pt.all_clear());
        pt.take(at0);
        assert!(pt.all_clear());
    }

    #[test]
    fn chained_trails_count_as_combining() {
        let mut pt = PendingTables::new(2);
        let shared = pt.join(0, 4, Source::Chain(EntryId(7))).expect("first");
        assert_eq!(pt.join(0, 4, Source::Chain(EntryId(9))), None);
        assert_eq!(pt.combined(), 1);
        let e = pt.take(shared);
        assert_eq!(chained(&pt, e.chains), vec![7, 9]);
        assert!(e.fanout.is_empty());
    }

    #[test]
    #[should_panic(expected = "no pending entry")]
    fn reply_without_request_panics() {
        let mut pt = PendingTables::new(1);
        let id = pt.open(Source::Local);
        pt.take(id);
        pt.take(id);
    }

    #[test]
    fn reset_clears_everything() {
        let mut pt = PendingTables::new(2);
        pt.join(0, 1, Source::Local);
        pt.join(0, 1, link(1, 0));
        pt.open(Source::Local);
        pt.reset();
        assert!(pt.all_clear());
        assert_eq!(pt.combined(), 0);
        assert_eq!(
            pt.join(0, 1, Source::Local),
            Some(EntryId(0)),
            "key freed, ids restart"
        );
    }

    #[test]
    fn taken_lists_stay_readable_while_the_table_changes() {
        // The star reply walks one entry's chains while taking others.
        let mut pt = PendingTables::new(1);
        let p5 = pt.open(link(2, 50));
        let p6 = pt.open(link(3, 60));
        let shared = pt.join(0, 1, Source::Chain(p5)).expect("first");
        assert_eq!(pt.join(0, 1, Source::Chain(p6)), None);
        let e = pt.take(shared);
        let mut chains = e.chains;
        let mut seen = Vec::new();
        while let Some(chain) = pt.next(&mut chains) {
            let inner = pt.take(chain.entry);
            let fresh = 77 + seen.len() as u64;
            assert!(pt.join(0, fresh, link(9, 0)).is_some(), "fresh key");
            seen.push(pt.iter(inner.fanout).collect::<Vec<_>>());
        }
        let hop = |port, entry| Hop {
            port,
            entry: EntryId(entry),
        };
        assert_eq!(seen, vec![vec![hop(2, 50)], vec![hop(3, 60)]]);
    }

    #[test]
    fn growth_keeps_every_live_entry() {
        let mut pt = PendingTables::new(1); // 64 slots: grows several times
        let mut ids = Vec::new();
        for k in 0..1000u64 {
            let node = (k % 7) as usize;
            let id = pt.join(node, k, Source::Local).expect("fresh key");
            assert_eq!(pt.join(node, k, link(k as u32, 0)), None);
            if k % 5 == 0 {
                pt.take(id);
            } else {
                ids.push((k, id));
            }
        }
        for (k, id) in ids {
            let e = pt.take(id);
            assert!(e.local);
            assert_eq!(ports(&pt, e.fanout), vec![k as u32]);
        }
        assert!(pt.all_clear());
    }

    /// The implementation this module had before entry ids, restated with
    /// them: one `HashMap` of the shared tree's keys and one `Vec` per list.
    /// Kept as the model the flat tables are checked against.
    #[derive(Default, Clone)]
    struct ModelEntry {
        fanout: Vec<Hop>,
        chains: Vec<u32>,
        local: bool,
        live: bool,
    }

    #[derive(Default)]
    struct Model {
        keys: HashMap<(usize, u64), u32>,
        entries: Vec<ModelEntry>,
        combined: u32,
        work: TableWork,
    }

    impl Model {
        fn add(&mut self, id: u32, source: Source) {
            let entry = &mut self.entries[id as usize];
            // A list's first hop is inline; every later one is a cell.
            let first = match source {
                Source::Local => {
                    entry.local = true;
                    true
                }
                Source::Link(hop) => {
                    entry.fanout.push(hop);
                    entry.fanout.len() == 1
                }
                Source::Chain(t) => {
                    entry.chains.push(t.0);
                    entry.chains.len() == 1
                }
            };
            self.work.cells += u64::from(!first);
        }

        fn open(&mut self, source: Source) -> EntryId {
            self.work.opened += 1;
            let id = self.entries.len() as u32;
            self.entries.push(ModelEntry {
                live: true,
                ..Default::default()
            });
            self.add(id, source);
            EntryId(id)
        }

        fn join(&mut self, node: usize, addr: u64, source: Source) -> Option<EntryId> {
            self.work.joined += 1;
            match self.keys.get(&(node, addr)) {
                Some(&id) if self.entries[id as usize].live => {
                    self.add(id, source);
                    self.combined += 1;
                    self.work.absorbed += 1;
                    None
                }
                _ => {
                    let id = self.open(source);
                    self.keys.insert((node, addr), id.0);
                    Some(id)
                }
            }
        }

        fn reset(&mut self) {
            *self = Model {
                work: self.work,
                ..Model::default()
            };
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random join / open / take / reset sequences over a small key
        /// space (so keys collide, get taken and come back), with chains
        /// to earlier entries: the flat tables and the model agree on
        /// every returned id, on every taken entry's lists (each list's
        /// full hop sequence, its inline first hop included), on
        /// `combined()`, `all_clear()` and `work()` after every
        /// operation, and on which `take`s hit "no pending entry".
        #[test]
        fn prop_flat_table_matches_hashmap_model(nodes in 1usize..6, len in 1usize..600, seed: u64) {
            let mut rng = SeedSeq::new(seed).rng();
            let mut flat = PendingTables::new(nodes);
            let mut model = Model::default();
            for _ in 0..len {
                let kind = rng.gen_range(0u8..40);
                let node = rng.gen_range(0..nodes);
                // Spread the addresses over both halves of the word.
                let addr = rng.gen_range(0u64..5).wrapping_mul(0x1_0000_0001);
                // Ids a little past the issued ones, so some are not live.
                let id = rng.gen_range(0..model.entries.len() as u32 + 3);
                let source = match rng.gen_range(0u8..3) {
                    0 => Source::Local,
                    1 => Source::Chain(EntryId(id)),
                    _ => link(rng.gen_range(0u32..8), id),
                };
                match kind {
                    0..=15 => {
                        let has_local = model
                            .keys
                            .get(&(node, addr))
                            .is_some_and(|&e| model.entries[e as usize].live && model.entries[e as usize].local);
                        let source = if has_local { link(0, id) } else { source };
                        prop_assert_eq!(flat.join(node, addr, source), model.join(node, addr, source));
                    }
                    16..=23 => prop_assert_eq!(flat.open(source), model.open(source)),
                    24..=38 => match model.entries.get_mut(id as usize).filter(|e| e.live) {
                        Some(want) => {
                            want.live = false;
                            let want = want.clone();
                            let got = flat.take(EntryId(id));
                            prop_assert_eq!(got.local, want.local);
                            prop_assert_eq!(got.fanout.is_empty(), want.fanout.is_empty());
                            prop_assert_eq!(flat.iter(got.fanout).collect::<Vec<_>>(), want.fanout);
                            prop_assert_eq!(chained(&flat, got.chains), want.chains);
                        }
                        None => {
                            let mut probe = flat.clone();
                            let panic = std::panic::catch_unwind(move || {
                                probe.take(EntryId(id));
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
                prop_assert_eq!(flat.all_clear(), model.entries.iter().all(|e| !e.live));
                prop_assert_eq!(flat.work(), model.work);
            }
        }
    }
}
