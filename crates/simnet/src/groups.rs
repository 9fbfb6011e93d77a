//! Grouping one step's arrivals by destination node, without a sort.
//!
//! The process phase hands a protocol that is not
//! [`NODE_LOCAL`](crate::Protocol::NODE_LOCAL) each node's arrivals
//! together, nodes ascending, arrival order kept within a node: the
//! leveled emulator host's request protocol, whose same-address writes
//! merge per batch (footnote 3), and any protocol that keeps the
//! default. Every router and the other emulator-host protocols skip the
//! grouper.
//! [`ArrivalGroups`] produces that sequence — a *stable* sort of the
//! arrivals by node — from a per-node chain (head / tail / next indices)
//! plus the set of nodes touched, a `TwoLevelSet`: a bitmap with one
//! bit per node and a summary bitmap with one bit per non-zero 64-node
//! word, both walked ascending by `trailing_zeros`, so nothing is sorted.
//! The engine keeps its active link queues in the same set.
//!
//! Both engines group through this one type: the serial [`Engine`]
//! files arrival indices, the sharded coordinator files packed
//! `(shard, arrival index)` coordinates.
//!
//! [`Engine`]: crate::Engine

use crate::queue::NIL;

/// A subset of `0..n` that iterates ascending without a sort: one bit
/// per member in `words`, and one bit per non-zero word in `summary`.
/// Finding the next non-zero word reads one summary word per 4 096
/// ids, so a walk costs the members plus `n / 4096` word reads.
#[derive(Debug, Clone)]
pub(crate) struct TwoLevelSet {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl TwoLevelSet {
    /// The empty set over `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        TwoLevelSet {
            words: vec![0; n.div_ceil(64)],
            summary: vec![0; n.div_ceil(64 * 64)],
        }
    }

    /// Add `i`. The summary bit of `i`'s word is set unconditionally:
    /// OR is idempotent, and a branch on "was the word empty?" would
    /// mispredict under sparse traffic.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) {
        let w = i / 64;
        self.summary[w / 64] |= 1 << (w % 64);
        self.words[w] |= 1 << (i % 64);
    }

    /// Is `i` a member?
    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Word `w` of the bitmap (members `64w .. 64w + 64`).
    #[inline]
    pub(crate) fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Remove and return the smallest member.
    #[inline]
    pub(crate) fn pop_first(&mut self) -> Option<usize> {
        let w = self.next_word(0)?;
        let bits = self.words[w];
        self.words[w] = bits & (bits - 1);
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    /// The lowest non-zero word at index `from` or above.
    #[inline]
    pub(crate) fn next_word(&self, from: usize) -> Option<usize> {
        let mut s = from / 64;
        let mut bits = *self.summary.get(s)? & (!0 << (from % 64));
        while bits == 0 {
            s += 1;
            bits = *self.summary.get(s)?;
        }
        Some(s * 64 + bits.trailing_zeros() as usize)
    }

    /// The members, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.next_word(0), |&w| self.next_word(w + 1)).flat_map(|w| {
            let mut bits = self.words[w];
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    i
                })
            })
        })
    }

    /// Visit the non-zero words ascending, replacing each word's bits
    /// with what `f(w, bits)` returns.
    #[inline]
    pub(crate) fn update_words(&mut self, mut f: impl FnMut(usize, u64) -> u64) {
        for s in 0..self.summary.len() {
            let (mut todo, mut live) = (self.summary[s], self.summary[s]);
            while todo != 0 {
                let w = s * 64 + todo.trailing_zeros() as usize;
                todo &= todo - 1;
                self.words[w] = f(w, self.words[w]);
                if self.words[w] == 0 {
                    live &= !(1 << (w % 64));
                }
            }
            self.summary[s] = live;
        }
    }

    /// Remove every member, touching only the non-zero words.
    pub(crate) fn clear(&mut self) {
        self.update_words(|_, _| 0);
    }

    /// The two levels agree: a summary bit is set exactly over a
    /// non-zero word.
    pub(crate) fn check(&self) -> Result<(), String> {
        for (w, &bits) in self.words.iter().enumerate() {
            let listed = self.summary[w / 64] >> (w % 64) & 1 == 1;
            if listed != (bits != 0) {
                return Err(format!(
                    "summary bit of word {w} is {} but the word is {bits:#x}",
                    u8::from(listed)
                ));
            }
        }
        Ok(())
    }
}

/// Reusable bucket chains over one step's arrivals. Use per step:
/// [`push`](Self::push) every arrival in arrival order, then
/// [`pop_node`](Self::pop_node) until it returns `None` — which leaves
/// the grouper empty for the next step.
#[derive(Debug)]
pub struct ArrivalGroups {
    /// Per-arrival `(payload, next entry of the same node or NIL)`.
    chain: Vec<(u32, u32)>,
    /// Per-node chain head / tail into `chain`; head `NIL` = no arrivals.
    node_head: Vec<u32>,
    node_tail: Vec<u32>,
    /// The nodes with unpopped arrivals.
    touched: TwoLevelSet,
}

impl ArrivalGroups {
    /// A grouper for node ids `0..nodes`.
    pub fn new(nodes: usize) -> Self {
        ArrivalGroups {
            chain: Vec::new(),
            node_head: vec![NIL; nodes],
            node_tail: vec![NIL; nodes],
            touched: TwoLevelSet::new(nodes),
        }
    }

    /// File the next arrival under `node`, carrying `payload` (whatever
    /// lets the caller find the packet again).
    #[inline]
    pub fn push(&mut self, node: usize, payload: u32) {
        let entry = self.chain.len() as u32;
        self.chain.push((payload, NIL));
        if self.node_head[node] == NIL {
            self.node_head[node] = entry;
            self.touched.insert(node);
        } else {
            self.chain[self.node_tail[node] as usize].1 = entry;
        }
        self.node_tail[node] = entry;
    }

    /// The next node with arrivals, ascending, and a handle on its chain
    /// for [`single`](Self::single) / [`members`](Self::members). The
    /// node's state is cleared as it is handed out.
    #[inline]
    pub fn pop_node(&mut self) -> Option<(usize, u32)> {
        let Some(node) = self.touched.pop_first() else {
            // Popped dry: ready for the next step's pushes.
            self.chain.clear();
            return None;
        };
        let head = std::mem::replace(&mut self.node_head[node], NIL);
        Some((node, head))
    }

    /// The payload of a popped node's only arrival, or `None` if it has
    /// several — the common case on a lightly loaded network, where the
    /// caller can hand the protocol the packet where it lies.
    #[inline]
    pub fn single(&self, head: u32) -> Option<u32> {
        let (payload, next) = self.chain[head as usize];
        (next == NIL).then_some(payload)
    }

    /// The payloads filed under a popped node, in arrival order.
    #[inline]
    pub fn members(&self, head: u32) -> impl Iterator<Item = u32> + '_ {
        let mut at = head;
        std::iter::from_fn(move || {
            if at == NIL {
                return None;
            }
            let (payload, next) = self.chain[at as usize];
            at = next;
            Some(payload)
        })
    }

    /// Between steps nothing may be left behind: every bitmap word and
    /// summary bit zero, every chain head `NIL`, no entry waiting to be
    /// popped.
    pub fn check_idle(&self) -> Result<(), String> {
        if let Some(word) = self.touched.next_word(0) {
            return Err(format!(
                "arrival bitmap word {word} is {:#x} at a step boundary",
                self.touched.word(word)
            ));
        }
        self.touched.check()?;
        if let Some(node) = self.node_head.iter().position(|&h| h != NIL) {
            return Err(format!(
                "node {node} still heads an arrival chain at a step boundary"
            ));
        }
        if !self.chain.is_empty() {
            return Err("arrival groups were not popped dry".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
impl TwoLevelSet {
    /// Corrupt the summary for the invariant checks' tests: clear the
    /// bit of word `w` whatever the word holds.
    pub(crate) fn clear_summary_bit(&mut self, w: usize) {
        self.summary[w / 64] &= !(1 << (w % 64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Push `targets` (one arrival per entry, payload = its position) and
    /// pop everything: `(node, payloads in chain order)` per group.
    fn grouped(groups: &mut ArrivalGroups, targets: &[usize]) -> Vec<(usize, Vec<u32>)> {
        for (a, &node) in targets.iter().enumerate() {
            groups.push(node, a as u32);
        }
        let mut got = Vec::new();
        while let Some((node, head)) = groups.pop_node() {
            let members: Vec<u32> = groups.members(head).collect();
            assert_eq!(
                groups.single(head),
                (members.len() == 1).then(|| members[0])
            );
            got.push((node, members));
        }
        got
    }

    #[test]
    fn groups_come_out_node_ascending_in_arrival_order() {
        let mut groups = ArrivalGroups::new(200);
        let got = grouped(&mut groups, &[130, 5, 199, 5, 64, 130, 5]);
        assert_eq!(
            got,
            vec![
                (5, vec![1, 3, 6]),
                (64, vec![4]),
                (130, vec![0, 5]),
                (199, vec![2]),
            ]
        );
        assert_eq!(groups.check_idle(), Ok(()));
        assert_eq!(grouped(&mut groups, &[]), vec![]);
    }

    #[test]
    fn check_idle_reports_unpopped_state() {
        let mut groups = ArrivalGroups::new(70);
        groups.push(69, 0);
        let err = groups.check_idle().expect_err("bit 69 is set");
        assert!(err.contains("bitmap word 1"), "{err}");
        assert_eq!(groups.pop_node(), Some((69, 0)));
        assert_eq!(groups.pop_node(), None);
        assert_eq!(groups.check_idle(), Ok(()));
    }

    #[test]
    fn check_reports_a_summary_bit_out_of_step() {
        let mut set = TwoLevelSet::new(300);
        set.insert(130);
        assert_eq!(set.check(), Ok(()));
        set.clear_summary_bit(2);
        let err = set.check().expect_err("word 2 is non-zero, unsummarised");
        assert!(err.contains("summary bit of word 2 is 0"), "{err}");
    }

    proptest! {
        /// The two-level set is an ordered set: random inserts and
        /// removes (through `update_words`, the engine's way of clearing
        /// bits, and `pop_first`) over up to 10 000 ids — more than 64 · 64, so the
        /// summary spans several words — iterate ascending exactly as a
        /// `BTreeSet` model does, after every operation's batch, across
        /// a `clear`.
        #[test]
        fn prop_two_level_set_matches_a_btree_set(
            seed: u64,
            n in 1usize..10_000,
            ops in 0usize..400,
        ) {
            let mut state = seed;
            let mut draw = |m: usize| (lnpram_math::rng::splitmix64(&mut state) as usize) % m;
            let mut set = TwoLevelSet::new(n);
            let mut model = std::collections::BTreeSet::new();
            for round in 0..2 {
                for _ in 0..ops {
                    let i = draw(n);
                    if draw(4) == 0 {
                        let (word, bit) = (i / 64, 1 << (i % 64));
                        set.update_words(|w, bits| if w == word { bits & !bit } else { bits });
                        model.remove(&i);
                    } else if draw(4) == 0 {
                        prop_assert_eq!(set.pop_first(), model.pop_first());
                    } else {
                        set.insert(i);
                        model.insert(i);
                    }
                    prop_assert_eq!(set.word(i / 64) >> (i % 64) & 1 == 1, model.contains(&i));
                    prop_assert_eq!(set.contains(i), model.contains(&i));
                }
                prop_assert_eq!(set.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
                prop_assert_eq!(set.check(), Ok(()));
                let from = draw(n.div_ceil(64) + 1);
                let expect = model.range(from * 64..).next().map(|&i| i / 64);
                prop_assert_eq!(set.next_word(from), expect, "round {}, from word {}", round, from);
                set.clear();
                model.clear();
                prop_assert_eq!(set.next_word(0), None);
            }
        }

        /// The grouper is a stable sort by target node: random link →
        /// node maps over up to 5 000 nodes (more than 64 · 64, so the
        /// word list itself spans many words), always with arrivals at
        /// the last node — which sits in a partial bitmap word unless
        /// `nodes` is a multiple of 64 — and reused across two steps.
        #[test]
        fn prop_groups_equal_a_stable_sort_by_node(
            seed: u64,
            nodes in 1usize..5000,
            links in 1usize..600,
            arrivals in 0usize..600,
        ) {
            let mut state = seed;
            let mut draw = |m: usize| (lnpram_math::rng::splitmix64(&mut state) as usize) % m;
            let mut link_target: Vec<usize> = (0..links).map(|_| draw(nodes)).collect();
            link_target[links - 1] = nodes - 1;
            let mut groups = ArrivalGroups::new(nodes);
            for _step in 0..2 {
                let mut targets: Vec<usize> =
                    (0..arrivals).map(|_| link_target[draw(links)]).collect();
                targets.push(link_target[links - 1]);
                let mut model = std::collections::BTreeMap::<usize, Vec<u32>>::new();
                for (a, &node) in targets.iter().enumerate() {
                    model.entry(node).or_default().push(a as u32);
                }
                let expect: Vec<(usize, u32)> = model
                    .into_iter()
                    .flat_map(|(node, members)| members.into_iter().map(move |a| (node, a)))
                    .collect();
                let got: Vec<(usize, u32)> = grouped(&mut groups, &targets)
                    .into_iter()
                    .flat_map(|(node, members)| members.into_iter().map(move |a| (node, a)))
                    .collect();
                prop_assert_eq!(got, expect);
                prop_assert_eq!(groups.check_idle(), Ok(()));
            }
        }
    }
}
