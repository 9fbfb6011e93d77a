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
//! plus a bitmap of the nodes touched: only the list of non-zero 64-node
//! bitmap **words** is sorted (one entry per 64 consecutive node ids that
//! saw an arrival; 16 for a butterfly column of 1024), and the nodes
//! inside a word come out ascending by `trailing_zeros`.
//!
//! Both engines group through this one type: the serial [`Engine`]
//! files arrival indices, the sharded coordinator files packed
//! `(shard, arrival index)` coordinates.
//!
//! [`Engine`]: crate::Engine

use crate::queue::NIL;

/// Reusable bucket chains over one step's arrivals. Use per step:
/// [`push`](Self::push) every arrival in arrival order,
/// [`seal`](Self::seal), then [`pop_node`](Self::pop_node) until it
/// returns `None` — which leaves the grouper empty for the next step.
#[derive(Debug)]
pub struct ArrivalGroups {
    /// Per-arrival `(payload, next entry of the same node or NIL)`.
    chain: Vec<(u32, u32)>,
    /// Per-node chain head / tail into `chain`; head `NIL` = no arrivals.
    node_head: Vec<u32>,
    node_tail: Vec<u32>,
    /// One bit per node: set while the node has unpopped arrivals.
    touched: Vec<u64>,
    /// Indices of the non-zero words of `touched`: first-touch order
    /// while pushing, ascending once sealed.
    words: Vec<u32>,
    /// Pop cursor: next position in `words`, and the not-yet-popped
    /// bits of the word before it.
    next_word: usize,
    current: u64,
    current_base: usize,
}

impl ArrivalGroups {
    /// A grouper for node ids `0..nodes`.
    pub fn new(nodes: usize) -> Self {
        ArrivalGroups {
            chain: Vec::new(),
            node_head: vec![NIL; nodes],
            node_tail: vec![NIL; nodes],
            touched: vec![0; nodes.div_ceil(64)],
            words: Vec::new(),
            next_word: 0,
            current: 0,
            current_base: 0,
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
            let word = node / 64;
            if self.touched[word] == 0 {
                self.words.push(word as u32);
            }
            self.touched[word] |= 1 << (node % 64);
        } else {
            self.chain[self.node_tail[node] as usize].1 = entry;
        }
        self.node_tail[node] = entry;
    }

    /// All arrivals are filed: fix the node order.
    pub fn seal(&mut self) {
        if self.words.len() > 1 {
            self.words.sort_unstable();
        }
    }

    /// The next node with arrivals, ascending, and a handle on its chain
    /// for [`single`](Self::single) / [`members`](Self::members). The
    /// node's state is cleared as it is handed out.
    #[inline]
    pub fn pop_node(&mut self) -> Option<(usize, u32)> {
        if self.current == 0 {
            let Some(&word) = self.words.get(self.next_word) else {
                // Popped dry: ready for the next step's pushes.
                self.chain.clear();
                self.words.clear();
                self.next_word = 0;
                return None;
            };
            let word = word as usize;
            self.next_word += 1;
            self.current = std::mem::take(&mut self.touched[word]);
            self.current_base = word * 64;
        }
        let node = self.current_base + self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
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

    /// Between steps nothing may be left behind: every bitmap word zero,
    /// every chain head `NIL`, no entry waiting to be popped.
    pub fn check_idle(&self) -> Result<(), String> {
        if let Some(word) = self.touched.iter().position(|&w| w != 0) {
            return Err(format!(
                "arrival bitmap word {word} is {:#x} at a step boundary",
                self.touched[word]
            ));
        }
        if let Some(node) = self.node_head.iter().position(|&h| h != NIL) {
            return Err(format!(
                "node {node} still heads an arrival chain at a step boundary"
            ));
        }
        if self.current != 0 || !self.words.is_empty() {
            return Err("arrival groups were not popped dry".to_string());
        }
        Ok(())
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
        groups.seal();
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
        groups.seal();
        let err = groups.check_idle().expect_err("bit 69 is set");
        assert!(err.contains("bitmap word 1"), "{err}");
        assert_eq!(groups.pop_node(), Some((69, 0)));
        assert_eq!(groups.pop_node(), None);
        assert_eq!(groups.check_idle(), Ok(()));
    }

    proptest! {
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
                let mut expect: Vec<(usize, u32)> =
                    targets.iter().enumerate().map(|(a, &n)| (n, a as u32)).collect();
                expect.sort_by_key(|&(node, _)| node);
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
