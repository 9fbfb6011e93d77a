//! The congestion-priced router: deterministic shortest paths over the
//! link graph plus an outer rip-up-and-reroute loop.
//!
//! Link cost is `base latency + penalty × load`, where `load` is the
//! number of already-committed paths crossing the link — a Lagrangian
//! relaxation of the max-congestion objective in the style of
//! PathFinder-family channel routers. The outer loop repeatedly *rips
//! up* every path that crosses a maximally-loaded link and re-routes it
//! against the prices the remaining paths induce, until the max link
//! load stops improving or the iteration budget runs out.
//!
//! # Which shortest path
//!
//! Everything is integer arithmetic, and among equally cheap paths the
//! choice is a pure function of the exact distance labels — the
//! **canonical predecessor rule**: walking back from the destination,
//! node `w`'s predecessor is the optimal in-link whose tail has the
//! smallest `(distance from the source, node id)`, lowest port first.
//! The relaxation enforces the rule itself (an equally cheap label
//! replaces the predecessor iff its tail ranks lower), so the order in
//! which the queue hands out equal keys, the bound that steers the
//! search and the moment it stops cannot change a path: identical
//! inputs produce identical paths, the determinism contract the
//! engine's bit-identity rests on. (The rule is what a `(cost, node)`
//! ordered heap with first-minimal-predecessor relaxation yields;
//! `tests/pricing_oracle.rs` keeps that heap as the oracle.)
//!
//! # How it is searched
//!
//! Costs are integers in `1 ..= 1 + penalty × max load`, so the queue is
//! a monotone bucket ring (Dial's) of that span rather than a heap. A
//! destination shared by many pairs of one pass also gets a *reverse
//! tree*: exact distances to it over the reversed graph. Within a pass
//! loads only grow, so a tree built earlier in the pass stays an
//! admissible and consistent lower bound; searches to that destination
//! run goal-directed on `label + bound`, and by the rule above a stale
//! bound costs time, never a different path.

use crate::arena::PathArena;
use crate::graph::LinkGraph;
use lnpram_topology::Network;
use std::fmt;

/// Tuning knobs of the priced router. The defaults are deliberately
/// small: adversarial patterns on the topologies in this workspace
/// converge in a handful of iterations, and the router runs once per
/// request on the host, not per step in the simulation.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// Rip-up iteration budget (≥ 1; iteration 0 is the initial
    /// sequential pricing pass).
    pub max_iterations: u32,
    /// Congestion price per unit of link load (base latency is 1); at
    /// most [`MAX_PENALTY`].
    pub penalty: u64,
    /// Consecutive non-improving iterations tolerated before the loop
    /// settles for the best solution seen.
    pub patience: u32,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            max_iterations: 8,
            penalty: 4,
            patience: 2,
        }
    }
}

/// The largest accepted [`AdaptiveConfig::penalty`]. The bucket ring
/// holds one `u32` per unit of `1 + penalty × max link load` (plus the
/// largest reverse-tree label) and a search visits one bucket per unit
/// of path cost, so memory and time grow linearly in the penalty — and
/// once it exceeds the node count a unit of load already outweighs any
/// detour, so larger values buy nothing.
pub const MAX_PENALTY: u64 = 1 << 12;

/// The largest penalty under which no label or queue key can overflow
/// on a graph of `nodes` nodes: a label sums at most `nodes` link costs
/// of at most `1 + penalty × u32::MAX` (loads are `u32`), a key adds
/// two labels, and both must stay below the `u64::MAX` sentinel.
/// [`MAX_PENALTY`] up to 2¹⁹ nodes, less beyond.
fn max_penalty(nodes: usize) -> u64 {
    let label = u64::MAX / 2 / (nodes.max(1) as u64);
    MAX_PENALTY.min(label.saturating_sub(1) / u64::from(u32::MAX))
}

/// Why a network or configuration cannot be priced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdaptiveError {
    /// Some node cannot reach some other, so a pair between them has no
    /// path to price.
    NotStronglyConnected {
        /// The offending topology's name.
        topology: String,
    },
    /// `penalty` exceeds what the search's labels and bucket ring are
    /// specified for on this graph (see [`MAX_PENALTY`]).
    PenaltyTooLarge {
        /// The configured penalty.
        penalty: u64,
        /// The largest accepted one for this graph.
        max: u64,
    },
}

impl fmt::Display for AdaptiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdaptiveError::NotStronglyConnected { topology } => write!(
                f,
                "{topology} is not strongly connected: adaptive pricing needs a path \
                 between every pair of nodes"
            ),
            AdaptiveError::PenaltyTooLarge { penalty, max } => write!(
                f,
                "congestion penalty {penalty} exceeds the largest supported, {max}"
            ),
        }
    }
}

impl std::error::Error for AdaptiveError {}

/// One rip-up iteration's outcome, in iteration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterationRecord {
    /// Iteration index (0 = initial pricing pass).
    pub iter: u32,
    /// Max link load after the iteration.
    pub max_load: u32,
    /// Paths (re-)routed in the iteration.
    pub rerouted: u32,
}

/// Exact counts of the work one pricing run explored — pure functions
/// of the input (graph, pairs, avoid set, knobs), so a regression in
/// explored work shows without a wall clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PriceWork {
    /// Path searches run: one per routed or re-routed pair with
    /// `src != dest`, two if its avoiding search found the pair severed.
    pub searches: u64,
    /// Nodes settled — taken off the queue holding their final label —
    /// by path searches and reverse-tree builds together.
    pub settled: u64,
    /// Links examined while expanding settled nodes (out-links in a
    /// path search, in-links in a tree build).
    pub links_scanned: u64,
    /// Reverse trees built or rebuilt.
    pub trees_built: u64,
    /// Paths ripped up and re-routed, over all iterations.
    pub paths_ripped: u64,
}

impl std::ops::AddAssign for PriceWork {
    fn add_assign(&mut self, other: PriceWork) {
        self.searches += other.searches;
        self.settled += other.settled;
        self.links_scanned += other.links_scanned;
        self.trees_built += other.trees_built;
        self.paths_ripped += other.paths_ripped;
    }
}

impl fmt::Display for PriceWork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} searches, {} nodes settled, {} links scanned, {} trees built, {} paths ripped",
            self.searches, self.settled, self.links_scanned, self.trees_built, self.paths_ripped
        )
    }
}

/// Summary of one pricing run.
#[derive(Debug, Clone, Default)]
pub struct RouteStats {
    /// Iterations executed (= `history.len()`).
    pub iterations: u32,
    /// Max link load of the returned (best) path set.
    pub max_load: u32,
    /// Per-iteration convergence series.
    pub history: Vec<IterationRecord>,
    /// What the run explored to get there.
    pub work: PriceWork,
}

/// The priced path set: `paths[i]` is the global-link-id sequence for
/// `pairs[i]`, plus the convergence stats.
#[derive(Debug, Clone)]
pub struct PricedPaths {
    /// One link-id path per input pair, in input order.
    pub paths: Vec<Vec<u32>>,
    /// Convergence summary.
    pub stats: RouteStats,
}

const NIL: u32 = u32::MAX;
const INF: u64 = u64::MAX;

/// Storage of a monotone bucket queue (Dial's): bucket `key & mask` of a
/// power-of-two ring holds an intrusive LIFO list of the nodes queued at
/// `key`. Keys in flight never span more than the ring, so a bucket
/// holds one key at a time.
struct Ring {
    /// First pool entry per bucket, or `NIL`; all `NIL` between searches.
    head: Vec<u32>,
    /// `(node, next entry of the same bucket)`. A search queues its
    /// start and then at most one node per link, so `links + 1` entries
    /// are all it can use.
    pool: Vec<(u32, u32)>,
}

impl Ring {
    fn new(links: usize) -> Self {
        Ring {
            head: vec![NIL],
            pool: vec![(NIL, NIL); links + 1],
        }
    }

    /// An empty queue with room for keys up to `span` apart to be in
    /// flight together.
    fn queue(&mut self, span: u64) -> Queue<'_> {
        let span = usize::try_from(span).expect("bucket ring fits the address space");
        if self.head.len() <= span {
            self.head.resize((span + 1).next_power_of_two(), NIL);
        }
        Queue {
            mask: self.head.len() - 1,
            head: &mut self.head,
            pool: &mut self.pool,
            used: 0,
            queued: 0,
            top: 0,
        }
    }
}

/// One search's use of a [`Ring`]. The counters live here, by value, so
/// the search loop keeps them in registers.
struct Queue<'a> {
    head: &'a mut [u32],
    pool: &'a mut [(u32, u32)],
    mask: usize,
    /// Pool entries handed out.
    used: usize,
    /// Entries pushed and not yet popped.
    queued: usize,
    /// Largest key pushed.
    top: u64,
}

impl Queue<'_> {
    #[inline]
    fn push(&mut self, key: u64, node: u32) {
        let bucket = key as usize & self.mask;
        self.pool[self.used] = (node, self.head[bucket]);
        self.head[bucket] = self.used as u32;
        self.used += 1;
        self.queued += 1;
        self.top = self.top.max(key);
    }

    #[inline]
    fn pop(&mut self, key: u64) -> Option<u32> {
        let bucket = key as usize & self.mask;
        let entry = self.head[bucket];
        if entry == NIL {
            return None;
        }
        let (node, next) = self.pool[entry as usize];
        self.head[bucket] = next;
        self.queued -= 1;
        Some(node)
    }

    /// Leave the ring empty after a search that stopped at `key`.
    fn clear(self, key: u64) {
        if self.queued > 0 {
            for k in key..=self.top {
                self.head[k as usize & self.mask] = NIL;
            }
        }
    }
}

/// What a search sees of the pricing state.
#[derive(Clone, Copy)]
struct Priced<'a> {
    g: &'a LinkGraph,
    loads: &'a [u32],
    penalty: u64,
    /// No entry of `loads` exceeds this.
    load_bound: u32,
}

impl Priced<'_> {
    fn cost(&self, link: u32) -> u64 {
        1 + self.penalty * u64::from(self.loads[link as usize])
    }

    fn max_cost(&self) -> u64 {
        1 + self.penalty * u64::from(self.load_bound)
    }
}

/// Reusable search state: per-node labels, the bucket ring, and the
/// running counts of the pricing run's work.
struct Search {
    dist: Vec<u64>,
    prev: Vec<u32>,
    ring: Ring,
    work: PriceWork,
}

impl Search {
    fn new(g: &LinkGraph) -> Self {
        Search {
            dist: vec![INF; g.num_nodes()],
            prev: vec![NIL; g.num_nodes()],
            ring: Ring::new(g.link_count()),
            work: PriceWork::default(),
        }
    }

    /// Label the cheapest `src → dest` path (`src != dest`) with the
    /// `avoid`ed links removed (`avoid` is empty or one flag per link);
    /// `false` if there is none. On success `prev` holds the canonical
    /// predecessor link of every node on the path.
    ///
    /// `BOUNDED` searches are steered by `tree`, per-node lower bounds
    /// on the remaining cost to `dest` (`INF`: cannot reach it) that are
    /// consistent under the current prices and at most `tree_max` where
    /// finite; unbounded ones pass no tree and use the one bound that is
    /// free — every node but `dest` is at least one link short of it.
    fn run<const BOUNDED: bool>(
        &mut self,
        p: Priced<'_>,
        (src, dest): (u32, u32),
        avoid: &[bool],
        tree: &[u64],
        tree_max: u64,
    ) -> bool {
        let Search {
            dist,
            prev,
            ring,
            work,
        } = self;
        let h = |v: u32| {
            if BOUNDED {
                tree[v as usize]
            } else {
                u64::from(v != dest)
            }
        };
        work.searches += 1;
        if h(src) == INF {
            return false;
        }
        dist.fill(INF);
        dist[src as usize] = 0;
        // From key `d + h(v)` a relaxation pushes `d + cost + h(w)`.
        let mut queue = ring.queue(p.max_cost() + tree_max);
        let mut key = h(src);
        queue.push(key, src);
        // The best label of `dest` so far. `dest` itself is never
        // queued: the search is over once the key passes its label —
        // not sooner, because an optimal predecessor whose bound is
        // tight shares that key.
        let mut bound = INF;
        let (mut settled, mut scanned) = (0u64, 0u64);
        while queue.queued > 0 && key <= bound {
            let Some(v) = queue.pop(key) else {
                key += 1;
                continue;
            };
            let d = dist[v as usize];
            if d + h(v) != key {
                continue; // superseded by a cheaper label
            }
            settled += 1;
            let links = p.g.out_links(v);
            scanned += u64::from(links.end - links.start);
            for link in links {
                if avoid.get(link as usize).is_some_and(|&a| a) {
                    continue;
                }
                let w = p.g.target(link);
                let hw = h(w);
                if BOUNDED && hw == INF {
                    continue;
                }
                let nd = d + p.cost(link);
                if nd + hw > bound {
                    continue; // cannot lie on a cheapest path
                }
                debug_assert!(nd + hw >= key, "the bound is consistent");
                let dw = dist[w as usize];
                if nd < dw {
                    dist[w as usize] = nd;
                    prev[w as usize] = link;
                    if w == dest {
                        bound = nd;
                    } else {
                        queue.push(nd + hw, w);
                    }
                } else if nd == dw {
                    // The canonical predecessor rule. Both tails are
                    // settled, so their labels are final; links of one
                    // tail arrive in port order and the first stays.
                    let tail = p.g.tail(prev[w as usize]);
                    if (d, v) < (dist[tail as usize], tail) {
                        prev[w as usize] = link;
                    }
                }
            }
        }
        queue.clear(key);
        work.settled += settled;
        work.links_scanned += scanned;
        bound != INF
    }

    /// Fill `labels` with the exact cost of the cheapest path from every
    /// node to `dest` under the current prices, ignoring any avoid set
    /// (`INF` where there is none); returns the largest finite label.
    fn build_tree(&mut self, p: Priced<'_>, dest: u32, labels: &mut [u64]) -> u64 {
        let Search { ring, work, .. } = self;
        work.trees_built += 1;
        labels.fill(INF);
        labels[dest as usize] = 0;
        let mut queue = ring.queue(p.max_cost());
        queue.push(0, dest);
        let mut key = 0;
        let mut farthest = 0;
        while queue.queued > 0 {
            let Some(v) = queue.pop(key) else {
                key += 1;
                continue;
            };
            if labels[v as usize] != key {
                continue;
            }
            farthest = key;
            let links = p.g.in_links(v);
            work.settled += 1;
            work.links_scanned += links.len() as u64;
            for &link in links {
                let u = p.g.tail(link);
                let nd = key + p.cost(link);
                if nd < labels[u as usize] {
                    labels[u as usize] = nd;
                    queue.push(nd, u);
                }
            }
        }
        farthest
    }
}

/// A destination shared by at least this many pairs of one pass gets a
/// reverse tree.
const TREE_MIN_SHARE: u32 = 8;
/// Searches a tree serves before it is rebuilt against the loads that
/// have grown since.
const TREE_REFRESH: u32 = 8;
/// Trees alive at once (each is one label per node); destinations past
/// the cap are searched unbounded.
const MAX_TREES: usize = 32;

/// The reverse trees of the current pass. No result depends on which
/// destinations have one or how stale it is — only the work does.
struct Trees {
    /// Per node: its tree's slot, or `NIL`.
    slot: Vec<u32>,
    /// Slot `s`'s labels are `labels[s * nodes..][..nodes]`.
    labels: Vec<u64>,
    /// Per slot: the largest finite label, and the searches served
    /// since the build (`TREE_REFRESH`: build before the next one).
    state: Vec<(u64, u32)>,
}

impl Trees {
    fn new(nodes: usize) -> Self {
        Trees {
            slot: vec![NIL; nodes],
            labels: Vec::new(),
            state: Vec::new(),
        }
    }

    /// Start a pass that routes one pair to each of `dests`: earlier
    /// trees are void (a rip lowered loads), well-shared destinations
    /// get a slot, built on first use.
    fn plan(&mut self, dests: impl Iterator<Item = u32>) {
        self.slot.fill(0);
        for dest in dests {
            self.slot[dest as usize] += 1;
        }
        self.state.clear();
        for slot in &mut self.slot {
            *slot = if *slot >= TREE_MIN_SHARE && self.state.len() < MAX_TREES {
                self.state.push((0, TREE_REFRESH));
                (self.state.len() - 1) as u32
            } else {
                NIL
            };
        }
        let labels = self.state.len() * self.slot.len();
        if self.labels.len() < labels {
            self.labels.resize(labels, INF);
        }
    }
}

/// The pricer with everything it reuses from one request to the next:
/// search state, link loads, reverse trees and the two path slabs
/// (current and best-so-far).
pub(crate) struct Pricer {
    cfg: AdaptiveConfig,
    search: Search,
    trees: Trees,
    /// Committed paths per link, and an upper bound on its entries
    /// (exact while loads only grow; stale-high between a rip and the
    /// end of its pass).
    loads: Vec<u32>,
    load_bound: u32,
    /// Span `i` is pair `i`'s path: as routed now, as the pass under
    /// way re-routes it, and in the best iteration so far.
    current: PathArena,
    next: PathArena,
    best: PathArena,
    /// The path being routed.
    path: Vec<u32>,
    victims: Vec<u32>,
    stats: RouteStats,
}

impl Pricer {
    /// A pricer for `g` — and only `g`: every later call must pass the
    /// same graph. Refuses a graph some pair of which has no path, and a
    /// penalty the labels are not specified for.
    pub(crate) fn try_new(g: &LinkGraph, cfg: AdaptiveConfig) -> Result<Self, AdaptiveError> {
        let max = max_penalty(g.num_nodes());
        if cfg.penalty > max {
            return Err(AdaptiveError::PenaltyTooLarge {
                penalty: cfg.penalty,
                max,
            });
        }
        if !g.strongly_connected() {
            return Err(AdaptiveError::NotStronglyConnected {
                topology: g.base_name().to_owned(),
            });
        }
        Ok(Pricer {
            cfg,
            search: Search::new(g),
            trees: Trees::new(g.num_nodes()),
            loads: vec![0; g.link_count()],
            load_bound: 0,
            current: PathArena::new(),
            next: PathArena::new(),
            best: PathArena::new(),
            path: Vec::new(),
            victims: Vec::new(),
            stats: RouteStats::default(),
        })
    }

    /// The path set of the last [`price`](Pricer::price) call: span `i`
    /// is the link-id path of its `pairs[i]`.
    pub(crate) fn paths(&self) -> &PathArena {
        &self.best
    }

    /// Route `(src, dest)` under the current prices into `self.path`
    /// and commit it to the loads. If every avoiding route is severed,
    /// fall back to the un-avoided graph — the packet then queues at
    /// the blocked link instead of being silently dropped, and the
    /// recovery layer classifies it honestly.
    fn route(&mut self, g: &LinkGraph, (src, dest): (u32, u32), avoid: &[bool]) {
        self.path.clear();
        if src == dest {
            return;
        }
        let p = Priced {
            g,
            loads: &self.loads,
            penalty: self.cfg.penalty,
            load_bound: self.load_bound,
        };
        let search = &mut self.search;
        // `NIL` indexes no slot.
        let slot = self.trees.slot[dest as usize] as usize;
        let found = if let Some((tree_max, served)) = self.trees.state.get_mut(slot) {
            let nodes = self.trees.slot.len();
            let tree = &mut self.trees.labels[slot * nodes..][..nodes];
            if *served >= TREE_REFRESH {
                *tree_max = search.build_tree(p, dest, tree);
                *served = 0;
            }
            *served += 1;
            search.run::<true>(p, (src, dest), avoid, tree, *tree_max)
                || search.run::<true>(p, (src, dest), &[], tree, *tree_max)
        } else {
            search.run::<false>(p, (src, dest), avoid, &[], 0)
                || search.run::<false>(p, (src, dest), &[], &[], 0)
        };
        assert!(found, "the graph is strongly connected");
        let mut v = dest;
        while v != src {
            let link = search.prev[v as usize];
            self.path.push(link);
            self.loads[link as usize] += 1;
            self.load_bound = self.load_bound.max(self.loads[link as usize]);
            v = g.tail(link);
        }
        self.path.reverse();
    }

    /// Price link-paths for every `(src, dest)` pair: an initial
    /// sequential pricing pass (each path sees the congestion of the
    /// paths committed before it), then rip-up-and-reroute of the paths
    /// crossing maximally-loaded links until the max load converges or
    /// the budget runs out. Keeps the best path set seen (lowest max
    /// load, then lowest total length) for [`paths`](Pricer::paths).
    ///
    /// `avoid` is empty, or one flag per link of `g`.
    pub(crate) fn price(
        &mut self,
        g: &LinkGraph,
        pairs: &[(u32, u32)],
        avoid: &[bool],
    ) -> &RouteStats {
        assert_eq!(
            (g.num_nodes(), g.link_count()),
            (self.search.dist.len(), self.loads.len()),
            "a pricer serves the graph it was built for"
        );
        self.loads.fill(0);
        self.load_bound = 0;
        self.search.work = PriceWork::default();
        self.current.clear();
        self.trees.plan(pairs.iter().map(|&(_, dest)| dest));
        let mut total = 0usize;
        for &pair in pairs {
            self.route(g, pair, avoid);
            self.current.push(&self.path);
            total += self.path.len();
        }
        let mut max_load = self.load_bound;
        self.stats.history.clear();
        self.stats.history.push(IterationRecord {
            iter: 0,
            max_load,
            rerouted: pairs.len() as u32,
        });
        self.best.copy_from(&self.current);
        let (mut best_load, mut best_total) = (max_load, total);
        let mut stale = 0u32;
        for iter in 1..self.cfg.max_iterations {
            if max_load <= 1 {
                break;
            }
            let (current, loads) = (&self.current, &mut self.loads);
            self.victims.clear();
            self.victims.extend((0..pairs.len() as u32).filter(|&i| {
                current
                    .span(i)
                    .iter()
                    .any(|&l| loads[l as usize] == max_load)
            }));
            if self.victims.is_empty() {
                break;
            }
            for &v in &self.victims {
                for &l in current.span(v) {
                    loads[l as usize] -= 1;
                }
                total -= current.span(v).len();
            }
            self.trees
                .plan(self.victims.iter().map(|&v| pairs[v as usize].1));
            // Victims are in pair order; everyone else keeps their path.
            self.next.clear();
            let mut routed = 0;
            for (i, &pair) in (0u32..).zip(pairs) {
                if self.victims.get(routed) == Some(&i) {
                    routed += 1;
                    self.route(g, pair, avoid);
                    self.next.push(&self.path);
                    total += self.path.len();
                } else {
                    self.next.push(self.current.span(i));
                }
            }
            std::mem::swap(&mut self.current, &mut self.next);
            max_load = self.loads.iter().copied().max().unwrap_or(0);
            self.load_bound = max_load;
            self.search.work.paths_ripped += self.victims.len() as u64;
            self.stats.history.push(IterationRecord {
                iter,
                max_load,
                rerouted: self.victims.len() as u32,
            });
            if max_load < best_load || (max_load == best_load && total < best_total) {
                self.best.copy_from(&self.current);
                best_load = max_load;
                best_total = total;
                stale = 0;
            } else {
                stale += 1;
                if stale >= self.cfg.patience {
                    break;
                }
            }
        }
        self.stats.iterations = self.stats.history.len() as u32;
        self.stats.max_load = best_load;
        self.stats.work = self.search.work;
        &self.stats
    }
}

/// Price `pairs` on `g` in one shot — [`AdaptiveBackend`] keeps the
/// scratch this allocates across requests instead. `avoid` is empty or
/// one flag per link.
///
/// # Panics
///
/// If `g` is not strongly connected or `cfg.penalty` exceeds
/// [`MAX_PENALTY`] — the conditions
/// [`AdaptiveBackend::try_new`](crate::AdaptiveBackend::try_new)
/// reports as an [`AdaptiveError`].
///
/// [`AdaptiveBackend`]: crate::AdaptiveBackend
pub fn route_pairs(
    g: &LinkGraph,
    pairs: &[(u32, u32)],
    avoid: &[bool],
    cfg: &AdaptiveConfig,
) -> PricedPaths {
    let mut pricer = Pricer::try_new(g, *cfg).unwrap_or_else(|err| panic!("{err}"));
    let stats = pricer.price(g, pairs, avoid).clone();
    let paths = (0..pairs.len() as u32)
        .map(|i| pricer.paths().span(i).to_vec())
        .collect();
    PricedPaths { paths, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnpram_math::rng::SeedSeq;
    use lnpram_routing::workloads::{hot_spot, transpose};
    use lnpram_topology::{Mesh, Network};

    fn graph() -> LinkGraph {
        LinkGraph::from_network(&Mesh::new(4, 4))
    }

    fn check_path(g: &LinkGraph, src: u32, dest: u32, path: &[u32]) {
        let mut v = src;
        for &l in path {
            assert_eq!(g.tail(l), v, "path must be link-contiguous");
            v = g.target(l);
        }
        assert_eq!(v, dest, "path must end at the destination");
    }

    #[test]
    fn paths_are_valid_and_shortest_when_uncongested() {
        let g = graph();
        let pairs = vec![(0u32, 15u32)];
        let out = route_pairs(&g, &pairs, &[], &AdaptiveConfig::default());
        check_path(&g, 0, 15, &out.paths[0]);
        // Manhattan distance (0,0) → (3,3) on the 4×4 mesh.
        assert_eq!(out.paths[0].len(), 6);
        assert_eq!(out.stats.max_load, 1);
    }

    #[test]
    fn pricing_is_deterministic() {
        let g = graph();
        let pairs: Vec<(u32, u32)> = (0..16).map(|v| (v, 15 - v)).collect();
        let a = route_pairs(&g, &pairs, &[], &AdaptiveConfig::default());
        let b = route_pairs(&g, &pairs, &[], &AdaptiveConfig::default());
        assert_eq!(a.paths, b.paths);
        assert_eq!(a.stats.history, b.stats.history);
    }

    #[test]
    fn hot_spot_spreads_over_all_in_links() {
        // Everyone routes to node 5 (an interior node with 4 in-links):
        // congestion pricing must spread the final hops over all four,
        // hitting the ⌈15/4⌉ = 4 lower bound.
        let g = graph();
        let pairs: Vec<(u32, u32)> = (0..16).filter(|&v| v != 5).map(|v| (v, 5)).collect();
        let out = route_pairs(&g, &pairs, &[], &AdaptiveConfig::default());
        for (i, &(src, dest)) in pairs.iter().enumerate() {
            check_path(&g, src, dest, &out.paths[i]);
        }
        assert_eq!(out.stats.max_load, 4, "15 packets over 4 in-links");
    }

    #[test]
    fn avoid_reroutes_around_links() {
        let g = graph();
        // Avoid every out-link of node 0 except the last: the path must
        // leave through the one permitted port.
        let deg = g.out_degree(0);
        let mut avoid = vec![false; g.link_count()];
        for p in 0..deg - 1 {
            avoid[(g.first_link(0) + p as u32) as usize] = true;
        }
        let out = route_pairs(&g, &[(0, 15)], &avoid, &AdaptiveConfig::default());
        check_path(&g, 0, 15, &out.paths[0]);
        assert_eq!(
            out.paths[0][0],
            g.first_link(0) + (deg - 1) as u32,
            "first hop must use the only unavoided port"
        );
    }

    fn dest_map(dests: Vec<usize>) -> Vec<(u32, u32)> {
        (0u32..).zip(dests.into_iter().map(|d| d as u32)).collect()
    }

    /// The work counts are exact, so they are pinned exactly: a change
    /// that explores more (or less) shows here without a wall clock.
    /// Transpose has 256 distinct destinations and builds no tree (152
    /// nodes settled per search); the hot spot sends nine packets in ten
    /// to the centre, whose reverse tree steers their searches (89 per
    /// search, the 54 tree builds' 256 each included).
    #[test]
    fn work_counts_on_the_16x16_mesh_are_pinned() {
        let mesh = Mesh::square(16);
        let g = LinkGraph::from_network(&mesh);
        let n = g.num_nodes();
        let cfg = AdaptiveConfig::default();
        let work = |dests| route_pairs(&g, &dest_map(dests), &[], &cfg).stats.work;
        assert_eq!(
            work(transpose(n)),
            PriceWork {
                searches: 471,
                settled: 71_473,
                links_scanned: 270_251,
                trees_built: 0,
                paths_ripped: 231,
            }
        );
        let mut rng = SeedSeq::new(7).rng();
        assert_eq!(
            work(hot_spot(n, &[mesh.node_at(8, 8)], 0.9, &mut rng)),
            PriceWork {
                searches: 439,
                settled: 38_915,
                links_scanned: 147_613,
                trees_built: 54,
                paths_ripped: 184,
            }
        );
    }

    #[test]
    fn largest_penalty_is_the_one_the_oracle_tests() {
        // `tests/pricing_oracle.rs` prices at this value and cannot name
        // the constant (it also compiles against the pricer it guards).
        assert_eq!(MAX_PENALTY, 1 << 12);
        assert_eq!(max_penalty(256), MAX_PENALTY);
        assert_eq!(max_penalty(1 << 19), MAX_PENALTY);
        assert!(max_penalty(1 << 21) < MAX_PENALTY);
        assert_eq!(max_penalty(usize::MAX), 0);
        assert_eq!(max_penalty(0), MAX_PENALTY);
    }
}
