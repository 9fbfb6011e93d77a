//! Bit-identity guard for the pricing kernel.
//!
//! `reference` below is the pricer as it stood before the kernel pass —
//! a `(cost, node)`-ordered binary heap with strict-`<` relaxation, one
//! `Vec` per path — kept verbatim as a test-only oracle. The crate's
//! [`route_pairs`] must return the same path for every pair and the
//! same `(iter, max_load, rerouted)` history, whatever queue, bound or
//! storage it uses inside: on undirected, non-square and directed
//! graphs, under avoid sets that sever pairs, and at every penalty from
//! 0 (pure hop count, every tie live) to the largest accepted value.
//! A committed digest of the `adaptive_mesh`-shaped requests pins the
//! benchmark's own inputs as well.

use lnpram_adaptive::{route_pairs, AdaptiveConfig, IterationRecord, LinkGraph};
use lnpram_math::rng::{Rng, SeedSeq};
use lnpram_routing::workloads::{bit_reversal, broadcast, hot_spot, random_permutation, transpose};
use lnpram_topology::hypercube::Hypercube;
use lnpram_topology::{CubeConnectedCycles, DWayShuffle, Mesh, Network, StarGraph};
use proptest::prelude::*;

/// The pre-kernel-pass pricer, verbatim.
mod reference {
    use lnpram_adaptive::{AdaptiveConfig, IterationRecord, LinkGraph};
    use lnpram_topology::Network;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    pub struct PricedPaths {
        pub paths: Vec<Vec<u32>>,
        pub history: Vec<IterationRecord>,
    }

    struct Scratch {
        dist: Vec<u64>,
        prev: Vec<u32>,
        heap: BinaryHeap<Reverse<(u64, u32)>>,
    }

    const NO_LINK: u32 = u32::MAX;

    impl Scratch {
        fn new(nodes: usize) -> Self {
            Scratch {
                dist: vec![u64::MAX; nodes],
                prev: vec![NO_LINK; nodes],
                heap: BinaryHeap::new(),
            }
        }
    }

    fn shortest_path(
        g: &LinkGraph,
        src: u32,
        dest: u32,
        loads: &[u32],
        avoid: &[bool],
        penalty: u64,
        s: &mut Scratch,
    ) -> Option<Vec<u32>> {
        if src == dest {
            return Some(Vec::new());
        }
        s.dist.fill(u64::MAX);
        s.prev.fill(NO_LINK);
        s.heap.clear();
        s.dist[src as usize] = 0;
        s.heap.push(Reverse((0, src)));
        while let Some(Reverse((d, v))) = s.heap.pop() {
            if d > s.dist[v as usize] {
                continue;
            }
            if v == dest {
                break;
            }
            let first = g.first_link(v as usize);
            let deg = g.out_degree(v as usize) as u32;
            for link in first..first + deg {
                if avoid.get(link as usize).copied().unwrap_or(false) {
                    continue;
                }
                let w = g.target(link);
                let nd = d + 1 + penalty * u64::from(loads[link as usize]);
                if nd < s.dist[w as usize] {
                    s.dist[w as usize] = nd;
                    s.prev[w as usize] = link;
                    s.heap.push(Reverse((nd, w)));
                }
            }
        }
        if s.dist[dest as usize] == u64::MAX {
            return None;
        }
        let mut path = Vec::new();
        let mut v = dest;
        while v != src {
            let link = s.prev[v as usize];
            path.push(link);
            v = g.tail(link);
        }
        path.reverse();
        Some(path)
    }

    fn route_one(
        g: &LinkGraph,
        src: u32,
        dest: u32,
        loads: &[u32],
        avoid: &[bool],
        penalty: u64,
        s: &mut Scratch,
    ) -> Vec<u32> {
        if let Some(p) = shortest_path(g, src, dest, loads, avoid, penalty, s) {
            return p;
        }
        shortest_path(g, src, dest, loads, &[], penalty, s)
            .expect("topologies in this workspace are strongly connected")
    }

    pub fn route_pairs(
        g: &LinkGraph,
        pairs: &[(u32, u32)],
        avoid: &[bool],
        cfg: &AdaptiveConfig,
    ) -> PricedPaths {
        let mut s = Scratch::new(g.num_nodes());
        let mut loads = vec![0u32; g.link_count()];
        let mut paths: Vec<Vec<u32>> = Vec::with_capacity(pairs.len());
        for &(src, dest) in pairs {
            let p = route_one(g, src, dest, &loads, avoid, cfg.penalty, &mut s);
            for &l in &p {
                loads[l as usize] += 1;
            }
            paths.push(p);
        }
        let total_len = |ps: &[Vec<u32>]| ps.iter().map(|p| p.len() as u64).sum::<u64>();
        let mut max_load = loads.iter().copied().max().unwrap_or(0);
        let mut history = vec![IterationRecord {
            iter: 0,
            max_load,
            rerouted: pairs.len() as u32,
        }];
        let mut best = paths.clone();
        let mut best_load = max_load;
        let mut best_total = total_len(&paths);
        let mut stale = 0u32;
        let mut hot = vec![false; loads.len()];
        let mut victims: Vec<usize> = Vec::new();
        for iter in 1..cfg.max_iterations {
            if max_load <= 1 {
                break;
            }
            for (h, &l) in hot.iter_mut().zip(&loads) {
                *h = l == max_load;
            }
            victims.clear();
            victims.extend(
                paths
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.iter().any(|&l| hot[l as usize]))
                    .map(|(i, _)| i),
            );
            if victims.is_empty() {
                break;
            }
            for &v in &victims {
                for &l in &paths[v] {
                    loads[l as usize] -= 1;
                }
            }
            for &v in &victims {
                let (src, dest) = pairs[v];
                let p = route_one(g, src, dest, &loads, avoid, cfg.penalty, &mut s);
                for &l in &p {
                    loads[l as usize] += 1;
                }
                paths[v] = p;
            }
            max_load = loads.iter().copied().max().unwrap_or(0);
            history.push(IterationRecord {
                iter,
                max_load,
                rerouted: victims.len() as u32,
            });
            let total = total_len(&paths);
            if max_load < best_load || (max_load == best_load && total < best_total) {
                best = paths.clone();
                best_load = max_load;
                best_total = total;
                stale = 0;
            } else {
                stale += 1;
                if stale >= cfg.patience {
                    break;
                }
            }
        }
        PricedPaths {
            paths: best,
            history,
        }
    }
}

/// The largest congestion price the pricer is specified for
/// (`lnpram_adaptive::price::MAX_PENALTY`, whose value a unit test in
/// that module pins to this one).
const LARGEST_PENALTY: u64 = 1 << 12;

const PENALTIES: [u64; 5] = [0, 1, 4, 17, LARGEST_PENALTY];

/// Share of links avoided; the last severs pairs on every graph below,
/// which exercises the un-avoided fallback search.
const AVOID_SHARES: [f64; 4] = [0.0, 0.05, 0.2, 0.6];

const GRAPHS: usize = 6;

fn graph(which: usize) -> LinkGraph {
    match which {
        0 => LinkGraph::from_network(&Mesh::square(8)),
        1 => LinkGraph::from_network(&Mesh::new(5, 9)),
        2 => LinkGraph::from_network(&Hypercube::new(6)),
        3 => LinkGraph::from_network(&StarGraph::new(4)),
        // Directed: a reverse search from a destination does not reach
        // the nodes a forward search from it would.
        4 => LinkGraph::from_network(&DWayShuffle::new(3, 3)),
        _ => LinkGraph::from_network(&CubeConnectedCycles::new(4)),
    }
}

const PATTERNS: usize = 5;

fn dest_map(dests: Vec<usize>) -> Vec<(u32, u32)> {
    dests
        .into_iter()
        .enumerate()
        .map(|(src, dest)| (src as u32, dest as u32))
        .collect()
}

fn pairs(pattern: usize, n: usize, rng: &mut Rng) -> Vec<(u32, u32)> {
    match pattern {
        0 => dest_map(random_permutation(n, rng)),
        1 => {
            let hot = [rng.gen_range(0..n)];
            dest_map(hot_spot(n, &hot, 0.9, rng))
        }
        2 => {
            let hot = [rng.gen_range(0..n), rng.gen_range(0..n)];
            dest_map(hot_spot(n, &hot, 0.9, rng))
        }
        3 => dest_map(broadcast(n, rng.gen_range(0..n))),
        // A 3n-pair relation drawn from n / 2 distinct pairs, so pairs
        // repeat; every eighth is a packet to its own source.
        _ => {
            let pool: Vec<(u32, u32)> = (0..n / 2)
                .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
                .collect();
            (0..3 * n)
                .map(|i| {
                    if i % 8 == 7 {
                        let v = rng.gen_range(0..n) as u32;
                        (v, v)
                    } else {
                        pool[rng.gen_range(0..pool.len())]
                    }
                })
                .collect()
        }
    }
}

fn triples(history: &[IterationRecord]) -> Vec<(u32, u32, u32)> {
    history
        .iter()
        .map(|r| (r.iter, r.max_load, r.rerouted))
        .collect()
}

proptest! {
    // 48 cases (each prices one relation twice, in a debug build), or
    // PROPTEST_CASES if larger; CI also runs the suite optimised.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pricer_matches_the_binary_heap_reference(
        which in 0usize..GRAPHS,
        pattern in 0usize..PATTERNS,
        avoid_share in 0usize..AVOID_SHARES.len(),
        penalty in 0usize..PENALTIES.len(),
        max_iterations in 1u32..10,
        patience in 1u32..4,
        seed in 0u64..1 << 32,
    ) {
        let g = graph(which);
        let mut rng = SeedSeq::new(seed).rng();
        let pairs = pairs(pattern, g.num_nodes(), &mut rng);
        let share = AVOID_SHARES[avoid_share];
        // "Nothing avoided" arrives both ways: no mask, or an all-clear one.
        let avoid: Vec<bool> = if share == 0.0 && seed % 2 == 0 {
            Vec::new()
        } else {
            (0..g.link_count()).map(|_| rng.gen_bool(share)).collect()
        };
        let cfg = AdaptiveConfig {
            max_iterations,
            penalty: PENALTIES[penalty],
            patience,
        };
        let want = reference::route_pairs(&g, &pairs, &avoid, &cfg);
        let got = route_pairs(&g, &pairs, &avoid, &cfg);
        prop_assert_eq!(got.paths.len(), pairs.len());
        for (i, (a, b)) in got.paths.iter().zip(&want.paths).enumerate() {
            prop_assert_eq!(a, b, "pair {} {:?} on {}", i, pairs[i], g.base_name());
        }
        prop_assert_eq!(triples(&got.stats.history), triples(&want.history));
        prop_assert_eq!(got.stats.iterations as usize, want.history.len());
    }
}

/// FNV-1a over the path set and history of one priced request.
fn fold(mut h: u64, words: impl IntoIterator<Item = u32>) -> u64 {
    for w in words {
        for byte in w.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// The 40 requests of `bench_layers`' `adaptive_mesh` workload in shape
/// — transpose, bit reversal, hot spot 0.9 at the centre and a random
/// permutation on the 16×16 mesh, default pricing knobs — folded into
/// one digest recorded with the binary-heap pricer.
#[test]
fn adaptive_mesh_shaped_requests_keep_their_paths() {
    const SIDE: usize = 16;
    let mesh = Mesh::square(SIDE);
    let g = LinkGraph::from_network(&mesh);
    let n = g.num_nodes();
    let centre = mesh.node_at(SIDE / 2, SIDE / 2);
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    for i in 0..40u64 {
        let mut rng = SeedSeq::new(0xADA9 + i).rng();
        let dests = match i % 4 {
            0 => transpose(n),
            1 => bit_reversal(n),
            2 => hot_spot(n, &[centre], 0.9, &mut rng),
            _ => random_permutation(n, &mut rng),
        };
        let out = route_pairs(&g, &dest_map(dests), &[], &AdaptiveConfig::default());
        for path in &out.paths {
            digest = fold(digest, [path.len() as u32]);
            digest = fold(digest, path.iter().copied());
        }
        for (iter, max_load, rerouted) in triples(&out.stats.history) {
            digest = fold(digest, [iter, max_load, rerouted]);
        }
    }
    assert_eq!(
        digest, 0xD73F_08E1_A622_FAF7,
        "paths of the adaptive_mesh-shaped requests changed"
    );
}
