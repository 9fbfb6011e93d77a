//! The linear-array lemma of §3.4.1 — the engine of the mesh analysis.
//!
//! *Problem.* A linear array of `n` nodes holds `kᵢ` packets at node `i`
//! with `Σkᵢ = n′`; every packet picks a uniformly random destination.
//! With the furthest-destination-first priority, routing completes in
//! `n′ + o(n)` steps w.h.p.
//!
//! The paper proves this by the queue-line lemma plus a Chernoff bound on
//! the number of higher-priority packets crossing any link; applying it
//! per stage gives Theorem 3.1's `2n + o(n)`. This module implements the
//! exact experiment so the lemma can be measured directly — including the
//! workload where all `n′` packets start at one end (the worst case the
//! bound is tight for).

use lnpram_math::rng::{Rng, SeedSeq};
use lnpram_shard::{AnyEngine, RowBlock};
use lnpram_simnet::{Discipline, Metrics, Outbox, Packet, Protocol, SimConfig};
use lnpram_topology::mesh::Dir;
use lnpram_topology::Mesh;

/// Per-node program: move left/right toward the destination; priority is
/// the remaining distance (furthest-destination-first).
pub struct LinearRouter {
    array: Mesh,
}

impl Protocol for LinearRouter {
    fn on_packet(&mut self, node: usize, pkt: Packet, _step: u32, out: &mut Outbox) {
        if node == pkt.dest as usize {
            out.deliver(pkt);
            return;
        }
        let here = self.array.coords(node);
        let (c, dc) = (here.1, self.array.coords(pkt.dest as usize).1);
        let dir = if c < dc { Dir::East } else { Dir::West };
        let port = self.array.port_at(here, dir).expect("interior move");
        out.send(port, pkt.with_priority(c.abs_diff(dc) as u32));
    }
}

/// How the `n′` packets are initially distributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinearLoad {
    /// `k` packets at every node (`n′ = k·n`).
    Uniform(usize),
    /// All `n′` packets at node 0 (the adversarial pile-up).
    OneEnd(usize),
    /// `n′` packets at independently random nodes.
    Random(usize),
}

/// Report of one linear-array run.
#[derive(Debug, Clone)]
pub struct LinearRunReport {
    /// Engine metrics.
    pub metrics: Metrics,
    /// Array length n.
    pub n: usize,
    /// Total packets n′.
    pub total_packets: usize,
}

impl LinearRunReport {
    /// Routing time / n′ — the lemma's constant (→ 1 as n grows).
    pub fn time_per_nprime(&self) -> f64 {
        f64::from(self.metrics.routing_time) / self.total_packets.max(1) as f64
    }
}

/// Run the §3.4.1 experiment: distribute packets per `load`, give each a
/// uniformly random destination, route with furthest-destination-first.
/// Routes through [`AnyEngine`], so `cfg.shards` selects the partitioned
/// lockstep engine (contiguous column bands of the array) — this entry
/// point used to build a bare serial `Engine` and silently ignore it.
pub fn route_linear_random_dests(
    n: usize,
    load: LinearLoad,
    seed: u64,
    mut cfg: SimConfig,
) -> LinearRunReport {
    cfg.discipline = Discipline::FurthestFirst;
    let array = Mesh::linear(n);
    let mut rng = SeedSeq::new(seed).rng();
    // The linear array is a 1×n mesh: every contiguous node range is a
    // contiguous sub-array, so plain row-blocking over single columns
    // gives the minimum-surface cut.
    let mut eng = AnyEngine::with_partitioner(&array, cfg, &RowBlock::new(1));
    let mut id = 0u32;
    let mut inject = |eng: &mut AnyEngine, src: usize, rng: &mut Rng| {
        let dest = rng.gen_range(0..n);
        eng.inject(src, Packet::new(id, src as u32, dest as u32));
        id += 1;
    };
    match load {
        LinearLoad::Uniform(k) => {
            for src in 0..n {
                for _ in 0..k {
                    inject(&mut eng, src, &mut rng);
                }
            }
        }
        LinearLoad::OneEnd(total) => {
            for _ in 0..total {
                inject(&mut eng, 0, &mut rng);
            }
        }
        LinearLoad::Random(total) => {
            for _ in 0..total {
                let src = rng.gen_range(0..n);
                inject(&mut eng, src, &mut rng);
            }
        }
    }
    let total_packets = id as usize;
    let mut router = LinearRouter { array };
    let out = eng.run(&mut router);
    assert!(out.completed, "linear-array routing always terminates");
    LinearRunReport {
        metrics: out.metrics,
        n,
        total_packets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_everything_uniform() {
        let rep = route_linear_random_dests(64, LinearLoad::Uniform(1), 1, SimConfig::default());
        assert_eq!(rep.metrics.delivered, 64);
        assert_eq!(rep.total_packets, 64);
    }

    #[test]
    fn lemma_bound_shape_uniform_load() {
        // n′ = n: time should be n′ + o(n), i.e. time/n′ → ~1, certainly
        // below 1.5 at n = 256.
        let mut worst: f64 = 0.0;
        for seed in 0..5 {
            let rep =
                route_linear_random_dests(256, LinearLoad::Uniform(1), seed, SimConfig::default());
            worst = worst.max(rep.time_per_nprime());
        }
        assert!(worst < 1.5, "time/n' = {worst:.2}");
    }

    #[test]
    fn lemma_holds_at_higher_load() {
        // n′ = 4n: time ≈ n′ + o(n) still (the lemma's n′ term dominates).
        for seed in 0..3 {
            let rep =
                route_linear_random_dests(128, LinearLoad::Uniform(4), seed, SimConfig::default());
            assert!(
                rep.time_per_nprime() < 1.3,
                "time/n' = {:.2}",
                rep.time_per_nprime()
            );
        }
    }

    #[test]
    fn one_end_pile_up_still_linear() {
        // All packets at node 0: time ≤ n′ + n (serial drain + traversal).
        let n = 128;
        let rep = route_linear_random_dests(n, LinearLoad::OneEnd(2 * n), 3, SimConfig::default());
        assert_eq!(rep.metrics.delivered, 2 * n);
        assert!(
            (rep.metrics.routing_time as usize) < 2 * n + n + 20,
            "time {}",
            rep.metrics.routing_time
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = route_linear_random_dests(100, LinearLoad::Random(150), 9, SimConfig::default());
        let b = route_linear_random_dests(100, LinearLoad::Random(150), 9, SimConfig::default());
        assert_eq!(a.metrics.routing_time, b.metrics.routing_time);
    }

    #[test]
    fn honors_shards() {
        // The satellite bugfix: this entry point used to ignore
        // `cfg.shards` via a bare serial `Engine`. Sharded == serial by
        // the determinism contract.
        let sharded = SimConfig {
            shards: 4,
            ..SimConfig::default()
        };
        for load in [
            LinearLoad::Uniform(2),
            LinearLoad::OneEnd(40),
            LinearLoad::Random(50),
        ] {
            let serial = route_linear_random_dests(32, load, 7, SimConfig::default());
            let shard = route_linear_random_dests(32, load, 7, sharded.clone());
            assert_eq!(serial.metrics.routing_time, shard.metrics.routing_time);
            assert_eq!(serial.metrics.delivered, shard.metrics.delivered);
            assert_eq!(serial.metrics.max_queue, shard.metrics.max_queue);
            assert_eq!(
                serial.metrics.queued_packet_steps,
                shard.metrics.queued_packet_steps
            );
        }
    }
}
