//! # lnpram-adaptive — congestion-priced adaptive routing
//!
//! The paper's routers are all *oblivious*: a random intermediate
//! destination plus a queue discipline, never looking at the traffic.
//! This crate is the counterpoint — the workspace's seventh
//! [`Router`](lnpram_routing::Router) backend routes on the real link
//! graph with congestion-priced shortest paths and iterative
//! rip-up-and-reroute, in the style of PathFinder-family channel
//! routers:
//!
//! * [`graph::LinkGraph`] — an owned CSR snapshot of any
//!   [`Network`](lnpram_topology::Network), link ids identical to the
//!   engine's.
//! * [`price`] — deterministic shortest paths (integer costs, no
//!   ambient randomness) with link cost `1 + penalty × load`, wrapped in
//!   an outer loop that rips up the paths crossing maximally-loaded
//!   links and re-routes them until the max link load converges or the
//!   iteration budget runs out. Equally cheap paths are told apart by a
//!   *canonical predecessor rule* — a pure function of the distance
//!   labels — so the search is free to use a bucket queue and
//!   goal-directed bounds (reverse trees for shared destinations)
//!   without a path ever depending on queue order; the work it explores
//!   is counted exactly in [`PriceWork`].
//! * [`arena::PathArena`] / [`arena::PathProtocol`] — the priced paths
//!   in one flat slab; packets carry `(span, position)` in their
//!   `via`/`via2` words and follow the span hop by hop through the
//!   unmodified step loop on `Engine`/`ShardedEngine`, bit-identical
//!   serial vs sharded.
//! * [`backend::AdaptiveRoutingSession`] — the full `Router` API
//!   (route / batch / serve / traced),
//!   [`RunExtras::Adaptive`](lnpram_routing::RunExtras::Adaptive)
//!   carrying the pricing iteration count and final max link load, and
//!   fault handling that
//!   *reroutes around* a [`FaultPlan`](lnpram_simnet::FaultPlan)'s
//!   failed links instead of re-randomizing and retrying.
//!
//! Since routing is adaptive, reported routing times are normalised by
//! the priced max link load — the congestion lower bound — rather than
//! a diameter-style parameter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod backend;
pub mod graph;
pub mod price;

pub use arena::{PathArena, PathProtocol};
pub use backend::{AdaptiveBackend, AdaptiveRoutingSession};
pub use graph::LinkGraph;
pub use price::{
    route_pairs, AdaptiveConfig, AdaptiveError, IterationRecord, PriceWork, PricedPaths,
    RouteStats, MAX_PENALTY,
};
