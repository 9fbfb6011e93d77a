//! The six workloads. Each stresses a different layer, so that for
//! every optimisation one workload exercises its mechanism and another
//! bypasses it (README, "Workloads").

mod emulate;
mod route;
mod serve;

use crate::workload::{Spec, Workload};

/// Every workload, in reporting order.
pub const SPECS: [&Spec; 6] = [
    &route::DENSE,
    &route::SPARSE,
    &serve::SHARDED,
    &serve::FAULTED,
    &route::ADAPTIVE,
    &emulate::STAR,
];

/// Generate workload `name`'s inputs from `seed` (`smoke`: tiny counts).
pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "route_dense" => Box::new(route::RouteWorkload::<route::Dense>::new(seed, smoke)),
        "route_sparse" => Box::new(route::RouteWorkload::<route::Sparse>::new(seed, smoke)),
        "serve_sharded" => Box::new(serve::ServeWorkload::<serve::Sharded>::new(seed, smoke)),
        "serve_faulted" => Box::new(serve::ServeWorkload::<serve::Faulted>::new(seed, smoke)),
        "adaptive_mesh" => Box::new(route::RouteWorkload::<route::Adaptive>::new(seed, smoke)),
        "emulate_star" => Box::new(emulate::EmulateStar::new(seed, smoke)),
        _ => return None,
    })
}

/// Worker threads of the threaded shard probe: never more than the box
/// has cores.
pub fn sharded_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get().min(2))
}
