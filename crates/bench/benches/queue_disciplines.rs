//! Hot path: link-queue push/pop under both disciplines, measured for
//! **both** storage strategies so the PR 2 trade-off is a number, not a
//! footnote:
//!
//! * `arena` — the production slab-pooled chain queue (`PacketPool` +
//!   `LinkQueue`): pop is an O(1) unlink, FurthestFirst pays a pointer
//!   chase along the chain.
//! * `vecdeque` — the pre-PR 2 contiguous `VecDeque` model: pop shifts,
//!   FurthestFirst pays a cache-friendly linear scan plus an O(n)
//!   `remove`.
//!
//! The isolated FurthestFirst numbers can favour `vecdeque` (contiguous
//! scan beats chain walk at small occupancies); the arena wins where it
//! matters — zero allocation and O(1) teardown inside the engine step
//! loop — which `bench_layers`' `route_dense` measures end to end.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use lnpram_simnet::queue::{LinkQueue, PacketPool};
use lnpram_simnet::{Discipline, Packet};
use std::collections::VecDeque;

const DISCIPLINES: [(&str, Discipline); 2] = [
    ("fifo", Discipline::Fifo),
    ("furthest_first", Discipline::FurthestFirst),
];
const OCCUPANCIES: [usize; 3] = [4, 16, 64];

fn test_packet(i: usize) -> Packet {
    Packet::new(i as u32, 0, 1).with_priority((i * 37 % 23) as u32)
}

/// The pre-PR 2 queue as an executable model: contiguous VecDeque, max
/// scan with strict `>` (first maximum wins), positional remove — the
/// same selection the arena queue's tests pin against.
struct VecDequeQueue {
    items: VecDeque<Packet>,
}

impl VecDequeQueue {
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

fn bench_arena(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_push_pop/arena");
    for (name, disc) in DISCIPLINES {
        for occupancy in OCCUPANCIES {
            group.bench_with_input(BenchmarkId::new(name, occupancy), &occupancy, |b, &occ| {
                let mut pool = PacketPool::new();
                let mut q = LinkQueue::new();
                for i in 0..occ {
                    q.push(&mut pool, test_packet(i));
                }
                b.iter(|| {
                    let p = q.pop(&mut pool, disc).unwrap();
                    q.push(&mut pool, black_box(p));
                });
            });
        }
    }
    group.finish();
}

fn bench_vecdeque(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_push_pop/vecdeque");
    for (name, disc) in DISCIPLINES {
        for occupancy in OCCUPANCIES {
            group.bench_with_input(BenchmarkId::new(name, occupancy), &occupancy, |b, &occ| {
                let mut q = VecDequeQueue {
                    items: VecDeque::new(),
                };
                for i in 0..occ {
                    q.items.push_back(test_packet(i));
                }
                b.iter(|| {
                    let p = q.pop(disc).unwrap();
                    q.items.push_back(black_box(p));
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_arena, bench_vecdeque);
criterion_main!(benches);
