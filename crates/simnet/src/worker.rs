//! A persistent pool of worker threads.
//!
//! The serial [`Engine`](crate::Engine) is single-threaded; the pool's
//! one user is `lnpram-shard`'s `ShardedEngine`, which fans its shards'
//! transmit phase over it (`SimConfig::threads > 1`). Spawning scoped
//! threads every step would let the spawn/join cost dominate a run of
//! millions of steps, so the pool spawns its OS threads once and parks
//! them on a condvar between steps: each [`WorkerPool::run`] call
//! publishes one job (a `Fn(worker_index)` closure), wakes every worker,
//! and blocks until all of them have finished — a rendezvous with the
//! same semantics as `std::thread::scope`, amortizing thread creation
//! across an entire run (and, with reusable engines, across emulation
//! rounds).
//!
//! The job closure borrows shard state for the duration of one call, but
//! the worker threads are `'static` — the borrow cannot be expressed in
//! the type system, so the pointer's lifetime is erased before it is
//! handed to the workers. This is the standard scoped-executor pattern
//! (crossbeam/rayon do the same): soundness rests on `run` not returning
//! until every worker has dropped the job, which the rendezvous
//! guarantees. That one lifetime erasure is the only unsafe code in the
//! crate.

#![allow(
    unsafe_code,
    reason = "the scoped-job lifetime erasure described above; each block states its SAFETY argument"
)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The job slot: a type-erased pointer to the caller's closure.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are fine)
// and `WorkerPool::run` keeps it alive for as long as any worker can
// dereference the pointer.
unsafe impl Send for Job {}

struct State {
    /// Bumped once per `run` call; workers trigger on the change.
    epoch: u64,
    job: Option<Job>,
    /// Workers that have not yet finished the current epoch's job.
    pending: usize,
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when a new epoch (or shutdown) is published.
    work: Condvar,
    /// Signalled when the last worker finishes an epoch.
    done: Condvar,
}

/// Persistent workers, parked between dispatches; `lnpram-shard` drives
/// one shard per worker in lockstep.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `threads` parked workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                pending: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lnpram-transmit-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn transmit worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of workers (one chunk of the active list each).
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Run `job(w)` on every worker `w` and block until all return.
    /// Panics (after the rendezvous) if any worker's job panicked.
    pub fn run(&self, job: &(dyn Fn(usize) + Sync)) {
        // SAFETY: erasing the borrow's lifetime is sound because this
        // function does not return until `pending == 0`, i.e. until every
        // worker has finished calling the closure; the job slot is
        // cleared below before the borrow ends.
        let job = Job(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(job)
        });
        let mut st = self.shared.state.lock().expect("pool state");
        debug_assert_eq!(st.pending, 0, "run() is not reentrant");
        st.job = Some(job);
        st.epoch += 1;
        st.pending = self.handles.len();
        drop(st);
        self.shared.work.notify_all();

        let mut st = self.shared.state.lock().expect("pool state");
        while st.pending > 0 {
            st = self.shared.done.wait(st).expect("pool state");
        }
        st.job = None;
        if std::mem::take(&mut st.panicked) {
            drop(st);
            panic!("transmit worker panicked");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = match self.shared.state.lock() {
                Ok(st) => st,
                Err(poisoned) => poisoned.into_inner(),
            };
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool state");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    break st.job.expect("job published with epoch");
                }
                st = shared.work.wait(st).expect("pool state");
            }
        };
        // SAFETY: `run` keeps the closure alive until `pending` drops to
        // zero, which happens strictly after this call returns.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(index) }));
        let mut st = shared.state.lock().expect("pool state");
        if result.is_err() {
            st.panicked = true;
        }
        st.pending -= 1;
        if st.pending == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_worker_each_epoch() {
        let pool = WorkerPool::new(4);
        let hits = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.run(&|_w| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), 4 * 50);
    }

    #[test]
    fn workers_see_distinct_indices() {
        let pool = WorkerPool::new(3);
        let mask = AtomicUsize::new(0);
        pool.run(&|w| {
            mask.fetch_or(1 << w, Ordering::Relaxed);
        });
        assert_eq!(mask.load(Ordering::Relaxed), 0b111);
    }

    #[test]
    fn borrows_stack_data_like_a_scope() {
        let pool = WorkerPool::new(2);
        let input = [10usize, 20];
        let out: Vec<Mutex<usize>> = (0..2).map(|_| Mutex::new(0)).collect();
        pool.run(&|w| {
            *out[w].lock().unwrap() = input[w] * 2;
        });
        assert_eq!(*out[0].lock().unwrap(), 20);
        assert_eq!(*out[1].lock().unwrap(), 40);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|w| {
                if w == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool stays usable after a propagated panic.
        let hits = AtomicUsize::new(0);
        pool.run(&|_w| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }
}
