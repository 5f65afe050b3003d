//! Per-worker solver state pooling.
//!
//! Every solve in `latencyd` runs on a fixed pool worker thread, so the
//! natural unit of scratch-memory reuse is the thread: a
//! [`WorkspacePool`] hands each worker its own
//! [`SolverWorkspace`]/[`SweepSeed`] pair, kept in a thread-local slot
//! between jobs. After a worker has seen a model shape once, later solves
//! of that shape run allocation-free (the workspace never shrinks), and
//! sweep batches warm-start consecutive items claimed by the same worker.
//!
//! The pool itself only counts: `created` is the number of threads that
//! had to build fresh state, `reused` the number of jobs that found state
//! already waiting, and `warm_hits`/`cold_solves` (added by the solve
//! paths from each run's seed) say how often a solve started warm. All
//! four surface in `GET /metrics` under `solver`.
//!
//! Ownership rules follow the workspace's own: state never crosses
//! threads (it lives in a thread-local) and is taken out of the slot for
//! the duration of the closure, so a panicking solve simply loses that
//! worker's scratch (the next job rebuilds it) instead of poisoning
//! anything.

use std::cell::RefCell;

use lt_core::json::JsonValue;
use lt_core::{SolverWorkspace, SweepSeed};

use crate::metrics::Counter;

thread_local! {
    /// This thread's pooled solver state, if it has run a solve before.
    static SLOT: RefCell<Option<(SolverWorkspace, SweepSeed)>> = const { RefCell::new(None) };
}

/// Counters over the thread-local workspace slots. One per server; the
/// state itself lives in the worker threads, so the pool is just the
/// bookkeeping the `/metrics` endpoint reads.
#[derive(Debug, Default)]
pub struct WorkspacePool {
    /// Workspaces built because a worker thread had none yet.
    pub created: Counter,
    /// Jobs that reused a worker's existing workspace.
    pub(crate) reused: Counter,
    /// Solves that started from a usable warm-start seed.
    pub warm_hits: Counter,
    /// Solves that started cold (fresh seed, shape mismatch, or a warm
    /// attempt retried cold).
    pub(crate) cold_solves: Counter,
}

impl WorkspacePool {
    /// A pool with zeroed counters.
    pub fn new() -> Self {
        WorkspacePool::default()
    }

    /// The `solver` object of the `/metrics` document.
    pub fn metrics_doc(&self) -> JsonValue {
        JsonValue::object(vec![
            ("warm_hits", (&self.warm_hits).into()),
            ("cold_solves", (&self.cold_solves).into()),
            ("workspaces_created", (&self.created).into()),
            ("workspaces_reused", (&self.reused).into()),
        ])
    }

    /// Run `f` with this thread's pooled solver state, creating it on
    /// first use. The state is moved out of the slot for the duration of
    /// the call (a panic inside `f` discards it — stale scratch never
    /// survives an abnormal exit) and put back afterwards.
    pub fn with<R>(&self, f: impl FnOnce(&mut SolverWorkspace, &mut SweepSeed) -> R) -> R {
        let taken = SLOT.with(|cell| cell.borrow_mut().take());
        let (mut ws, mut seed) = match taken {
            Some(pair) => {
                self.reused.inc();
                pair
            }
            None => {
                self.created.inc();
                (SolverWorkspace::new(), SweepSeed::new())
            }
        };
        let out = f(&mut ws, &mut seed);
        SLOT.with(|cell| *cell.borrow_mut() = Some((ws, seed)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn first_use_creates_then_reuses_on_the_same_thread() {
        let pool = WorkspacePool::new();
        std::thread::spawn(move || {
            pool.with(|_, _| ());
            assert_eq!(pool.created.get(), 1);
            assert_eq!(pool.reused.get(), 0);
            pool.with(|_, _| ());
            pool.with(|_, _| ());
            assert_eq!(pool.created.get(), 1);
            assert_eq!(pool.reused.get(), 2);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn each_thread_creates_its_own_state() {
        let pool = Arc::new(WorkspacePool::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    pool.with(|_, _| ());
                    pool.with(|_, _| ());
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(pool.created.get(), 4);
        assert_eq!(pool.reused.get(), 4);
    }

    #[test]
    fn seed_state_persists_across_jobs_on_a_worker() {
        let pool = WorkspacePool::new();
        std::thread::spawn(move || {
            pool.with(|_, seed| seed.warm_hits += 7);
            let seen = pool.with(|_, seed| seed.warm_hits);
            assert_eq!(seen, 7, "pooled seed must survive between jobs");
        })
        .join()
        .unwrap();
    }
}
