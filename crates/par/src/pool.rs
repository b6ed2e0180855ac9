//! The worker pool handle and the deterministic fan-out/merge primitive.
//!
//! Every merge funnels through one shape of parallelism: [`par_map`] runs a
//! closure over a list of items on the pool and returns the results **in
//! item order**, whatever order the workers finished in — the property that
//! makes every merge deterministic.
//!
//! Jobs must be `'static`, so callers capture [`cqa_data::Snapshot`]s and
//! `Arc`s rather than borrows — the price of keeping the vendored pool
//! safe-only (no scoped-thread lifetime erasure).

use std::sync::{mpsc, Arc};

/// A cheaply cloneable handle onto a work-stealing worker pool
/// (`vendor/workpool`). All parallel entry points of this crate take one;
/// build it once per process (or per service) and share it.
#[derive(Clone)]
pub struct ParPool {
    pool: Arc<workpool::ThreadPool>,
}

impl ParPool {
    /// A pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> ParPool {
        ParPool {
            pool: Arc::new(workpool::ThreadPool::new(threads)),
        }
    }

    /// A pool sized to the machine: one worker per hardware thread.
    pub fn with_available_parallelism() -> ParPool {
        ParPool::new(workpool::available_parallelism())
    }

    /// Number of worker threads.
    pub fn thread_count(&self) -> usize {
        self.pool.thread_count()
    }

    /// Number of jobs stolen so far: claimed by a worker from another
    /// worker's deque (monotone, eventually consistent).
    pub fn steals(&self) -> usize {
        self.pool.steals()
    }

    /// Publishes the pool's state into the global metrics registry: the
    /// `par.pool.threads` and `par.pool.steals` gauges. Call before taking a
    /// snapshot (gauges are sampled, not streamed).
    pub fn record_metrics(&self) {
        cqa_obs::gauge_set!("par.pool.threads", self.thread_count() as i64);
        cqa_obs::gauge_set!("par.pool.steals", self.steals() as i64);
    }

    /// Runs `job` on the pool, fire-and-forget. This is the raw dispatch
    /// primitive the serving layer (`cqa-serve`) uses to run one query per
    /// job with its own cancellation token; prefer [`par_map`] when the
    /// results must be merged. A panicking job is confined to itself: the
    /// worker survives and keeps taking jobs.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.execute(job);
    }

    pub(crate) fn execute(&self, job: impl FnOnce() + Send + 'static) {
        cqa_obs::count!("par.tasks");
        self.pool.execute(job);
    }
}

impl std::fmt::Debug for ParPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ParPool({} threads)", self.thread_count())
    }
}

/// Runs `f(index, item)` for every item on the pool and returns the
/// results in **item order**, whatever order the workers finished in — the
/// deterministic-merge primitive: however the workers interleave, the merged
/// `Vec` is byte-identical to the sequential map.
///
/// Every chunk's result is load-bearing (re-decided view candidates): a
/// missing one would silently corrupt the recombined answer, so a job that
/// panicked (the pool survives it; its result simply never arrives)
/// propagates as a panic on the calling thread.
pub fn par_map<T, R, F>(pool: &ParPool, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(usize, T) -> R + Send + Sync + 'static,
{
    let n = items.len();
    let f = Arc::new(f);
    let (tx, rx) = mpsc::channel();
    for (i, item) in items.into_iter().enumerate() {
        let f = f.clone();
        let tx = tx.clone();
        pool.execute(move || {
            let started = std::time::Instant::now();
            let result = f(i, item);
            cqa_obs::observe_duration!("par.chunk_nanos", started.elapsed());
            let _ = tx.send((i, result));
        });
    }
    drop(tx);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, result) in rx {
        slots[i] = Some(result);
    }
    slots
        .into_iter()
        .map(|r| r.expect("a pool job panicked and dropped its result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_item_order() {
        let pool = ParPool::new(4);
        let squares = par_map(&pool, (0..100u64).collect(), |_, i| i * i);
        assert_eq!(squares, (0..100u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "a pool job panicked")]
    fn par_map_reraises_a_panicked_job() {
        let pool = ParPool::new(2);
        par_map(&pool, (0..8u32).collect(), |_, i| {
            assert!(i != 3, "planted panic");
            i * 10
        });
    }
}
