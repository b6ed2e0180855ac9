//! Operator-level execution tracing.
//!
//! A [`TraceSink`] is a fixed array of per-operator event cells, allocated
//! once per traced execution and installed explicitly on a prepared plan
//! (`PreparedFo::with_trace` / `PreparedQuery::with_trace` in `cqa-exec`).
//! Executors count hot-loop events into locals and flush them here per
//! operator visit — when no sink is installed the flush is a skipped
//! `Option` branch, which is what keeps always-on instrumentation inside
//! the `bench_obs` overhead budget.
//!
//! The event taxonomy mirrors what the engine's operators actually do:
//! *invocations* (operator entries / probes issued), *rows* (candidate
//! facts scanned), *matches* (candidates that unified / batch rows that
//! survived — the selection-vector sizes of the vectorized path) and
//! *waves* (vectorized quantifier scheduling rounds). Sink-level totals record wall time and which executor ran.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The event cell of one plan operator. All counters are relaxed atomics,
/// so one sink can be shared by executions on several threads.
#[derive(Debug, Default)]
pub struct OpTrace {
    invocations: AtomicU64,
    rows: AtomicU64,
    matches: AtomicU64,
    waves: AtomicU64,
}

impl OpTrace {
    /// Counts operator entries (row path) or parent rows processed /
    /// probes issued (batch path).
    #[inline]
    pub fn add_invocations(&self, n: u64) {
        self.invocations.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts candidate rows scanned.
    #[inline]
    pub fn add_rows(&self, n: u64) {
        self.rows.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts candidates that unified — on the batch path, the
    /// selection-vector sizes flowing out of the operator.
    #[inline]
    pub fn add_matches(&self, n: u64) {
        self.matches.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts vectorized quantifier waves.
    #[inline]
    pub fn add_waves(&self, n: u64) {
        self.waves.fetch_add(n, Ordering::Relaxed);
    }

    /// Operator entries / probes issued.
    pub fn invocations(&self) -> u64 {
        self.invocations.load(Ordering::Relaxed)
    }

    /// Rows scanned.
    pub fn rows(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// Unifying candidates / surviving batch rows.
    pub fn matches(&self) -> u64 {
        self.matches.load(Ordering::Relaxed)
    }

    /// Vectorized quantifier waves.
    pub fn waves(&self) -> u64 {
        self.waves.load(Ordering::Relaxed)
    }

    /// True iff no event was recorded on this operator.
    pub fn is_empty(&self) -> bool {
        self.invocations() == 0 && self.rows() == 0 && self.matches() == 0 && self.waves() == 0
    }
}

/// A per-execution collector of operator events: one [`OpTrace`] cell per
/// traced operator of a plan (indexed by the plan's probe/trace ids), plus
/// sink-level wall time and executor-path totals.
#[derive(Debug)]
pub struct TraceSink {
    ops: Vec<OpTrace>,
    wall_nanos: AtomicU64,
    vec_runs: AtomicU64,
    row_runs: AtomicU64,
}

impl TraceSink {
    /// A sink with `ops` operator cells, all zero.
    pub fn new(ops: usize) -> TraceSink {
        TraceSink {
            ops: (0..ops).map(|_| OpTrace::default()).collect(),
            wall_nanos: AtomicU64::new(0),
            vec_runs: AtomicU64::new(0),
            row_runs: AtomicU64::new(0),
        }
    }

    /// Number of operator cells.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// The event cell of operator `index`.
    ///
    /// # Panics
    /// If `index` is out of range — sinks must be sized to the plan they
    /// trace.
    pub fn op(&self, index: usize) -> &OpTrace {
        &self.ops[index]
    }

    /// Adds wall time spent inside a traced entry point.
    pub fn add_wall(&self, elapsed: Duration) {
        self.wall_nanos.fetch_add(
            elapsed.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
    }

    /// Total wall time recorded by traced entry points.
    pub fn wall(&self) -> Duration {
        Duration::from_nanos(self.wall_nanos.load(Ordering::Relaxed))
    }

    /// Counts one entry-point run on the vectorized path.
    pub fn count_vec_run(&self) {
        self.vec_runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one entry-point run on the row path.
    pub fn count_row_run(&self) {
        self.row_runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Entry-point runs that took the vectorized path.
    pub fn vec_runs(&self) -> u64 {
        self.vec_runs.load(Ordering::Relaxed)
    }

    /// Entry-point runs that took the row path.
    pub fn row_runs(&self) -> u64 {
        self.row_runs.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_cells_accumulate_events() {
        let sink = TraceSink::new(3);
        assert_eq!(sink.op_count(), 3);
        assert!(sink.op(1).is_empty());
        sink.op(1).add_invocations(1);
        sink.op(1).add_rows(10);
        sink.op(1).add_matches(4);
        sink.op(1).add_waves(2);
        let cell = sink.op(1);
        assert_eq!(
            (
                cell.invocations(),
                cell.rows(),
                cell.matches(),
                cell.waves()
            ),
            (1, 10, 4, 2)
        );
        assert!(!cell.is_empty());
        assert!(sink.op(0).is_empty());
    }

    #[test]
    fn sink_totals_record_wall_time_and_paths() {
        let sink = TraceSink::new(1);
        sink.add_wall(Duration::from_micros(5));
        sink.add_wall(Duration::from_micros(7));
        assert_eq!(sink.wall(), Duration::from_micros(12));
        sink.count_vec_run();
        sink.count_row_run();
        sink.count_row_run();
        assert_eq!((sink.vec_runs(), sink.row_runs()), (1, 2));
    }
}
