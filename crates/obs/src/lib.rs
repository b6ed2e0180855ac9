//! # cqa-obs — metrics and execution tracing for the certainty engine
//!
//! A dependency-free (std-only) observability core, sitting below every
//! other crate of the workspace so all of them can report into it:
//!
//! * [`Counter`] / [`Gauge`] — relaxed atomics; a counter increment on a
//!   resolved handle is one `fetch_add(Relaxed)`;
//! * [`Histogram`] — fixed power-of-two (log-scale) buckets with
//!   [p50/p90/p99 extraction](HistogramSnapshot::percentile), built for
//!   latency-in-nanoseconds but happy with any `u64`;
//! * [`Registry`] — a process-wide, name-keyed store of the above with a
//!   [snapshot](Registry::snapshot) / [diff](Snapshot::diff) /
//!   [render](Snapshot::render) API (the future server's metrics
//!   endpoint, the CLI's `certainty stats`, and `serve`'s `\stats`);
//! * [`TraceSink`] — per-operator execution tracing (rows scanned,
//!   probes, matches, quantifier waves, wall time), installed explicitly
//!   per prepared plan by `cqa-exec` — the backing store of
//!   `certainty explain --analyze`.
//!
//! ## Cost model of the instrumentation
//!
//! The stack's hot loops never touch the registry: per-row events go to
//! plain local integers and are flushed into a [`TraceSink`] only when one
//! is installed (an `Option` branch otherwise). Registry counters fire at
//! *entry points* (one evaluation, one batch, one cache probe), through
//! the [`count!`]/[`observe!`] macros, which resolve their handle once per
//! call site and check the global [`enabled`] switch first. `bench_obs`
//! holds the whole arrangement under a <5% overhead budget on the
//! BENCH_vec scenarios; [`set_enabled`]`(false)` gives it the
//! uninstrumented baseline without recompiling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod registry;
mod trace;

pub use metrics::{
    bucket_bounds, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS,
};
pub use registry::{MetricValue, Registry, Snapshot};
pub use trace::{OpTrace, TraceSink};

use std::sync::atomic::{AtomicBool, Ordering};

/// The process-wide instrumentation switch, on by default. When off, the
/// [`count!`]/[`observe!`] macros become a single relaxed load — the
/// in-process "uninstrumented" baseline `bench_obs` measures against.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// True iff registry-level instrumentation is on (the default).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns registry-level instrumentation on or off, process-wide.
/// [`TraceSink`]s are unaffected: they are installed explicitly and only
/// cost anything where installed.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Increments a named counter in the global [`Registry`].
///
/// `count!("name")` adds 1, `count!("name", n)` adds `n`. The handle is
/// resolved once per call site (a `OnceLock`), so the steady-state cost is
/// an enabled check plus one relaxed `fetch_add`.
#[macro_export]
macro_rules! count {
    ($name:expr) => {
        $crate::count!($name, 1u64)
    };
    ($name:expr, $n:expr) => {{
        if $crate::enabled() {
            static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
                ::std::sync::OnceLock::new();
            HANDLE
                .get_or_init(|| $crate::Registry::global().counter($name))
                .add($n as u64);
        }
    }};
}

/// Records a `u64` observation into a named histogram in the global
/// [`Registry`]. Same handle-caching and enabled-check as [`count!`].
#[macro_export]
macro_rules! observe {
    ($name:expr, $value:expr) => {{
        if $crate::enabled() {
            static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
                ::std::sync::OnceLock::new();
            HANDLE
                .get_or_init(|| $crate::Registry::global().histogram($name))
                .record($value as u64);
        }
    }};
}

/// Records a [`std::time::Duration`] (as nanoseconds) into a named
/// histogram in the global [`Registry`].
#[macro_export]
macro_rules! observe_duration {
    ($name:expr, $duration:expr) => {{
        $crate::observe!($name, ($duration).as_nanos().min(u64::MAX as u128) as u64)
    }};
}

/// Sets a named gauge in the global [`Registry`] to `value`.
#[macro_export]
macro_rules! gauge_set {
    ($name:expr, $value:expr) => {{
        if $crate::enabled() {
            static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
                ::std::sync::OnceLock::new();
            HANDLE
                .get_or_init(|| $crate::Registry::global().gauge($name))
                .set($value as i64);
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test covers both the macros and the switch: the switch is
    /// process-global, so probing it from a second concurrent test would
    /// race with this one.
    #[test]
    fn macros_feed_the_global_registry_and_honor_the_switch() {
        count!("obs.test.macro_counter");
        count!("obs.test.macro_counter", 4);
        observe!("obs.test.macro_hist", 1000);
        observe_duration!("obs.test.macro_hist", std::time::Duration::from_nanos(2000));
        gauge_set!("obs.test.macro_gauge", -7);
        let snap = Registry::global().snapshot();
        assert_eq!(snap.counter("obs.test.macro_counter"), 5);
        let hist = snap.histogram("obs.test.macro_hist").unwrap();
        assert_eq!(hist.count, 2);
        assert_eq!(snap.gauge("obs.test.macro_gauge"), Some(-7));

        set_enabled(false);
        assert!(!enabled());
        count!("obs.test.macro_counter");
        set_enabled(true);
        let snap = Registry::global().snapshot();
        assert_eq!(snap.counter("obs.test.macro_counter"), 5);
        assert!(enabled());
    }
}
