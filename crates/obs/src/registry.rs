//! The name-keyed metric registry and its snapshot/diff/render API.

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock, RwLock};

/// One registered metric.
#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A process-wide, name-keyed store of [`Counter`]s, [`Gauge`]s and
/// [`Histogram`]s. Handles are `Arc`s: resolve once (the [`crate::count!`]
/// family caches per call site), then update lock-free. The registry lock
/// is only taken to register or to [snapshot](Registry::snapshot).
///
/// Names are dotted paths by convention (`exec.plan_cache.hit`,
/// `par.batch.query_nanos`), which groups the rendered output naturally.
#[derive(Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl Registry {
    /// A fresh, empty registry (unit tests; everything else uses
    /// [`Registry::global`]).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide registry every crate of the stack reports into.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    fn lock_poisoned() -> ! {
        panic!("a thread panicked while holding the metrics registry lock")
    }

    /// The counter registered under `name`, registering it if new.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let guard = self
            .metrics
            .read()
            .unwrap_or_else(|_| Self::lock_poisoned());
        if let Some(metric) = guard.get(name) {
            let Metric::Counter(c) = metric else {
                panic!("metric {name:?} is registered as a non-counter");
            };
            return c.clone();
        }
        drop(guard);
        let mut guard = self
            .metrics
            .write()
            .unwrap_or_else(|_| Self::lock_poisoned());
        let metric = guard
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())));
        let Metric::Counter(c) = metric else {
            panic!("metric {name:?} is registered as a non-counter");
        };
        c.clone()
    }

    /// The gauge registered under `name`, registering it if new.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let guard = self
            .metrics
            .read()
            .unwrap_or_else(|_| Self::lock_poisoned());
        if let Some(metric) = guard.get(name) {
            let Metric::Gauge(g) = metric else {
                panic!("metric {name:?} is registered as a non-gauge");
            };
            return g.clone();
        }
        drop(guard);
        let mut guard = self
            .metrics
            .write()
            .unwrap_or_else(|_| Self::lock_poisoned());
        let metric = guard
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())));
        let Metric::Gauge(g) = metric else {
            panic!("metric {name:?} is registered as a non-gauge");
        };
        g.clone()
    }

    /// The histogram registered under `name`, registering it if new.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let guard = self
            .metrics
            .read()
            .unwrap_or_else(|_| Self::lock_poisoned());
        if let Some(metric) = guard.get(name) {
            let Metric::Histogram(h) = metric else {
                panic!("metric {name:?} is registered as a non-histogram");
            };
            return h.clone();
        }
        drop(guard);
        let mut guard = self
            .metrics
            .write()
            .unwrap_or_else(|_| Self::lock_poisoned());
        let metric = guard
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())));
        let Metric::Histogram(h) = metric else {
            panic!("metric {name:?} is registered as a non-histogram");
        };
        h.clone()
    }

    /// A point-in-time copy of every registered metric's value.
    pub fn snapshot(&self) -> Snapshot {
        let guard = self
            .metrics
            .read()
            .unwrap_or_else(|_| Self::lock_poisoned());
        Snapshot {
            values: guard
                .iter()
                .map(|(name, metric)| {
                    let value = match metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }
}

/// A snapshotted metric value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// A counter's running total.
    Counter(u64),
    /// A gauge's instantaneous value.
    Gauge(i64),
    /// A histogram's state.
    Histogram(HistogramSnapshot),
}

/// A point-in-time copy of a [`Registry`], ordered by metric name.
/// Supports windowed readings ([`Snapshot::diff`]) and text rendering —
/// the backing of `certainty stats` and `serve`'s `\stats`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    values: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// True iff no metrics were registered when the snapshot was taken.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.values.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// The named counter's value, 0 if absent or not a counter.
    pub fn counter(&self, name: &str) -> u64 {
        match self.values.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// The named gauge's value, `None` if absent or not a gauge.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.values.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The named histogram's state, `None` if absent or not a histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.values.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Of a hit/miss counter pair under `prefix` (`{prefix}.hit` /
    /// `{prefix}.miss`), the hit rate in `[0, 1]`; `None` when neither
    /// fired.
    pub fn hit_rate(&self, prefix: &str) -> Option<f64> {
        let hits = self.counter(&format!("{prefix}.hit"));
        let misses = self.counter(&format!("{prefix}.miss"));
        let total = hits + misses;
        (total > 0).then(|| hits as f64 / total as f64)
    }

    /// This snapshot minus an `earlier` one: counters and histograms
    /// subtract (saturating), gauges keep their later value. Metrics only
    /// present in `earlier` are dropped — the window is read forward.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            values: self
                .values
                .iter()
                .map(|(name, value)| {
                    let diffed = match (value, earlier.values.get(name)) {
                        (MetricValue::Counter(now), Some(MetricValue::Counter(then))) => {
                            MetricValue::Counter(now.saturating_sub(*then))
                        }
                        (MetricValue::Histogram(now), Some(MetricValue::Histogram(then))) => {
                            MetricValue::Histogram(now.diff(then))
                        }
                        (other, _) => other.clone(),
                    };
                    (name.clone(), diffed)
                })
                .collect(),
        }
    }

    /// Renders the snapshot as text, one metric per line, in name order.
    /// Histograms print count/mean/p50/p90/p99 (interpreting values as
    /// nanoseconds is up to the reader; the numbers are unit-free).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.values {
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{name:<44} {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{name:<44} {v} (gauge)");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "{name:<44} count {} mean {:.0} p50 {} p90 {} p99 {}",
                        h.count,
                        h.mean(),
                        h.p50(),
                        h.p90(),
                        h.p99(),
                    );
                }
            }
        }
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format — the
    /// body of the serving layer's `GET /metrics` endpoint. Metric names
    /// have their dots replaced by underscores (`par.batch.query_nanos` →
    /// `par_batch_query_nanos`); counters and gauges emit one sample each,
    /// histograms emit `_count`, `_sum` and quantile gauges for p50/p90/p99.
    pub fn render_prometheus(&self) -> String {
        let sanitize = |name: &str| name.replace(['.', '-'], "_");
        let mut out = String::new();
        for (name, value) in &self.values {
            let name = sanitize(name);
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {v}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {name} summary");
                    for (q, v) in [(0.5, h.p50()), (0.9, h.p90()), (0.99, h.p99())] {
                        let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {v}");
                    }
                    let _ = writeln!(out, "{name}_sum {}", h.sum);
                    let _ = writeln!(out, "{name}_count {}", h.count);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_get_or_create_and_handles_are_shared() {
        let reg = Registry::new();
        let a = reg.counter("x.hits");
        let b = reg.counter("x.hits");
        assert!(Arc::ptr_eq(&a, &b));
        a.add(1);
        b.add(2);
        assert_eq!(reg.snapshot().counter("x.hits"), 3);
    }

    #[test]
    #[should_panic(expected = "non-counter")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.gauge("metric");
        reg.counter("metric");
    }

    #[test]
    fn snapshots_diff_and_render() {
        let reg = Registry::new();
        reg.counter("a.count").add(10);
        reg.gauge("b.depth").set(3);
        reg.histogram("c.nanos").record(1500);
        let before = reg.snapshot();
        reg.counter("a.count").add(5);
        reg.gauge("b.depth").set(9);
        reg.histogram("c.nanos").record(3000);
        let after = reg.snapshot();
        let window = after.diff(&before);
        assert_eq!(window.counter("a.count"), 5);
        assert_eq!(window.gauge("b.depth"), Some(9));
        assert_eq!(window.histogram("c.nanos").unwrap().count, 1);
        let text = after.render();
        assert!(text.contains("a.count"), "{text}");
        assert!(text.contains("(gauge)"), "{text}");
        assert!(text.contains("p99"), "{text}");
    }

    #[test]
    fn prometheus_rendering_sanitizes_names_and_types_metrics() {
        let reg = Registry::new();
        reg.counter("serve.requests").add(7);
        reg.gauge("serve.inflight").set(2);
        reg.histogram("par.batch.query_nanos").record(2048);
        let text = reg.snapshot().render_prometheus();
        assert!(text.contains("# TYPE serve_requests counter"), "{text}");
        assert!(text.contains("serve_requests 7"), "{text}");
        assert!(text.contains("# TYPE serve_inflight gauge"), "{text}");
        assert!(text.contains("serve_inflight 2"), "{text}");
        assert!(
            text.contains("# TYPE par_batch_query_nanos summary"),
            "{text}"
        );
        assert!(
            text.contains("par_batch_query_nanos{quantile=\"0.99\"}"),
            "{text}"
        );
        assert!(text.contains("par_batch_query_nanos_count 1"), "{text}");
        assert!(
            !text.contains("serve.requests"),
            "dotted name leaked: {text}"
        );
    }

    #[test]
    fn hit_rates_come_from_counter_pairs() {
        let reg = Registry::new();
        assert_eq!(reg.snapshot().hit_rate("cache"), None);
        reg.counter("cache.hit").add(3);
        reg.counter("cache.miss").add(1);
        assert_eq!(reg.snapshot().hit_rate("cache"), Some(0.75));
    }
}
