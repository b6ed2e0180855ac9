//! The one-line serving-stats rendering of the `\stats` command.

use crate::server::Shared;
use std::sync::atomic::Ordering;

/// One serving-stats line: throughput, read latency percentiles (from the
/// `par.batch.query_nanos` histogram) and effective-write latency
/// percentiles (`serve.write_nanos`), the engine memo's hit rate, pool and
/// epoch state, admission occupancy, registered views, old epochs still
/// pinned by slow readers, and what the writes cost the store (index patches
/// applied, chunks and shards copied).
pub(crate) fn stats_line(shared: &Shared) -> String {
    let engine = shared.epochs.current();
    let served = shared.served.load(Ordering::Relaxed);
    let inflight = shared.admission.inflight();
    let views = shared.epochs.view_count();
    let pinned = shared.epochs.pinned_epochs();
    shared.pool.record_metrics();
    let snapshot = cqa_obs::Registry::global().snapshot();
    let qps = served as f64 / shared.started.elapsed().as_secs_f64().max(1e-9);
    let percentiles_ms = |histogram: &str| {
        snapshot
            .histogram(histogram)
            .map(|h| {
                (
                    h.percentile(50.0) as f64 / 1e6,
                    h.percentile(99.0) as f64 / 1e6,
                )
            })
            .unwrap_or((0.0, 0.0))
    };
    let (p50, p99) = percentiles_ms("par.batch.query_nanos");
    let (write_p50, write_p99) = percentiles_ms("serve.write_nanos");
    let rate = |prefix: &str| {
        snapshot
            .hit_rate(prefix)
            .map_or_else(|| "-".to_string(), |r| format!("{:.0}%", r * 100.0))
    };
    format!(
        "stats: {served} served, {inflight} in flight, {qps:.1} qps, \
         p50 {p50:.3} ms, p99 {p99:.3} ms, \
         write p50 {write_p50:.3} ms, p99 {write_p99:.3} ms, \
         engine-cache {}, steals {}, epoch {}, \
         views {views}, pinned epochs {pinned}, \
         index deltas {} applied, \
         store copies {} chunks / {} shards",
        rate("par.batch.engine"),
        shared.pool.steals(),
        engine.epoch(),
        snapshot.counter("data.index.delta_applied"),
        snapshot.counter("data.store.chunks_copied"),
        snapshot.counter("data.store.shards_copied"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_request, Request};
    use crate::ServerConfig;
    use cqa_data::{Schema, UncertainDatabase};

    #[test]
    fn stats_lines_render_every_field() {
        let schema = Schema::from_relations([("R", 2, 1)]).unwrap().into_shared();
        let shared = Shared::new(
            UncertainDatabase::new(schema.clone()),
            ServerConfig {
                threads: Some(1),
                ..ServerConfig::default()
            },
        );
        let request = |line: &str| parse_request(&schema, line, 1).unwrap().unwrap();
        shared.served.store(42, Ordering::Relaxed);
        let _permits: Vec<_> = (0..3)
            .map(|_| shared.admission.try_acquire().unwrap())
            .collect();
        for name in ["a", "b"] {
            let Request::Subscribe { query, .. } = request("\\subscribe v R(x, y)") else {
                panic!("expected a subscription");
            };
            shared.epochs.subscribe(name, &query).unwrap();
        }
        // A reader holding epoch 0 across a write pins it.
        let _pinned = shared.epochs.current();
        let Request::Write(op) = request("\\insert R(a, 1)") else {
            panic!("expected a write");
        };
        shared.epochs.apply_write(&op).unwrap();
        let line = stats_line(&shared);
        assert!(
            line.starts_with("stats: 42 served, 3 in flight, "),
            "{line}"
        );
        assert!(line.contains("qps"), "{line}");
        assert!(line.contains("p99"), "{line}");
        assert!(line.contains(", write p50 "), "{line}");
        assert!(line.contains(" ms, engine-cache "), "{line}");
        assert!(line.contains(" applied, store copies "), "{line}");
        assert!(line.contains(" chunks / "), "{line}");
        assert!(line.contains("epoch 1"), "{line}");
        assert!(line.contains("views 2, pinned epochs 1"), "{line}");
    }
}
