//! The one-line serving-stats rendering shared by the network server's
//! `\stats` command and the CLI's stdin serve loop.

use cqa_par::BatchEngine;
use std::time::Instant;

/// One serving-stats line: throughput, read latency percentiles (from the
/// `par.batch.query_nanos` histogram) and effective-write latency
/// percentiles (`serve.write_nanos`), cache hit rates, pool and epoch state,
/// and what the writes cost the store (index patches applied, chunks and
/// shards copied). `inflight` is the admission-control occupancy (0 for the stdin
/// loop, which has no admission control); `views` counts registered
/// materialized views and `pinned` the old epochs still held by slow
/// readers (both 0 for the stdin loop, which has neither).
pub fn stats_line(
    engine: &BatchEngine,
    served: usize,
    started: Instant,
    inflight: usize,
    views: usize,
    pinned: usize,
) -> String {
    engine.pool().record_metrics();
    let snapshot = cqa_obs::Registry::global().snapshot();
    let qps = served as f64 / started.elapsed().as_secs_f64().max(1e-9);
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
         plan-cache {}, engine-cache {}, steals {}, epoch {}, \
         views {views}, pinned epochs {pinned}, \
         index deltas {} applied / {} rebuilt, \
         store copies {} chunks / {} shards",
        rate("exec.plan_cache"),
        rate("par.batch.engine"),
        engine.pool().steals(),
        engine.epoch(),
        snapshot.counter("data.index.delta_applied"),
        snapshot.counter("data.index.delta_fallback_rebuild"),
        snapshot.counter("data.store.chunks_copied"),
        snapshot.counter("data.store.shards_copied"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_data::{Schema, UncertainDatabase};
    use cqa_par::ParPool;

    #[test]
    fn stats_lines_render_every_field() {
        let schema = Schema::from_relations([("R", 2, 1)]).unwrap().into_shared();
        let db = UncertainDatabase::new(schema);
        let engine = BatchEngine::new(db.snapshot(), ParPool::new(1));
        let line = stats_line(&engine, 42, Instant::now(), 3, 2, 1);
        assert!(
            line.starts_with("stats: 42 served, 3 in flight, "),
            "{line}"
        );
        assert!(line.contains("qps"), "{line}");
        assert!(line.contains("p99"), "{line}");
        assert!(line.contains(", write p50 "), "{line}");
        assert!(line.contains(" chunks / "), "{line}");
        assert!(line.contains("epoch 0"), "{line}");
        assert!(line.contains("views 2, pinned epochs 1"), "{line}");
    }
}
