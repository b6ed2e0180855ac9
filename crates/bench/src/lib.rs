//! Instance builders and timing helpers shared by the `experiments`
//! (paper reproduction) and `bench_obs` (observability-overhead gate)
//! binaries. The client-observed benchmark lives in `harness/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cqa_data::UncertainDatabase;
use cqa_gen::{cycle_instance, CycleInstanceConfig, GeneratorConfig, UncertainDbGenerator};
use cqa_query::ConjunctiveQuery;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Workload scale → uncertain database for a given catalog query: `n` match
/// groups with one extra (key-violating) alternative per planted fact.
pub fn scaled_instance(query: &ConjunctiveQuery, n: usize, seed: u64) -> UncertainDatabase {
    UncertainDbGenerator::new(
        query,
        GeneratorConfig {
            seed,
            matches: n,
            domain_per_variable: (n / 2).max(4),
            extra_block_facts: 1,
            alternative_join_probability: 0.5,
        },
    )
    .generate()
}

/// A `C(k)` / `AC(k)` cycle-graph instance with `n` constants per layer.
pub fn scaled_cycle_instance(k: usize, with_s: bool, n: usize, seed: u64) -> UncertainDatabase {
    cycle_instance(
        k,
        with_s,
        &CycleInstanceConfig {
            seed,
            nodes_per_layer: n,
            edges_per_node: 2,
            encoded_cycle_fraction: 0.6,
        },
    )
}

/// Times a closure, returning its result and the elapsed wall-clock time.
pub fn time_it<R>(mut f: impl FnMut() -> R) -> (R, Duration) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed())
}

/// The minimum wall-clock time of `runs` executions of `f` (minimum over
/// runs filters scheduler noise better than the mean).
pub fn time_min<R>(runs: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..runs {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed());
    }
    best
}

/// Formats a duration in microseconds with three significant digits.
pub fn micros(d: Duration) -> String {
    format!("{:.1}µs", d.as_secs_f64() * 1e6)
}

/// A duration as fractional milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// True iff the process was invoked with `--quick` — the CI smoke-run mode
/// `bench_obs` honors by shrinking its instances.
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Writes a hand-rendered benchmark JSON document to `filename` at the
/// workspace root and returns the path written.
pub fn write_bench_json(filename: &str, json: &str) -> PathBuf {
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(filename);
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("write {filename}: {e}"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_query::catalog;

    #[test]
    fn scaled_instances_grow_with_n() {
        let q = catalog::fig4().query;
        let small = scaled_instance(&q, 5, 1);
        let large = scaled_instance(&q, 50, 1);
        assert!(large.fact_count() > small.fact_count());
    }

    #[test]
    fn cycle_instances_grow_with_n() {
        let small = scaled_cycle_instance(3, true, 5, 1);
        let large = scaled_cycle_instance(3, true, 20, 1);
        assert!(large.fact_count() > small.fact_count());
    }

    #[test]
    fn timing_helper_reports_something() {
        let (value, elapsed) = time_it(|| 2 + 2);
        assert_eq!(value, 4);
        assert!(elapsed.as_nanos() > 0 || micros(elapsed).ends_with("µs"));
    }
}
