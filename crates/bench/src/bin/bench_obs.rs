//! Observability overhead benchmark: `BENCH_obs.json`.
//!
//! The metrics layer promises to be near-free when nobody is looking. This
//! binary re-runs the `BENCH_vec` scenarios (batched vectorized certain
//! answers, the compiled certain rewriting, the possible-answer join) under
//! three configurations:
//!
//! 1. **disabled** — `cqa_obs::set_enabled(false)`: every `count!` /
//!    `observe!` call site short-circuits on one relaxed atomic load.
//! 2. **enabled** — the default production configuration: counters and
//!    histograms record, no trace sink. The regression gate lives here:
//!    the enabled/disabled wall-time ratio must stay under the threshold.
//! 3. **traced** — a [`TraceSink`] installed on the prepared plan, the
//!    `explain --analyze` configuration. Reported for context, not gated:
//!    per-operator row counting has a real (still small) cost.
//!
//! The gate is asserted on the **aggregate** ratio (summed minima across
//! all scenarios and workloads) — per-scenario ratios on sub-millisecond
//! timings are too noisy to gate on individually — and the process exits
//! non-zero on violation *after* writing the artifact, so CI keeps the
//! evidence. `--quick` shrinks the instances for CI smoke runs and widens
//! the threshold accordingly.

use cqa_bench::{ms, quick_flag, scaled_instance, time_min, write_bench_json};
use cqa_core::answers::{possible_answers, CertainAnswersEngine};
use cqa_core::solvers::RewritingSolver;
use cqa_exec::{FoPlan, QueryPlan};
use cqa_obs::TraceSink;
use cqa_query::{catalog, ConjunctiveQuery, Variable};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

fn free_first_variable(query: &ConjunctiveQuery, var: &str) -> ConjunctiveQuery {
    ConjunctiveQuery::with_free_vars(
        query.schema().clone(),
        query.atoms().to_vec(),
        vec![Variable::new(var)],
    )
    .expect("freeing a variable of a valid query stays valid")
}

/// Minimum wall time of `f` with metrics disabled, then enabled. Leaves
/// metrics enabled (the process default) on return.
fn disabled_vs_enabled<R>(runs: usize, mut f: impl FnMut() -> R) -> (Duration, Duration) {
    cqa_obs::set_enabled(false);
    let disabled = time_min(runs, &mut f);
    cqa_obs::set_enabled(true);
    let enabled = time_min(runs, &mut f);
    (disabled, enabled)
}

fn main() {
    let quick = quick_flag();
    // Quick instances finish in microseconds, where min-over-runs still
    // jitters by tens of percent; the smoke gate is correspondingly loose.
    let runs = if quick { 5 } else { 7 };
    let threshold = if quick { 2.0 } else { 1.05 };

    let workloads: Vec<(&str, ConjunctiveQuery, &str, usize, u64)> = vec![
        (
            "path3",
            catalog::fo_path3().query,
            "x",
            if quick { 150 } else { 2200 },
            11,
        ),
        (
            "conference",
            catalog::conference().query,
            "x",
            if quick { 200 } else { 2600 },
            13,
        ),
    ];

    let mut entries = Vec::new();
    let mut total_disabled = Duration::ZERO;
    let mut total_enabled = Duration::ZERO;
    for (name, boolean_query, freed, n, seed) in workloads {
        let db = scaled_instance(&boolean_query, n, seed);
        let index = db.index();
        let query = free_first_variable(&boolean_query, freed);
        eprintln!(
            "workload {name}: {} atoms, {} facts, {} blocks",
            query.len(),
            db.fact_count(),
            db.block_count(),
        );

        // -- batched vectorized certain answers (no trace hook: the engine
        //    owns its plans). Results asserted identical across toggles.
        let candidates = possible_answers(&query, &db).expect("workload queries are answerable");
        let engine = CertainAnswersEngine::new(&query).expect("answerable");
        cqa_obs::set_enabled(false);
        let reference = engine.certain_of(&db, &candidates).expect("answerable");
        cqa_obs::set_enabled(true);
        assert_eq!(
            engine.certain_of(&db, &candidates).expect("answerable"),
            reference,
            "certain answers changed when metrics were enabled on {name}"
        );
        let (answers_off, answers_on) = disabled_vs_enabled(runs, || {
            engine.certain_of(&db, &candidates).expect("answerable")
        });

        // -- Boolean certain rewriting: plain prepared vs a trace-sink one.
        let solver = RewritingSolver::new(&boolean_query).expect("Theorem 1 queries classify");
        let fo_plan = FoPlan::compile(
            solver.formula(),
            boolean_query.schema(),
            Some(index.statistics()),
        )
        .expect("a Theorem 1 rewriting is guarded");
        let fo = fo_plan.prepare(&index);
        let fo_sink = Arc::new(TraceSink::new(fo_plan.trace_ops()));
        let fo_traced = fo_plan.prepare(&index).with_trace(fo_sink.clone());
        assert_eq!(
            fo_traced.eval(),
            fo.eval(),
            "certain-rewriting verdict changed under tracing on {name}"
        );
        let (rewriting_off, rewriting_on) = disabled_vs_enabled(runs, || fo.eval());
        let rewriting_traced = time_min(runs, || fo_traced.eval());

        // -- Possible-answer join: plain prepared vs a trace-sink one.
        let join_plan = QueryPlan::compile(&query, Some(index.statistics()));
        let join = join_plan.prepare(&index);
        let join_sink = Arc::new(TraceSink::new(join_plan.trace_ops()));
        let join_traced = join_plan.prepare(&index).with_trace(join_sink.clone());
        assert_eq!(
            join_traced.answers(),
            join.answers(),
            "join answers changed under tracing on {name}"
        );
        let (join_off, join_on) = disabled_vs_enabled(runs, || join.answers());
        let join_traced_time = time_min(runs, || join_traced.answers());

        for (scenario, off, on, traced) in [
            ("certain_answers_vec", answers_off, answers_on, None),
            (
                "certain_rewriting_vec",
                rewriting_off,
                rewriting_on,
                Some(rewriting_traced),
            ),
            (
                "join_answers_vec",
                join_off,
                join_on,
                Some(join_traced_time),
            ),
        ] {
            total_disabled += off;
            total_enabled += on;
            let traced_text = traced.map_or_else(
                || "      -    ".to_string(),
                |t| format!("{:9.3} ms", ms(t)),
            );
            eprintln!(
                "  {scenario:22} disabled {:9.3} ms | enabled {:9.3} ms | traced {traced_text} ({:.3}x enabled/disabled)",
                ms(off),
                ms(on),
                ms(on) / ms(off).max(1e-9),
            );
        }

        let mut entry = String::new();
        write!(
            entry,
            "    {{\n      \"name\": \"{name}\",\n      \"facts\": {},\n      \"blocks\": {},\n      \"candidate_answers\": {},\n      \"certain_answers_vec\": {{ \"disabled_ms\": {:.3}, \"enabled_ms\": {:.3}, \"ratio\": {:.3} }},\n      \"certain_rewriting_vec\": {{ \"disabled_ms\": {:.3}, \"enabled_ms\": {:.3}, \"traced_ms\": {:.3}, \"ratio\": {:.3} }},\n      \"join_answers_vec\": {{ \"disabled_ms\": {:.3}, \"enabled_ms\": {:.3}, \"traced_ms\": {:.3}, \"ratio\": {:.3} }}\n    }}",
            db.fact_count(),
            db.block_count(),
            candidates.len(),
            ms(answers_off),
            ms(answers_on),
            ms(answers_on) / ms(answers_off).max(1e-9),
            ms(rewriting_off),
            ms(rewriting_on),
            ms(rewriting_traced),
            ms(rewriting_on) / ms(rewriting_off).max(1e-9),
            ms(join_off),
            ms(join_on),
            ms(join_traced_time),
            ms(join_on) / ms(join_off).max(1e-9),
        )
        .expect("writing to a String cannot fail");
        entries.push(entry);
    }

    let ratio = ms(total_enabled) / ms(total_disabled).max(1e-9);
    let ok = ratio < threshold;
    eprintln!(
        "aggregate: disabled {:.3} ms, enabled {:.3} ms, ratio {ratio:.3} (threshold {threshold}) — {}",
        ms(total_disabled),
        ms(total_enabled),
        if ok { "ok" } else { "OVERHEAD REGRESSION" },
    );

    let json = format!(
        "{{\n  \"benchmark\": \"observability overhead: metrics disabled vs enabled (no sink) vs per-op trace sink\",\n  \"generated_by\": \"cargo run --release -p cqa-bench --bin bench_obs\",\n  \"quick\": {quick},\n  \"note\": \"times are minima over {runs} runs; the gate is the aggregate enabled/disabled ratio (per-scenario ratios on sub-millisecond timings are informative only); traced = TraceSink installed, the explain --analyze configuration, reported for context\",\n  \"aggregate\": {{ \"disabled_ms\": {:.3}, \"enabled_ms\": {:.3}, \"ratio\": {ratio:.3}, \"threshold\": {threshold}, \"overhead_ok\": {ok} }},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        ms(total_disabled),
        ms(total_enabled),
        entries.join(",\n")
    );

    let out = write_bench_json("BENCH_obs.json", &json);
    eprintln!("wrote {}", out.display());
    print!("{json}");
    if !ok {
        std::process::exit(1);
    }
}
