//! The parallel batch certainty engine, end to end.
//!
//! Generates a few thousand uncertain conference facts, freezes them into a
//! snapshot, and answers a batch of queries concurrently with `BatchEngine`
//! — one pool job per query over the one frozen snapshot, results in input
//! order (the `certainty serve` story) — then asserts that every result
//! equals the sequential engine's.
//!
//! Run with `cargo run --release --example parallel_answers`.

use cqa::core::answers::certain_answers;
use cqa::core::solvers::{CertaintyEngine, CertaintySolver};
use cqa::gen::{GeneratorConfig, UncertainDbGenerator};
use cqa::par::{BatchEngine, BatchOutcome, ParPool};
use cqa::query::{catalog, ConjunctiveQuery, Term, Variable};

fn main() {
    // The Figure 1 conference query, scaled up: ~600 match groups with
    // planted key violations.
    let boolean = catalog::conference().query;
    let mut db = UncertainDbGenerator::new(
        &boolean,
        GeneratorConfig {
            seed: 7,
            matches: 600,
            domain_per_variable: 300,
            extra_block_facts: 1,
            alternative_join_probability: 0.9,
        },
    )
    .generate();
    // The generator's planted key violations make every generated answer
    // merely possible; a few hand-planted *consistent* conferences are
    // certainly in Rome with rank A — the certain answers to find below.
    for i in 0..3 {
        db.insert_values("C", [format!("sure{i}"), "2026".into(), "Rome".into()])
            .expect("fresh facts insert");
        db.insert_values("R", [format!("sure{i}"), "A".into()])
            .expect("fresh facts insert");
    }
    println!(
        "generated {} facts in {} blocks",
        db.fact_count(),
        db.block_count()
    );
    let which = ConjunctiveQuery::builder(boolean.schema().clone())
        .atom(
            "C",
            [Term::var("x"), Term::var("y"), Term::constant("Rome")],
        )
        .atom("R", [Term::var("x"), Term::constant("A")])
        .free([Variable::new("x")])
        .build()
        .expect("valid query");

    // Freeze the data: every query of the batch sees this exact state,
    // however the writer mutates `db` afterwards.
    let pool = ParPool::with_available_parallelism();
    println!("pool: {} worker threads", pool.thread_count());
    let batch_engine = BatchEngine::new(db.snapshot(), pool);
    let batch: Vec<(String, ConjunctiveQuery)> = vec![
        ("rome".into(), boolean.clone()),
        ("which".into(), which.clone()),
        ("rome-again".into(), boolean.clone()), // hits the engine cache
    ];
    let results = batch_engine.run(batch);
    for result in &results {
        println!("batch {}: {}", result.name, summarize(&result.outcome));
    }
    println!(
        "classified engines memoized: {}",
        batch_engine.cached_engine_count()
    );

    // The contract: in input order, and identical to the sequential path.
    let engine = CertaintyEngine::new(&boolean).expect("Theorem 1 query");
    let rome = BatchOutcome::Boolean {
        certain: engine.is_certain(&db),
        possible: engine.is_possible(&db),
        solver: engine.solver_name(),
    };
    let which_sets = BatchOutcome::Answers(certain_answers(&which, &db).expect("answerable query"));
    let expected = [
        ("rome", &rome),
        ("which", &which_sets),
        ("rome-again", &rome),
    ];
    assert_eq!(results.len(), expected.len());
    for (result, (name, outcome)) in results.iter().zip(expected) {
        assert_eq!(result.name, name);
        assert_eq!(format!("{:?}", result.outcome), format!("{outcome:?}"));
    }
    println!("batch == sequential: ok");
}

fn summarize(outcome: &BatchOutcome) -> String {
    match outcome {
        BatchOutcome::Boolean {
            certain, solver, ..
        } => format!("certain={certain} via {solver}"),
        BatchOutcome::Answers(sets) => {
            format!("{}/{} certain", sets.certain.len(), sets.possible.len())
        }
        BatchOutcome::Error(e) => format!("error: {e}"),
    }
}
