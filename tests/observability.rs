//! Observability must never change answers: tracing and the metrics toggle
//! are observers, not participants. These properties run randomly generated
//! queries and databases through the compiled executors with and without a
//! [`TraceSink`] attached and demand byte-identical results, and pin the
//! facade-level metrics API (`Registry`, `Snapshot`, `hit_rate`).

use cqa::core::solvers::RewritingSolver;
use cqa::exec::{FoPlan, QueryPlan};
use cqa::gen::{random_acyclic_query, GeneratorConfig, UncertainDbGenerator};
use cqa::obs::TraceSink;
use cqa::query::catalog;
use proptest::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A traced join-plan execution returns exactly the answers of the
    /// untraced one and fills every operator cell it promised
    /// (`trace_ops`).
    #[test]
    fn traced_join_plans_answer_identically(seed in 0u64..3_000, atoms in 1usize..5) {
        let q = random_acyclic_query(seed, atoms, 3);
        let db = UncertainDbGenerator::new(&q, GeneratorConfig {
            seed: seed ^ 0x9e37,
            matches: 12,
            domain_per_variable: 6,
            extra_block_facts: 1,
            alternative_join_probability: 0.5,
        }).generate();
        let index = db.index();
        let plan = QueryPlan::compile(&q, Some(index.statistics()));
        let plain = plan.prepare(&index);
        let sink = Arc::new(TraceSink::new(plan.trace_ops()));
        let traced = plan.prepare(&index).with_trace(sink.clone());
        prop_assert_eq!(traced.answers(), plain.answers());
        prop_assert_eq!(traced.satisfies(), plain.satisfies());
        prop_assert_eq!(sink.op_count(), plan.trace_ops());
    }

    /// A traced certain-rewriting execution returns the verdict of the
    /// untraced one whenever the random query classifies as first-order
    /// expressible.
    #[test]
    fn traced_rewritings_answer_identically(seed in 0u64..3_000, atoms in 1usize..5) {
        let q = random_acyclic_query(seed, atoms, 3);
        let Ok(solver) = RewritingSolver::new(&q) else {
            return; // outside the Theorem 1 FO region: nothing to trace
        };
        let db = UncertainDbGenerator::new(&q, GeneratorConfig {
            seed: seed ^ 0x51f,
            matches: 10,
            domain_per_variable: 5,
            extra_block_facts: 1,
            alternative_join_probability: 0.5,
        }).generate();
        let index = db.index();
        let plan = FoPlan::compile(solver.formula(), q.schema(), Some(index.statistics())).unwrap();
        let plain = plan.prepare(&index);
        let sink = Arc::new(TraceSink::new(plan.trace_ops()));
        let traced = plan.prepare(&index).with_trace(sink.clone());
        prop_assert_eq!(traced.eval(), plain.eval());
        prop_assert_eq!(sink.op_count(), plan.trace_ops());
    }
}

/// The metrics switch and the registry are process-wide: the tests that
/// flip the one or read exact counts from the other take turns.
fn counted() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Flipping the process-wide metrics switch must not change any verdict or
/// answer set — and with the switch back on, the facade's registry snapshot
/// reports the recorded events. One test (not a proptest fan-out, not split)
/// because the switch and the registry are global: concurrent tests toggling
/// or observing them would race.
#[test]
fn metrics_toggle_does_not_change_results() {
    let _turn = counted();
    use cqa::core::answers::certain_answers;
    use cqa::core::solvers::{CertaintyEngine, CertaintySolver};
    use cqa::prelude::Registry;
    use cqa::query::{ConjunctiveQuery, Term, Variable};

    let boolean = catalog::conference().query;
    let db = catalog::conference_database();
    let free = ConjunctiveQuery::builder(boolean.schema().clone())
        .atom(
            "C",
            [Term::var("x"), Term::var("y"), Term::constant("Rome")],
        )
        .atom("R", [Term::var("x"), Term::constant("A")])
        .free([Variable::new("x")])
        .build()
        .unwrap();

    let engine = CertaintyEngine::new(&boolean).unwrap();
    cqa::obs::set_enabled(false);
    let certain_off = engine.is_certain(&db);
    let possible_off = engine.is_possible(&db);
    let answers_off = certain_answers(&free, &db).unwrap();
    cqa::obs::set_enabled(true);
    let certain_on = engine.is_certain(&db);
    let possible_on = engine.is_possible(&db);
    let answers_on = certain_answers(&free, &db).unwrap();

    assert_eq!(certain_on, certain_off);
    assert_eq!(possible_on, possible_off);
    assert_eq!(answers_on.certain, answers_off.certain);
    assert_eq!(answers_on.possible, answers_off.possible);

    // With metrics back on, the facade registry reports the recorded
    // events: classification happened above while the switch was on.
    let snapshot = Registry::global().snapshot();
    assert!(!snapshot.is_empty());
    assert!(snapshot.counter("core.classify.fo") >= 1);
    if let Some(rate) = snapshot.hit_rate("data.index.cache") {
        assert!((0.0..=1.0).contains(&rate));
    }
    assert!(snapshot.render().contains("core.classify.fo"));
}

/// Purification lists the valuation images once: one `purify` call on the
/// database of Example 1 raises `core.images.listed` by exactly its number
/// of valuations. No other test of this binary lists images.
#[test]
fn purification_counts_each_listed_image_once() {
    use cqa::core::purify::purify;
    use cqa::prelude::Registry;
    use cqa::query::{eval, ConjunctiveQuery, Term};

    let _turn = counted();
    let schema = cqa_data::Schema::from_relations([("R", 2, 1), ("S", 2, 1)])
        .unwrap()
        .into_shared();
    let q = ConjunctiveQuery::builder(schema.clone())
        .atom("R", [Term::var("x"), Term::var("y")])
        .atom("S", [Term::var("y"), Term::var("x")])
        .build()
        .unwrap();
    let mut db = cqa_data::UncertainDatabase::new(schema);
    db.insert_values("R", ["a", "b"]).unwrap();
    db.insert_values("S", ["b", "a"]).unwrap();
    db.insert_values("S", ["b", "c"]).unwrap();
    let listed = || Registry::global().snapshot().counter("core.images.listed");
    let before = listed();
    assert!(purify(&db, &q).is_empty());
    let valuations = eval::naive::all_valuations(&db, &q).len();
    assert_eq!(valuations, 1);
    assert_eq!(listed() - before, valuations as u64);
}
