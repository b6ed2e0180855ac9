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
use std::sync::Arc;

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

/// Flipping the process-wide metrics switch must not change any verdict or
/// answer set — and with the switch back on, the facade's registry snapshot
/// reports the recorded events. One test (not a proptest fan-out, not split)
/// because the switch and the registry are global: concurrent tests toggling
/// or observing them would race.
#[test]
fn metrics_toggle_does_not_change_results() {
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
