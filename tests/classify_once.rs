//! An open query is classified once, not once per candidate answer.
//!
//! The class of `CERTAINTY(q[x̄ ↦ ā])` does not depend on `ā` (Lemma 5's
//! substitution), so the answer engine classifies the frozen query once and
//! decides every candidate through the same solver. This suite counts the
//! `core.classify.*` events around whole answer sets and view repairs. It is
//! its own test binary: the counters are process-wide, and no other test may
//! classify while it counts.

use cqa::core::answers::{certain_answers, CertainAnswersEngine};
use cqa::data::{ChangeSet, Delta, Fact, Schema, UncertainDatabase, Value};
use cqa::obs::MetricValue;
use cqa::query::{ConjunctiveQuery, Term, Variable};
use cqa::stream::{MaterializedView, ViewMaintainer};

/// Candidates of the open query below: well past 100.
const CANDIDATES: usize = 120;

/// The sum of every `core.classify.*` counter.
fn classifications() -> u64 {
    let snapshot = cqa::obs::Registry::global().snapshot();
    (snapshot.iter())
        .filter(|(name, _)| name.starts_with("core.classify."))
        .map(|(_, value)| match value {
            MetricValue::Counter(n) => *n,
            _ => 0,
        })
        .sum()
}

#[test]
fn an_open_non_fo_query_is_classified_once_per_engine_not_per_candidate() {
    // q(w) :- R(y, z), S(z, y), F(y, w): the attack graph of the bound
    // variables has a cycle, so no first-order rewriting exists and every
    // candidate is decided by the classified solver.
    let schema = Schema::from_relations([("R", 2, 1), ("S", 2, 1), ("F", 2, 1)])
        .unwrap()
        .into_shared();
    let query = ConjunctiveQuery::builder(schema.clone())
        .atom("R", [Term::var("y"), Term::var("z")])
        .atom("S", [Term::var("z"), Term::var("y")])
        .atom("F", [Term::var("y"), Term::var("w")])
        .free([Variable::new("w")])
        .build()
        .unwrap();
    let mut db = UncertainDatabase::new(schema.clone());
    db.insert_values("R", ["a", "b"]).unwrap();
    db.insert_values("S", ["b", "a"]).unwrap();
    for i in 0..CANDIDATES {
        db.insert_values("F", ["a".to_string(), format!("w{i}")])
            .unwrap();
    }
    db.insert_values("R", ["c", "d"]).unwrap();
    db.insert_values("S", ["d", "c"]).unwrap();
    db.insert_values("F", ["c", "certain"]).unwrap();

    let before = classifications();
    let engine = CertainAnswersEngine::new(&query).unwrap();
    assert!(engine.open_plan(&db).is_none());
    let sets = engine.answer_sets(&db).unwrap();
    assert_eq!(sets.possible.len(), CANDIDATES + 1);
    assert_eq!(
        sets.certain,
        [vec![Value::str("certain")]].into_iter().collect()
    );
    assert_eq!(
        classifications() - before,
        1,
        "one engine, one classification"
    );

    // A view classifies once at registration; repairing it after
    // single-fact writes re-decides its candidates without classifying.
    let maintainer = ViewMaintainer::new();
    let mut view = MaterializedView::new("v", &query).unwrap();
    maintainer.initialize(&mut view, &db.snapshot()).unwrap();
    let r = schema.relation_id("R").unwrap();
    let s = schema.relation_id("S").unwrap();
    let writes = [
        Delta::Inserted(Fact::new(r, vec![Value::str("a"), Value::str("e")])),
        Delta::Inserted(Fact::new(s, vec![Value::str("e"), Value::str("a")])),
        Delta::Removed {
            fact: Fact::new(r, vec![Value::str("a"), Value::str("e")]),
            emptied_block: false,
        },
    ];
    for write in writes {
        match &write {
            Delta::Inserted(fact) => assert!(db.insert(fact.clone()).unwrap()),
            Delta::Removed { fact, .. } => assert!(db.remove_fact(fact)),
        }
        let mut changes = ChangeSet::new();
        changes.record(write);
        let snapshot = db.snapshot();
        let before = classifications();
        let outcome = maintainer.repair(&mut view, &snapshot, &changes).unwrap();
        assert_eq!(classifications() - before, 0, "a repair never classifies");
        assert!(!outcome.full_recompute);
        assert!(outcome.retouched >= CANDIDATES, "{outcome:?}");
        let reference = certain_answers(&query, snapshot.database()).unwrap();
        assert_eq!(view.answer_sets(), reference);
    }
}
