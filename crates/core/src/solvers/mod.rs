//! Certain-answer solvers, one per region of the tractability frontier.
//!
//! | solver | region | paper |
//! |---|---|---|
//! | [`RewritingSolver`] | acyclic attack graph | Theorem 1 (via the rewriting of [Wijsen 2012]) |
//! | [`TerminalCycleSolver`] | weak terminal cycles | Theorem 3 |
//! | [`CycleQuerySolver`] | `AC(k)` / `C(k)` | Theorem 4, Corollary 1 |
//! | [`ExactOracle`] | any query | no-good search over valuation images (coNP region) |
//!
//! [`ExactOracle`] and Theorem 3's base case share one crate-private
//! falsifying-repair search (`falsify`).
//!
//! [`CertaintyEngine`] classifies the query once and dispatches to the most
//! specific solver; it is the public entry point a downstream user should
//! reach for.
//!
//! A query may have free variables `x̄`: the solvers take them as
//! parameters and [decide](CertaintySolver::decide) `q[x̄ ↦ ā]` per tuple
//! `ā`. The class depends only on which positions hold constants, never on
//! their values (Lemma 5's substitution), so the engine classifies an open
//! query once, as its frozen query. [`RewritingSolver`] binds `ā` into its
//! compiled open rewriting at execute time; the others ground their query
//! inside `decide` (`core.decide.grounded`). The engine's join plan and
//! rewriting plan share one stats-stamped slot.

pub mod cycle_query;
mod falsify;
pub mod oracle;
pub mod rewriting;
pub mod terminal_cycles;

pub use cycle_query::CycleQuerySolver;
pub use oracle::ExactOracle;
pub use rewriting::RewritingSolver;
pub use terminal_cycles::TerminalCycleSolver;

use crate::classify::{classify, ComplexityClass, PtimeReason};
use crate::fo::{rewrite::open_rewriting, FoFormula};
use cqa_data::{UncertainDatabase, Value};
use cqa_exec::{FoPlan, QueryPlan, StatsStamp};
use cqa_query::{substitute, ConjunctiveQuery, QueryError};
use std::borrow::Cow;
use std::sync::{Arc, PoisonError, RwLock};

/// A decision procedure for `CERTAINTY(q)` with the query fixed at
/// construction time (the paper studies data complexity: the query is not
/// part of the input).
pub trait CertaintySolver {
    /// A short human-readable name (used in benchmark output).
    fn name(&self) -> &'static str;

    /// The query this solver answers certainty for.
    fn query(&self) -> &ConjunctiveQuery;

    /// True iff **every repair** of `db` satisfies `q[x̄ ↦ params]`, where
    /// `x̄` are the query's free variables in order (`params` is empty for a
    /// Boolean query).
    fn decide(&self, db: &UncertainDatabase, params: &[Value]) -> bool;

    /// True iff **every repair** of `db` satisfies the Boolean query.
    fn is_certain(&self, db: &UncertainDatabase) -> bool {
        self.decide(db, &[])
    }

    /// The compiled certain-rewriting plan the solver evaluates, when it
    /// has one (the Theorem 1 region), so a caller can prepare it with a
    /// trace sink; solvers without a rewriting plan return `None`.
    fn rewriting_plan(&self, _db: &UncertainDatabase) -> Option<Arc<FoPlan>> {
        None
    }
}

/// `q[x̄ ↦ params]`: the Boolean query a solver without execute-time
/// parameters decides. With `params` empty (a Boolean query) that is
/// `query` itself, neither substituted nor cloned; otherwise the one
/// grounding is counted as `core.decide.grounded`.
fn ground<'q>(query: &'q ConjunctiveQuery, params: &[Value]) -> Cow<'q, ConjunctiveQuery> {
    debug_assert_eq!(params.len(), query.free_vars().len());
    if params.is_empty() {
        return Cow::Borrowed(query);
    }
    cqa_obs::count!("core.decide.grounded");
    Cow::Owned(substitute::substitute_seq(query, query.free_vars(), params))
}

/// A query's compiled plans and the statistics they were compiled against.
pub struct Plans {
    /// The join plan: `db |= q` for a Boolean query, the possible answers
    /// (certainty candidates) of an open one.
    pub join: QueryPlan,
    /// The compiled certain rewriting, in the Theorem 1 region.
    pub rewriting: Option<Arc<FoPlan>>,
    stamp: StatsStamp,
}

/// One query's plan slot: the query, its certain rewriting (when it has
/// one) and the [`Plans`] compiled from them with the statistics of the
/// database at hand — recompiled, both together, once those statistics
/// have drifted beyond [`cqa_exec::cache::DRIFT_FACTOR`]
/// (`core.plans.stale`).
struct PlanSlot {
    query: ConjunctiveQuery,
    rewriting: Option<FoFormula>,
    compiled: RwLock<Option<Arc<Plans>>>,
}

impl PlanSlot {
    fn new(query: &ConjunctiveQuery, rewriting: Option<FoFormula>) -> Arc<PlanSlot> {
        Arc::new(PlanSlot {
            query: query.clone(),
            rewriting,
            compiled: RwLock::new(None),
        })
    }

    /// The plans for `db`, compiled or recompiled as needed.
    fn get(&self, db: &UncertainDatabase) -> Arc<Plans> {
        let index = db.index();
        let stats = index.statistics();
        let stale = {
            let cached = self.compiled.read().unwrap_or_else(PoisonError::into_inner);
            match cached.as_ref() {
                Some(plans) if !plans.stamp.drifted_from(Some(stats)) => return plans.clone(),
                cached => cached.is_some(),
            }
        };
        if stale {
            cqa_obs::count!("core.plans.stale");
        }
        // Compile outside the lock; racing recompiles are both compiled
        // against current statistics, so last-writer-wins is fine.
        let plans = Arc::new(Plans {
            join: QueryPlan::compile(&self.query, Some(stats)),
            rewriting: (self.rewriting.as_ref()).map(|formula| {
                let plan = FoPlan::compile(formula, self.query.schema(), Some(stats));
                Arc::new(plan.expect("a Theorem 1 rewriting is guarded"))
            }),
            stamp: StatsStamp::of(Some(stats)),
        });
        *self
            .compiled
            .write()
            .unwrap_or_else(PoisonError::into_inner) = Some(plans.clone());
        plans
    }
}

/// The automatic solver: classifies the query and picks the best algorithm.
///
/// The engine also owns the query's compiled plans (see [`Plans`]): the
/// join plan deciding `db |= q` — the "possible" side of certainty, by
/// monotonicity — and, in the Theorem 1 region, the rewriting plan its
/// solver executes.
pub struct CertaintyEngine {
    class: ComplexityClass,
    solver: Box<dyn CertaintySolver + Send + Sync>,
    plans: Arc<PlanSlot>,
}

impl CertaintyEngine {
    /// Classifies `query` and builds the most specific applicable solver.
    ///
    /// This is the front door of the crate: construction classifies the
    /// query once (data complexity: the query is fixed, the data varies),
    /// and every later [`CertaintySolver::decide`] call runs the most
    /// specific solver. An open query is classified as its frozen query,
    /// so one engine decides every tuple of candidate answers.
    ///
    /// ```
    /// use cqa_core::solvers::{CertaintyEngine, CertaintySolver};
    /// use cqa_query::catalog;
    ///
    /// // Figure 1: will Rome certainly host an A-ranked conference?
    /// let engine = CertaintyEngine::new(&catalog::conference().query)?;
    /// assert_eq!(engine.solver_name(), "rewriting"); // Theorem 1 region
    ///
    /// let db = catalog::conference_database();
    /// assert!(engine.is_possible(&db));  // true in some repair
    /// assert!(!engine.is_certain(&db));  // but not in every repair
    /// # Ok::<(), cqa_query::QueryError>(())
    /// ```
    pub fn new(query: &ConjunctiveQuery) -> Result<Self, QueryError> {
        let class = classify(query)?.class;
        let first_order = class == ComplexityClass::FirstOrderExpressible;
        let plans = PlanSlot::new(query, first_order.then(|| open_rewriting(query)));
        let solver: Box<dyn CertaintySolver + Send + Sync> = match &class {
            ComplexityClass::FirstOrderExpressible => {
                cqa_obs::count!("core.classify.fo");
                Box::new(RewritingSolver {
                    plans: plans.clone(),
                })
            }
            ComplexityClass::PolynomialTime(PtimeReason::WeakTerminalCycles) => {
                cqa_obs::count!("core.classify.ptime_terminal_cycle");
                Box::new(TerminalCycleSolver::new(query)?)
            }
            ComplexityClass::PolynomialTime(PtimeReason::CycleQueryAc { .. })
            | ComplexityClass::PolynomialTime(PtimeReason::CycleQueryC { .. }) => {
                cqa_obs::count!("core.classify.ptime_cycle_query");
                Box::new(CycleQuerySolver::new(query)?)
            }
            ComplexityClass::CoNpComplete => {
                cqa_obs::count!("core.classify.conp");
                Box::new(ExactOracle::new(query)?)
            }
            ComplexityClass::OpenConjecturedPtime => {
                cqa_obs::count!("core.classify.open");
                Box::new(ExactOracle::new(query)?)
            }
            ComplexityClass::OutsideAcyclicScope => {
                cqa_obs::count!("core.classify.outside");
                Box::new(ExactOracle::new(query)?)
            }
        };
        Ok(CertaintyEngine {
            class,
            solver,
            plans,
        })
    }

    /// The complexity class computed at construction time (of the frozen
    /// query, for an open one).
    pub fn class(&self) -> &ComplexityClass {
        &self.class
    }

    /// The name of the solver the engine dispatched to.
    pub fn solver_name(&self) -> &'static str {
        self.solver.name()
    }

    /// The engine's compiled plans for `db`: compiled on first use with
    /// `db`'s statistics, and recompiled together once they have drifted.
    pub fn plans(&self, db: &UncertainDatabase) -> Arc<Plans> {
        self.plans.get(db)
    }

    /// True iff the query holds in **some** repair — equivalently, on `db`
    /// itself (conjunctive queries are monotone) — decided by the compiled
    /// join plan.
    pub fn is_possible(&self, db: &UncertainDatabase) -> bool {
        self.plans(db).join.satisfies(db)
    }

    /// Renders the compiled physical plans for the query: the satisfaction
    /// join plan, plus (for the Theorem 1 region) the compiled certain
    /// rewriting.
    pub fn explain(&self, db: &UncertainDatabase) -> String {
        let plans = self.plans(db);
        let mut out = format!(
            "satisfaction plan (db |= q), solver `{}`:\n{}",
            self.solver_name(),
            plans.join.explain()
        );
        if let Some(plan) = &plans.rewriting {
            out.push_str("certain rewriting plan (CERTAINTY(q)):\n");
            out.push_str(&plan.explain());
        }
        out
    }
}

impl CertaintySolver for CertaintyEngine {
    fn name(&self) -> &'static str {
        "engine"
    }

    fn query(&self) -> &ConjunctiveQuery {
        &self.plans.query
    }

    fn decide(&self, db: &UncertainDatabase, params: &[Value]) -> bool {
        self.solver.decide(db, params)
    }

    /// The compiled certain-rewriting plan (the Theorem 1 region) — the plan
    /// [`CertaintySolver::decide`] executes, for callers that trace it.
    /// `None` means the solver decides certainty without a rewriting plan.
    fn rewriting_plan(&self, db: &UncertainDatabase) -> Option<Arc<FoPlan>> {
        self.plans(db).rewriting.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_query::catalog;

    #[test]
    fn engine_dispatches_by_classification() {
        let cases = [
            ("conference", catalog::conference().query, "rewriting"),
            ("fig4", catalog::fig4().query, "terminal-cycles"),
            ("AC(3)", catalog::ac_k(3).query, "cycle-query"),
            ("C(3)", catalog::c_k(3).query, "cycle-query"),
            ("q1", catalog::q1().query, "exact-oracle"),
            ("q0", catalog::q0().query, "exact-oracle"),
        ];
        for (name, q, expected) in cases {
            let engine = CertaintyEngine::new(&q).unwrap();
            assert_eq!(engine.solver_name(), expected, "{name}");
        }
    }

    #[test]
    fn engine_compiles_and_explains_plans() {
        let q = catalog::conference().query;
        let engine = CertaintyEngine::new(&q).unwrap();
        let db = catalog::conference_database();
        // Possible but not certain (Figure 1).
        assert!(engine.is_possible(&db));
        assert!(!engine.is_certain(&db));
        // The plans are compiled once and kept.
        assert!(Arc::ptr_eq(&engine.plans(&db), &engine.plans(&db)));
        let explain = engine.explain(&db);
        assert!(explain.contains("satisfaction plan"), "{explain}");
        assert!(explain.contains("certain rewriting plan"), "{explain}");
        assert!(explain.contains("∀-block"), "{explain}");
        assert!(engine.rewriting_plan(&db).is_some());
        // A coNP-region query has no rewriting plan, but still explains.
        let oracle_engine = CertaintyEngine::new(&catalog::q1().query).unwrap();
        let q1_db = cqa_data::UncertainDatabase::new(catalog::q1().query.schema().clone());
        assert!(oracle_engine.rewriting_plan(&q1_db).is_none());
        let oracle_explain = oracle_engine.explain(&q1_db);
        assert!(oracle_explain.contains("satisfaction plan"));
        assert!(!oracle_explain.contains("certain rewriting plan"));
        // An empty database satisfies nothing, and certainty of a non-empty
        // query fails on it.
        assert!(!oracle_engine.is_certain(&q1_db));
        assert!(!oracle_engine.is_possible(&q1_db));
    }

    /// `core.plans.stale` is process-wide, so the Boolean and the open
    /// query take turns inside one test.
    #[test]
    fn drifted_statistics_recompile_both_plans_together() {
        let boolean = catalog::conference().query;
        let free = vec![cqa_query::Variable::new("x")];
        let atoms = boolean.atoms().to_vec();
        let open = ConjunctiveQuery::with_free_vars(boolean.schema().clone(), atoms, free).unwrap();
        let stale = || (cqa_obs::Registry::global().snapshot()).counter("core.plans.stale");
        for query in [boolean, open] {
            let mut db = catalog::conference_database();
            let engine = CertaintyEngine::new(&query).unwrap();
            let plans = engine.plans(&db);
            assert!(Arc::ptr_eq(&plans, &engine.plans(&db)), "same statistics");
            // Grow R past DRIFT_FACTOR: the slot's two plans recompile
            // against the fresh statistics, as one stale event.
            let before = stale();
            let r = db.schema().relation_id("R").unwrap();
            let count = db.index().statistics().relation(r).fact_count();
            for i in 0..(count * cqa_exec::cache::DRIFT_FACTOR + 1) {
                db.insert_values("R", [format!("conf{i}"), format!("t{i}")])
                    .unwrap();
            }
            let recompiled = engine.plans(&db);
            assert_ne!(plans.stamp, recompiled.stamp, "{query}");
            let rewriting = |plans: &Plans| plans.rewriting.clone().unwrap();
            assert!(!Arc::ptr_eq(&rewriting(&plans), &rewriting(&recompiled)));
            // The new stamp is fresh: no further recompile.
            assert!(Arc::ptr_eq(&recompiled, &engine.plans(&db)));
            assert_eq!(stale() - before, 1);
            // The recompiled plans answer like a fresh engine.
            let candidates = crate::answers::possible_answers(&query, &db).unwrap();
            assert_eq!(recompiled.join.answers(&db), candidates);
            let fresh = CertaintyEngine::new(&query).unwrap();
            for params in &candidates {
                assert_eq!(engine.decide(&db, params), fresh.decide(&db, params));
            }
        }
    }

    #[test]
    fn engine_answers_the_introduction_example() {
        // Figure 1: the query is true in only three of the four repairs, so it
        // is not certain.
        let engine = CertaintyEngine::new(&catalog::conference().query).unwrap();
        let db = catalog::conference_database();
        assert!(!engine.is_certain(&db));
        // Removing the uncertainty about the PODS 2016 city makes it certain.
        let mut certain_db = db.clone();
        let c = certain_db.schema().relation_id("C").unwrap();
        certain_db.remove_fact(&cqa_data::Fact::new(
            c,
            vec![
                cqa_data::Value::str("PODS"),
                cqa_data::Value::str("2016"),
                cqa_data::Value::str("Paris"),
            ],
        ));
        assert!(engine.is_certain(&certain_db));
    }
}
