//! Certain-answer solvers, one per region of the tractability frontier.
//!
//! | solver | region | paper |
//! |---|---|---|
//! | [`RewritingSolver`] | acyclic attack graph | Theorem 1 (via the rewriting of [Wijsen 2012]) |
//! | [`TerminalCycleSolver`] | weak terminal cycles | Theorem 3 |
//! | [`CycleQuerySolver`] | `AC(k)` / `C(k)` | Theorem 4, Corollary 1 |
//! | [`TwoAtomSolver`] | two-atom queries | Kolaitis–Pema (used as the Theorem 3 base case) |
//! | [`ExactOracle`] | any query | brute-force / backtracking baseline (coNP region) |
//!
//! [`CertaintyEngine`] classifies the query once and dispatches to the most
//! specific solver; it is the public entry point a downstream user should
//! reach for.

pub mod cycle_query;
pub mod oracle;
pub mod rewriting;
pub mod terminal_cycles;
pub mod two_atom;

pub use cycle_query::CycleQuerySolver;
pub use oracle::ExactOracle;
pub use rewriting::RewritingSolver;
pub use terminal_cycles::TerminalCycleSolver;
pub use two_atom::TwoAtomSolver;

use crate::classify::{classify, Classification, ComplexityClass, PtimeReason};
use cqa_data::UncertainDatabase;
use cqa_exec::{FoPlan, QueryPlan};
use cqa_query::{ConjunctiveQuery, QueryError};
use std::sync::OnceLock;

/// A decision procedure for `CERTAINTY(q)` with the query fixed at
/// construction time (the paper studies data complexity: the query is not
/// part of the input).
pub trait CertaintySolver {
    /// A short human-readable name (used in benchmark output).
    fn name(&self) -> &'static str;

    /// The query this solver answers certainty for.
    fn query(&self) -> &ConjunctiveQuery;

    /// True iff **every repair** of `db` satisfies the query.
    fn is_certain(&self, db: &UncertainDatabase) -> bool;

    /// The compiled physical plan the solver executes, rendered for
    /// `explain` output — `None` for solvers that do not compile one.
    fn explain_plan(&self, _db: &UncertainDatabase) -> Option<String> {
        None
    }

    /// The compiled certain-rewriting plan the solver evaluates, when it
    /// has one (the Theorem 1 region), so a caller can prepare it with a
    /// trace sink or a pinned [`cqa_exec::ExecMode`]; solvers without a
    /// rewriting plan return `None`.
    fn rewriting_plan(&self, _db: &UncertainDatabase) -> Option<&FoPlan> {
        None
    }
}

/// The automatic solver: classifies the query and picks the best algorithm.
///
/// The engine also owns the compiled satisfaction plan of the query (the
/// [`QueryPlan`] deciding `db |= q`, which is the "possible" side of
/// certainty by monotonicity), compiled once on first use and cached.
pub struct CertaintyEngine {
    classification: Classification,
    solver: Box<dyn CertaintySolver + Send + Sync>,
    satisfaction_plan: OnceLock<QueryPlan>,
}

impl CertaintyEngine {
    /// Classifies `query` and builds the most specific applicable solver.
    ///
    /// This is the front door of the crate: construction classifies the
    /// query once (data complexity: the query is fixed, the data varies),
    /// and every later [`CertaintyEngine::is_certain`] call runs the most
    /// specific solver's compiled plan.
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
        let classification = classify(query)?;
        let solver: Box<dyn CertaintySolver + Send + Sync> = match &classification.class {
            ComplexityClass::FirstOrderExpressible => {
                cqa_obs::count!("core.classify.fo");
                Box::new(RewritingSolver::new(query)?)
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
            classification,
            solver,
            satisfaction_plan: OnceLock::new(),
        })
    }

    /// The classification computed at construction time.
    pub fn classification(&self) -> &Classification {
        &self.classification
    }

    /// The name of the solver the engine dispatched to.
    pub fn solver_name(&self) -> &'static str {
        self.solver.name()
    }

    /// The compiled join plan deciding `db |= q`, compiled on first use
    /// (with `db`'s statistics) and cached on the engine.
    pub fn satisfaction_plan(&self, db: &UncertainDatabase) -> &QueryPlan {
        self.satisfaction_plan.get_or_init(|| {
            let index = db.index();
            QueryPlan::compile(self.solver.query(), Some(index.statistics()))
        })
    }

    /// True iff the query holds in **some** repair — equivalently, on `db`
    /// itself (conjunctive queries are monotone) — decided by the compiled
    /// satisfaction plan.
    pub fn is_possible(&self, db: &UncertainDatabase) -> bool {
        self.satisfaction_plan(db).satisfies(db)
    }

    /// The compiled certain-rewriting plan of the dispatched solver, when
    /// it has one (the Theorem 1 region; `db` supplies the statistics on
    /// first use) — the plan [`CertaintyEngine::is_certain`] executes, for
    /// callers that trace it or pin its [`cqa_exec::ExecMode`]. `None`
    /// means the solver decides certainty without a rewriting plan.
    pub fn rewriting_plan(&self, db: &UncertainDatabase) -> Option<&FoPlan> {
        self.solver.rewriting_plan(db)
    }

    /// Renders the compiled physical plans for the query: the satisfaction
    /// join plan, plus the solver's own plan (for the Theorem 1 region, the
    /// compiled certain rewriting).
    pub fn explain(&self, db: &UncertainDatabase) -> String {
        let mut out = format!(
            "satisfaction plan (db |= q), solver `{}`:\n{}",
            self.solver_name(),
            self.satisfaction_plan(db).explain()
        );
        if let Some(plan) = self.solver.explain_plan(db) {
            out.push_str("certain rewriting plan (CERTAINTY(q)):\n");
            out.push_str(&plan);
        }
        out
    }
}

impl CertaintySolver for CertaintyEngine {
    fn name(&self) -> &'static str {
        "engine"
    }

    fn query(&self) -> &ConjunctiveQuery {
        self.solver.query()
    }

    fn is_certain(&self, db: &UncertainDatabase) -> bool {
        self.solver.is_certain(db)
    }

    fn rewriting_plan(&self, db: &UncertainDatabase) -> Option<&FoPlan> {
        self.solver.rewriting_plan(db)
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
        // The satisfaction plan is compiled once and cached.
        assert!(std::ptr::eq(
            engine.satisfaction_plan(&db),
            engine.satisfaction_plan(&db)
        ));
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
