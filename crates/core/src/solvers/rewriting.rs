//! Certainty via unattacked-atom elimination (the Theorem 1 region).
//!
//! When the attack graph of `q` is acyclic, `CERTAINTY(q)` has a certain
//! first-order rewriting ([Wijsen 2012], restated as Theorem 1). The solver
//! here evaluates that rewriting directly against the database by the
//! recursion the paper uses in the proof of Theorem 3 (Corollary 8.11 of
//! \[23\] combined with Lemma 8):
//!
//! > if `F` is an unattacked atom of `q`, then `db ∈ CERTAINTY(q)` iff there
//! > is a block `b` of `F`'s relation whose key matches `key(F)` such that
//! > **every** fact of `b` matches `F` and, for every fact `A ∈ b`,
//! > `db ∈ CERTAINTY((q \ {F})[vars(F) ↦ A])`.
//!
//! The same recursion, carried out symbolically, produces the explicit
//! first-order formula in [`crate::fo::rewrite`].
//!
//! Since the rewriting is fixed once the query is, the solver **compiles**
//! it: construction builds the open rewriting `φ(x̄)` (`φ_q` for a Boolean
//! query), the first `decide` call lowers it into a [`cqa_exec::FoPlan`]
//! (using the statistics of the database at hand to pick guard atoms), and
//! every later call executes the stamped plan against the database's index
//! snapshot, binding the free variables `x̄` to the call's parameters. The
//! direct recursion is retained as
//! [`RewritingSolver::is_certain_interpreted`] — the reference semantics
//! the compiled plan is property-tested against.
//!
//! The recursion step is also exposed as [`eliminate_unattacked_atom`] so the
//! Theorem 3 solver can reuse it.

use super::{CertaintySolver, PlanSlot};
use crate::attack::AttackGraph;
use crate::fo::{certain_rewriting_open, FoFormula};
use cqa_data::{Block, UncertainDatabase, Value};
use cqa_exec::FoPlan;
use cqa_query::{substitute, AtomId, ConjunctiveQuery, QueryError, Term, Valuation};
use std::sync::Arc;

/// Certainty solver for queries whose attack graph is acyclic.
pub struct RewritingSolver {
    /// The query, its open rewriting and their plans, shared with the engine.
    pub(super) plans: Arc<PlanSlot>,
}

impl RewritingSolver {
    /// Builds the solver. Fails if the query is not self-join free, is
    /// cyclic, or its (frozen) attack graph has a cycle (in which case no
    /// certain first-order rewriting exists, by Theorem 1).
    pub fn new(query: &ConjunctiveQuery) -> Result<Self, QueryError> {
        // `certain_rewriting_open` performs the full precondition ladder
        // (self-join free, acyclic, acyclic attack graph); its `Unsupported`
        // error is produced exactly for a cyclic attack graph, which this
        // solver has always reported as `CyclicQuery`.
        let formula = match certain_rewriting_open(query) {
            Ok(formula) => formula,
            Err(QueryError::Unsupported { .. }) => return Err(QueryError::CyclicQuery),
            Err(other) => return Err(other),
        };
        Ok(RewritingSolver {
            plans: PlanSlot::new(query, Some(formula)),
        })
    }

    /// The certain first-order rewriting this solver evaluates: `φ_q`, or
    /// `φ(x̄)` with the query's free variables free.
    pub fn formula(&self) -> &FoFormula {
        (self.plans.rewriting.as_ref()).expect("a rewriting solver has a rewriting")
    }

    /// The compiled physical plan of the rewriting, compiled on first use
    /// (`db` supplies the statistics that pick guard atoms and columns) and
    /// recompiled once those statistics have drifted.
    pub fn plan(&self, db: &UncertainDatabase) -> Arc<FoPlan> {
        (self.plans.get(db).rewriting.clone()).expect("a rewriting solver compiles its rewriting")
    }

    /// The reference implementation for a Boolean query: the
    /// unattacked-atom elimination recursion, interpreted directly on the
    /// database. The compiled plan must stay observationally identical to
    /// this (and to the generic model checker on `φ_q`);
    /// `tests/properties.rs` enforces it.
    pub fn is_certain_interpreted(&self, db: &UncertainDatabase) -> bool {
        Self::certain(self.query(), db)
    }

    fn certain(query: &ConjunctiveQuery, db: &UncertainDatabase) -> bool {
        if query.is_empty() {
            return true;
        }
        let graph = AttackGraph::build(query).expect("substitution preserves acyclicity");
        let unattacked = graph
            .unattacked_atoms()
            .into_iter()
            .next()
            .expect("acyclic attack graphs have an unattacked atom");
        eliminate_unattacked_atom(query, unattacked, db, &Self::certain)
    }
}

/// One elimination step of the rewriting recursion: see the module
/// documentation. `recurse` decides certainty of the substituted residual
/// query (`(q \ {F})[vars(F) ↦ A]`) on the same database.
///
/// The step is sound for *any* query (the "if" direction of the rule needs no
/// assumptions); it is complete when `atom` is unattacked in an acyclic-
/// attack-graph query, or more generally whenever the paper's Corollary 8.11
/// + Lemma 8 argument applies (e.g. inside the Theorem 3 recursion).
pub fn eliminate_unattacked_atom(
    query: &ConjunctiveQuery,
    atom: AtomId,
    db: &UncertainDatabase,
    recurse: &dyn Fn(&ConjunctiveQuery, &UncertainDatabase) -> bool,
) -> bool {
    let schema = query.schema();
    let f = query.atom(atom);
    let residual = query.without_atom(atom);

    // Only blocks of F's relation can host a witness; when F's key terms are
    // all constants (the recursion grounds key variables, so this is the
    // common case below the top level) the single candidate block is a hash
    // probe away, and otherwise only that relation's blocks are walked.
    let constant_key: Option<Vec<Value>> = f
        .key_terms(schema)
        .iter()
        .map(|t| match t {
            Term::Const(c) => Some(c.clone()),
            Term::Var(_) => None,
        })
        .collect();
    let blocks: Vec<&Block> = match constant_key {
        Some(key) => db.block_with_key(f.relation(), &key).into_iter().collect(),
        None => db.blocks_of(f.relation()).collect(),
    };

    'blocks: for block in blocks {
        // Every fact of the block must match F (constants, repeated
        // variables); collect the induced bindings.
        let mut bindings: Vec<Valuation> = Vec::with_capacity(block.len());
        for fact in block.facts() {
            match Valuation::new().unify_with_fact(f, fact, schema) {
                Some(theta) => bindings.push(theta),
                None => continue 'blocks,
            }
        }
        // For every fact of the block, the residual query grounded with that
        // fact's bindings must itself be certain.
        if bindings
            .iter()
            .all(|theta| recurse(&substitute::ground_with(&residual, theta), db))
        {
            return true;
        }
    }
    false
}

impl CertaintySolver for RewritingSolver {
    fn name(&self) -> &'static str {
        "rewriting"
    }

    fn query(&self) -> &ConjunctiveQuery {
        &self.plans.query
    }

    fn decide(&self, db: &UncertainDatabase, params: &[Value]) -> bool {
        let plan = self.plan(db);
        let prepared = plan.prepare(&db.index());
        if params.is_empty() {
            return prepared.eval();
        }
        prepared.eval_tuples(self.query().free_vars(), &[params.to_vec()])[0]
    }

    fn rewriting_plan(&self, db: &UncertainDatabase) -> Option<Arc<FoPlan>> {
        Some(self.plan(db))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::oracle::ExactOracle;
    use cqa_data::{Schema, UncertainDatabase};
    use cqa_query::catalog;

    #[test]
    fn conference_example_not_certain_then_certain() {
        let q = catalog::conference().query;
        let solver = RewritingSolver::new(&q).unwrap();
        let db = catalog::conference_database();
        assert!(!solver.is_certain(&db));
        let mut fixed = db.clone();
        let c = fixed.schema().relation_id("C").unwrap();
        fixed.remove_fact(&cqa_data::Fact::new(
            c,
            vec![
                cqa_data::Value::str("PODS"),
                cqa_data::Value::str("2016"),
                cqa_data::Value::str("Paris"),
            ],
        ));
        assert!(solver.is_certain(&fixed));
    }

    #[test]
    fn rejects_queries_with_cyclic_attack_graphs() {
        assert!(RewritingSolver::new(&catalog::q1().query).is_err());
        assert!(RewritingSolver::new(&catalog::c2_swap().query).is_err());
        assert!(RewritingSolver::new(&catalog::fo_path3().query).is_ok());
    }

    #[test]
    fn agrees_with_the_oracle_on_path_queries() {
        // Deterministic sweep of small instances of {R(x;y), S(y;z)}.
        let q = catalog::fo_path2().query;
        let solver = RewritingSolver::new(&q).unwrap();
        let oracle = ExactOracle::new(&q).unwrap();
        let schema = q.schema().clone();
        for seed in 0u64..60 {
            let mut db = UncertainDatabase::new(schema.clone());
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            for _ in 0..5 {
                db.insert_values(
                    "R",
                    [format!("a{}", next() % 3), format!("b{}", next() % 3)],
                )
                .unwrap();
                db.insert_values(
                    "S",
                    [format!("b{}", next() % 3), format!("c{}", next() % 2)],
                )
                .unwrap();
            }
            assert_eq!(
                solver.is_certain(&db),
                oracle.is_certain_bruteforce(&db),
                "seed {seed}\n{db}"
            );
        }
    }

    #[test]
    fn agrees_with_the_oracle_on_three_atom_chains() {
        let q = catalog::fo_path3().query;
        let solver = RewritingSolver::new(&q).unwrap();
        let oracle = ExactOracle::new(&q).unwrap();
        let schema = q.schema().clone();
        for seed in 0u64..40 {
            let mut db = UncertainDatabase::new(schema.clone());
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xABCD;
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            for _ in 0..4 {
                db.insert_values(
                    "R",
                    [format!("a{}", next() % 2), format!("b{}", next() % 2)],
                )
                .unwrap();
                db.insert_values(
                    "S",
                    [format!("b{}", next() % 2), format!("c{}", next() % 2)],
                )
                .unwrap();
                db.insert_values(
                    "T",
                    [format!("c{}", next() % 2), format!("d{}", next() % 2)],
                )
                .unwrap();
            }
            assert_eq!(
                solver.is_certain(&db),
                oracle.is_certain_bruteforce(&db),
                "seed {seed}\n{db}"
            );
        }
    }

    #[test]
    fn constants_in_key_positions_are_respected() {
        // q = {R('k'; y), S(y; 'v')}: only the R-block with key 'k' matters.
        let schema = Schema::from_relations([("R", 2, 1), ("S", 2, 1)])
            .unwrap()
            .into_shared();
        let q = ConjunctiveQuery::builder(schema.clone())
            .atom(
                "R",
                [cqa_query::Term::constant("k"), cqa_query::Term::var("y")],
            )
            .atom(
                "S",
                [cqa_query::Term::var("y"), cqa_query::Term::constant("v")],
            )
            .build()
            .unwrap();
        let solver = RewritingSolver::new(&q).unwrap();
        let mut db = UncertainDatabase::new(schema.clone());
        db.insert_values("R", ["k", "b1"]).unwrap();
        db.insert_values("R", ["k", "b2"]).unwrap();
        db.insert_values("S", ["b1", "v"]).unwrap();
        db.insert_values("S", ["b2", "v"]).unwrap();
        assert!(solver.is_certain(&db));
        // Make one of the S rows uncertain about its value: no longer certain.
        db.insert_values("S", ["b2", "w"]).unwrap();
        let oracle = ExactOracle::new(&q).unwrap();
        assert_eq!(solver.is_certain(&db), oracle.is_certain_bruteforce(&db));
        assert!(!solver.is_certain(&db));
    }

    #[test]
    fn compiled_plan_agrees_with_the_interpreted_recursion() {
        let q = catalog::fo_path2().query;
        let solver = RewritingSolver::new(&q).unwrap();
        let schema = q.schema().clone();
        for seed in 0u64..40 {
            let mut db = UncertainDatabase::new(schema.clone());
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) ^ 0x5EED;
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            for _ in 0..5 {
                db.insert_values(
                    "R",
                    [format!("a{}", next() % 3), format!("b{}", next() % 3)],
                )
                .unwrap();
                db.insert_values(
                    "S",
                    [format!("b{}", next() % 3), format!("c{}", next() % 2)],
                )
                .unwrap();
            }
            assert_eq!(
                solver.is_certain(&db),
                solver.is_certain_interpreted(&db),
                "seed {seed}\n{}\n{db}",
                solver.plan(&db).explain()
            );
        }
    }

    #[test]
    fn the_compiled_plan_uses_block_quantified_operators() {
        let q = catalog::conference().query;
        let solver = RewritingSolver::new(&q).unwrap();
        let db = catalog::conference_database();
        let explain = solver.plan(&db).explain();
        assert!(explain.contains("∃-scan"), "{explain}");
        assert!(explain.contains("∀-block"), "{explain}");
        // The plan is compiled once and reused.
        assert!(Arc::ptr_eq(&solver.plan(&db), &solver.plan(&db)));
    }

    #[test]
    fn empty_databases_are_certain_only_for_the_empty_query() {
        let q = catalog::fo_path2().query;
        let solver = RewritingSolver::new(&q).unwrap();
        let empty = UncertainDatabase::new(q.schema().clone());
        assert!(!solver.is_certain(&empty));
        let empty_query = ConjunctiveQuery::boolean(q.schema().clone(), Vec::new()).unwrap();
        let trivial = RewritingSolver::new(&empty_query).unwrap();
        assert!(trivial.is_certain(&empty));
    }
}
