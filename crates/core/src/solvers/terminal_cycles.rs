//! The Theorem 3 solver: weak, terminal attack cycles.
//!
//! If every cycle of the attack graph is weak **and terminal** (no attack
//! leaves a cycle), then `CERTAINTY(q)` is in P. The algorithm follows the
//! proof of Theorem 3:
//!
//! 1. purify the database (Lemma 1);
//! 2. while some atom is unattacked, eliminate it exactly as in the
//!    first-order rewriting (Corollary 8.11 of [Wijsen 2012] + Lemma 8);
//!    by Lemma 5 the substituted residual query still has only weak terminal
//!    cycles;
//! 3. otherwise every atom lies on a cycle; by Lemma 6 the attack graph is a
//!    disjoint union of weak 2-cycles `F_i ⇄ G_i`. Partition the facts of
//!    each pair of relations by the values of the variables shared with the
//!    other cycles (which, by Lemma 7, sit inside both keys), decide each
//!    partition for the pair's two-atom query, keep the certain partitions
//!    (`⌈db_i⌉` in the paper's notation), and finally check whether their
//!    union satisfies `q` (Sublemma 5).
//!
//! The paper decides a partition with Kolaitis and Pema's two-atom
//! algorithm (maximum independent set in a claw-free graph, Minty). Here a
//! partition is decided by the crate's shared falsifying-repair search
//! (the `falsify` module), the one [`ExactOracle`](super::ExactOracle)
//! runs: exact, but not worst-case polynomial (see `DESIGN.md`,
//! "Substitutions and scope").

use super::{
    falsify::falsifying_repair, ground, rewriting::eliminate_unattacked_atom, CertaintySolver,
};
use crate::attack::{AttackGraph, CycleAnalysis};
use crate::classify::frozen;
use crate::purify::purify;
use cqa_data::{Fact, FxHashMap, UncertainDatabase, Value};
use cqa_exec::QueryPlan;
use cqa_query::{ConjunctiveQuery, QueryError, Valuation, Variable};
use std::collections::BTreeSet;

/// Certainty solver for queries whose attack cycles are all weak and terminal.
pub struct TerminalCycleSolver {
    query: ConjunctiveQuery,
}

impl TerminalCycleSolver {
    /// Builds the solver. Fails if the query has self-joins or is cyclic,
    /// or if its (frozen) attack graph has a strong or non-terminal cycle
    /// (in which case Theorem 3 does not apply).
    pub fn new(query: &ConjunctiveQuery) -> Result<Self, QueryError> {
        query.require_self_join_free()?;
        let graph = AttackGraph::build(&frozen(query))?;
        let cycles = CycleAnalysis::analyze(&graph);
        if cycles.has_strong_cycle() || !cycles.all_cycles_terminal() {
            return Err(QueryError::CyclicQuery);
        }
        Ok(TerminalCycleSolver {
            query: query.clone(),
        })
    }

    fn certain(query: &ConjunctiveQuery, db: &UncertainDatabase) -> bool {
        if query.is_empty() {
            return true;
        }
        let db = purify(db, query);
        if db.is_empty() {
            return false;
        }
        let graph = AttackGraph::build(query)
            .expect("substitution and atom removal preserve acyclicity (Lemma 5)");
        if let Some(unattacked) = graph.unattacked_atoms().into_iter().next() {
            return eliminate_unattacked_atom(query, unattacked, &db, &Self::certain);
        }
        Self::base_case(query, &graph, &db)
    }

    /// Base case: every atom is attacked, so the attack graph is a disjoint
    /// union of weak 2-cycles (Lemma 6).
    fn base_case(query: &ConjunctiveQuery, graph: &AttackGraph, db: &UncertainDatabase) -> bool {
        let cycles = CycleAnalysis::analyze(graph);
        debug_assert!(cycles.all_cycles_weak() && cycles.all_cycles_terminal());
        let pairs = cycles.two_cycles();
        debug_assert_eq!(
            pairs
                .iter()
                .flat_map(|&(a, b)| [a, b])
                .collect::<BTreeSet<_>>()
                .len(),
            query.len(),
            "every atom lies on exactly one 2-cycle in the base case"
        );

        let mut kept_union: Vec<Fact> = Vec::new();
        for (idx, &(a, b)) in pairs.iter().enumerate() {
            let pair_query = query.restricted_to(&[a, b]);
            // Variables of this pair that also occur in some other pair
            // (the paper's x̄_i); by Lemma 7 they lie in both keys.
            let own_vars = pair_query.vars();
            let shared: Vec<Variable> = own_vars
                .iter()
                .filter(|v| {
                    pairs.iter().enumerate().any(|(j, &(c, d))| {
                        j != idx && (query.atom(c).contains_var(v) || query.atom(d).contains_var(v))
                    })
                })
                .cloned()
                .collect();

            // Partition the pair's facts by the value vector of the shared
            // variables, visiting only the two relations of the pair through
            // the index (the database also holds the other pairs' facts).
            let index = db.index();
            let mut partitions: FxHashMap<Vec<Value>, Vec<Fact>> = FxHashMap::default();
            for atom in [pair_query.atom(0), pair_query.atom(1)] {
                for fact in index.relation_facts(atom.relation()) {
                    let theta = Valuation::new()
                        .unify_with_fact(atom, fact, query.schema())
                        .expect("purified facts match their atom");
                    let vector = theta
                        .project(&shared)
                        .expect("shared variables occur in both atoms of the pair");
                    partitions.entry(vector).or_default().push(fact.clone());
                }
            }

            // ⌈db_i⌉: the union of the partitions that are certain for the pair query.
            for (_, facts) in partitions {
                let partition_db = db.with_facts(facts.iter().cloned());
                if falsifying_repair(&partition_db, &pair_query).is_none() {
                    kept_union.extend(facts);
                }
            }
        }

        // Sublemma 5: db ∈ CERTAINTY(q) iff the union of the kept partitions
        // satisfies q.
        let union_db = db.with_facts(kept_union);
        let index = union_db.index();
        QueryPlan::compile(query, Some(index.statistics()))
            .prepare(&index)
            .satisfies()
    }
}

impl CertaintySolver for TerminalCycleSolver {
    fn name(&self) -> &'static str {
        "terminal-cycles"
    }

    fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    fn decide(&self, db: &UncertainDatabase, params: &[Value]) -> bool {
        Self::certain(&ground(&self.query, params), db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::oracle::ExactOracle;
    use cqa_query::catalog;

    #[test]
    fn applicability_matches_the_classification() {
        assert!(TerminalCycleSolver::new(&catalog::fig4().query).is_ok());
        assert!(TerminalCycleSolver::new(&catalog::c2_swap().query).is_ok());
        // Acyclic attack graphs are fine too (no cycles at all).
        assert!(TerminalCycleSolver::new(&catalog::fo_path2().query).is_ok());
        // Strong cycles and non-terminal cycles are rejected.
        assert!(TerminalCycleSolver::new(&catalog::q1().query).is_err());
        assert!(TerminalCycleSolver::new(&catalog::ac_k(3).query).is_err());
    }

    #[test]
    fn c2_matches_brute_force() {
        let q = catalog::c2_swap().query;
        let solver = TerminalCycleSolver::new(&q).unwrap();
        let oracle = ExactOracle::new(&q).unwrap();
        let schema = q.schema().clone();
        for seed in 0u64..60 {
            let mut db = UncertainDatabase::new(schema.clone());
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(3);
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            for _ in 0..(2 + seed as usize % 6) {
                db.insert_values(
                    "R1",
                    [format!("a{}", next() % 3), format!("b{}", next() % 3)],
                )
                .unwrap();
                db.insert_values(
                    "R2",
                    [format!("b{}", next() % 3), format!("a{}", next() % 3)],
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

    /// Random small instances for the Figure 4 query, checked against brute force.
    #[test]
    fn fig4_matches_brute_force_on_small_instances() {
        let q = catalog::fig4().query;
        let solver = TerminalCycleSolver::new(&q).unwrap();
        let oracle = ExactOracle::new(&q).unwrap();
        let schema = q.schema().clone();
        for seed in 0u64..25 {
            let mut db = UncertainDatabase::new(schema.clone());
            let mut state = seed.wrapping_mul(0x853C49E6748FEA9B).wrapping_add(13);
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            // Small domains keep the repair space enumerable for brute force.
            for _ in 0..3 {
                let x = format!("x{}", next() % 2);
                let y = format!("y{}", next() % 2);
                let z = format!("z{}", next() % 2);
                let u1 = format!("u{}", next() % 2);
                let u2 = format!("v{}", next() % 2);
                db.insert_values("R1", [x.clone(), u1.clone(), u2.clone(), z.clone()])
                    .unwrap();
                db.insert_values("R2", [x.clone(), u2.clone(), u1.clone(), z.clone()])
                    .unwrap();
                let u3 = format!("p{}", next() % 2);
                let u4 = format!("q{}", next() % 2);
                db.insert_values("R3", [x.clone(), y.clone(), u3.clone(), u4.clone()])
                    .unwrap();
                db.insert_values("R4", [x.clone(), y.clone(), u4, u3])
                    .unwrap();
                let u5 = format!("s{}", next() % 2);
                let u6 = format!("t{}", next() % 2);
                db.insert_values("R5", [y.clone(), u5.clone(), u6.clone()])
                    .unwrap();
                db.insert_values("R6", [y, u6, u5]).unwrap();
            }
            assert_eq!(
                solver.is_certain(&db),
                oracle.is_certain_bruteforce(&db),
                "seed {seed}\n{db}"
            );
        }
    }

    #[test]
    fn fig4_planted_certain_instance() {
        // A single fully consistent match is certainly satisfied.
        let q = catalog::fig4().query;
        let solver = TerminalCycleSolver::new(&q).unwrap();
        let schema = q.schema().clone();
        let mut db = UncertainDatabase::new(schema);
        db.insert_values("R1", ["x", "u1", "u2", "z"]).unwrap();
        db.insert_values("R2", ["x", "u2", "u1", "z"]).unwrap();
        db.insert_values("R3", ["x", "y", "u3", "u4"]).unwrap();
        db.insert_values("R4", ["x", "y", "u4", "u3"]).unwrap();
        db.insert_values("R5", ["y", "u5", "u6"]).unwrap();
        db.insert_values("R6", ["y", "u6", "u5"]).unwrap();
        assert!(solver.is_certain(&db));
        // Insert a conflicting R6 tuple that breaks the join: not certain any more.
        db.insert_values("R6", ["y", "u6", "other"]).unwrap();
        assert!(!solver.is_certain(&db));
    }
}
