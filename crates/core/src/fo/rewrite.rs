//! Construction of the certain first-order rewriting `φ_q` (Theorem 1).
//!
//! For a query whose attack graph is acyclic, a certain rewriting is obtained
//! by repeatedly eliminating an unattacked atom `F = R(x̄, ȳ)`:
//!
//! ```text
//! φ_q  =  ∃ vars(F) [ R(x̄, ȳ)  ∧  ∀ w̄ ( R(x̄, w̄) → ( ȳ-pattern holds on w̄  ∧  φ_{(q∖{F})[ȳ ↦ w̄]} ) ) ]
//! ```
//!
//! i.e. *some* block of `R` matches the key pattern and **every** fact of
//! that block both matches the remaining pattern of `F` and makes the rest of
//! the query certain. This is the syntactic counterpart of the recursion in
//! [`crate::solvers::RewritingSolver`]; the test suite checks that evaluating
//! the formula with the generic model checker gives the same answers as the
//! solver and as the brute-force oracle.

use super::FoFormula;
use crate::attack::AttackGraph;
use crate::classify::{freeze, frozen};
use cqa_data::FxHashMap;
use cqa_query::{Atom, ConjunctiveQuery, QueryError, Term, Variable};

/// Builds the certain first-order rewriting of `query`.
///
/// Fails if the query is not Boolean, has a self-join, is cyclic, or its
/// attack graph has a cycle (Theorem 1: no certain rewriting exists then).
pub fn certain_rewriting(query: &ConjunctiveQuery) -> Result<FoFormula, QueryError> {
    query.require_boolean()?;
    certain_rewriting_open(query)
}

/// Builds an **open** certain rewriting `φ(x̄)` for a query with free
/// variables `x̄`: for every tuple `t` over the active domain,
/// `φ(x̄)[x̄ ↦ t]` is a certain rewriting of the ground query `q[x̄ ↦ t]` —
/// so `t` is a certain answer iff `φ(x̄)` holds under `x̄ ↦ t`.
///
/// The recursion of [`certain_rewriting`] already treats enclosing-quantifier
/// variables as opaque constants; seeding it with the free variables yields
/// the open formula. This is sound for *every* tuple `t` at once because the
/// attack graph — and with it the unattacked-atom elimination order — depends
/// only on the variable structure: constants never participate in keys or
/// attacks, so `q[x̄ ↦ t]` has the same attack graph for all `t` (including
/// tuples with repeated components; a self-join-free query has no two atoms
/// that could collapse under the substitution).
///
/// Fails if the query has a self-join, is cyclic, or the attack graph of the
/// frozen (Boolean) query has a cycle. On a Boolean query this is
/// [`certain_rewriting`].
pub fn certain_rewriting_open(query: &ConjunctiveQuery) -> Result<FoFormula, QueryError> {
    query.require_self_join_free()?;
    // FO-expressibility check on the frozen query (free variables become
    // placeholder constants, the `q[x̄ ↦ ā]` substitution of Lemma 5).
    let graph = AttackGraph::build(&frozen(query))?;
    if !graph.is_acyclic() {
        return Err(QueryError::Unsupported {
            reason: "the attack graph has a cycle: CERTAINTY(q) is not first-order expressible \
                     (Theorem 1)"
                .into(),
        });
    }
    Ok(open_rewriting(query))
}

/// The open rewriting `φ(x̄)` of a query already known to be first-order
/// expressible (its frozen attack graph is acyclic): the
/// [`certain_rewriting_open`] construction without re-checking.
pub(crate) fn open_rewriting(query: &ConjunctiveQuery) -> FoFormula {
    let free = query.free_vars().iter().cloned().collect();
    rewrite(query, &free, &mut 0)
}

fn fresh_var(counter: &mut usize) -> Variable {
    let v = Variable::new(format!("w@{counter}"));
    *counter += 1;
    v
}

/// Renames variables in a query according to `map` (variable-to-variable).
fn rename_query(query: &ConjunctiveQuery, map: &FxHashMap<Variable, Variable>) -> ConjunctiveQuery {
    let atoms: Vec<Atom> = query
        .atoms()
        .iter()
        .map(|a| {
            let terms: Vec<Term> = a
                .terms()
                .iter()
                .map(|t| match t {
                    Term::Var(v) => match map.get(v) {
                        Some(w) => Term::Var(w.clone()),
                        None => t.clone(),
                    },
                    Term::Const(_) => t.clone(),
                })
                .collect();
            Atom::new(a.relation(), terms)
        })
        .collect();
    ConjunctiveQuery::boolean(query.schema().clone(), atoms)
        .expect("renaming preserves well-formedness")
}

/// `bound` holds the variables already quantified by enclosing steps of the
/// rewriting; they occur free in the current subformula and must not be
/// re-quantified.
fn rewrite(
    query: &ConjunctiveQuery,
    bound: &std::collections::BTreeSet<Variable>,
    fresh: &mut usize,
) -> FoFormula {
    if query.is_empty() {
        return FoFormula::True;
    }
    // Choose the next unattacked atom as the *solver* would: variables bound
    // by enclosing quantifiers behave like constants at this point of the
    // recursion, so freeze them before computing the attack graph (this is
    // exactly the `q[x̄ ↦ ā]` substitution of Corollary 8.11 / Lemma 5, with
    // placeholder constants standing in for the unknown ā).
    let frozen = freeze(query, bound);
    let graph = AttackGraph::build(&frozen).expect("rewriting recursion preserves acyclicity");
    let atom_id = graph
        .unattacked_atoms()
        .into_iter()
        .next()
        .expect("acyclic attack graphs have an unattacked atom (Lemma 5)");
    let schema = query.schema().clone();
    let f = query.atom(atom_id).clone();
    let residual = query.without_atom(atom_id);
    let key_len = schema.relation(f.relation()).key_len();
    let key_vars = f.key_vars(&schema);

    // Fresh universally-quantified variables for the non-key positions.
    let mut forall_vars: Vec<Variable> = Vec::new();
    let mut guard_terms: Vec<Term> = f.terms()[..key_len].to_vec();
    let mut equalities: Vec<FoFormula> = Vec::new();
    // Maps single-use non-key variables of F to their fresh replacement.
    let mut replacement: FxHashMap<Variable, Variable> = FxHashMap::default();

    for term in &f.terms()[key_len..] {
        let w = fresh_var(fresh);
        forall_vars.push(w.clone());
        guard_terms.push(Term::Var(w.clone()));
        match term {
            Term::Const(c) => {
                equalities.push(FoFormula::Equals(Term::Var(w), Term::Const(c.clone())));
            }
            Term::Var(v) => {
                if let Some(first) = replacement.get(v) {
                    // Repeated non-key variable: both positions must agree.
                    equalities.push(FoFormula::Equals(Term::Var(w), Term::Var(first.clone())));
                } else if key_vars.contains(v) || bound.contains(v) {
                    // The variable is pinned either by the key part of this
                    // step's ∃ or by an enclosing quantifier.
                    equalities.push(FoFormula::Equals(Term::Var(w), Term::Var(v.clone())));
                } else {
                    replacement.insert(v.clone(), w);
                }
            }
        }
    }

    // Variables in scope for the residual subformula.
    let mut bound_next = bound.clone();
    bound_next.extend(f.vars());
    bound_next.extend(forall_vars.iter().cloned());

    let renamed_residual = rename_query(&residual, &replacement);
    let inner = FoFormula::and(
        equalities
            .into_iter()
            .chain(std::iter::once(rewrite(
                &renamed_residual,
                &bound_next,
                fresh,
            )))
            .collect(),
    );
    let forall = FoFormula::forall(
        forall_vars,
        FoFormula::Implies(
            Box::new(FoFormula::atom(f.relation(), guard_terms)),
            Box::new(inner),
        ),
    );
    let witness = FoFormula::atom(f.relation(), f.terms().to_vec());
    // Quantify only the variables of F that are not already bound outside.
    let exists_vars: Vec<Variable> = f
        .vars()
        .into_iter()
        .filter(|v| !bound.contains(v))
        .collect();
    FoFormula::exists(exists_vars, FoFormula::and(vec![witness, forall]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fo::eval::evaluate_sentence;
    use crate::solvers::{CertaintySolver, ExactOracle, RewritingSolver};
    use cqa_data::UncertainDatabase;
    use cqa_query::catalog;

    #[test]
    fn rejects_non_fo_queries() {
        assert!(certain_rewriting(&catalog::q1().query).is_err());
        assert!(certain_rewriting(&catalog::c2_swap().query).is_err());
        assert!(certain_rewriting(&catalog::ac_k(3).query).is_err());
    }

    #[test]
    fn conference_rewriting_matches_the_solver_and_oracle() {
        let q = catalog::conference().query;
        let formula = certain_rewriting(&q).unwrap();
        let solver = RewritingSolver::new(&q).unwrap();
        let oracle = ExactOracle::new(&q).unwrap();
        let db = catalog::conference_database();
        assert!(!evaluate_sentence(&formula, &db));
        assert!(!solver.is_certain(&db));
        // A certain variant.
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
        assert!(evaluate_sentence(&formula, &fixed));
        assert!(solver.is_certain(&fixed));
        assert!(oracle.is_certain_bruteforce(&fixed));
    }

    #[test]
    fn path2_rewriting_agrees_with_the_oracle_on_a_sweep() {
        let q = catalog::fo_path2().query;
        let formula = certain_rewriting(&q).unwrap();
        let oracle = ExactOracle::new(&q).unwrap();
        let schema = q.schema().clone();
        for seed in 0u64..40 {
            let mut db = UncertainDatabase::new(schema.clone());
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(101);
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
            }
            assert_eq!(
                evaluate_sentence(&formula, &db),
                oracle.is_certain_bruteforce(&db),
                "seed {seed}\n{db}"
            );
        }
    }

    #[test]
    fn rewriting_handles_constants_and_repeated_variables() {
        // q = {R(x; y, y), S(y; 'v')}: non-key repetition and a constant.
        let schema = cqa_data::Schema::from_relations([("R", 3, 1), ("S", 2, 1)])
            .unwrap()
            .into_shared();
        let q = ConjunctiveQuery::builder(schema.clone())
            .atom("R", [Term::var("x"), Term::var("y"), Term::var("y")])
            .atom("S", [Term::var("y"), Term::constant("v")])
            .build()
            .unwrap();
        let formula = certain_rewriting(&q).unwrap();
        let oracle = ExactOracle::new(&q).unwrap();
        let mut db = UncertainDatabase::new(schema);
        db.insert_values("R", ["k", "b", "b"]).unwrap();
        db.insert_values("S", ["b", "v"]).unwrap();
        assert!(evaluate_sentence(&formula, &db));
        assert!(oracle.is_certain_bruteforce(&db));
        // Add a conflicting R fact whose two value columns differ: the block
        // no longer guarantees the repeated-variable pattern.
        db.insert_values("R", ["k", "b", "c"]).unwrap();
        assert_eq!(
            evaluate_sentence(&formula, &db),
            oracle.is_certain_bruteforce(&db)
        );
        assert!(!evaluate_sentence(&formula, &db));
    }

    #[test]
    fn formula_size_grows_with_query_length() {
        let small = certain_rewriting(&catalog::fo_path2().query).unwrap();
        let large = certain_rewriting(&catalog::fo_path3().query).unwrap();
        assert!(large.size() > small.size());
    }
}
