//! Model checking of first-order formulas over uncertain databases.
//!
//! An uncertain database is, in particular, an ordinary finite relational
//! structure; a certain rewriting `φ_q` is evaluated over that structure
//! (not over repairs). Quantifiers range over the active domain — the usual
//! semantics for domain-independent rewritings such as the ones produced by
//! [`crate::fo::rewrite`].

use super::FoFormula;
use cqa_data::{DatabaseIndex, Fact, FxHashMap, PositionSet, UncertainDatabase, Value};
use cqa_query::{Term, Variable};
use std::sync::Arc;

/// A variable assignment used during evaluation.
pub type Environment = FxHashMap<Variable, Value>;

fn eval_term(term: &Term, env: &Environment) -> Option<Value> {
    match term {
        Term::Const(c) => Some(c.clone()),
        Term::Var(v) => env.get(v).cloned(),
    }
}

/// Evaluates `formula` over `db` under the (possibly empty) assignment `env`.
///
/// Free variables of the formula must be bound by `env`; unbound variables
/// make atoms and equalities evaluate to `false` (the formulas produced by
/// [`crate::fo::rewrite`] are sentences, so this never triggers for them).
pub fn evaluate(formula: &FoFormula, db: &UncertainDatabase, env: &Environment) -> bool {
    let index = db.index();
    let mut scratch = env.clone();
    let mut domains = DomainCache::default();
    eval_rec(formula, db, &index, &mut scratch, &mut domains)
}

/// Memoizes [`restricted_domain`] per quantifier body and variable for the
/// duration of one [`evaluate`] call: the restriction depends only on the
/// formula node and the index snapshot, but a node under an outer quantifier
/// is visited once per outer binding. Keyed by the body's address, which is
/// stable while the formula is borrowed.
type DomainCache = FxHashMap<(usize, Variable), Option<Arc<Vec<Value>>>>;

/// Evaluates the sentence (no free variables) over the database.
pub fn evaluate_sentence(formula: &FoFormula, db: &UncertainDatabase) -> bool {
    evaluate(formula, db, &Environment::default())
}

fn eval_rec(
    formula: &FoFormula,
    db: &UncertainDatabase,
    index: &DatabaseIndex,
    env: &mut Environment,
    domains: &mut DomainCache,
) -> bool {
    match formula {
        FoFormula::True => true,
        FoFormula::False => false,
        FoFormula::Atom { relation, terms } => {
            let values: Option<Vec<Value>> = terms.iter().map(|t| eval_term(t, env)).collect();
            match values {
                Some(values) => db.contains(&Fact::new(*relation, values)),
                None => false,
            }
        }
        FoFormula::Equals(a, b) => match (eval_term(a, env), eval_term(b, env)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        },
        FoFormula::Not(inner) => !eval_rec(inner, db, index, env, domains),
        FoFormula::And(parts) => parts.iter().all(|p| eval_rec(p, db, index, env, domains)),
        FoFormula::Or(parts) => parts.iter().any(|p| eval_rec(p, db, index, env, domains)),
        FoFormula::Implies(a, b) => {
            !eval_rec(a, db, index, env, domains) || eval_rec(b, db, index, env, domains)
        }
        FoFormula::Exists(vars, body) => quantify(vars, body, db, index, env, domains, true),
        FoFormula::Forall(vars, body) => !quantify(vars, body, db, index, env, domains, false),
    }
}

/// Collects the relational atoms that must hold whenever `formula` holds:
/// the formula itself, the conjuncts of top-level conjunctions, and (for
/// constraining *outer* variables) the bodies of nested existentials, minus
/// variables those existentials shadow. Negated or disjunctive contexts are
/// not descended into.
fn necessary_atoms<'f>(
    formula: &'f FoFormula,
    shadowed: &mut Vec<&'f Variable>,
    out: &mut Vec<(&'f FoFormula, Vec<&'f Variable>)>,
) {
    match formula {
        FoFormula::Atom { .. } => out.push((formula, shadowed.clone())),
        FoFormula::And(parts) => {
            for p in parts {
                necessary_atoms(p, shadowed, out);
            }
        }
        FoFormula::Exists(vars, body) => {
            let before = shadowed.len();
            shadowed.extend(vars.iter());
            necessary_atoms(body, shadowed, out);
            shadowed.truncate(before);
        }
        _ => {}
    }
}

/// The values a quantified variable can take while satisfying `body`: if the
/// variable occurs (unshadowed) in an atom that is necessary for `body`, its
/// value must appear in the corresponding column of that relation, so the
/// distinct values of that column — served by the single-position index —
/// replace the full active domain. Returns `None` when no such occurrence
/// exists (fall back to the active domain).
fn restricted_domain(
    var: &Variable,
    body: &FoFormula,
    index: &DatabaseIndex,
) -> Option<Vec<Value>> {
    let mut atoms = Vec::new();
    necessary_atoms(body, &mut Vec::new(), &mut atoms);
    // Select the smallest column first; only the winner is materialized.
    let mut best: Option<std::sync::Arc<cqa_data::PositionIndex>> = None;
    for (atom, shadowed) in &atoms {
        if shadowed.contains(&var) {
            continue;
        }
        let FoFormula::Atom { relation, terms } = atom else {
            continue;
        };
        for (pos, term) in terms.iter().enumerate().take(PositionSet::MAX_POSITIONS) {
            if term.as_var() != Some(var) {
                continue;
            }
            let column = index.position_index(*relation, PositionSet::single(pos));
            if best
                .as_ref()
                .is_none_or(|b| column.key_count() < b.key_count())
            {
                best = Some(column);
            }
        }
    }
    // A single-position key is the code itself.
    best.map(|column| {
        let dictionary = index.dictionary();
        (column.keys())
            .map(|key| dictionary.value(key as u32).clone())
            .collect()
    })
}

/// Iterates assignments of `vars` over their candidate domains. With
/// `looking_for = true` returns true iff some assignment satisfies `body`
/// (∃); with `false`, returns true iff some assignment *falsifies* it
/// (so that `Forall` is the negation of the result).
///
/// For the satisfying direction each variable's range is restricted to the
/// column values of an atom the body cannot hold without
/// ([`restricted_domain`]); the falsifying direction must consider the whole
/// active domain.
#[allow(clippy::too_many_arguments)]
fn quantify(
    vars: &[Variable],
    body: &FoFormula,
    db: &UncertainDatabase,
    index: &DatabaseIndex,
    env: &mut Environment,
    cache: &mut DomainCache,
    looking_for: bool,
) -> bool {
    let full_domain = index.active_domain();
    if full_domain.is_empty() {
        // Empty active domain: ∃ is false, ∀ is true.
        return false;
    }
    // `None` means "the full active domain" — borrowed from the snapshot
    // rather than cloned, since unrestricted variables are the common case.
    // Restrictions are memoized per (body, variable): a quantifier nested
    // under another is visited once per outer binding with the same result.
    let body_key = body as *const FoFormula as usize;
    let domains: Vec<Option<Arc<Vec<Value>>>> = vars
        .iter()
        .map(|v| {
            if !looking_for {
                return None;
            }
            cache
                .entry((body_key, v.clone()))
                .or_insert_with(|| restricted_domain(v, body, index).map(Arc::new))
                .clone()
        })
        .collect();
    #[allow(clippy::too_many_arguments)]
    fn rec(
        vars: &[Variable],
        domains: &[Option<Arc<Vec<Value>>>],
        full_domain: &[Value],
        body: &FoFormula,
        db: &UncertainDatabase,
        index: &DatabaseIndex,
        env: &mut Environment,
        cache: &mut DomainCache,
        looking_for: bool,
    ) -> bool {
        match vars.split_first() {
            None => eval_rec(body, db, index, env, cache) == looking_for,
            Some((v, rest)) => {
                let domain: &[Value] = match &domains[0] {
                    Some(restricted) => restricted,
                    None => full_domain,
                };
                for value in domain {
                    let previous = env.insert(v.clone(), value.clone());
                    let found = rec(
                        rest,
                        &domains[1..],
                        full_domain,
                        body,
                        db,
                        index,
                        env,
                        cache,
                        looking_for,
                    );
                    match previous {
                        Some(p) => {
                            env.insert(v.clone(), p);
                        }
                        None => {
                            env.remove(v);
                        }
                    }
                    if found {
                        return true;
                    }
                }
                false
            }
        }
    }
    rec(
        vars,
        &domains,
        full_domain,
        body,
        db,
        index,
        env,
        cache,
        looking_for,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_data::Schema;

    fn db() -> UncertainDatabase {
        let schema = Schema::from_relations([("R", 2, 1)]).unwrap().into_shared();
        let mut db = UncertainDatabase::new(schema);
        db.insert_values("R", ["a", "1"]).unwrap();
        db.insert_values("R", ["a", "2"]).unwrap();
        db.insert_values("R", ["b", "1"]).unwrap();
        db
    }

    fn r(db: &UncertainDatabase) -> cqa_data::RelationId {
        db.schema().relation_id("R").unwrap()
    }

    #[test]
    fn atoms_and_equalities() {
        let db = db();
        let rel = r(&db);
        let present = FoFormula::atom(rel, vec![Term::constant("a"), Term::constant("1")]);
        let absent = FoFormula::atom(rel, vec![Term::constant("b"), Term::constant("2")]);
        assert!(evaluate_sentence(&present, &db));
        assert!(!evaluate_sentence(&absent, &db));
        assert!(evaluate_sentence(
            &FoFormula::Equals(Term::constant("x"), Term::constant("x")),
            &db
        ));
        assert!(!evaluate_sentence(
            &FoFormula::Equals(Term::constant("x"), Term::constant("y")),
            &db
        ));
    }

    #[test]
    fn quantifiers_range_over_the_active_domain() {
        let db = db();
        let rel = r(&db);
        // ∃x R(x, '1') — true (x = a or b).
        let exists = FoFormula::exists(
            vec![Variable::new("x")],
            FoFormula::atom(rel, vec![Term::var("x"), Term::constant("1")]),
        );
        assert!(evaluate_sentence(&exists, &db));
        // ∀x (R(x,'1') → R(x,'2')) — false (b has no 2).
        let forall = FoFormula::forall(
            vec![Variable::new("x")],
            FoFormula::Implies(
                Box::new(FoFormula::atom(
                    rel,
                    vec![Term::var("x"), Term::constant("1")],
                )),
                Box::new(FoFormula::atom(
                    rel,
                    vec![Term::var("x"), Term::constant("2")],
                )),
            ),
        );
        assert!(!evaluate_sentence(&forall, &db));
        // ∀x (R(x,'2') → R(x,'1')) — true (only a has 2, and R(a,1) holds).
        let forall2 = FoFormula::forall(
            vec![Variable::new("x")],
            FoFormula::Implies(
                Box::new(FoFormula::atom(
                    rel,
                    vec![Term::var("x"), Term::constant("2")],
                )),
                Box::new(FoFormula::atom(
                    rel,
                    vec![Term::var("x"), Term::constant("1")],
                )),
            ),
        );
        assert!(evaluate_sentence(&forall2, &db));
    }

    #[test]
    fn connectives() {
        let db = db();
        assert!(evaluate_sentence(
            &FoFormula::Or(vec![FoFormula::False, FoFormula::True]),
            &db
        ));
        assert!(!evaluate_sentence(
            &FoFormula::And(vec![FoFormula::False, FoFormula::True]),
            &db
        ));
        assert!(evaluate_sentence(
            &FoFormula::Not(Box::new(FoFormula::False)),
            &db
        ));
        assert!(evaluate_sentence(
            &FoFormula::Implies(Box::new(FoFormula::False), Box::new(FoFormula::False)),
            &db
        ));
    }

    #[test]
    fn empty_database_semantics() {
        let schema = Schema::from_relations([("R", 2, 1)]).unwrap().into_shared();
        let empty = UncertainDatabase::new(schema);
        let rel = empty.schema().relation_id("R").unwrap();
        let exists = FoFormula::exists(
            vec![Variable::new("x")],
            FoFormula::atom(rel, vec![Term::var("x"), Term::var("x")]),
        );
        let forall = FoFormula::forall(vec![Variable::new("x")], FoFormula::False);
        assert!(!evaluate_sentence(&exists, &empty));
        assert!(
            evaluate_sentence(&forall, &empty),
            "∀ over empty domain is true"
        );
    }
}
