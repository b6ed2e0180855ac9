//! The tractability-frontier classifier.
//!
//! Given a Boolean conjunctive query without self-joins, `classify` places
//! `CERTAINTY(q)` in one of the regions charted by the paper:
//!
//! | attack graph | complexity | source |
//! |---|---|---|
//! | acyclic | first-order expressible (hence in AC⁰ ⊆ P) | Theorem 1 |
//! | strong cycle | coNP-complete | Theorem 2 |
//! | only weak cycles, all terminal | in P, not FO | Theorem 3 |
//! | only weak cycles, some non-terminal, query is `AC(k)` | in P, not FO | Theorem 4 |
//! | only weak cycles, some non-terminal, otherwise | open (conjectured P) | Conjecture 1 |
//!
//! Queries that are not acyclic (no join tree) fall outside the attack-graph
//! framework; the cycle-query family `C(k)` (`k ≥ 3`) is still classified as
//! tractable via Corollary 1, and everything else is reported as
//! [`ComplexityClass::OutsideAcyclicScope`].

use crate::attack::{AttackGraph, CycleAnalysis};
use crate::solvers::cycle_query::{detect_cycle_query, CycleQueryShape};
use cqa_data::{FxHashMap, Value};
use cqa_query::{join_tree, substitute, ConjunctiveQuery, QueryError, Variable};
use std::borrow::Cow;
use std::fmt;

/// Why a non-first-order query is nevertheless tractable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PtimeReason {
    /// All attack-graph cycles are weak and terminal (Theorem 3).
    WeakTerminalCycles,
    /// The query is (isomorphic to) `AC(k)` (Theorem 4).
    CycleQueryAc {
        /// The `k` of `AC(k)`.
        k: usize,
    },
    /// The query is (isomorphic to) `C(k)` with `k ≥ 3` (Corollary 1);
    /// such queries are cyclic, so the attack-graph framework does not apply,
    /// but tractability follows from the Lemma 9 reduction to `AC(k)`.
    CycleQueryC {
        /// The `k` of `C(k)`.
        k: usize,
    },
}

/// The complexity region of `CERTAINTY(q)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ComplexityClass {
    /// The attack graph is acyclic: `CERTAINTY(q)` has a certain first-order
    /// rewriting (Theorem 1).
    FirstOrderExpressible,
    /// In P but (for the attack-graph cases) provably not first-order
    /// expressible.
    PolynomialTime(PtimeReason),
    /// The attack graph has a strong cycle: coNP-complete (Theorem 2).
    CoNpComplete,
    /// Only weak cycles, at least one non-terminal, and the query is not
    /// `AC(k)`: not covered by Theorems 3–4; Conjecture 1 says it is in P.
    OpenConjecturedPtime,
    /// The query is cyclic (no join tree) and not `C(k)`: outside the scope
    /// of the paper's acyclic classification.
    OutsideAcyclicScope,
}

impl fmt::Display for ComplexityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComplexityClass::FirstOrderExpressible => write!(f, "first-order expressible"),
            ComplexityClass::PolynomialTime(reason) => match reason {
                PtimeReason::WeakTerminalCycles => {
                    write!(f, "in P (weak terminal cycles, Theorem 3), not FO")
                }
                PtimeReason::CycleQueryAc { k } => {
                    write!(f, "in P (AC({k}), Theorem 4), not FO")
                }
                PtimeReason::CycleQueryC { k } => {
                    write!(f, "in P (C({k}), Corollary 1)")
                }
            },
            ComplexityClass::CoNpComplete => write!(f, "coNP-complete"),
            ComplexityClass::OpenConjecturedPtime => {
                write!(f, "open (conjectured in P, Conjecture 1)")
            }
            ComplexityClass::OutsideAcyclicScope => {
                write!(f, "outside the acyclic classification")
            }
        }
    }
}

/// The result of classification: the complexity region plus the evidence
/// (attack graph and cycle analysis) it was derived from.
#[derive(Clone, Debug)]
pub struct Classification {
    /// The complexity region.
    pub class: ComplexityClass,
    /// The attack graph, when the query is acyclic.
    pub attack_graph: Option<AttackGraph>,
    /// The cycle analysis of the attack graph, when available.
    pub cycles: Option<CycleAnalysis>,
    /// The detected `C(k)` / `AC(k)` shape, when applicable.
    pub cycle_query_shape: Option<CycleQueryShape>,
}

/// Classifies `CERTAINTY(q)` for a conjunctive query without self-joins.
///
/// An open query is classified as its frozen query, its free variables
/// replaced by placeholder constants: the class of `q[x̄ ↦ ā]` is the same
/// for every tuple `ā` (Lemma 5's substitution), and the evidence returned
/// is the frozen query's. Returns an error for queries
/// with self-joins (the paper's standing assumption).
pub fn classify(query: &ConjunctiveQuery) -> Result<Classification, QueryError> {
    query.require_self_join_free()?;
    let frozen = frozen(query);
    let query: &ConjunctiveQuery = &frozen;

    let shape = detect_cycle_query(query);

    if !join_tree::is_acyclic(query) {
        // Cyclic queries: the attack-graph framework does not apply, but
        // C(k) (k >= 3) is covered by Corollary 1.
        let class = match &shape {
            Some(s) if s.s_atom.is_none() => {
                ComplexityClass::PolynomialTime(PtimeReason::CycleQueryC { k: s.k })
            }
            _ => ComplexityClass::OutsideAcyclicScope,
        };
        return Ok(Classification {
            class,
            attack_graph: None,
            cycles: None,
            cycle_query_shape: shape,
        });
    }

    let attack_graph = AttackGraph::build(query)?;
    let cycles = CycleAnalysis::analyze(&attack_graph);

    let class = if !cycles.has_cycle() {
        ComplexityClass::FirstOrderExpressible
    } else if cycles.has_strong_cycle() {
        ComplexityClass::CoNpComplete
    } else if cycles.all_cycles_terminal() {
        ComplexityClass::PolynomialTime(PtimeReason::WeakTerminalCycles)
    } else if let Some(s) = shape.as_ref().filter(|s| s.s_atom.is_some()) {
        ComplexityClass::PolynomialTime(PtimeReason::CycleQueryAc { k: s.k })
    } else {
        ComplexityClass::OpenConjecturedPtime
    };

    Ok(Classification {
        class,
        attack_graph: Some(attack_graph),
        cycles: Some(cycles),
        cycle_query_shape: shape,
    })
}

/// `q[v̄ ↦ ⟂]`: Lemma 5's substitution `q[v̄ ↦ ā]` with placeholder
/// constants for the unknown `ā`. Attacks, acyclicity and the `C(k)` /
/// `AC(k)` shape depend only on which positions hold constants, so the
/// result has the attack graph and the class of every grounding of `v̄`.
pub(crate) fn freeze<'v>(
    query: &ConjunctiveQuery,
    vars: impl IntoIterator<Item = &'v Variable>,
) -> ConjunctiveQuery {
    let placeholders: FxHashMap<Variable, Value> = (vars.into_iter())
        .map(|v| (v.clone(), Value::str(format!("⟂frozen:{v}"))))
        .collect();
    substitute::substitute_map(query, &placeholders)
}

/// The Boolean query an open query is classified as: its free variables
/// frozen to placeholder constants (`'⟂frozen:x'` for `x`), which by
/// Lemma 5 gives it the attack graph and the class of every grounding. A
/// Boolean query is its own frozen query.
pub fn frozen(query: &ConjunctiveQuery) -> Cow<'_, ConjunctiveQuery> {
    if query.is_boolean() {
        Cow::Borrowed(query)
    } else {
        Cow::Owned(freeze(query, query.free_vars()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_query::catalog;

    fn class_of(q: &ConjunctiveQuery) -> ComplexityClass {
        classify(q).unwrap().class
    }

    #[test]
    fn theorem1_region() {
        assert_eq!(
            class_of(&catalog::conference().query),
            ComplexityClass::FirstOrderExpressible
        );
        assert_eq!(
            class_of(&catalog::fo_path2().query),
            ComplexityClass::FirstOrderExpressible
        );
        assert_eq!(
            class_of(&catalog::fo_path3().query),
            ComplexityClass::FirstOrderExpressible
        );
        // An open query is classified as its frozen query: Figure 1's
        // `which(x)`, and the swap query with one end free, whose frozen
        // query keeps only one of the two attacks.
        for q in [catalog::conference().query, catalog::c2_swap().query] {
            let first = q.vars().into_iter().next().unwrap();
            let atoms = q.atoms().to_vec();
            let open = ConjunctiveQuery::with_free_vars(q.schema().clone(), atoms, vec![first]);
            assert_eq!(
                class_of(&open.unwrap()),
                ComplexityClass::FirstOrderExpressible
            );
        }
    }

    #[test]
    fn theorem2_region() {
        assert_eq!(
            class_of(&catalog::q1().query),
            ComplexityClass::CoNpComplete
        );
        assert_eq!(
            class_of(&catalog::q0().query),
            ComplexityClass::CoNpComplete
        );
        for n in [12, 24, 64] {
            assert_eq!(
                class_of(&star(n)),
                ComplexityClass::CoNpComplete,
                "star({n})"
            );
        }
    }

    #[test]
    fn theorem3_region() {
        assert_eq!(
            class_of(&catalog::fig4().query),
            ComplexityClass::PolynomialTime(PtimeReason::WeakTerminalCycles)
        );
        assert_eq!(
            class_of(&catalog::c2_swap().query),
            ComplexityClass::PolynomialTime(PtimeReason::WeakTerminalCycles)
        );
    }

    #[test]
    fn theorem4_and_corollary1_regions() {
        for k in 2..=5 {
            assert_eq!(
                class_of(&catalog::ac_k(k).query),
                ComplexityClass::PolynomialTime(PtimeReason::CycleQueryAc { k }),
                "AC({k})"
            );
        }
        for k in 3..=5 {
            assert_eq!(
                class_of(&catalog::c_k(k).query),
                ComplexityClass::PolynomialTime(PtimeReason::CycleQueryC { k }),
                "C({k})"
            );
        }
        // C(2) is acyclic, so it is classified through the attack graph
        // (weak terminal cycle) rather than through Corollary 1.
        assert_eq!(
            class_of(&catalog::c_k(2).query),
            ComplexityClass::PolynomialTime(PtimeReason::WeakTerminalCycles)
        );
    }

    #[test]
    fn ac2_is_classified_via_theorem4_and_is_not_terminal() {
        // AC(2)'s attack graph has the weak cycle R1 <-> R2, but both atoms
        // also attack S2, so the cycle is non-terminal: Theorem 3 does not
        // apply and the classifier must fall through to Theorem 4.
        let c = classify(&catalog::ac_k(2).query).unwrap();
        assert_eq!(
            c.class,
            ComplexityClass::PolynomialTime(PtimeReason::CycleQueryAc { k: 2 })
        );
        assert!(!c.cycles.unwrap().all_cycles_terminal());
    }

    /// The star query `R1(x1, y), ..., Rn(xn, y)`: every atom strongly
    /// attacks every other, so its attack graph is complete and has at
    /// least `(n - 1)!` elementary cycles.
    fn star(n: usize) -> ConjunctiveQuery {
        let mut schema = cqa_data::Schema::new();
        for i in 1..=n {
            schema.add_relation(format!("R{i}"), 2, 1).unwrap();
        }
        let mut builder = ConjunctiveQuery::builder(schema.into_shared());
        for i in 1..=n {
            let terms = [
                cqa_query::Term::var(format!("x{i}")),
                cqa_query::Term::var("y"),
            ];
            builder = builder.atom(&format!("R{i}"), terms);
        }
        builder.build().unwrap()
    }

    #[test]
    fn self_joins_are_rejected() {
        let schema = cqa_data::Schema::from_relations([("R", 2, 1)])
            .unwrap()
            .into_shared();
        let q = ConjunctiveQuery::builder(schema)
            .atom("R", [cqa_query::Term::var("x"), cqa_query::Term::var("y")])
            .atom("R", [cqa_query::Term::var("y"), cqa_query::Term::var("x")])
            .build()
            .unwrap();
        assert!(matches!(classify(&q), Err(QueryError::SelfJoin { .. })));
    }

    #[test]
    fn open_region_exists() {
        // A query with weak non-terminal cycles that is not AC(k): take AC(2)
        // and give S2 an extra private variable (so it is no longer all-key
        // over exactly the cycle variables). Classification should land in
        // the open region (or another sound region) — crucially it must not
        // be classified as FO or coNP-complete without a strong cycle.
        let schema = cqa_data::Schema::from_relations([("R1", 2, 1), ("R2", 2, 1), ("S", 3, 3)])
            .unwrap()
            .into_shared();
        let q = ConjunctiveQuery::builder(schema)
            .atom(
                "R1",
                [cqa_query::Term::var("x1"), cqa_query::Term::var("x2")],
            )
            .atom(
                "R2",
                [cqa_query::Term::var("x2"), cqa_query::Term::var("x1")],
            )
            .atom(
                "S",
                [
                    cqa_query::Term::var("x1"),
                    cqa_query::Term::var("x2"),
                    cqa_query::Term::var("w"),
                ],
            )
            .build()
            .unwrap();
        let c = classify(&q).unwrap();
        assert!(
            matches!(
                c.class,
                ComplexityClass::OpenConjecturedPtime | ComplexityClass::PolynomialTime(_)
            ),
            "got {:?}",
            c.class
        );
    }

    #[test]
    fn display_strings_mention_the_theorems() {
        assert!(
            ComplexityClass::PolynomialTime(PtimeReason::WeakTerminalCycles)
                .to_string()
                .contains("Theorem 3")
        );
        assert!(
            ComplexityClass::PolynomialTime(PtimeReason::CycleQueryAc { k: 3 })
                .to_string()
                .contains("Theorem 4")
        );
        assert!(ComplexityClass::CoNpComplete.to_string().contains("coNP"));
    }
}
