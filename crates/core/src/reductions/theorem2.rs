//! The `θ̂` reduction from the proof of Theorem 2.
//!
//! Let `q` be an acyclic self-join-free Boolean conjunctive query whose
//! attack graph contains a strong cycle. By Lemma 4 there are atoms
//! `F ⇄ G` with the attack `F ⇝ G` strong. The proof of Theorem 2 reduces
//! `CERTAINTY(q0)` — with `q0 = {R0(x, y), S0(y, z, x)}`, coNP-complete by
//! Kolaitis and Pema — to `CERTAINTY(q)`:
//!
//! for every valuation `θ` of `{x, y, z}` that embeds `q0` into the
//! (purified) input database `db0`, and for every atom `H ∈ q`, a fact
//! `θ̂(H)` is emitted, where `θ̂(u)` depends only on which region of the
//! Venn diagram of `F^{+,q}`, `G^{+,q}`, `F^{⊞,q}` the variable `u` lies in
//! (Figure 3):
//!
//! | region | `θ̂(u)` |
//! |---|---|
//! | `F⁺ ∩ G⁺` | the fixed constant `d` |
//! | `F⁺ ∖ G⁺` | `θ(x)` |
//! | `G⁺ ∖ F^⊞` | `⟨θ(y), θ(z)⟩` |
//! | `(G⁺ ∩ F^⊞) ∖ F⁺` | `θ(y)` |
//! | `F^⊞ ∖ (F⁺ ∪ G⁺)` | `⟨θ(x), θ(y)⟩` |
//! | outside `F^⊞ ∪ G⁺` | `⟨θ(x), θ(y), θ(z)⟩` |
//!
//! The reduction is a bijection between repairs (Sublemma 4) and preserves
//! (non-)certainty; the integration tests check this against the exact
//! oracle on small instances, and the benchmark harness uses it to produce
//! hard instances for arbitrary strong-cycle queries.

use crate::attack::{AttackGraph, CycleAnalysis};
use crate::purify::purify;
use cqa_data::{Fact, UncertainDatabase, Value};
use cqa_exec::QueryPlan;
use cqa_query::{catalog, ConjunctiveQuery, QueryError, Valuation, Variable};

/// The Theorem 2 reduction for a fixed target query `q`.
pub struct Theorem2Reduction {
    target: ConjunctiveQuery,
    q0: ConjunctiveQuery,
    /// Variables of the six Venn regions, precomputed.
    region_of: Vec<(Variable, Region)>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Region {
    /// `F⁺ ∩ G⁺` → the constant `d`.
    Both,
    /// `F⁺ ∖ G⁺` → `θ(x)`.
    FPlusOnly,
    /// `G⁺ ∖ F^⊞` → `⟨θ(y), θ(z)⟩`.
    GPlusOutsideFBox,
    /// `(G⁺ ∩ F^⊞) ∖ F⁺` → `θ(y)`.
    GPlusInsideFBox,
    /// `F^⊞ ∖ (F⁺ ∪ G⁺)` → `⟨θ(x), θ(y)⟩`.
    FBoxOnly,
    /// outside `F^⊞ ∪ G⁺` → `⟨θ(x), θ(y), θ(z)⟩`.
    Outside,
}

impl Theorem2Reduction {
    /// Prepares the reduction to `CERTAINTY(target)`.
    ///
    /// Fails unless the target query is acyclic, self-join-free, Boolean and
    /// has a strong cycle in its attack graph (the premise of Theorem 2).
    pub fn new(target: &ConjunctiveQuery) -> Result<Self, QueryError> {
        target.require_boolean()?;
        target.require_self_join_free()?;
        let graph = AttackGraph::build(target)?;
        let analysis = CycleAnalysis::analyze(&graph);
        let Some((f, g)) = analysis.strong_two_cycle(&graph) else {
            return Err(QueryError::Unsupported {
                reason: "Theorem 2 reduction requires a strong cycle in the attack graph".into(),
            });
        };
        let closures = graph.closures();
        let f_plus = closures.plus(f);
        let g_plus = closures.plus(g);
        let f_box = closures.boxed(f);
        let index = closures.var_index();
        let region_of = target
            .vars()
            .into_iter()
            .map(|u| {
                let bit = index.position(&u).expect("query variable is indexed");
                let in_f_plus = f_plus.contains(bit);
                let in_g_plus = g_plus.contains(bit);
                let in_f_box = f_box.contains(bit);
                let region = if in_f_plus && in_g_plus {
                    Region::Both
                } else if in_f_plus {
                    Region::FPlusOnly
                } else if in_g_plus && !in_f_box {
                    Region::GPlusOutsideFBox
                } else if in_g_plus {
                    Region::GPlusInsideFBox
                } else if in_f_box {
                    Region::FBoxOnly
                } else {
                    Region::Outside
                };
                (u, region)
            })
            .collect();
        Ok(Theorem2Reduction {
            target: target.clone(),
            q0: catalog::q0().query,
            region_of,
        })
    }

    /// The source query `q0 = {R0(x, y), S0(y, z, x)}`.
    pub fn source_query(&self) -> &ConjunctiveQuery {
        &self.q0
    }

    /// `θ̂`: lifts a valuation of `{x, y, z}` to a valuation of `vars(q)`.
    fn lift(&self, theta: &Valuation) -> Valuation {
        let x = theta.get(&Variable::new("x")).expect("x bound").clone();
        let y = theta.get(&Variable::new("y")).expect("y bound").clone();
        let z = theta.get(&Variable::new("z")).expect("z bound").clone();
        let d = Value::str("d");
        Valuation::from_pairs(self.region_of.iter().map(|(u, region)| {
            let value = match region {
                Region::Both => d.clone(),
                Region::FPlusOnly => x.clone(),
                Region::GPlusOutsideFBox => Value::pair(y.clone(), z.clone()),
                Region::GPlusInsideFBox => y.clone(),
                Region::FBoxOnly => Value::pair(x.clone(), y.clone()),
                Region::Outside => Value::triple(x.clone(), y.clone(), z.clone()),
            };
            (u.clone(), value)
        }))
    }

    /// Applies the reduction to an instance of `CERTAINTY(q0)`, producing an
    /// instance of `CERTAINTY(target)` with the same (non-)membership.
    pub fn apply(&self, db0: &UncertainDatabase) -> UncertainDatabase {
        // The construction assumes a purified source instance (Lemma 1).
        let db0 = purify(db0, &self.q0);
        let index = db0.index();
        let valuations = QueryPlan::compile(&self.q0, Some(index.statistics()))
            .prepare(&index)
            .all_valuations();
        let mut facts: Vec<Fact> = Vec::new();
        for theta in &valuations {
            let lifted = self.lift(theta);
            for atom in self.target.atoms() {
                facts.push(lifted.apply_atom(atom).expect("θ̂ is total on vars(q)"));
            }
        }
        UncertainDatabase::from_facts(self.target.schema().clone(), facts)
            .expect("reduction facts are schema-valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::{CertaintySolver, ExactOracle};
    use cqa_query::catalog;

    fn q0_db(pairs: &[(&str, &str)], triples: &[(&str, &str, &str)]) -> UncertainDatabase {
        let q0 = catalog::q0().query;
        let mut db = UncertainDatabase::new(q0.schema().clone());
        for &(a, b) in pairs {
            db.insert_values("R0", [a, b]).unwrap();
        }
        for &(a, b, c) in triples {
            db.insert_values("S0", [a, b, c]).unwrap();
        }
        db
    }

    #[test]
    fn requires_a_strong_cycle() {
        assert!(Theorem2Reduction::new(&catalog::q1().query).is_ok());
        assert!(Theorem2Reduction::new(&catalog::q0().query).is_ok());
        assert!(Theorem2Reduction::new(&catalog::fig4().query).is_err());
        assert!(Theorem2Reduction::new(&catalog::conference().query).is_err());
        assert!(Theorem2Reduction::new(&catalog::ac_k(3).query).is_err());
    }

    #[test]
    fn reduction_to_q1_preserves_certainty_on_small_instances() {
        let target = catalog::q1().query;
        let reduction = Theorem2Reduction::new(&target).unwrap();
        let source_oracle = ExactOracle::new(reduction.source_query()).unwrap();
        let target_oracle = ExactOracle::new(&target).unwrap();

        let instances = [
            // Certain: single consistent match.
            q0_db(&[("a", "b")], &[("b", "c", "a")]),
            // Not certain: R0(a, ·) has an escape value.
            q0_db(&[("a", "b"), ("a", "e")], &[("b", "c", "a")]),
            // Certain again: both choices of R0(a, ·) are covered by S0 facts.
            q0_db(
                &[("a", "b"), ("a", "e")],
                &[("b", "c", "a"), ("e", "c", "a")],
            ),
            // Uncertainty on the S0 side.
            q0_db(&[("a", "b")], &[("b", "c", "a"), ("b", "c", "a2")]),
            // Mixed, two independent key groups.
            q0_db(
                &[("a", "b"), ("a2", "b2"), ("a2", "b3")],
                &[("b", "c", "a"), ("b2", "c2", "a2"), ("b3", "c2", "a2")],
            ),
        ];
        for (i, db0) in instances.iter().enumerate() {
            let expected = source_oracle.is_certain_bruteforce(db0);
            let db = reduction.apply(db0);
            let actual = target_oracle.is_certain(&db);
            assert_eq!(
                actual, expected,
                "instance {i}\nsource:\n{db0}\ntarget:\n{db}"
            );
        }
    }

    #[test]
    fn reduction_output_size_is_linear_in_the_number_of_valuations() {
        let target = catalog::q1().query;
        let reduction = Theorem2Reduction::new(&target).unwrap();
        let db0 = q0_db(
            &[("a", "b"), ("a", "e"), ("a2", "b")],
            &[("b", "c", "a"), ("e", "c", "a"), ("b", "c", "a2")],
        );
        let purified = purify(&db0, reduction.source_query());
        let valuations =
            cqa_query::eval::naive::all_valuations(&purified, reduction.source_query());
        let db = reduction.apply(&db0);
        // At most |V| facts per atom of the target query.
        assert!(db.fact_count() <= valuations.len() * target.len());
        assert!(db.fact_count() > 0);
    }

    #[test]
    fn tuple_constants_keep_the_reduction_injective() {
        // The θ̂ construction must not conflate distinct (y, z) pairs: the
        // pair and triple values are first-class tuple constants.
        let target = catalog::q0().query; // q0 itself has a strong cycle
        let reduction = Theorem2Reduction::new(&target).unwrap();
        let db0 = q0_db(&[("a", "b")], &[("b", "c1", "a"), ("b", "c2", "a")]);
        let db = reduction.apply(&db0);
        // Two S0-source facts → two distinct valuations → the reduced database
        // must keep them apart (otherwise certainty would flip).
        let oracle_src = ExactOracle::new(reduction.source_query()).unwrap();
        let oracle_tgt = ExactOracle::new(&target).unwrap();
        assert_eq!(
            oracle_src.is_certain_bruteforce(&db0),
            oracle_tgt.is_certain(&db)
        );
    }
}
