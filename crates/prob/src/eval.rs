//! Evaluation of `PROBABILITY(q)` over BID databases (Definition 12).
//!
//! * [`probability_safe`] — the polynomial-time extensional plan for safe
//!   queries, following the `IsSafe` rules (independent join / independent
//!   project / disjoint project);
//! * [`probability_exact`] — exhaustive possible-world expansion, correct for
//!   every query but exponential in the number of blocks (used as the oracle
//!   and for unsafe queries on small inputs);
//! * [`probability_monte_carlo`] — an unbiased sampling estimator for large
//!   unsafe instances.

use crate::bid::BidDatabase;
use crate::safety::{applicable_rule, connected_components, SafetyRule};
use cqa_data::{Fact, UncertainDatabase, Value};
use cqa_query::{eval, substitute, ConjunctiveQuery, QueryError, Valuation};
use rand::Rng;

/// Exact `Pr(q)` by expanding all possible worlds.
///
/// Worlds are generated block by block: each block independently contributes
/// either one of its facts (with its probability) or no fact (with the
/// residual probability `1 - Σ`), which is exactly the BID semantics.
pub fn probability_exact(bid: &BidDatabase, query: &ConjunctiveQuery) -> f64 {
    let db = bid.database();
    let blocks: Vec<&[Fact]> = db.blocks().map(|b| b.facts()).collect();

    fn go(
        bid: &BidDatabase,
        query: &ConjunctiveQuery,
        blocks: &[&[Fact]],
        depth: usize,
        chosen: &mut Vec<Fact>,
        weight: f64,
        acc: &mut f64,
    ) {
        if weight <= 0.0 {
            return;
        }
        if depth == blocks.len() {
            let world = bid.database().with_facts(chosen.iter().cloned());
            if eval::naive::satisfies(&world, query) {
                *acc += weight;
            }
            return;
        }
        let facts = blocks[depth];
        let sum: f64 = facts.iter().map(|f| bid.probability(f)).sum();
        // Option 1: the block contributes no fact.
        if 1.0 - sum > 1e-12 {
            go(
                bid,
                query,
                blocks,
                depth + 1,
                chosen,
                weight * (1.0 - sum),
                acc,
            );
        }
        // Option 2: the block contributes one of its facts.
        for fact in facts {
            let p = bid.probability(fact);
            if p > 0.0 {
                chosen.push(fact.clone());
                go(bid, query, blocks, depth + 1, chosen, weight * p, acc);
                chosen.pop();
            }
        }
    }

    let mut acc = 0.0;
    let mut chosen = Vec::new();
    go(bid, query, &blocks, 0, &mut chosen, 1.0, &mut acc);
    acc
}

/// Polynomial-time evaluation of `Pr(q)` for **safe** queries, by the
/// extensional plan mirroring `IsSafe`. Returns an error for unsafe queries
/// (use [`probability_exact`] or [`probability_monte_carlo`] instead).
pub fn probability_safe(bid: &BidDatabase, query: &ConjunctiveQuery) -> Result<f64, QueryError> {
    query.require_boolean()?;
    query.require_self_join_free()?;
    let domain: Vec<Value> = bid.database().active_domain().into_iter().collect();
    evaluate(bid, query, &domain)
}

fn evaluate(
    bid: &BidDatabase,
    query: &ConjunctiveQuery,
    domain: &[Value],
) -> Result<f64, QueryError> {
    if query.is_empty() {
        return Ok(1.0);
    }
    match applicable_rule(query) {
        SafetyRule::GroundAtom => {
            // Pr of a single ground atom is the probability of that fact.
            let atom = query.atom(0);
            let fact = Valuation::new()
                .apply_atom(atom)
                .expect("ground atoms have no variables");
            Ok(bid.probability(&fact))
        }
        SafetyRule::IndependentJoin => {
            // Variable-disjoint components touch disjoint relations (the
            // query has no self-join), so they are independent: multiply.
            let mut p = 1.0;
            for component in connected_components(query) {
                p *= evaluate(bid, &component, domain)?;
            }
            Ok(p)
        }
        SafetyRule::IndependentProject(x) => {
            // Different constants for x select different blocks in every
            // relation (x is in every key): independent union.
            let mut none = 1.0;
            for a in domain {
                let grounded = substitute::substitute_var(query, &x, a);
                none *= 1.0 - evaluate(bid, &grounded, domain)?;
            }
            Ok(1.0 - none)
        }
        SafetyRule::DisjointProject(x) => {
            // All facts of the constant-key atom live in a single block, so
            // different constants for x are mutually exclusive: sum.
            let mut total = 0.0;
            for a in domain {
                let grounded = substitute::substitute_var(query, &x, a);
                total += evaluate(bid, &grounded, domain)?;
            }
            Ok(total.min(1.0))
        }
        SafetyRule::Unsafe => Err(QueryError::Unsupported {
            reason: "query is not safe: PROBABILITY(q) is ♯P-hard (Theorem 5); \
                     use probability_exact or probability_monte_carlo"
                .into(),
        }),
    }
}

/// Unbiased Monte-Carlo estimate of `Pr(q)` from `samples` independent
/// possible worlds drawn from the BID distribution.
pub fn probability_monte_carlo<R: Rng>(
    bid: &BidDatabase,
    query: &ConjunctiveQuery,
    samples: usize,
    rng: &mut R,
) -> f64 {
    if samples == 0 {
        return 0.0;
    }
    let db = bid.database();
    let blocks: Vec<&[Fact]> = db.blocks().map(|b| b.facts()).collect();
    let mut hits = 0usize;
    for _ in 0..samples {
        let mut facts: Vec<Fact> = Vec::new();
        for block in &blocks {
            let mut roll: f64 = rng.gen();
            for fact in block.iter() {
                let p = bid.probability(fact);
                if roll < p {
                    facts.push(fact.clone());
                    break;
                }
                roll -= p;
            }
        }
        let world = db.with_facts(facts);
        if eval::naive::satisfies(&world, query) {
            hits += 1;
        }
    }
    hits as f64 / samples as f64
}

/// Convenience: `Pr(q)` under the uniform-repair distribution of an
/// uncertain database (every repair equally likely), computed exactly by
/// enumerating repairs. This is the quantity discussed in the introduction
/// ("true in three of the four repairs").
pub fn probability_over_repairs(db: &UncertainDatabase, query: &ConjunctiveQuery) -> f64 {
    crate::counting::count_satisfying_repairs(db, query).fraction()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_query::catalog;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn introduction_example_three_quarters() {
        // Figure 1 + Section 1: the query is true in 3 of the 4 repairs.
        let q = catalog::conference().query;
        let db = catalog::conference_database();
        let uniform = BidDatabase::uniform_over_repairs(&db);
        assert!((probability_over_repairs(&db, &q) - 0.75).abs() < 1e-9);
        assert!((probability_exact(&uniform, &q) - 0.75).abs() < 1e-9);
        // The conference query is safe, so the polynomial plan agrees.
        let safe = probability_safe(&uniform, &q).unwrap();
        assert!((safe - 0.75).abs() < 1e-9);
    }

    #[test]
    fn safe_plan_matches_exhaustive_on_random_instances() {
        let q = catalog::conference().query;
        let schema = q.schema().clone();
        for seed in 0u64..20 {
            let mut db = UncertainDatabase::new(schema.clone());
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(5);
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            let cities = ["Rome", "Paris", "Tokyo"];
            let ranks = ["A", "B"];
            for _ in 0..4 {
                db.insert_values(
                    "C",
                    [
                        format!("conf{}", next() % 3),
                        format!("year{}", next() % 2),
                        cities[next() % 3].to_string(),
                    ],
                )
                .unwrap();
                db.insert_values(
                    "R",
                    [format!("conf{}", next() % 3), ranks[next() % 2].to_string()],
                )
                .unwrap();
            }
            let bid = BidDatabase::uniform_over_repairs(&db);
            let exact = probability_exact(&bid, &q);
            let safe = probability_safe(&bid, &q).unwrap();
            assert!(
                (exact - safe).abs() < 1e-9,
                "seed {seed}: exact {exact} vs safe {safe}\n{db}"
            );
        }
    }

    #[test]
    fn unsafe_queries_are_rejected_by_the_safe_plan() {
        let q = catalog::fo_path2().query;
        let schema = q.schema().clone();
        let db = UncertainDatabase::new(schema);
        let bid = BidDatabase::uniform_over_repairs(&db);
        assert!(matches!(
            probability_safe(&bid, &q),
            Err(QueryError::Unsupported { .. })
        ));
    }

    #[test]
    fn partial_blocks_contribute_empty_world_mass() {
        // One fact with probability 0.4: Pr(R(a,b) present) = 0.4.
        let schema = cqa_data::Schema::from_relations([("R", 2, 1)])
            .unwrap()
            .into_shared();
        let mut db = UncertainDatabase::new(schema.clone());
        db.insert_values("R", ["a", "b"]).unwrap();
        let fact = db.facts().next().unwrap().clone();
        let bid = BidDatabase::new(db, [(fact, 0.4)]).unwrap();
        let q = ConjunctiveQuery::builder(schema)
            .atom("R", [cqa_query::Term::var("x"), cqa_query::Term::var("y")])
            .build()
            .unwrap();
        assert!((probability_exact(&bid, &q) - 0.4).abs() < 1e-9);
        assert!((probability_safe(&bid, &q).unwrap() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn monte_carlo_is_close_on_a_simple_instance() {
        let q = catalog::conference().query;
        let db = catalog::conference_database();
        let bid = BidDatabase::uniform_over_repairs(&db);
        let mut rng = StdRng::seed_from_u64(42);
        let estimate = probability_monte_carlo(&bid, &q, 4000, &mut rng);
        assert!((estimate - 0.75).abs() < 0.05, "estimate {estimate}");
    }

    #[test]
    fn empty_query_has_probability_one() {
        let schema = cqa_data::Schema::from_relations([("R", 2, 1)])
            .unwrap()
            .into_shared();
        let db = UncertainDatabase::new(schema.clone());
        let bid = BidDatabase::uniform_over_repairs(&db);
        let q = ConjunctiveQuery::boolean(schema, Vec::new()).unwrap();
        assert!((probability_exact(&bid, &q) - 1.0).abs() < 1e-9);
        assert!((probability_safe(&bid, &q).unwrap() - 1.0).abs() < 1e-9);
    }
}
