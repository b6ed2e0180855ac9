//! Certainty for two-atom queries (the Theorem 3 base case).
//!
//! Kolaitis and Pema \[13\] proved that for every self-join-free Boolean
//! conjunctive query with exactly two atoms, `CERTAINTY(q)` is either in P or
//! coNP-complete. The paper uses the tractable side as a black box in the
//! base case of Theorem 3: after all unattacked atoms have been eliminated,
//! the attack graph is a disjoint union of weak 2-cycles `{F, G}`, and each
//! partition of the database must be decided for the two-atom query
//! `{F, G}`.
//!
//! ## Substitution note (see `DESIGN.md`, "Substitutions and scope")
//!
//! Kolaitis–Pema reduce the P-side to maximum independent set in claw-free
//! graphs and invoke Minty's algorithm \[17\]. This implementation builds the
//! same conflict structure — blocks are cliques, and a fact of one relation
//! conflicts with the facts of the *single* block of the other relation it
//! joins with — but decides whether a conflict-free repair exists with
//! (i) polynomial-time peeling of blocks that own a conflict-free fact,
//! (ii) decomposition into connected components of the block graph, and
//! (iii) exact backtracking inside each residual component. The result is
//! always correct; it is polynomial on every instance family generated in
//! this repository, but unlike Minty's algorithm it is not worst-case
//! polynomial on adversarial residual components.

use super::{rewriting::RewritingSolver, CertaintySolver};
use crate::purify::purify;
use cqa_data::{Fact, FxHashMap, FxHashSet, UncertainDatabase, Value};
use cqa_query::{ConjunctiveQuery, QueryError, Valuation};

/// Certainty solver for Boolean two-atom queries without self-joins.
pub struct TwoAtomSolver {
    query: ConjunctiveQuery,
    /// `Some` when the attack graph is acyclic and the simpler rewriting
    /// recursion applies.
    rewriting: Option<RewritingSolver>,
}

impl TwoAtomSolver {
    /// Builds the solver. The query must be Boolean, self-join-free, and have
    /// exactly one or two atoms (one-atom queries are allowed for convenience;
    /// they are handled by the rewriting path).
    pub fn new(query: &ConjunctiveQuery) -> Result<Self, QueryError> {
        query.require_boolean()?;
        query.require_self_join_free()?;
        let rewriting = RewritingSolver::new(query).ok();
        Ok(TwoAtomSolver {
            query: query.clone(),
            rewriting,
        })
    }

    /// Decides whether a *falsifying* repair exists, i.e. a choice of one
    /// fact per block such that no chosen pair jointly satisfies the query.
    fn falsifying_repair_exists(&self, db: &UncertainDatabase) -> bool {
        debug_assert_eq!(self.query.len(), 2);
        let schema = self.query.schema();
        let f = self.query.atom(0);
        let g = self.query.atom(1);

        // Collect blocks and facts of the two relations. Facts of other
        // relations are irrelevant for a two-atom query.
        let mut blocks: Vec<Vec<Fact>> = Vec::new();
        for block in db.blocks() {
            if block.relation() == f.relation() || block.relation() == g.relation() {
                blocks.push(block.facts().to_vec());
            }
        }
        if blocks.is_empty() {
            return true; // The empty repair falsifies a non-empty query.
        }

        // Conflict edges between individual facts: (A, B) conflicts iff some
        // valuation maps atom F to A and atom G to B.
        let fact_ids: FxHashMap<Fact, (usize, usize)> = blocks
            .iter()
            .enumerate()
            .flat_map(|(bi, facts)| {
                facts
                    .iter()
                    .enumerate()
                    .map(move |(fi, fact)| (fact.clone(), (bi, fi)))
            })
            .collect();
        // conflicts[block][fact] = list of (block, fact) it conflicts with.
        let mut conflicts: Vec<Vec<Vec<(usize, usize)>>> = blocks
            .iter()
            .map(|facts| vec![Vec::new(); facts.len()])
            .collect();
        for (bi, facts) in blocks.iter().enumerate() {
            for (fi, fact) in facts.iter().enumerate() {
                if fact.relation() != f.relation() {
                    continue;
                }
                let Some(theta) = Valuation::new().unify_with_fact(f, fact, schema) else {
                    continue;
                };
                // All G-facts compatible with theta conflict with this fact.
                for g_fact in db.relation_facts(g.relation()) {
                    if theta.unify_with_fact(g, g_fact, schema).is_some() {
                        if let Some(&(bj, fj)) = fact_ids.get(g_fact) {
                            conflicts[bi][fi].push((bj, fj));
                            conflicts[bj][fj].push((bi, fi));
                        }
                    }
                }
            }
        }

        // Peeling: a block owning a fact with no live conflicts can always
        // choose that fact; remove the block (its other facts' conflicts die
        // with it).
        let mut alive_block = vec![true; blocks.len()];
        let mut changed = true;
        while changed {
            changed = false;
            for bi in 0..blocks.len() {
                if !alive_block[bi] {
                    continue;
                }
                let has_free_fact = (0..blocks[bi].len())
                    .any(|fi| conflicts[bi][fi].iter().all(|&(bj, _)| !alive_block[bj]));
                if has_free_fact {
                    alive_block[bi] = false;
                    changed = true;
                }
            }
        }

        // Decompose the surviving blocks into connected components of the
        // block-level conflict graph and solve each component exactly.
        let live: Vec<usize> = (0..blocks.len()).filter(|&b| alive_block[b]).collect();
        let mut visited: FxHashSet<usize> = FxHashSet::default();
        for &start in &live {
            if visited.contains(&start) {
                continue;
            }
            // BFS over blocks connected by live conflicts.
            let mut component = Vec::new();
            let mut queue = vec![start];
            visited.insert(start);
            while let Some(b) = queue.pop() {
                component.push(b);
                for fact_conflicts in conflicts[b].iter().take(blocks[b].len()) {
                    for &(bj, _) in fact_conflicts {
                        if alive_block[bj] && visited.insert(bj) {
                            queue.push(bj);
                        }
                    }
                }
            }
            if !Self::component_has_independent_choice(
                &blocks,
                &conflicts,
                &alive_block,
                &component,
            ) {
                return false;
            }
        }
        true
    }

    /// Exact backtracking: does the component admit one chosen fact per block
    /// with no conflicting chosen pair?
    fn component_has_independent_choice(
        blocks: &[Vec<Fact>],
        conflicts: &[Vec<Vec<(usize, usize)>>],
        alive_block: &[bool],
        component: &[usize],
    ) -> bool {
        fn go(
            blocks: &[Vec<Fact>],
            conflicts: &[Vec<Vec<(usize, usize)>>],
            alive_block: &[bool],
            component: &[usize],
            depth: usize,
            chosen: &mut FxHashMap<usize, usize>,
        ) -> bool {
            if depth == component.len() {
                return true;
            }
            let b = component[depth];
            'facts: for fi in 0..blocks[b].len() {
                // The candidate must not conflict with an already-chosen fact,
                // nor with any fact of a peeled (dead) block? Dead blocks chose
                // a conflict-free fact, so they impose nothing.
                for &(bj, fj) in &conflicts[b][fi] {
                    if !alive_block[bj] {
                        continue;
                    }
                    if chosen.get(&bj) == Some(&fj) {
                        continue 'facts;
                    }
                }
                chosen.insert(b, fi);
                if go(blocks, conflicts, alive_block, component, depth + 1, chosen) {
                    return true;
                }
                chosen.remove(&b);
            }
            false
        }
        let mut chosen = FxHashMap::default();
        go(blocks, conflicts, alive_block, component, 0, &mut chosen)
    }
}

impl CertaintySolver for TwoAtomSolver {
    fn name(&self) -> &'static str {
        "two-atom"
    }

    fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    fn decide(&self, db: &UncertainDatabase, params: &[Value]) -> bool {
        debug_assert!(params.is_empty(), "two-atom queries are Boolean");
        if self.query.is_empty() {
            return true;
        }
        if let Some(rewriting) = &self.rewriting {
            return rewriting.is_certain(db);
        }
        if self.query.len() == 1 {
            // Single-atom queries always have acyclic attack graphs, so the
            // rewriting path above must have been taken.
            unreachable!("single-atom queries are handled by the rewriting solver");
        }
        // A purified database satisfies the (non-empty) query iff it has a
        // fact left: every remaining fact lies in a valuation image.
        let (purified, _) = purify(db, &self.query);
        if purified.is_empty() {
            return false;
        }
        !self.falsifying_repair_exists(&purified)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::oracle::ExactOracle;
    use cqa_data::UncertainDatabase;
    use cqa_query::catalog;

    #[test]
    fn c2_small_instances_match_brute_force() {
        let q = catalog::c2_swap().query;
        let solver = TwoAtomSolver::new(&q).unwrap();
        let oracle = ExactOracle::new(&q).unwrap();
        let schema = q.schema().clone();
        for seed in 0u64..80 {
            let mut db = UncertainDatabase::new(schema.clone());
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(11);
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            for _ in 0..(3 + seed as usize % 5) {
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

    #[test]
    fn certain_c2_instance() {
        // R1(a,b), R2(b,a) with no alternatives: every repair contains the
        // 2-cycle, so the query is certain.
        let q = catalog::c2_swap().query;
        let solver = TwoAtomSolver::new(&q).unwrap();
        let schema = q.schema().clone();
        let mut db = UncertainDatabase::new(schema);
        db.insert_values("R1", ["a", "b"]).unwrap();
        db.insert_values("R2", ["b", "a"]).unwrap();
        assert!(solver.is_certain(&db));
        // Give R1(a, ·) an alternative that avoids b: a falsifying repair appears.
        db.insert_values("R1", ["a", "c"]).unwrap();
        assert!(!solver.is_certain(&db));
    }

    #[test]
    fn forced_cycle_through_both_alternatives_is_certain() {
        // Blocks: R1(a,·) ∈ {b, b'}, and both R2(b,a) and R2(b',a) are present
        // and certain. Whatever R1 picks, the cycle closes: certain.
        let q = catalog::c2_swap().query;
        let solver = TwoAtomSolver::new(&q).unwrap();
        let oracle = ExactOracle::new(&q).unwrap();
        let schema = q.schema().clone();
        let mut db = UncertainDatabase::new(schema);
        db.insert_values("R1", ["a", "b"]).unwrap();
        db.insert_values("R1", ["a", "b'"]).unwrap();
        db.insert_values("R2", ["b", "a"]).unwrap();
        db.insert_values("R2", ["b'", "a"]).unwrap();
        assert!(solver.is_certain(&db));
        assert!(oracle.is_certain_bruteforce(&db));
    }

    #[test]
    fn q0_strong_cycle_still_answered_correctly() {
        // The solver is exact even for the coNP-complete two-atom query q0
        // (it just may take exponential time on adversarial inputs).
        let q = catalog::q0().query;
        let solver = TwoAtomSolver::new(&q).unwrap();
        let oracle = ExactOracle::new(&q).unwrap();
        let schema = q.schema().clone();
        for seed in 0u64..40 {
            let mut db = UncertainDatabase::new(schema.clone());
            let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(7);
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            for _ in 0..5 {
                db.insert_values(
                    "R0",
                    [format!("x{}", next() % 2), format!("y{}", next() % 2)],
                )
                .unwrap();
                db.insert_values(
                    "S0",
                    [
                        format!("y{}", next() % 2),
                        format!("z{}", next() % 2),
                        format!("x{}", next() % 2),
                    ],
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
    fn acyclic_two_atom_queries_use_the_rewriting_path() {
        let q = catalog::fo_path2().query;
        let solver = TwoAtomSolver::new(&q).unwrap();
        assert!(solver.rewriting.is_some());
    }
}
