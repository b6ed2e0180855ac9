//! The Theorem 4 solver: `CERTAINTY(AC(k))` and `CERTAINTY(C(k))` in P.
//!
//! `AC(k)` (Definition 8) consists of a directed cycle of binary key-to-value
//! atoms `R1(x1, x2), ..., Rk(xk, x1)` plus the all-key atom
//! `Sk(x1, ..., xk)`; `C(k)` omits the `Sk` atom. `AC(k)`'s attack graph has
//! only weak, **non-terminal** cycles (Figure 5), so Theorem 3 does not
//! apply; Theorem 4 nevertheless puts `CERTAINTY(AC(k))` in P, and the
//! Lemma 9 reduction extends this to `C(k)` (Corollary 1) — settling a
//! question left open by Fuxman and Miller.
//!
//! The algorithm is the one in the proof of Theorem 4. View the `Ri`-facts
//! of the (purified) database as the edges of a k-partite directed graph over
//! `(position, constant)` vertices. A repair picks one outgoing edge per
//! vertex; the query is falsified exactly when this can be done without
//! fully marking any *forbidden* k-cycle (a k-cycle encoded in `Sk`, or any
//! k-cycle at all for `C(k)`). Because the database is purified, the graph
//! splits into strong components with no edges between them, and a
//! falsifying marking exists iff **every** strong component contains either
//! a k-cycle that is not forbidden or an elementary cycle longer than `k`.

use super::CertaintySolver;
use crate::purify::purify;
use cqa_data::{FxHashMap, FxHashSet, UncertainDatabase, Value};
use cqa_graph::paths::{for_each_cycle_of_length, has_elementary_cycle_longer_than};
use cqa_graph::scc::strongly_connected_components;
use cqa_graph::{DiGraph, NodeId};
use cqa_query::{AtomId, ConjunctiveQuery, QueryError, Term, Variable};

/// The detected shape of a `C(k)` / `AC(k)` query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleQueryShape {
    /// The `k` of the family (number of cycle variables = number of binary atoms).
    pub k: usize,
    /// Atom ids of the binary atoms, in cycle order: `r_atoms[i]` joins
    /// `var_order[i]` to `var_order[(i + 1) % k]`.
    pub r_atoms: Vec<AtomId>,
    /// The all-key atom (`Sk`), if present — `Some` for `AC(k)`, `None` for `C(k)`.
    pub s_atom: Option<AtomId>,
    /// The cycle variables in order `x1, ..., xk`.
    pub var_order: Vec<Variable>,
}

/// Detects whether `query` is (isomorphic to) `C(k)` or `AC(k)`.
///
/// The `Sk` atom may list the cycle variables in any order (the solver
/// re-orders its facts); the binary atoms must have signature `[2, 1]` with
/// two distinct variables.
pub fn detect_cycle_query(query: &ConjunctiveQuery) -> Option<CycleQueryShape> {
    if !query.is_boolean() || query.has_self_join() {
        return None;
    }
    let schema = query.schema();
    let vars: Vec<Variable> = query.vars().into_iter().collect();
    let k = vars.len();
    if k < 2 {
        return None;
    }

    let mut r_atoms: Vec<AtomId> = Vec::new();
    let mut s_atom: Option<AtomId> = None;
    for (id, atom) in query.atoms_with_ids() {
        let rel = schema.relation(atom.relation());
        let all_var_terms = atom.terms().iter().all(Term::is_var);
        if rel.arity() == 2 && rel.key_len() == 1 && all_var_terms && atom.vars().len() == 2 {
            r_atoms.push(id);
        } else if rel.is_all_key()
            && rel.arity() == k
            && all_var_terms
            && atom.vars().len() == k
            && s_atom.is_none()
        {
            s_atom = Some(id);
        } else {
            return None;
        }
    }
    if r_atoms.len() != k {
        return None;
    }

    // The binary atoms must form a single directed cycle over all variables.
    let mut successor: FxHashMap<Variable, (Variable, AtomId)> = FxHashMap::default();
    let mut indegree: FxHashMap<Variable, usize> = FxHashMap::default();
    for &id in &r_atoms {
        let atom = query.atom(id);
        let from = atom.terms()[0].as_var()?.clone();
        let to = atom.terms()[1].as_var()?.clone();
        if from == to || successor.insert(from, (to.clone(), id)).is_some() {
            return None;
        }
        *indegree.entry(to).or_insert(0) += 1;
    }
    if indegree.values().any(|&d| d != 1) || indegree.len() != k {
        return None;
    }
    // Walk the cycle starting from the S atom's first variable if present
    // (matching the paper's x1), otherwise from an arbitrary variable.
    let start = match s_atom {
        Some(s) => query.atom(s).terms()[0].as_var()?.clone(),
        None => vars[0].clone(),
    };
    let mut var_order = vec![start.clone()];
    let mut ordered_atoms = Vec::new();
    let mut current = start.clone();
    for _ in 0..k {
        let (next, atom) = successor.get(&current)?.clone();
        ordered_atoms.push(atom);
        if next == start {
            break;
        }
        var_order.push(next.clone());
        current = next;
    }
    if var_order.len() != k || ordered_atoms.len() != k {
        return None;
    }
    Some(CycleQueryShape {
        k,
        r_atoms: ordered_atoms,
        s_atom,
        var_order,
    })
}

/// Which k-cycles of the constant graph are forbidden for a falsifying repair.
enum Forbidden {
    /// `C(k)`: every k-cycle is a query match, so every k-cycle is forbidden.
    All,
    /// `AC(k)`: exactly the cycles encoded by the `Sk` facts.
    Encoded(FxHashSet<Vec<Value>>),
}

/// Polynomial-time certainty solver for `C(k)` and `AC(k)` queries.
pub struct CycleQuerySolver {
    query: ConjunctiveQuery,
    shape: CycleQueryShape,
}

impl CycleQuerySolver {
    /// Builds the solver; fails if the query is not of `C(k)` / `AC(k)` shape.
    pub fn new(query: &ConjunctiveQuery) -> Result<Self, QueryError> {
        let shape = detect_cycle_query(query).ok_or_else(|| QueryError::Unsupported {
            reason: "the Theorem 4 solver requires a C(k) or AC(k) query".into(),
        })?;
        Ok(CycleQuerySolver {
            query: query.clone(),
            shape,
        })
    }

    /// The detected shape.
    pub fn shape(&self) -> &CycleQueryShape {
        &self.shape
    }

    /// Runs the Theorem 4 decision procedure on a purified database.
    fn decide_purified(&self, db: &UncertainDatabase) -> bool {
        let k = self.shape.k;
        // One index snapshot serves every per-relation pass below; the
        // k-partite graph and the forbidden-cycle set are then built without
        // re-scanning the blocks of the other relations.
        let index = db.index();

        // Vertices are (cycle position, constant); edges come from the Ri facts.
        let mut graph: DiGraph<(usize, Value)> = DiGraph::new();
        let mut ids: FxHashMap<(usize, Value), NodeId> = FxHashMap::default();
        let mut node = |graph: &mut DiGraph<(usize, Value)>, key: (usize, Value)| -> NodeId {
            match ids.get(&key) {
                Some(&id) => id,
                None => {
                    let id = graph.add_node(key.clone());
                    ids.insert(key, id);
                    id
                }
            }
        };
        for (pos, &atom_id) in self.shape.r_atoms.iter().enumerate() {
            let rel = self.query.atom(atom_id).relation();
            for fact in index.relation_facts(rel) {
                let from = node(&mut graph, (pos, fact.value(0).clone()));
                let to = node(&mut graph, ((pos + 1) % k, fact.value(1).clone()));
                graph.add_edge(from, to);
            }
        }

        // Forbidden k-cycles.
        let forbidden = match self.shape.s_atom {
            None => Forbidden::All,
            Some(s_id) => {
                let atom = self.query.atom(s_id);
                // Position of each cycle variable inside the S atom.
                let positions: Vec<usize> = self
                    .shape
                    .var_order
                    .iter()
                    .map(|v| {
                        atom.terms()
                            .iter()
                            .position(|t| t.as_var() == Some(v))
                            .expect("S atom contains every cycle variable")
                    })
                    .collect();
                let mut set = FxHashSet::default();
                for fact in index.relation_facts(atom.relation()) {
                    let vector: Vec<Value> =
                        positions.iter().map(|&p| fact.value(p).clone()).collect();
                    set.insert(vector);
                }
                Forbidden::Encoded(set)
            }
        };

        // Decompose into strong components; a falsifying marking exists iff
        // every component has a "good" cycle.
        let scc = strongly_connected_components(&graph);
        for component in &scc.components {
            // Build the induced subgraph of this component.
            let mut sub: DiGraph<(usize, Value)> = DiGraph::new();
            let mut remap: FxHashMap<NodeId, NodeId> = FxHashMap::default();
            for &v in component {
                let id = sub.add_node(graph.node(v).clone());
                remap.insert(v, id);
            }
            for &v in component {
                for &w in graph.successors(v) {
                    if let Some(&rw) = remap.get(&w) {
                        sub.add_edge(remap[&v], rw);
                    }
                }
            }

            let good = match &forbidden {
                Forbidden::All => has_elementary_cycle_longer_than(&sub, k),
                Forbidden::Encoded(set) => {
                    let mut found_unforbidden = false;
                    for_each_cycle_of_length(&sub, k, |cycle| {
                        // Rotate the cycle so it starts at position 0, then read
                        // off the constants in cycle-position order.
                        let start = cycle
                            .iter()
                            .position(|&n| sub.node(n).0 == 0)
                            .expect("a k-cycle in the k-partite graph visits every position");
                        let vector: Vec<Value> = (0..k)
                            .map(|i| sub.node(cycle[(start + i) % k]).1.clone())
                            .collect();
                        if !set.contains(&vector) {
                            found_unforbidden = true;
                            true // stop early
                        } else {
                            false
                        }
                    });
                    found_unforbidden || has_elementary_cycle_longer_than(&sub, k)
                }
            };
            if !good {
                // This component forces every repair to contain a forbidden
                // (= query-matching) k-cycle: the query is certain.
                return true;
            }
        }
        false
    }
}

impl CertaintySolver for CycleQuerySolver {
    fn name(&self) -> &'static str {
        "cycle-query"
    }

    fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    fn decide(&self, db: &UncertainDatabase, params: &[Value]) -> bool {
        debug_assert!(params.is_empty(), "C(k) and AC(k) queries are Boolean");
        let (purified, _) = purify(db, &self.query);
        if purified.is_empty() {
            return false;
        }
        self.decide_purified(&purified)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::oracle::ExactOracle;
    use cqa_query::catalog;

    /// The Figure 6 database over the AC(3) schema.
    pub(crate) fn figure6_database(schema: &std::sync::Arc<cqa_data::Schema>) -> UncertainDatabase {
        let mut db = UncertainDatabase::new(schema.clone());
        db.insert_values("R1", ["a", "b"]).unwrap();
        db.insert_values("R1", ["a", "b'"]).unwrap();
        db.insert_values("R1", ["a'", "b"]).unwrap();
        db.insert_values("R2", ["b", "c"]).unwrap();
        db.insert_values("R2", ["b", "c'"]).unwrap();
        db.insert_values("R2", ["b'", "c"]).unwrap();
        db.insert_values("R3", ["c", "a"]).unwrap();
        db.insert_values("R3", ["c", "a'"]).unwrap();
        db.insert_values("R3", ["c'", "a"]).unwrap();
        db.insert_values("S3", ["a", "b", "c'"]).unwrap();
        db.insert_values("S3", ["a", "b'", "c"]).unwrap();
        db.insert_values("S3", ["a'", "b", "c"]).unwrap();
        db
    }

    #[test]
    fn shape_detection() {
        for k in 2..=5 {
            let ac = catalog::ac_k(k).query;
            let shape = detect_cycle_query(&ac).expect("AC(k) detected");
            assert_eq!(shape.k, k);
            assert!(shape.s_atom.is_some());
            assert_eq!(shape.r_atoms.len(), k);
            let c = catalog::c_k(k).query;
            let shape = detect_cycle_query(&c).expect("C(k) detected");
            assert_eq!(shape.k, k);
            assert!(shape.s_atom.is_none());
        }
        assert!(detect_cycle_query(&catalog::q0().query).is_none());
        assert!(detect_cycle_query(&catalog::fig4().query).is_none());
        assert!(detect_cycle_query(&catalog::conference().query).is_none());
    }

    #[test]
    fn figure6_instance_is_not_certain() {
        // Figure 7 exhibits two repairs falsifying AC(3), so the Figure 6
        // database is not in CERTAINTY(AC(3)).
        let q = catalog::ac_k(3).query;
        let solver = CycleQuerySolver::new(&q).unwrap();
        let db = figure6_database(q.schema());
        assert!(!solver.is_certain(&db));
        // Cross-check with brute force (8 repairs).
        let oracle = ExactOracle::new(&q).unwrap();
        assert!(!oracle.is_certain_bruteforce(&db));
    }

    #[test]
    fn making_the_anticlockwise_cycle_forbidden_flips_the_answer() {
        // Add the three "anticlockwise" triangles to S3 as well: now every
        // 3-cycle of the graph is encoded, the component has no good cycle of
        // length 3, and (as it also has a 6-cycle) ... the repair could still
        // avoid a forbidden cycle via the long cycle, so the instance stays
        // uncertain. Forbid nothing less: instead shrink the instance to the
        // single consistent triangle, which is trivially certain.
        let q = catalog::ac_k(3).query;
        let solver = CycleQuerySolver::new(&q).unwrap();
        let mut db = UncertainDatabase::new(q.schema().clone());
        db.insert_values("R1", ["a", "b"]).unwrap();
        db.insert_values("R2", ["b", "c"]).unwrap();
        db.insert_values("R3", ["c", "a"]).unwrap();
        db.insert_values("S3", ["a", "b", "c"]).unwrap();
        assert!(solver.is_certain(&db));
        let oracle = ExactOracle::new(&q).unwrap();
        assert!(oracle.is_certain_bruteforce(&db));
        // Remove the S3 tuple: the query can no longer be satisfied at all.
        let s3 = db.schema().relation_id("S3").unwrap();
        db.retain_facts(|f| f.relation() != s3);
        assert!(!solver.is_certain(&db));
    }

    #[test]
    fn ac3_random_instances_match_brute_force() {
        let q = catalog::ac_k(3).query;
        let solver = CycleQuerySolver::new(&q).unwrap();
        let oracle = ExactOracle::new(&q).unwrap();
        let schema = q.schema().clone();
        for seed in 0u64..60 {
            let mut db = UncertainDatabase::new(schema.clone());
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(17);
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            let dom = 2 + (seed % 2) as usize;
            for _ in 0..4 {
                let a = format!("a{}", next() % dom);
                let b = format!("b{}", next() % dom);
                let c = format!("c{}", next() % dom);
                db.insert_values("R1", [a.clone(), b.clone()]).unwrap();
                db.insert_values("R2", [b.clone(), c.clone()]).unwrap();
                db.insert_values("R3", [c.clone(), a.clone()]).unwrap();
                if next() % 2 == 0 {
                    db.insert_values("S3", [a, b, c]).unwrap();
                }
            }
            assert_eq!(
                solver.is_certain(&db),
                oracle.is_certain_bruteforce(&db),
                "seed {seed}\n{db}"
            );
        }
    }

    #[test]
    fn c3_random_instances_match_brute_force() {
        let q = catalog::c_k(3).query;
        let solver = CycleQuerySolver::new(&q).unwrap();
        let oracle = ExactOracle::new(&q).unwrap();
        let schema = q.schema().clone();
        for seed in 0u64..60 {
            let mut db = UncertainDatabase::new(schema.clone());
            let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(23);
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            let dom = 2;
            for _ in 0..4 {
                db.insert_values(
                    "R1",
                    [format!("a{}", next() % dom), format!("b{}", next() % dom)],
                )
                .unwrap();
                db.insert_values(
                    "R2",
                    [format!("b{}", next() % dom), format!("c{}", next() % dom)],
                )
                .unwrap();
                db.insert_values(
                    "R3",
                    [format!("c{}", next() % dom), format!("a{}", next() % dom)],
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
    fn c2_instances_match_the_terminal_cycle_solver() {
        // C(2) can be answered both by Theorem 3 (it is acyclic with a weak
        // terminal cycle) and by the Theorem 4 machinery; they must agree.
        let q = catalog::c_k(2).query;
        let cycle_solver = CycleQuerySolver::new(&q).unwrap();
        let oracle = ExactOracle::new(&q).unwrap();
        let schema = q.schema().clone();
        for seed in 0u64..50 {
            let mut db = UncertainDatabase::new(schema.clone());
            let mut state = seed.wrapping_mul(0x853C49E6748FEA9B).wrapping_add(29);
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            for _ in 0..5 {
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
                cycle_solver.is_certain(&db),
                oracle.is_certain_bruteforce(&db),
                "seed {seed}\n{db}"
            );
        }
    }
}
