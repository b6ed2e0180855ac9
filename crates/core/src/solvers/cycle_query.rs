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
//!
//! The graph is read from the purified database's dictionary-coded
//! columns: a vertex is a dense id of a `(position, code)` pair, the edges
//! are one compressed adjacency array, the forbidden cycles are code vectors, and each
//! component is searched in place, restricted by its component number.

use super::CertaintySolver;
use crate::csr::{strong_components, Csr};
use crate::purify::purify;
use cqa_data::{FxHashMap, FxHashSet, UncertainDatabase, Value};
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
    /// `AC(k)`: exactly the cycles encoded by the `Sk` facts, as the codes
    /// of their constants in cycle-position order.
    Encoded(FxHashSet<Vec<u32>>),
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
        let index = db.index();

        // Vertices are dense ids of (cycle position, code) pairs; edges come
        // from the Ri facts.
        let mut ids: FxHashMap<(usize, u32), u32> = FxHashMap::default();
        let mut position: Vec<usize> = Vec::new();
        let mut code: Vec<u32> = Vec::new();
        let mut vertex = |pos: usize, c: u32| -> u32 {
            *ids.entry((pos, c)).or_insert_with(|| {
                position.push(pos);
                code.push(c);
                code.len() as u32 - 1
            })
        };
        let mut arcs = Vec::new();
        for (pos, &atom_id) in self.shape.r_atoms.iter().enumerate() {
            let columns = index.columns(self.query.atom(atom_id).relation());
            for row in 0..columns.row_count() {
                let row = columns.row(row);
                arcs.push((vertex(pos, row[0]), vertex((pos + 1) % k, row[1])));
            }
        }
        let graph = Csr::new(position.len(), &arcs);

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
                let columns = index.columns(atom.relation());
                let encoded = (0..columns.row_count()).map(|row| {
                    let row = columns.row(row);
                    positions.iter().map(|&p| row[p]).collect()
                });
                Forbidden::Encoded(encoded.collect())
            }
        };

        // Decompose into strong components; a falsifying marking exists iff
        // every component has a "good" cycle.
        let (component, count) = strong_components(&graph);
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); count];
        for (v, &c) in component.iter().enumerate() {
            members[c as usize].push(v as u32);
        }
        let mut search = ComponentSearch::new(&graph, &component, k);
        let mut vector = Vec::with_capacity(k);
        for (c, members) in members.iter().enumerate() {
            search.component = c as u32;
            let good = match &forbidden {
                Forbidden::All => search.has_cycle_longer_than_k(members),
                Forbidden::Encoded(set) => {
                    let mut unforbidden = |cycle: &[u32]| {
                        // Rotate the cycle so it starts at position 0, then
                        // read off the codes in cycle-position order.
                        let start = (cycle.iter())
                            .position(|&v| position[v as usize] == 0)
                            .expect("a k-cycle in the k-partite graph visits every position");
                        vector.clear();
                        vector.extend((0..k).map(|i| code[cycle[(start + i) % k] as usize]));
                        !set.contains(&vector)
                    };
                    search.any_k_cycle(members, &mut unforbidden)
                        || search.has_cycle_longer_than_k(members)
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

/// The cycle searches of the proof of Theorem 4 inside one strong component
/// of the k-partite graph: they follow only edges whose head lies in
/// `component`, and reuse their buffers from one search to the next.
struct ComponentSearch<'g> {
    graph: &'g Csr,
    /// The component number of each vertex.
    component_of: &'g [u32],
    /// The component searched.
    component: u32,
    k: usize,
    /// The simple path being extended, and its vertices.
    path: Vec<u32>,
    on_path: Vec<bool>,
    /// `seen[v] == stamp` iff the current return-path search reached or
    /// excluded `v`.
    seen: Vec<u32>,
    stamp: u32,
    frontier: Vec<u32>,
}

impl<'g> ComponentSearch<'g> {
    fn new(graph: &'g Csr, component_of: &'g [u32], k: usize) -> Self {
        ComponentSearch {
            graph,
            component_of,
            component: 0,
            k,
            path: Vec::with_capacity(k + 1),
            on_path: vec![false; graph.len()],
            seen: vec![0; graph.len()],
            stamp: 0,
            frontier: Vec::new(),
        }
    }

    fn inside(&self, v: u32) -> bool {
        self.component_of[v as usize] == self.component
    }

    fn push(&mut self, v: u32) {
        self.path.push(v);
        self.on_path[v as usize] = true;
    }

    fn pop(&mut self) {
        let v = self.path.pop().expect("a vertex to backtrack from");
        self.on_path[v as usize] = false;
    }

    /// Calls `visit` on each elementary cycle of length exactly `k`, once,
    /// as its vertices from the smallest one, and stops at the first call
    /// that returns `true`: `O(|V|^k)` for fixed `k`, the bound the proof
    /// uses ("the number of cycles of length k is at most |V|^k").
    fn any_k_cycle(&mut self, members: &[u32], visit: &mut impl FnMut(&[u32]) -> bool) -> bool {
        members.iter().any(|&start| {
            self.push(start);
            let found = self.close_k_cycle(start, visit);
            self.pop();
            found
        })
    }

    fn close_k_cycle(&mut self, start: u32, visit: &mut impl FnMut(&[u32]) -> bool) -> bool {
        let graph = self.graph;
        let last = *self.path.last().expect("a non-empty path") as usize;
        if self.path.len() == self.k {
            return graph.successors(last).contains(&start) && visit(&self.path);
        }
        for &w in graph.successors(last) {
            if w > start && self.inside(w) && !self.on_path[w as usize] {
                self.push(w);
                let found = self.close_k_cycle(start, visit);
                self.pop();
                if found {
                    return true;
                }
            }
        }
        false
    }

    /// Whether the component has an elementary cycle of length greater than
    /// `k`, by the criterion of the proof of Theorem 4:
    ///
    /// > `Si` contains an elementary cycle of length greater than `k` iff
    /// > `Si` contains a path `a1, a2, ..., ak, ak+1` such that
    /// > `a1 != ak+1` and `Si` contains a path from `ak+1` to `a1` that
    /// > contains no edge from `{a1, ..., ak} × V`.
    ///
    /// Enumerates the simple paths of `k` edges and, for each, searches for
    /// the return path without traversing `a1, ..., ak`.
    fn has_cycle_longer_than_k(&mut self, members: &[u32]) -> bool {
        members.iter().any(|&start| {
            self.push(start);
            let found = self.extend_to_long_cycle();
            self.pop();
            found
        })
    }

    fn extend_to_long_cycle(&mut self) -> bool {
        let graph = self.graph;
        let last = *self.path.last().expect("a non-empty path");
        if self.path.len() == self.k + 1 {
            return self.returns(last, self.path[0]);
        }
        for &w in graph.successors(last as usize) {
            if self.inside(w) && !self.on_path[w as usize] {
                self.push(w);
                let found = self.extend_to_long_cycle();
                self.pop();
                if found {
                    return true;
                }
            }
        }
        false
    }

    /// Whether `to` is reachable from `from` inside the component through
    /// vertices other than the path's first `k` (which `to` is one of).
    fn returns(&mut self, from: u32, to: u32) -> bool {
        if self.stamp == u32::MAX {
            self.seen.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        let stamp = self.stamp;
        for &v in &self.path[..self.k] {
            self.seen[v as usize] = stamp;
        }
        self.seen[from as usize] = stamp;
        self.frontier.clear();
        self.frontier.push(from);
        while let Some(v) = self.frontier.pop() {
            for &w in self.graph.successors(v as usize) {
                if w == to {
                    return true;
                }
                if self.inside(w) && self.seen[w as usize] != stamp {
                    self.seen[w as usize] = stamp;
                    self.frontier.push(w);
                }
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
        let purified = purify(db, &self.query);
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

    /// The number of k-cycles of a strongly connected graph, and whether it
    /// has an elementary cycle longer than `k`.
    fn searched(n: u32, arcs: &[(u32, u32)], k: usize) -> (usize, bool) {
        let graph = Csr::new(n as usize, arcs);
        let component_of = vec![0; n as usize];
        let members: Vec<u32> = (0..n).collect();
        let mut search = ComponentSearch::new(&graph, &component_of, k);
        let mut cycles = 0;
        search.any_k_cycle(&members, &mut |_| {
            cycles += 1;
            false
        });
        (cycles, search.has_cycle_longer_than_k(&members))
    }

    #[test]
    fn component_searches_on_small_graphs() {
        // A directed 6-cycle: no 3-cycle, a cycle longer than 3 but none
        // longer than 6.
        let hexagon = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)];
        assert_eq!(searched(6, &hexagon, 3), (0, true));
        assert_eq!(searched(6, &hexagon, 6), (1, false));
        // Two triangles sharing vertex 0: an elementary cycle visits 0 once,
        // so none is longer than 3.
        let bowtie = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)];
        assert_eq!(searched(5, &bowtie, 3), (2, false));
        // The 6-cycle with chords 3 -> 1 and 0 -> 4 closing two triangles.
        let chorded = [hexagon.as_slice(), &[(3, 1), (0, 4)]].concat();
        assert_eq!(searched(6, &chorded, 3), (2, true));
        // The complete digraph on three vertices has three 2-cycles.
        let k3 = [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)];
        assert_eq!(searched(3, &k3, 2), (3, true));
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

    /// The constant `n` at cycle position `pos`: `a{n}`, `b{n}`, `c{n}`, ...
    fn constant(pos: usize, n: usize) -> String {
        format!("{}{n}", char::from(b'a' + pos as u8))
    }

    #[test]
    fn ac_k_random_instances_match_brute_force() {
        for k in [3, 4] {
            let q = catalog::ac_k(k).query;
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
                    // A k-cycle of constants, encoded in Sk half of the time.
                    let cycle: Vec<String> =
                        (0..k).map(|pos| constant(pos, next() % dom)).collect();
                    for pos in 0..k {
                        let edge = [cycle[pos].clone(), cycle[(pos + 1) % k].clone()];
                        db.insert_values(&format!("R{}", pos + 1), edge).unwrap();
                    }
                    if next() % 2 == 0 {
                        db.insert_values(&format!("S{k}"), cycle).unwrap();
                    }
                }
                assert_eq!(
                    solver.is_certain(&db),
                    oracle.is_certain_bruteforce(&db),
                    "AC({k}) seed {seed}\n{db}"
                );
            }
        }
    }

    #[test]
    fn c_k_random_instances_match_brute_force() {
        for k in [3, 4] {
            let q = catalog::c_k(k).query;
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
                    for pos in 0..k {
                        let from = constant(pos, next() % dom);
                        let to = constant((pos + 1) % k, next() % dom);
                        db.insert_values(&format!("R{}", pos + 1), [from, to])
                            .unwrap();
                    }
                }
                assert_eq!(
                    solver.is_certain(&db),
                    oracle.is_certain_bruteforce(&db),
                    "C({k}) seed {seed}\n{db}"
                );
            }
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
