//! Join trees and the Connectedness Condition (Section 3).
//!
//! A join tree for a conjunctive query `q` is an undirected tree whose
//! vertices are the atoms of `q` such that whenever a variable `x` occurs in
//! two atoms `F` and `G`, `x` occurs in every atom on the unique path linking
//! `F` and `G` (the **Connectedness Condition**). A query is **acyclic** iff
//! it has a join tree.
//!
//! Construction uses the classical maximum-weight-spanning-tree
//! characterisation (Bernstein–Goodman / Maier): weight every pair of atoms
//! by the number of shared variables, compute a maximum-weight spanning tree
//! of the complete graph, and check the Connectedness Condition; the query is
//! acyclic iff the check succeeds. The independent GYO test in [`crate::gyo`]
//! cross-validates this construction in the test suite.

use crate::{AtomId, ConjunctiveQuery, Variable};
use std::collections::BTreeSet;
use std::fmt;

/// A join tree for an acyclic conjunctive query.
///
/// Vertices are [`AtomId`]s; each edge carries its label
/// `vars(F) ∩ vars(G)` as in the paper's `F —L— G` notation.
#[derive(Clone, Debug)]
pub struct JoinTree {
    /// The tree neighbours of each atom.
    adjacency: Vec<Vec<AtomId>>,
    /// The tree edges, canonicalised `(min, max)`, with their labels.
    labels: Vec<((AtomId, AtomId), BTreeSet<Variable>)>,
}

impl JoinTree {
    /// Builds a join tree for `query`, or returns `None` if the query is
    /// cyclic (has no join tree).
    pub fn build(query: &ConjunctiveQuery) -> Option<JoinTree> {
        let n = query.len();
        let var_sets: Vec<BTreeSet<Variable>> = query.atoms().iter().map(|a| a.vars()).collect();
        let weight = |i: usize, j: usize| var_sets[i].intersection(&var_sets[j]).count();
        // Prim's algorithm on the complete graph: grow the tree from atom 0,
        // attaching the fringe atom with the heaviest edge into the tree.
        // Ties go to the smallest fringe atom and then to the tree atom
        // attached first, so every run builds the same tree.
        let mut edges = Vec::with_capacity(n.saturating_sub(1));
        let mut in_tree: Vec<bool> = (0..n).map(|v| v == 0).collect();
        // The heaviest edge from each fringe atom into the tree: (weight, tree atom).
        let mut best: Vec<(usize, AtomId)> = (0..n).map(|v| (weight(0, v), 0)).collect();
        for _ in 1..n {
            let mut pick = None;
            for v in (0..n).filter(|&v| !in_tree[v]) {
                if pick.is_none_or(|p: AtomId| best[v].0 > best[p].0) {
                    pick = Some(v);
                }
            }
            let pick = pick.expect("a fringe atom remains");
            in_tree[pick] = true;
            edges.push((best[pick].1, pick));
            for v in (0..n).filter(|&v| !in_tree[v]) {
                let w = weight(pick, v);
                if w > best[v].0 {
                    best[v] = (w, pick);
                }
            }
        }
        let candidate = JoinTree::from_edges(query, edges);
        candidate
            .satisfies_connectedness(query)
            .then_some(candidate)
    }

    /// Wraps the edges of a spanning tree over the atoms as a join-tree
    /// candidate, computing edge labels. The Connectedness Condition is
    /// *not* checked.
    fn from_edges(query: &ConjunctiveQuery, edges: Vec<(AtomId, AtomId)>) -> JoinTree {
        let mut adjacency = vec![Vec::new(); query.len()];
        let labels = edges
            .into_iter()
            .map(|(a, b)| {
                adjacency[a].push(b);
                adjacency[b].push(a);
                let label: BTreeSet<Variable> = query
                    .atom(a)
                    .vars()
                    .intersection(&query.atom(b).vars())
                    .cloned()
                    .collect();
                ((a.min(b), a.max(b)), label)
            })
            .collect();
        JoinTree { adjacency, labels }
    }

    /// Number of vertices (= atoms of the query).
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// True iff the query had no atoms.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// The edges of the join tree with their labels.
    pub fn labeled_edges(&self) -> impl Iterator<Item = (AtomId, AtomId, &BTreeSet<Variable>)> {
        self.labels.iter().map(|((a, b), l)| (*a, *b, l))
    }

    /// The label of the edge `{a, b}`, if it is a tree edge.
    pub fn edge_label(&self, a: AtomId, b: AtomId) -> Option<&BTreeSet<Variable>> {
        let key = (a.min(b), a.max(b));
        self.labels.iter().find(|(e, _)| *e == key).map(|(_, l)| l)
    }

    /// The vertices on the unique path from `from` to `to` (inclusive).
    pub fn path(&self, from: AtomId, to: AtomId) -> Vec<AtomId> {
        // Search the tree from `from`, recording each atom's parent, then
        // walk the parents back from `to`.
        let mut parent = vec![usize::MAX; self.len()];
        parent[from] = from;
        let mut stack = vec![from];
        while let Some(v) = stack.pop() {
            for &w in &self.adjacency[v] {
                if parent[w] == usize::MAX {
                    parent[w] = v;
                    stack.push(w);
                }
            }
        }
        assert_ne!(parent[to], usize::MAX, "join tree is connected");
        let (mut path, mut v) = (vec![to], to);
        while v != from {
            v = parent[v];
            path.push(v);
        }
        path.reverse();
        path
    }

    /// The labels along the unique path from `from` to `to`.
    ///
    /// This is the sequence `L1, ..., Lm` used in Definition 3 to decide
    /// whether `F` attacks `G`.
    pub fn path_labels(&self, from: AtomId, to: AtomId) -> Vec<&BTreeSet<Variable>> {
        (self.path(from, to).windows(2))
            .map(|w| {
                self.edge_label(w[0], w[1])
                    .expect("path edges are tree edges")
            })
            .collect()
    }

    /// Checks the Connectedness Condition: for every variable `x`, the atoms
    /// containing `x` induce a connected subtree.
    pub fn satisfies_connectedness(&self, query: &ConjunctiveQuery) -> bool {
        for var in query.vars() {
            let holders: Vec<AtomId> = query.atoms_containing(&var);
            if holders.len() <= 1 {
                continue;
            }
            // In a forest, the subgraph induced by `holders` is connected iff
            // it has exactly |holders| - 1 edges with both endpoints holding x.
            let edge_count = self
                .labels
                .iter()
                .filter(|(_, label)| label.contains(&var))
                .count();
            if edge_count != holders.len() - 1 {
                return false;
            }
        }
        true
    }
}

impl fmt::Display for JoinTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (a, b, label) in self.labeled_edges() {
            write!(f, "{a} --{{")?;
            for (i, v) in label.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{v}")?;
            }
            writeln!(f, "}}-- {b}")?;
        }
        Ok(())
    }
}

/// True iff the query is acyclic, i.e. admits a join tree.
pub fn is_acyclic(query: &ConjunctiveQuery) -> bool {
    JoinTree::build(query).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConjunctiveQuery, Term};
    use cqa_data::Schema;
    use std::sync::Arc;

    fn schema_q1() -> Arc<Schema> {
        Schema::from_relations([("R", 3, 1), ("S", 3, 1), ("T", 2, 1), ("P", 2, 1)])
            .unwrap()
            .into_shared()
    }

    /// q1 of Figure 2: {R(u,'a',x), S(y,x,z), T(x,y), P(x,z)}.
    fn q1() -> ConjunctiveQuery {
        ConjunctiveQuery::builder(schema_q1())
            .atom("R", [Term::var("u"), Term::constant("a"), Term::var("x")])
            .atom("S", [Term::var("y"), Term::var("x"), Term::var("z")])
            .atom("T", [Term::var("x"), Term::var("y")])
            .atom("P", [Term::var("x"), Term::var("z")])
            .build()
            .unwrap()
    }

    #[test]
    fn q1_is_acyclic_with_the_figure2_join_tree_shape() {
        let q = q1();
        let jt = JoinTree::build(&q).expect("q1 is acyclic");
        assert_eq!(jt.len(), 4);
        // S (atom 1) is the centre: it shares {x} with R, {x,y} with T, {x,z} with P.
        // A maximum-weight spanning tree must pick the weight-2 edges S-T and S-P,
        // plus a weight-1 edge attaching R.
        assert_eq!(
            jt.edge_label(1, 2).map(|l| l.len()),
            Some(2),
            "S-T edge labelled {{x,y}}"
        );
        assert_eq!(
            jt.edge_label(1, 3).map(|l| l.len()),
            Some(2),
            "S-P edge labelled {{x,z}}"
        );
        // Path from R (0) to T (2) passes through S (1), as in Figure 2.
        let path = jt.path(0, 2);
        assert!(path.contains(&1));
        let labels = jt.path_labels(0, 2);
        assert_eq!(labels.len(), path.len() - 1);
        assert!(jt.satisfies_connectedness(&q));
    }

    #[test]
    fn triangle_query_is_cyclic() {
        // C(3) = {R1(x1,x2), R2(x2,x3), R3(x3,x1)} is cyclic (no join tree).
        let schema = Schema::from_relations([("R1", 2, 1), ("R2", 2, 1), ("R3", 2, 1)])
            .unwrap()
            .into_shared();
        let q = ConjunctiveQuery::builder(schema)
            .atom("R1", [Term::var("x1"), Term::var("x2")])
            .atom("R2", [Term::var("x2"), Term::var("x3")])
            .atom("R3", [Term::var("x3"), Term::var("x1")])
            .build()
            .unwrap();
        assert!(JoinTree::build(&q).is_none());
        assert!(!is_acyclic(&q));
    }

    #[test]
    fn triangle_plus_all_variable_atom_is_acyclic() {
        // AC(3) adds S3(x1,x2,x3), which contains all variables, making the query acyclic.
        let schema =
            Schema::from_relations([("R1", 2, 1), ("R2", 2, 1), ("R3", 2, 1), ("S3", 3, 3)])
                .unwrap()
                .into_shared();
        let q = ConjunctiveQuery::builder(schema)
            .atom("R1", [Term::var("x1"), Term::var("x2")])
            .atom("R2", [Term::var("x2"), Term::var("x3")])
            .atom("R3", [Term::var("x3"), Term::var("x1")])
            .atom("S3", [Term::var("x1"), Term::var("x2"), Term::var("x3")])
            .build()
            .unwrap();
        let jt = JoinTree::build(&q).expect("AC(3) is acyclic");
        // S3 (atom 3) must be adjacent to every Ri in any join tree.
        for i in 0..3 {
            assert!(jt.edge_label(i, 3).is_some(), "S3 adjacent to atom {i}");
        }
        assert!(jt.satisfies_connectedness(&q));
    }

    #[test]
    fn single_atom_and_empty_queries_are_acyclic() {
        let schema = Schema::from_relations([("R", 2, 1)]).unwrap().into_shared();
        let single = ConjunctiveQuery::builder(schema.clone())
            .atom("R", [Term::var("x"), Term::var("y")])
            .build()
            .unwrap();
        assert!(is_acyclic(&single));
        assert_eq!(JoinTree::build(&single).unwrap().len(), 1);
        let empty = ConjunctiveQuery::boolean(schema, Vec::new()).unwrap();
        assert!(is_acyclic(&empty));
        assert!(JoinTree::build(&empty).unwrap().is_empty());
    }

    #[test]
    fn disconnected_queries_are_acyclic_with_empty_labels() {
        let schema = Schema::from_relations([("A", 1, 1), ("B", 1, 1)])
            .unwrap()
            .into_shared();
        let q = ConjunctiveQuery::builder(schema)
            .atom("A", [Term::var("u")])
            .atom("B", [Term::var("v")])
            .build()
            .unwrap();
        let jt = JoinTree::build(&q).expect("disconnected queries still have join trees");
        assert_eq!(jt.labeled_edges().count(), 1);
        let (_, _, label) = jt.labeled_edges().next().unwrap();
        assert!(label.is_empty());
    }

    #[test]
    fn path_queries_have_path_join_trees() {
        // R(x,y), S(y,z), T(z,w): the join tree must be the obvious path.
        let schema = Schema::from_relations([("R", 2, 1), ("S", 2, 1), ("T", 2, 1)])
            .unwrap()
            .into_shared();
        let q = ConjunctiveQuery::builder(schema)
            .atom("R", [Term::var("x"), Term::var("y")])
            .atom("S", [Term::var("y"), Term::var("z")])
            .atom("T", [Term::var("z"), Term::var("w")])
            .build()
            .unwrap();
        let jt = JoinTree::build(&q).unwrap();
        assert_eq!(jt.path(0, 2), vec![0, 1, 2]);
        let labels = jt.path_labels(0, 2);
        assert_eq!(labels[0].iter().next().unwrap().name(), "y");
        assert_eq!(labels[1].iter().next().unwrap().name(), "z");
    }
}
