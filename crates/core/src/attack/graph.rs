//! Attack graphs (Definitions 3–5).

use super::ClosureTable;
use crate::csr::{strong_components, Csr};
use cqa_query::{AtomId, ConjunctiveQuery, JoinTree, QueryError};
use std::fmt;

/// Whether an attack is weak or strong (Definition 5).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AttackStrength {
    /// `key(G) ⊆ F^{⊞,q}`.
    Weak,
    /// `key(G) ⊄ F^{⊞,q}`.
    Strong,
}

impl fmt::Display for AttackStrength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackStrength::Weak => write!(f, "weak"),
            AttackStrength::Strong => write!(f, "strong"),
        }
    }
}

/// A directed attack `from ⇝ to` with its strength.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AttackEdge {
    /// The attacking atom `F`.
    pub from: AtomId,
    /// The attacked atom `G`.
    pub to: AtomId,
    /// Weak or strong (Definition 5).
    pub strength: AttackStrength,
}

/// The attack graph of an acyclic Boolean conjunctive query (Definition 4).
///
/// Construction requires the query to be Boolean and acyclic (attack graphs
/// are only defined for acyclic queries); self-join-freeness is *not*
/// required here but is required by every theorem that consumes the graph and
/// is therefore checked by [`crate::classify::classify`] and the solvers.
#[derive(Clone, Debug)]
pub struct AttackGraph {
    query: ConjunctiveQuery,
    join_tree: JoinTree,
    closures: ClosureTable,
    /// Sorted by `(from, to)`.
    edges: Vec<AttackEdge>,
    /// The attacked atoms of each atom, ascending: `edges` as adjacency.
    successors: Csr,
}

impl AttackGraph {
    /// Builds the attack graph of `query`.
    ///
    /// Fails with [`QueryError::NotBoolean`] for non-Boolean queries and with
    /// [`QueryError::CyclicQuery`] for queries that have no join tree.
    pub fn build(query: &ConjunctiveQuery) -> Result<Self, QueryError> {
        query.require_boolean()?;
        let join_tree = JoinTree::build(query).ok_or(QueryError::CyclicQuery)?;
        let closures = ClosureTable::compute(query)?;
        let index = closures.var_index().clone();

        let mut edges = Vec::new();
        for f in query.atom_ids() {
            for g in query.atom_ids() {
                if f == g {
                    continue;
                }
                // Definition 3: F attacks G iff no label on the join-tree path
                // from F to G is contained in F^{+,q}.
                let attacks = join_tree
                    .path_labels(f, g)
                    .iter()
                    .all(|label| !index.set_of(label.iter()).is_subset_of(&closures.plus(f)));
                if attacks {
                    // Definition 5: the attack is weak iff key(G) ⊆ F^{⊞,q}.
                    let strength = if closures.key_set(g).is_subset_of(&closures.boxed(f)) {
                        AttackStrength::Weak
                    } else {
                        AttackStrength::Strong
                    };
                    edges.push(AttackEdge {
                        from: f,
                        to: g,
                        strength,
                    });
                }
            }
        }
        let arcs: Vec<(u32, u32)> = (edges.iter())
            .map(|e| (e.from as u32, e.to as u32))
            .collect();
        Ok(AttackGraph {
            successors: Csr::new(query.len(), &arcs),
            query: query.clone(),
            join_tree,
            closures,
            edges,
        })
    }

    /// The query this graph was built for.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// The join tree used to build the graph. (By the uniqueness theorem of
    /// [Wijsen 2012] every join tree yields the same attack graph.)
    pub fn join_tree(&self) -> &JoinTree {
        &self.join_tree
    }

    /// The closure table (`F^{+,q}`, `F^{⊞,q}`).
    pub fn closures(&self) -> &ClosureTable {
        &self.closures
    }

    /// All attack edges.
    pub fn edges(&self) -> &[AttackEdge] {
        &self.edges
    }

    /// True iff `from` attacks `to`.
    pub fn attacks(&self, from: AtomId, to: AtomId) -> bool {
        self.strength(from, to).is_some()
    }

    /// The strength of the attack `from ⇝ to`, if it exists.
    pub fn strength(&self, from: AtomId, to: AtomId) -> Option<AttackStrength> {
        let at = (self.edges).binary_search_by_key(&(from, to), |e| (e.from, e.to));
        at.ok().map(|at| self.edges[at].strength)
    }

    /// The atoms attacked by `from`, ascending.
    pub fn attacked_by(&self, from: AtomId) -> Vec<AtomId> {
        let successors = self.successors.successors(from).iter();
        successors.map(|&to| to as AtomId).collect()
    }

    /// The attack graph as adjacency lists (vertex `i` = atom `i`).
    pub(crate) fn successors(&self) -> &Csr {
        &self.successors
    }

    /// Atoms with no incoming attack (in-degree zero). The rewriting-based
    /// solvers repeatedly eliminate such atoms.
    pub fn unattacked_atoms(&self) -> Vec<AtomId> {
        let mut attacked = vec![false; self.query.len()];
        for e in &self.edges {
            attacked[e.to] = true;
        }
        (self.query.atom_ids())
            .filter(|&id| !attacked[id])
            .collect()
    }

    /// True iff the attack graph contains no directed cycle: every strong
    /// component is a single atom (no atom attacks itself).
    /// By Theorem 1 this is equivalent to `CERTAINTY(q)` being first-order
    /// expressible (for self-join-free queries).
    pub fn is_acyclic(&self) -> bool {
        strong_components(&self.successors).1 == self.query.len()
    }

    /// A compact multi-line rendering, one `F -> G (strength)` line per edge.
    pub fn render(&self) -> String {
        let schema = self.query.schema();
        let mut out = String::new();
        for e in &self.edges {
            out.push_str(&format!(
                "{} -> {} ({})\n",
                self.query.atom(e.from).display(schema),
                self.query.atom(e.to).display(schema),
                e.strength
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_query::catalog;

    /// Figure 2 (right): the attack graph of q1.
    ///
    /// Atom ids: 0 = F = R(u,'a',x), 1 = G = S(y,x,z), 2 = H = T(x,y), 3 = I = P(x,z).
    #[test]
    fn figure2_attack_graph_edges() {
        let q = catalog::q1().query;
        let ag = AttackGraph::build(&q).unwrap();
        // From Example 3: F attacks G, H, I.
        assert!(ag.attacks(0, 1));
        assert!(ag.attacks(0, 2));
        assert!(ag.attacks(0, 3));
        // H attacks G but not F.
        assert!(ag.attacks(2, 1));
        assert!(!ag.attacks(2, 0));
        // The full edge set of Figure 2 (right): G attacks F; I attacks G; G attacks H?
        // Verify against the figure: edges are F->G, F->H, F->I, G->F, H->G, G->H, I->G, G->I.
        // We assert the properties stated explicitly in the paper's text instead of
        // guessing the picture: the attack from G to F exists and is the only strong one.
        assert!(ag.attacks(1, 0));
        let strong_edges: Vec<_> = ag
            .edges()
            .iter()
            .filter(|e| e.strength == AttackStrength::Strong)
            .collect();
        assert_eq!(strong_edges.len(), 1, "only strong attack is G -> F");
        assert_eq!((strong_edges[0].from, strong_edges[0].to), (1, 0));
        // Example 4: the attack F -> G is weak.
        assert_eq!(ag.strength(0, 1), Some(AttackStrength::Weak));
        // The attack graph of q1 is cyclic (F <-> G among others).
        assert!(!ag.is_acyclic());
    }

    #[test]
    fn attack_graph_requires_acyclic_queries() {
        let c3 = catalog::c_k(3).query;
        assert!(matches!(
            AttackGraph::build(&c3),
            Err(QueryError::CyclicQuery)
        ));
    }

    #[test]
    fn path_query_attack_graph_is_acyclic() {
        // {R(x;y), S(y;z)}: R attacks S (y not in R+ = {x}), S does not attack R
        // (the label {y} is contained in S+ = {y}).
        let q = catalog::fo_path2().query;
        let ag = AttackGraph::build(&q).unwrap();
        assert!(ag.attacks(0, 1));
        assert!(!ag.attacks(1, 0));
        assert!(ag.is_acyclic());
        assert_eq!(ag.unattacked_atoms(), vec![0]);
        assert_eq!(ag.strength(0, 1), Some(AttackStrength::Weak));
    }

    #[test]
    fn ac3_attack_graph_matches_figure5() {
        // Figure 5: each Ri attacks every other atom; S3 attacks nothing.
        let q = catalog::ac_k(3).query;
        let ag = AttackGraph::build(&q).unwrap();
        let s3 = 3usize;
        for i in 0..3usize {
            for j in 0..4usize {
                if i != j {
                    assert!(ag.attacks(i, j), "R{} should attack atom {}", i + 1, j);
                }
            }
        }
        for j in 0..3usize {
            assert!(!ag.attacks(s3, j), "S3 must not attack R{}", j + 1);
        }
        // All attacks are weak (Example 6 / Figure 5 caption).
        assert!(ag
            .edges()
            .iter()
            .all(|e| e.strength == AttackStrength::Weak));
        assert!(!ag.is_acyclic());
        // S3 is unattacked... no: S3 *is* attacked by every Ri; the Ri have
        // incoming attacks too, so no atom is unattacked.
        assert!(ag.unattacked_atoms().is_empty());
    }

    #[test]
    fn fig4_attack_graph_is_three_weak_terminal_two_cycles() {
        // Example 5: the attack graph consists of the cycles R1<->R2, R3<->R4,
        // R5<->R6, all weak; no attack leaves a cycle.
        let q = catalog::fig4().query;
        let ag = AttackGraph::build(&q).unwrap();
        let pairs = [(0usize, 1usize), (2, 3), (4, 5)];
        for &(a, b) in &pairs {
            assert!(ag.attacks(a, b), "{a} should attack {b}");
            assert!(ag.attacks(b, a), "{b} should attack {a}");
            assert_eq!(ag.strength(a, b), Some(AttackStrength::Weak));
            assert_eq!(ag.strength(b, a), Some(AttackStrength::Weak));
        }
        // No other attacks at all.
        assert_eq!(ag.edges().len(), 6);
        assert!(!ag.is_acyclic());
    }

    #[test]
    fn conference_query_attack_graph() {
        // {C(x,y;'Rome'), R(x;'A')}: the join-tree edge is labelled {x}, which is
        // contained in both C^{+} = {x,y} and R^{+} = {x}, so neither atom
        // attacks the other — the attack graph is empty and hence acyclic,
        // making the introduction's query first-order rewritable.
        let q = catalog::conference().query;
        let ag = AttackGraph::build(&q).unwrap();
        assert!(ag.is_acyclic());
        assert!(ag.edges().is_empty());
        assert_eq!(ag.unattacked_atoms().len(), 2);
    }

    #[test]
    fn single_atom_queries_have_empty_attack_graphs() {
        let schema = cqa_data::Schema::from_relations([("R", 2, 1)])
            .unwrap()
            .into_shared();
        let q = cqa_query::ConjunctiveQuery::builder(schema)
            .atom("R", [cqa_query::Term::var("x"), cqa_query::Term::var("y")])
            .build()
            .unwrap();
        let ag = AttackGraph::build(&q).unwrap();
        assert!(ag.edges().is_empty());
        assert!(ag.is_acyclic());
        assert_eq!(ag.unattacked_atoms(), vec![0]);
    }

    #[test]
    fn render_mentions_every_edge() {
        let q = catalog::q1().query;
        let ag = AttackGraph::build(&q).unwrap();
        let text = ag.render();
        assert_eq!(text.lines().count(), ag.edges().len());
        assert!(text.contains("strong"));
    }
}
