//! A small generic directed graph.

use rustc_hash::FxHashSet;
use std::fmt;

/// Dense node identifier within a [`DiGraph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The dense index of the node.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a node id from a dense index.
    pub fn from_index(i: usize) -> Self {
        NodeId(i as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A directed graph with node payloads of type `N`.
///
/// Parallel edges are collapsed (the edge set is a set); self-loops are
/// allowed by the structure but never created by the attack-graph code (the
/// paper's attacks require distinct atoms).
#[derive(Clone, Debug)]
pub struct DiGraph<N> {
    nodes: Vec<N>,
    succ: Vec<Vec<NodeId>>,
    in_degree: Vec<usize>,
    edges: FxHashSet<(NodeId, NodeId)>,
}

impl<N> Default for DiGraph<N> {
    fn default() -> Self {
        DiGraph {
            nodes: Vec::new(),
            succ: Vec::new(),
            in_degree: Vec::new(),
            edges: FxHashSet::default(),
        }
    }
}

impl<N> DiGraph<N> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node with the given payload and returns its id.
    pub fn add_node(&mut self, payload: N) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(payload);
        self.succ.push(Vec::new());
        self.in_degree.push(0);
        id
    }

    /// Adds a directed edge; returns `false` if it was already present.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        if !self.edges.insert((from, to)) {
            return false;
        }
        self.succ[from.index()].push(to);
        self.in_degree[to.index()] += 1;
        true
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The payload of a node.
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    /// Successors of a node.
    pub fn successors(&self, id: NodeId) -> &[NodeId] {
        &self.succ[id.index()]
    }

    /// In-degree of a node.
    pub fn in_degree(&self, id: NodeId) -> usize {
        self.in_degree[id.index()]
    }

    /// True iff the edge `from -> to` is present.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.edges.contains(&(from, to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_construction() {
        let mut g: DiGraph<&str> = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        assert!(g.add_edge(a, b));
        assert!(g.add_edge(b, c));
        assert!(g.add_edge(c, a));
        assert!(!g.add_edge(a, b)); // duplicate
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.successors(a), &[b]);
        assert!(g.has_edge(a, b));
        assert!(!g.has_edge(b, a));
        assert_eq!(g.in_degree(a), 1, "the duplicate edge is not counted");
    }
}
