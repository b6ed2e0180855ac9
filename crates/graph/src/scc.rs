//! Strongly connected components (Tarjan).
//!
//! Used by the attack-graph cycle classification (Sections 5–6) and by the
//! cycle-query solver of Theorem 4, whose proof decomposes the k-partite
//! constant graph into strong components.

use crate::{DiGraph, NodeId};

/// The strongly connected components of a graph, sinks first (Tarjan's
/// output order: a component comes before every component that reaches it).
#[derive(Clone, Debug)]
pub struct SccDecomposition {
    /// The vertex sets of the components.
    pub components: Vec<Vec<NodeId>>,
    /// Maps each node to the index of its component in `components`.
    pub component_of: Vec<usize>,
}

impl SccDecomposition {
    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True iff the graph had no nodes.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// The component index of a node.
    pub fn component_of(&self, node: NodeId) -> usize {
        self.component_of[node.index()]
    }
}

/// Computes the strongly connected components with Tarjan's algorithm
/// (iterative, so deep graphs do not overflow the stack).
pub fn strongly_connected_components<N>(graph: &DiGraph<N>) -> SccDecomposition {
    let n = graph.node_count();
    const UNVISITED: usize = usize::MAX;

    let mut index_of = vec![UNVISITED; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut components: Vec<Vec<NodeId>> = Vec::new();
    let mut component_of = vec![usize::MAX; n];

    // Explicit DFS stack: (node, next successor position).
    let mut call_stack: Vec<(usize, usize)> = Vec::new();

    for start in 0..n {
        if index_of[start] != UNVISITED {
            continue;
        }
        call_stack.push((start, 0));
        index_of[start] = next_index;
        lowlink[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;

        while let Some(&mut (v, ref mut succ_pos)) = call_stack.last_mut() {
            let succs = graph.successors(NodeId::from_index(v));
            if *succ_pos < succs.len() {
                let w = succs[*succ_pos].index();
                *succ_pos += 1;
                if index_of[w] == UNVISITED {
                    index_of[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call_stack.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index_of[w]);
                }
            } else {
                call_stack.pop();
                if let Some(&(parent, _)) = call_stack.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index_of[v] {
                    let mut component = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack invariant");
                        on_stack[w] = false;
                        component_of[w] = components.len();
                        component.push(NodeId::from_index(w));
                        if w == v {
                            break;
                        }
                    }
                    component.sort();
                    components.push(component);
                }
            }
        }
    }

    SccDecomposition {
        components,
        component_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(edges: &[(u32, u32)], nodes: u32) -> DiGraph<u32> {
        let mut g = DiGraph::new();
        for i in 0..nodes {
            g.add_node(i);
        }
        for &(a, b) in edges {
            g.add_edge(NodeId(a), NodeId(b));
        }
        g
    }

    #[test]
    fn single_cycle_is_one_component() {
        let g = graph(&[(0, 1), (1, 2), (2, 0)], 3);
        let scc = strongly_connected_components(&g);
        assert_eq!(scc.len(), 1);
        assert_eq!(scc.components[0].len(), 3);
    }

    #[test]
    fn dag_has_singleton_components() {
        let g = graph(&[(0, 1), (1, 2), (0, 2)], 3);
        let scc = strongly_connected_components(&g);
        assert_eq!(scc.len(), 3);
        assert!(scc.components.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn two_cycles_and_a_bridge() {
        // 0 <-> 1, 2 <-> 3, bridge 1 -> 2.
        let g = graph(&[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)], 4);
        let scc = strongly_connected_components(&g);
        assert_eq!(scc.len(), 2);
        assert!(scc.components.iter().all(|c| c.len() == 2));
        assert_eq!(scc.component_of(NodeId(0)), scc.component_of(NodeId(1)));
        assert_ne!(scc.component_of(NodeId(0)), scc.component_of(NodeId(2)));
    }

    #[test]
    fn self_loop_stays_a_singleton() {
        let g = graph(&[(0, 0), (0, 1)], 2);
        let scc = strongly_connected_components(&g);
        assert_eq!(scc.components, vec![vec![NodeId(1)], vec![NodeId(0)]]);
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        // A long path plus a back edge: one big SCC; exercises the iterative DFS.
        let n = 50_000u32;
        let mut edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.push((n - 1, 0));
        let g = graph(&edges, n);
        let scc = strongly_connected_components(&g);
        assert_eq!(scc.len(), 1);
    }
}
