//! Elementary (simple directed) cycles.
//!
//! Definition 5 of the paper: a cycle of size `n` in the attack graph is a
//! sequence of edges `F0 -> F1 -> ... -> Fn-1 -> F0` with pairwise-distinct
//! vertices, i.e. an **elementary** cycle. Attack graphs have one vertex per
//! query atom, so they are tiny; the enumeration below is a straightforward
//! ordered DFS (the classic Tiernan/Johnson scheme without the blocking
//! machinery), with an optional cap for robustness.

use crate::{DiGraph, NodeId};

/// True iff the graph contains no directed cycle (self-loops count as cycles).
pub fn is_acyclic<N>(graph: &DiGraph<N>) -> bool {
    // Kahn's algorithm: the graph is acyclic iff all nodes can be peeled in
    // topological order.
    let n = graph.node_count();
    let mut in_deg: Vec<usize> = (0..n)
        .map(|i| graph.in_degree(NodeId::from_index(i)))
        .collect();
    let mut queue: Vec<usize> = (0..n).filter(|&i| in_deg[i] == 0).collect();
    let mut seen = 0usize;
    while let Some(v) = queue.pop() {
        seen += 1;
        for &w in graph.successors(NodeId::from_index(v)) {
            in_deg[w.index()] -= 1;
            if in_deg[w.index()] == 0 {
                queue.push(w.index());
            }
        }
    }
    seen == n
}

/// Enumerates all elementary cycles of the graph.
///
/// Each cycle is reported once, as the list of its vertices starting from its
/// smallest vertex id (so rotations are canonicalised). `limit` caps the
/// number of cycles returned; `None` means unbounded.
pub fn elementary_cycles<N>(graph: &DiGraph<N>, limit: Option<usize>) -> Vec<Vec<NodeId>> {
    let n = graph.node_count();
    let cap = limit.unwrap_or(usize::MAX);
    let mut cycles = Vec::new();

    // For each start vertex s, search for simple paths that only use vertices
    // with id >= s and return to s. Starting from the smallest vertex of the
    // cycle guarantees each cycle is found exactly once.
    for s in 0..n {
        if cycles.len() >= cap {
            break;
        }
        let start = NodeId::from_index(s);
        let mut path = vec![start];
        let mut on_path = vec![false; n];
        on_path[s] = true;
        // DFS stack of (node, next successor index).
        let mut stack: Vec<(NodeId, usize)> = vec![(start, 0)];

        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            let succs = graph.successors(v);
            if *next >= succs.len() {
                stack.pop();
                on_path[v.index()] = false;
                path.pop();
                continue;
            }
            let w = succs[*next];
            *next += 1;
            if w == start {
                cycles.push(path.clone());
                if cycles.len() >= cap {
                    return cycles;
                }
            } else if w.index() > s && !on_path[w.index()] {
                on_path[w.index()] = true;
                path.push(w);
                stack.push((w, 0));
            }
        }
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::cycles_of_length_exact;

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
    fn acyclicity() {
        assert!(is_acyclic(&graph(&[(0, 1), (1, 2), (0, 2)], 3)));
        assert!(!is_acyclic(&graph(&[(0, 1), (1, 0)], 2)));
        assert!(!is_acyclic(&graph(&[(0, 0)], 1)));
        assert!(is_acyclic(&graph(&[], 0)));
    }

    #[test]
    fn enumerates_all_cycles_of_a_two_cycle_pair() {
        // 0 <-> 1 and 1 <-> 2: two elementary 2-cycles, no 3-cycle.
        let g = graph(&[(0, 1), (1, 0), (1, 2), (2, 1)], 3);
        let cycles = elementary_cycles(&g, None);
        assert_eq!(cycles.len(), 2);
        assert!(cycles.iter().all(|c| c.len() == 2));
    }

    #[test]
    fn counts_cycles_of_the_complete_digraph_on_three_vertices() {
        // K3 with all 6 arcs: 3 two-cycles + 2 three-cycles = 5 elementary cycles.
        let g = graph(&[(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)], 3);
        let cycles = elementary_cycles(&g, None);
        assert_eq!(cycles.len(), 5);
        assert_eq!(cycles_of_length_exact(&g, 2).len(), 3);
        assert_eq!(cycles_of_length_exact(&g, 3).len(), 2);
    }

    #[test]
    fn each_cycle_reported_once_with_canonical_rotation() {
        let g = graph(&[(0, 1), (1, 2), (2, 0)], 3);
        let cycles = elementary_cycles(&g, None);
        assert_eq!(cycles, vec![vec![NodeId(0), NodeId(1), NodeId(2)]]);
    }

    #[test]
    fn limit_caps_the_enumeration() {
        let g = graph(&[(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)], 3);
        assert_eq!(elementary_cycles(&g, Some(2)).len(), 2);
    }

    #[test]
    fn self_loop_is_a_cycle_of_length_one() {
        let g = graph(&[(0, 0)], 1);
        let cycles = elementary_cycles(&g, None);
        assert_eq!(cycles, vec![vec![NodeId(0)]]);
    }
}
