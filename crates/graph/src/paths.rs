//! Fixed-length cycles and long-cycle detection.
//!
//! These are the graph subroutines used by the polynomial-time algorithm of
//! **Theorem 4**: its proof decides, inside each strong component of the
//! constant graph, whether there is (a) a cycle of length exactly `k` that is
//! *not* encoded in the `S_k` relation, or (b) an elementary cycle of length
//! strictly greater than `k`. Case (b) is decided with exactly the
//! equivalence stated in the proof: a path `a1, ..., ak, ak+1` with
//! `a1 != ak+1` together with a return path from `ak+1` to `a1` that uses no
//! edge leaving `{a1, ..., ak}`.

use crate::{DiGraph, NodeId};

/// Breadth-first reachability from `from` to `to`, optionally forbidding a set
/// of vertices from being traversed (they may still be the target).
pub fn is_reachable<N>(graph: &DiGraph<N>, from: NodeId, to: NodeId, forbidden: &[NodeId]) -> bool {
    if from == to {
        return true;
    }
    let n = graph.node_count();
    let mut blocked = vec![false; n];
    for f in forbidden {
        blocked[f.index()] = true;
    }
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    visited[from.index()] = true;
    queue.push_back(from);
    while let Some(v) = queue.pop_front() {
        // A blocked vertex may be entered as the target but never traversed.
        if v != from && blocked[v.index()] {
            continue;
        }
        for &w in graph.successors(v) {
            if w == to {
                return true;
            }
            if !visited[w.index()] {
                visited[w.index()] = true;
                queue.push_back(w);
            }
        }
    }
    false
}

/// Calls `visit` for every elementary cycle of length exactly `k` that starts
/// at its smallest vertex (each cycle is visited once, as its vertex list).
/// If `visit` returns `true` the search stops early and the function returns
/// `true`; otherwise it returns `false` after exhausting all cycles.
///
/// Runs in `O(|V|^k)` for fixed `k`, which is the bound used in the proof of
/// Theorem 4 ("the number of cycles of length k is at most |V|^k").
pub fn for_each_cycle_of_length<N, F>(graph: &DiGraph<N>, k: usize, mut visit: F) -> bool
where
    F: FnMut(&[NodeId]) -> bool,
{
    if k == 0 {
        return false;
    }
    let n = graph.node_count();
    let mut path: Vec<NodeId> = Vec::with_capacity(k);
    let mut on_path = vec![false; n];

    // DFS restricted to vertices > start (canonical rotation) and to depth k.
    // `path` always contains the simple path built so far, ending in the
    // vertex currently being expanded.
    fn dfs<N, F>(
        graph: &DiGraph<N>,
        start: NodeId,
        k: usize,
        path: &mut Vec<NodeId>,
        on_path: &mut [bool],
        visit: &mut F,
    ) -> bool
    where
        F: FnMut(&[NodeId]) -> bool,
    {
        let current = *path.last().expect("non-empty path");
        if path.len() == k {
            // A cycle of length exactly k closes iff the last vertex has an
            // edge back to the start.
            return graph.has_edge(current, start) && visit(path);
        }
        for &w in graph.successors(current) {
            if w.index() > start.index() && !on_path[w.index()] {
                on_path[w.index()] = true;
                path.push(w);
                if dfs(graph, start, k, path, on_path, visit) {
                    return true;
                }
                path.pop();
                on_path[w.index()] = false;
            }
        }
        false
    }

    for s in 0..n {
        let start = NodeId::from_index(s);
        on_path[s] = true;
        path.push(start);
        if dfs(graph, start, k, &mut path, &mut on_path, &mut visit) {
            return true;
        }
        path.pop();
        on_path[s] = false;
    }
    false
}

/// Collects all elementary cycles of length exactly `k` (canonical rotation,
/// smallest vertex first): the oracle the tests hold
/// [`for_each_cycle_of_length`] and [`crate::cycles::elementary_cycles`] to.
#[cfg(test)]
pub(crate) fn cycles_of_length_exact<N>(graph: &DiGraph<N>, k: usize) -> Vec<Vec<NodeId>> {
    let mut out = Vec::new();
    for_each_cycle_of_length(graph, k, |cycle| {
        out.push(cycle.to_vec());
        false
    });
    out
}

/// Decides whether the graph contains an **elementary cycle of length
/// strictly greater than `k`**, using the criterion from the proof of
/// Theorem 4:
///
/// > `Si` contains an elementary cycle of length greater than `k` iff `Si`
/// > contains a path `a1, a2, ..., ak, ak+1` such that `a1 != ak+1` and `Si`
/// > contains a path from `ak+1` to `a1` that contains no edge from
/// > `{a1, ..., ak} × V`.
///
/// We enumerate **simple** paths of `k` edges (`a1..ak+1` pairwise distinct)
/// and test reachability in the graph with `a2..ak` removed as traversable
/// vertices (removing a vertex forbids exactly its outgoing edges on any
/// return path that would pass through it).
pub fn has_elementary_cycle_longer_than<N>(graph: &DiGraph<N>, k: usize) -> bool {
    let n = graph.node_count();
    if n == 0 {
        return false;
    }

    // DFS over simple paths with exactly k edges.
    fn dfs<N>(graph: &DiGraph<N>, path: &mut Vec<NodeId>, on_path: &mut [bool], k: usize) -> bool {
        if path.len() == k + 1 {
            let a1 = path[0];
            let last = *path.last().expect("non-empty path");
            // Forbid traversing the interior vertices a2..ak and the start a1
            // (a1 may only be the target); a return path then uses no edge
            // leaving {a1, ..., ak}.
            let forbidden: Vec<NodeId> = path[..k].to_vec();
            return is_reachable(graph, last, a1, &forbidden);
        }
        let current = *path.last().expect("non-empty path");
        for &w in graph.successors(current) {
            if !on_path[w.index()] {
                on_path[w.index()] = true;
                path.push(w);
                if dfs(graph, path, on_path, k) {
                    return true;
                }
                path.pop();
                on_path[w.index()] = false;
            }
        }
        false
    }

    let mut on_path = vec![false; n];
    for s in 0..n {
        let start = NodeId::from_index(s);
        let mut path = vec![start];
        on_path[s] = true;
        if dfs(graph, &mut path, &mut on_path, k) {
            return true;
        }
        on_path[s] = false;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycles::elementary_cycles;

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
    fn reachability_with_forbidden_vertices() {
        let g = graph(&[(0, 1), (1, 2), (0, 3), (3, 2)], 4);
        assert!(is_reachable(&g, NodeId(0), NodeId(2), &[]));
        assert!(is_reachable(&g, NodeId(0), NodeId(2), &[NodeId(1)]));
        assert!(!is_reachable(
            &g,
            NodeId(0),
            NodeId(2),
            &[NodeId(1), NodeId(3)]
        ));
        assert!(!is_reachable(&g, NodeId(2), NodeId(0), &[]));
        assert!(is_reachable(&g, NodeId(2), NodeId(2), &[]));
    }

    #[test]
    fn fixed_length_cycle_enumeration_matches_general_enumeration() {
        let g = graph(&[(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)], 3);
        let all = elementary_cycles(&g, None);
        for k in 1..=3 {
            let expected = all.iter().filter(|c| c.len() == k).count();
            assert_eq!(cycles_of_length_exact(&g, k).len(), expected, "length {k}");
        }
    }

    #[test]
    fn six_cycle_has_no_three_cycle_but_a_long_cycle() {
        // Directed 6-cycle: 0->1->2->3->4->5->0.
        let g = graph(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)], 6);
        assert!(cycles_of_length_exact(&g, 3).is_empty());
        assert_eq!(cycles_of_length_exact(&g, 6).len(), 1);
        assert!(has_elementary_cycle_longer_than(&g, 3));
        assert!(!has_elementary_cycle_longer_than(&g, 6));
    }

    #[test]
    fn two_triangles_sharing_a_vertex() {
        // Figure 7 (left/right) intuition: triangles 0-1-2 and 0-3-4 share vertex 0.
        let g = graph(&[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)], 5);
        assert_eq!(cycles_of_length_exact(&g, 3).len(), 2);
        // No elementary cycle can be longer than 3: the two triangles only
        // share a single vertex, and an elementary cycle may visit it once.
        assert!(!has_elementary_cycle_longer_than(&g, 3));
    }

    #[test]
    fn figure7_right_style_long_cycle() {
        // Two triangles sharing an *edge pattern* via distinct vertices allow a
        // 6-cycle: 0->1->2->3->4->5->0 plus chords 0->4 and 3->1 creating 3-cycles.
        let g = graph(
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 0),
                (3, 1),
                (0, 4),
            ],
            6,
        );
        assert!(has_elementary_cycle_longer_than(&g, 3));
    }

    #[test]
    fn for_each_cycle_early_exit() {
        let g = graph(&[(0, 1), (1, 0), (1, 2), (2, 1)], 3);
        let mut seen = 0;
        let stopped = for_each_cycle_of_length(&g, 2, |_| {
            seen += 1;
            true
        });
        assert!(stopped);
        assert_eq!(seen, 1);
    }
}
