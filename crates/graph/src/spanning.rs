//! Maximum-weight spanning trees and undirected-tree path queries.
//!
//! Join trees (Section 3 of the paper, after Beeri–Fagin–Maier–Yannakakis)
//! are built from the *intersection graph* of a conjunctive query: vertices
//! are atoms and the weight of edge `{F, G}` is `|vars(F) ∩ vars(G)|`. A
//! classical result states that a query is acyclic iff some (equivalently,
//! every) maximum-weight spanning tree of this graph satisfies the
//! Connectedness Condition; `cqa-query` uses [`maximum_spanning_tree`] and
//! then verifies the condition.

/// An undirected tree over `n` vertices, stored as an adjacency list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tree {
    adjacency: Vec<Vec<usize>>,
    edges: Vec<(usize, usize)>,
}

impl Tree {
    /// Builds a tree from an explicit edge list over vertices `0..n`.
    ///
    /// The edge list is trusted to be a spanning tree (n-1 edges, connected);
    /// this is checked with a debug assertion.
    pub fn from_edges(n: usize, edges: Vec<(usize, usize)>) -> Self {
        debug_assert!(n == 0 || edges.len() == n - 1, "spanning tree edge count");
        let mut adjacency = vec![Vec::new(); n];
        for &(a, b) in &edges {
            adjacency[a].push(b);
            adjacency[b].push(a);
        }
        Tree { adjacency, edges }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// True iff the tree has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// The edges of the tree.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// The unique path between two vertices, as the list of vertices from
    /// `from` to `to` (inclusive). Returns `None` if they are disconnected
    /// (cannot happen in a spanning tree, but kept total for robustness).
    pub fn path(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        if from == to {
            return Some(vec![from]);
        }
        let n = self.adjacency.len();
        let mut parent = vec![usize::MAX; n];
        let mut visited = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        visited[from] = true;
        queue.push_back(from);
        while let Some(v) = queue.pop_front() {
            for &w in &self.adjacency[v] {
                if !visited[w] {
                    visited[w] = true;
                    parent[w] = v;
                    if w == to {
                        let mut path = vec![to];
                        let mut cur = to;
                        while cur != from {
                            cur = parent[cur];
                            path.push(cur);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(w);
                }
            }
        }
        None
    }

    /// The edges along the unique path between two vertices.
    pub fn path_edges(&self, from: usize, to: usize) -> Option<Vec<(usize, usize)>> {
        let path = self.path(from, to)?;
        Some(path.windows(2).map(|w| (w[0], w[1])).collect())
    }
}

/// Computes a **maximum-weight spanning tree** of the complete undirected
/// graph over `0..n` with edge weights given by `weight(i, j)` (assumed
/// symmetric). Uses Prim's algorithm on the dense graph, `O(n^2)` calls to
/// `weight`.
///
/// Ties are broken deterministically towards smaller vertex indices so that
/// repeated runs build the same tree.
pub fn maximum_spanning_tree<W>(n: usize, mut weight: W) -> Tree
where
    W: FnMut(usize, usize) -> i64,
{
    if n == 0 {
        return Tree::from_edges(0, Vec::new());
    }
    let mut in_tree = vec![false; n];
    let mut best_weight = vec![i64::MIN; n];
    let mut best_parent = vec![usize::MAX; n];
    in_tree[0] = true;
    for v in 1..n {
        best_weight[v] = weight(0, v);
        best_parent[v] = 0;
    }
    let mut edges = Vec::with_capacity(n - 1);
    for _ in 1..n {
        // Pick the heaviest fringe vertex (smallest index on ties).
        let mut pick = usize::MAX;
        for v in 0..n {
            if !in_tree[v] && (pick == usize::MAX || best_weight[v] > best_weight[pick]) {
                pick = v;
            }
        }
        in_tree[pick] = true;
        edges.push((best_parent[pick], pick));
        for v in 0..n {
            if !in_tree[v] {
                let w = weight(pick, v);
                if w > best_weight[v] {
                    best_weight[v] = w;
                    best_parent[v] = pick;
                }
            }
        }
    }
    Tree::from_edges(n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_vertex_tree() {
        let t = maximum_spanning_tree(1, |_, _| 0);
        assert_eq!(t.len(), 1);
        assert!(t.edges().is_empty());
        assert_eq!(t.path(0, 0), Some(vec![0]));
    }

    #[test]
    fn picks_heavy_edges() {
        // Weights: 0-1: 5, 0-2: 1, 1-2: 4. Max spanning tree = {0-1, 1-2}.
        let w = |a: usize, b: usize| match (a.min(b), a.max(b)) {
            (0, 1) => 5,
            (0, 2) => 1,
            (1, 2) => 4,
            _ => 0,
        };
        let t = maximum_spanning_tree(3, w);
        let mut edges: Vec<(usize, usize)> = t
            .edges()
            .iter()
            .map(|&(a, b)| (a.min(b), a.max(b)))
            .collect();
        edges.sort();
        assert_eq!(edges, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn tree_weight_is_maximal_on_a_small_graph() {
        // Exhaustively check optimality on 4 vertices against all spanning trees.
        let weights = [[0, 3, 1, 7], [3, 0, 2, 4], [1, 2, 0, 5], [7, 4, 5, 0]];
        let w = |a: usize, b: usize| weights[a][b];
        let t = maximum_spanning_tree(4, w);
        let tree_weight: i64 = t.edges().iter().map(|&(a, b)| weights[a][b]).sum();
        // All 16 labelled spanning trees of K4 (Cayley: 4^{4-2}); enumerate by
        // brute force over all 3-edge subsets that form a tree.
        let all_edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let mut best = i64::MIN;
        for i in 0..6 {
            for j in i + 1..6 {
                for k in j + 1..6 {
                    let es = [all_edges[i], all_edges[j], all_edges[k]];
                    // Check connectivity via union-find on 4 vertices.
                    let mut parent = [0, 1, 2, 3];
                    fn find(p: &mut [usize; 4], x: usize) -> usize {
                        if p[x] != x {
                            p[x] = find(p, p[x]);
                        }
                        p[x]
                    }
                    let mut ok = true;
                    for &(a, b) in &es {
                        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                        if ra == rb {
                            ok = false;
                            break;
                        }
                        parent[ra] = rb;
                    }
                    if ok {
                        let weight: i64 = es.iter().map(|&(a, b)| weights[a][b]).sum();
                        best = best.max(weight);
                    }
                }
            }
        }
        assert_eq!(tree_weight, best);
    }

    #[test]
    fn paths_in_a_path_tree() {
        let t = Tree::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(t.path(0, 3), Some(vec![0, 1, 2, 3]));
        assert_eq!(t.path(3, 1), Some(vec![3, 2, 1]));
        assert_eq!(t.path_edges(0, 2), Some(vec![(0, 1), (1, 2)]));
    }

    #[test]
    fn zero_weight_graph_still_spans() {
        let t = maximum_spanning_tree(5, |_, _| 0);
        assert_eq!(t.edges().len(), 4);
        for v in 1..5 {
            assert!(t.path(0, v).is_some());
        }
    }
}
