//! Dense-id digraphs in compressed sparse row form, and their strong
//! components.
//!
//! The crate searches two kinds of graph: attack graphs (one vertex per
//! atom) and the `k`-partite graph of Theorem 4 (one vertex per
//! `(cycle position, dictionary code)`). Both are built once and then only
//! read, so each is a [`Csr`]: the successors of a vertex are one slice of a
//! shared target array. [`strong_components`] is the one Tarjan pass both
//! graphs are classified with.

/// A directed graph over the vertices `0..n`: the successors of `v` are
/// `targets[offsets[v]..offsets[v + 1]]`.
#[derive(Clone, Debug)]
pub(crate) struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    /// The graph over `0..n` with the given arcs; each vertex lists its
    /// successors in the order its arcs are given.
    pub(crate) fn new(n: usize, arcs: &[(u32, u32)]) -> Csr {
        let mut offsets = vec![0u32; n + 1];
        for &(from, _) in arcs {
            offsets[from as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut next = offsets.clone();
        let mut targets = vec![0u32; arcs.len()];
        for &(from, to) in arcs {
            let at = &mut next[from as usize];
            targets[*at as usize] = to;
            *at += 1;
        }
        Csr { offsets, targets }
    }

    /// Number of vertices.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The successors of `v`.
    pub(crate) fn successors(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// The strongly connected components of `graph` (Tarjan's algorithm,
/// iterative, so long paths do not overflow the stack): `component[v]` is
/// the number of `v`'s component, and components are numbered in Tarjan's
/// output order, so a component's number is smaller than that of every
/// component reaching it. Returns the numbering and the component count.
pub(crate) fn strong_components(graph: &Csr) -> (Vec<u32>, usize) {
    const UNVISITED: u32 = u32::MAX;
    let n = graph.len();
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut component = vec![UNVISITED; n];
    let mut stack: Vec<u32> = Vec::new();
    // Depth-first search frames: (vertex, position of its next successor).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    let (mut next_index, mut count) = (0u32, 0usize);
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        while let Some(&mut (v, ref mut at)) = frames.last_mut() {
            if *at == 0 && index[v] == UNVISITED {
                index[v] = next_index;
                lowlink[v] = next_index;
                next_index += 1;
                stack.push(v as u32);
            }
            if let Some(&w) = graph.successors(v).get(*at) {
                *at += 1;
                let w = w as usize;
                if index[w] == UNVISITED {
                    frames.push((w, 0));
                } else if component[w] == UNVISITED {
                    // `w` is still on the stack: a back or cross edge
                    // inside the current search.
                    lowlink[v] = lowlink[v].min(index[w]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                lowlink[parent] = lowlink[parent].min(lowlink[v]);
            }
            if lowlink[v] == index[v] {
                loop {
                    let w = stack.pop().expect("v is on the stack") as usize;
                    component[w] = count as u32;
                    if w == v {
                        break;
                    }
                }
                count += 1;
            }
        }
    }
    (component, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn successors_keep_arc_order() {
        let g = Csr::new(3, &[(0, 2), (1, 0), (0, 1)]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.successors(0), &[2, 1]);
        assert_eq!(g.successors(1), &[0]);
        assert!(g.successors(2).is_empty());
    }

    #[test]
    fn two_cycles_and_a_bridge() {
        // 0 <-> 1, 2 <-> 3, bridge 1 -> 2: the sink {2, 3} comes first.
        let g = Csr::new(4, &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]);
        assert_eq!(strong_components(&g), (vec![1, 1, 0, 0], 2));
    }

    #[test]
    fn a_dag_has_singleton_components_sinks_first() {
        let g = Csr::new(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(strong_components(&g), (vec![2, 1, 0], 3));
    }

    #[test]
    fn a_long_cycle_does_not_overflow_the_stack() {
        let n = 50_000u32;
        let arcs: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let (component, count) = strong_components(&Csr::new(n as usize, &arcs));
        assert_eq!(count, 1);
        assert!(component.iter().all(|&c| c == 0));
    }
}
