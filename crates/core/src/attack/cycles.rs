//! Cycle classification of attack graphs (Definitions 5 and 6).
//!
//! * A cycle is **strong** if it contains at least one strong attack, and
//!   **weak** otherwise.
//! * A cycle is **terminal** if no edge leads from a vertex in the cycle to a
//!   vertex outside the cycle (Definition 6).
//!
//! The complexity classification needs three facts about a query's attack
//! graph: does it have a cycle at all, does it have a strong cycle, and are
//! all (weak) cycles terminal. [`CycleAnalysis`] reads all three off one
//! pass of Tarjan's strong-components algorithm, in time linear in the
//! graph, and additionally exposes a [`CycleAnalysis::strong_two_cycle`]
//! witness as promised by Lemma 4. Every cycle lies inside one strong
//! component, and every atom of a component with at least two atoms lies on
//! a cycle inside it (attack graphs have no self-loops), so:
//!
//! * the graph has a cycle iff some component has at least two atoms;
//! * it has a strong cycle iff some strong attack `F ⇝ G` joins two atoms of
//!   one component — a shortest path from `G` back to `F` closes an
//!   elementary cycle through that attack;
//! * every cycle is terminal iff each component with at least two atoms has
//!   no attack leaving it and exactly as many attacks inside it as atoms,
//!   which makes the component a single cycle. Conversely, an attack leaving
//!   a component leaves every cycle through its source; and in a component
//!   with more attacks than atoms, a cycle missing some atom of it is left
//!   by an attack (the component is strongly connected), while a cycle
//!   through all its atoms has a chord, which closes a cycle that misses one.
//!
//! [`elementary_cycles`] lists the cycles themselves. Their number can be
//! exponential in the number of atoms (a complete attack graph on `n` atoms
//! has at least `(n - 1)!` of them), so no classifier or solver calls it: it
//! is the reference the tests hold [`CycleAnalysis`] to, and what the
//! paper's worked examples count.

use super::{AttackGraph, AttackStrength};
use crate::csr::strong_components;
use cqa_query::AtomId;

/// One elementary cycle of the attack graph with its classification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleInfo {
    /// The atoms on the cycle, in cycle order (starting from the smallest id).
    pub atoms: Vec<AtomId>,
    /// True iff some attack on the cycle is strong.
    pub strong: bool,
    /// True iff no attack leads from a cycle vertex to a vertex outside the cycle.
    pub terminal: bool,
}

impl CycleInfo {
    /// Length of the cycle (number of attacks on it).
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Cycles are never empty.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }
}

/// Enumerates every elementary cycle of the attack graph, each once,
/// starting from its smallest atom, with its classification.
///
/// **Exponential**: the number of cycles can grow exponentially with the
/// number of atoms. No classifier or solver calls this; it is the reference
/// enumeration [`CycleAnalysis`] is tested against, and what the paper's
/// worked examples count.
pub fn elementary_cycles(graph: &AttackGraph) -> Vec<CycleInfo> {
    let n = graph.query().len();
    let mut cycles = Vec::new();
    // From each start atom `s`, extend simple paths through atoms larger
    // than `s` and report those that return to `s`: starting every cycle
    // at its smallest atom finds it exactly once.
    for s in 0..n {
        let mut path = vec![s];
        let mut on_path = vec![false; n];
        on_path[s] = true;
        // Depth-first search frames: (atom, position of its next successor).
        let mut frames: Vec<(AtomId, usize)> = vec![(s, 0)];
        while let Some(&mut (v, ref mut at)) = frames.last_mut() {
            let Some(&w) = graph.successors().successors(v).get(*at) else {
                frames.pop();
                on_path[v] = false;
                path.pop();
                continue;
            };
            *at += 1;
            let w = w as AtomId;
            if w == s {
                cycles.push(classify_cycle(graph, path.clone()));
            } else if w > s && !on_path[w] {
                on_path[w] = true;
                path.push(w);
                frames.push((w, 0));
            }
        }
    }
    cycles
}

fn classify_cycle(graph: &AttackGraph, atoms: Vec<AtomId>) -> CycleInfo {
    let strong = atoms.iter().enumerate().any(|(i, &from)| {
        let to = atoms[(i + 1) % atoms.len()];
        graph.strength(from, to) == Some(AttackStrength::Strong)
    });
    let terminal =
        (atoms.iter()).all(|&from| graph.attacked_by(from).iter().all(|to| atoms.contains(to)));
    CycleInfo {
        atoms,
        strong,
        terminal,
    }
}

/// The cycle structure of an attack graph, read off its strong components.
#[derive(Clone, Debug)]
pub struct CycleAnalysis {
    has_cycle: bool,
    has_strong_cycle: bool,
    all_cycles_terminal: bool,
    /// The mutual attacks `(F, G)` with `F < G`, ascending.
    two_cycles: Vec<(AtomId, AtomId)>,
}

impl CycleAnalysis {
    /// Analyses the cycles of an attack graph.
    pub fn analyze(graph: &AttackGraph) -> CycleAnalysis {
        let (component, count) = strong_components(graph.successors());
        let mut atoms = vec![0usize; count];
        for &c in &component {
            atoms[c as usize] += 1;
        }
        let (mut inside, mut leaves) = (vec![0usize; count], vec![false; count]);
        let mut has_strong_cycle = false;
        for e in graph.edges() {
            let from = component[e.from] as usize;
            if from == component[e.to] as usize {
                inside[from] += 1;
                has_strong_cycle |= e.strength == AttackStrength::Strong;
            } else {
                leaves[from] = true;
            }
        }
        let mut cyclic = (0..count).filter(|&c| atoms[c] >= 2).peekable();
        let has_cycle = cyclic.peek().is_some();
        let all_cycles_terminal = cyclic.all(|c| !leaves[c] && inside[c] == atoms[c]);
        let two_cycles = (graph.edges().iter())
            .filter(|e| e.from < e.to && graph.attacks(e.to, e.from))
            .map(|e| (e.from, e.to))
            .collect();
        CycleAnalysis {
            has_cycle,
            has_strong_cycle,
            all_cycles_terminal,
            two_cycles,
        }
    }

    /// True iff the attack graph has at least one cycle.
    pub fn has_cycle(&self) -> bool {
        self.has_cycle
    }

    /// True iff some cycle is strong (Theorem 2 then gives coNP-completeness).
    pub fn has_strong_cycle(&self) -> bool {
        self.has_strong_cycle
    }

    /// True iff every cycle is weak.
    pub fn all_cycles_weak(&self) -> bool {
        !self.has_strong_cycle()
    }

    /// True iff every cycle is terminal (Definition 6). Together with
    /// weakness this is the premise of Theorem 3.
    pub fn all_cycles_terminal(&self) -> bool {
        self.all_cycles_terminal
    }

    /// A strong cycle of length 2, if any strong cycle exists.
    ///
    /// Lemma 4 guarantees that an attack graph with a strong cycle has a
    /// strong cycle of length 2; the returned pair `(F, G)` is ordered so
    /// that the attack `F ⇝ G` is strong (as assumed in the proof of
    /// Theorem 2). Of several, it is the first of [`CycleAnalysis::two_cycles`].
    pub fn strong_two_cycle(&self, graph: &AttackGraph) -> Option<(AtomId, AtomId)> {
        let strong = |from, to| graph.strength(from, to) == Some(AttackStrength::Strong);
        self.two_cycles.iter().find_map(|&(a, b)| {
            if strong(a, b) {
                Some((a, b))
            } else {
                strong(b, a).then_some((b, a))
            }
        })
    }

    /// The 2-cycles of the attack graph, as pairs `(F, G)` with `F < G` in
    /// ascending order (used by the Theorem 3 solver, whose base case is a
    /// disjoint union of weak 2-cycles).
    pub fn two_cycles(&self) -> &[(AtomId, AtomId)] {
        &self.two_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::AttackGraph;
    use cqa_query::catalog;

    fn analysis(q: &cqa_query::ConjunctiveQuery) -> (AttackGraph, CycleAnalysis) {
        let ag = AttackGraph::build(q).unwrap();
        let an = CycleAnalysis::analyze(&ag);
        (ag, an)
    }

    #[test]
    fn q1_has_strong_cycles_and_lemma4_witness() {
        // Example 4: the cycle G <-> H is weak; F <-> G is strong; the 3-cycle
        // F -> H -> G -> F is strong.
        let q = catalog::q1().query;
        let (ag, an) = analysis(&q);
        assert!(an.has_cycle());
        assert!(an.has_strong_cycle());
        assert!(!an.all_cycles_weak());
        // Lemma 4: a strong 2-cycle exists; the witness must have its strong
        // attack in the first component. Here it is (G, F) = (1, 0).
        let (f, g) = an.strong_two_cycle(&ag).expect("Lemma 4 witness");
        assert_eq!((f, g), (1, 0));
        assert_eq!(ag.strength(f, g), Some(AttackStrength::Strong));
        assert!(ag.attacks(g, f), "the witness must be a 2-cycle");
        // The weak 2-cycle G <-> H is reported as weak.
        let gh = elementary_cycles(&ag)
            .into_iter()
            .find(|c| c.len() == 2 && c.atoms.contains(&1) && c.atoms.contains(&2))
            .expect("G <-> H cycle");
        assert!(!gh.strong);
    }

    #[test]
    fn lemma4_strong_cycle_implies_strong_two_cycle_on_catalog() {
        // Lemma 4 checked on every acyclic catalog query.
        for entry in catalog::all() {
            if !cqa_query::join_tree::is_acyclic(&entry.query) {
                continue;
            }
            let (ag, an) = analysis(&entry.query);
            if an.has_strong_cycle() {
                assert!(
                    an.strong_two_cycle(&ag).is_some(),
                    "Lemma 4 violated on {}",
                    entry.name
                );
            }
        }
    }

    #[test]
    fn fig4_cycles_are_weak_and_terminal() {
        let q = catalog::fig4().query;
        let (ag, an) = analysis(&q);
        assert!(an.has_cycle());
        assert!(an.all_cycles_weak());
        assert!(an.all_cycles_terminal());
        let cycles = elementary_cycles(&ag);
        assert_eq!(cycles.len(), 3);
        assert_eq!(an.two_cycles(), [(0, 1), (2, 3), (4, 5)]);
        // Lemma 6: when all cycles are terminal, every cycle has length 2.
        assert!(cycles.iter().all(|c| c.len() == 2));
    }

    #[test]
    fn ac3_cycles_are_weak_but_not_terminal() {
        // Figure 5: all cycles weak, none terminal (every Ri also attacks S3,
        // which lies outside every cycle through the Ri atoms... S3 is in no cycle).
        let q = catalog::ac_k(3).query;
        let (ag, an) = analysis(&q);
        assert!(an.has_cycle());
        assert!(an.all_cycles_weak());
        assert!(!an.all_cycles_terminal());
        // In fact no cycle at all is terminal (the caption of Figure 5).
        let cycles = elementary_cycles(&ag);
        assert!(cycles.iter().all(|c| !c.terminal));
        // R1, R2, R3 attack each other: the complete digraph on three atoms
        // has three 2-cycles and two 3-cycles, each listed once, from its
        // smallest atom.
        assert_eq!(cycles.len(), 5);
        assert!(cycles
            .iter()
            .all(|c| c.atoms.iter().min() == Some(&c.atoms[0])));
    }

    #[test]
    fn acyclic_attack_graphs_have_no_cycles() {
        for entry in [
            catalog::fo_path2(),
            catalog::fo_path3(),
            catalog::conference(),
        ] {
            let (ag, an) = analysis(&entry.query);
            assert!(ag.is_acyclic());
            assert!(!an.has_cycle());
            assert!(an.all_cycles_weak());
            assert!(an.all_cycles_terminal());
            assert!(an.strong_two_cycle(&ag).is_none());
        }
    }

    #[test]
    fn q0_is_a_strong_two_cycle() {
        // q0 = {R0(x;y), S0(y,z;x)}: both attacks exist; at least one is strong
        // (otherwise CERTAINTY(q0) would not be coNP-complete).
        let q = catalog::q0().query;
        let (ag, an) = analysis(&q);
        assert!(an.has_strong_cycle());
        let (f, g) = an.strong_two_cycle(&ag).unwrap();
        assert_eq!(ag.strength(f, g), Some(AttackStrength::Strong));
    }

    #[test]
    fn c2_is_a_single_weak_terminal_cycle() {
        let q = catalog::c2_swap().query;
        let (ag, an) = analysis(&q);
        assert_eq!(elementary_cycles(&ag).len(), 1);
        assert!(an.all_cycles_weak());
        assert!(an.all_cycles_terminal());
    }
}
