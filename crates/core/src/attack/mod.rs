//! Attack graphs (Section 4) and their cycle structure (Sections 5–6).
//!
//! For an acyclic Boolean conjunctive query `q` and atoms `F, G ∈ q`, the
//! attack graph contains a directed edge `F ⇝ G` ("`F` attacks `G`") iff no
//! label on the unique join-tree path from `F` to `G` is contained in
//! `F^{+,q}` (Definition 3). Remarkably, the attack graph does not depend on
//! the choice of join tree, so it is a property of the query itself
//! (Definition 4).
//!
//! Attacks are **weak** if `key(G) ⊆ F^{⊞,q}` and **strong** otherwise
//! (Definition 5); a cycle is strong if it contains a strong attack. The
//! complexity classification of `CERTAINTY(q)` is read off this structure:
//!
//! * acyclic attack graph ⇒ first-order expressible (Theorem 1),
//! * strong cycle ⇒ coNP-complete (Theorem 2),
//! * only weak, terminal cycles ⇒ in P (Theorem 3),
//! * only weak cycles, some non-terminal ⇒ conjectured P (Conjecture 1;
//!   proved for the `AC(k)` family by Theorem 4).

mod closure;
mod cycles;
mod graph;

pub use closure::ClosureTable;
pub use cycles::{elementary_cycles, CycleAnalysis, CycleInfo};
pub use graph::{AttackEdge, AttackGraph, AttackStrength};
