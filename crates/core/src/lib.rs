//! # cqa-core
//!
//! The primary contribution of
//!
//! > Jef Wijsen. *Charting the Tractability Frontier of Certain Conjunctive
//! > Query Answering*. PODS 2013.
//!
//! implemented as a library:
//!
//! * [`attack`] — attack graphs of acyclic Boolean conjunctive queries
//!   (Definition 3), the closures `F^{+,q}` / `F^{⊞,q}` (Definitions 2 and 5),
//!   weak vs. strong attacks, and the cycle analysis (strong cycles,
//!   terminal cycles) on which the complexity classification rests;
//! * [`classify`](mod@classify) — the tractability-frontier classifier: first-order
//!   expressible (Theorem 1), coNP-complete (Theorem 2), polynomial time
//!   (Theorems 3 and 4, Corollary 1), or the open case of Conjecture 1;
//! * [`fo`] — certain first-order rewritings: formula AST, construction for
//!   queries with acyclic attack graphs, a model checker, and SQL generation;
//! * [`solvers`] — one certain-answer algorithm per region of the frontier
//!   (rewriting-based, Theorem 3, Theorem 4 / Corollary 1, and an exact
//!   exponential oracle used as the coNP baseline, whose falsifying-repair
//!   search also decides Theorem 3's base case), plus the
//!   [`solvers::CertaintyEngine`] dispatcher;
//! * [`purify`](mod@purify) — Lemma 1 purification, and the one valuation
//!   listing that decides relevance for it and for the falsifying-repair
//!   search;
//! * [`reductions`] — the polynomial-time reductions used in the paper
//!   (the `θ̂` construction of Theorem 2 and the all-key padding of Lemma 9);
//! * [`answers`] — certain answers to non-Boolean queries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answers;
pub mod attack;
pub mod classify;
mod csr;
pub mod fo;
pub mod purify;
pub mod reductions;
pub mod solvers;

pub use attack::{AttackGraph, AttackStrength, CycleAnalysis};
pub use classify::{classify, Classification, ComplexityClass};
pub use solvers::{CertaintyEngine, CertaintySolver};
