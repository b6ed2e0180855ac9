//! # cqa — certain conjunctive query answering over uncertain databases
//!
//! Facade crate for the `certainty-rs` workspace, a Rust implementation of
//!
//! > Jef Wijsen. *Charting the Tractability Frontier of Certain Conjunctive
//! > Query Answering*. PODS 2013.
//!
//! This crate simply re-exports the public API of the workspace crates so a
//! downstream user can depend on a single crate:
//!
//! * [`obs`] — process-wide metrics (counters, gauges, latency histograms)
//!   and the per-operator trace sink behind `explain --analyze`;
//! * [`data`] — uncertain databases, blocks, repairs;
//! * [`query`] — Boolean conjunctive queries, join trees, purification;
//! * [`exec`] — the compiled physical-plan executor (join plans for
//!   queries, operator plans for certain rewritings, plan caching);
//! * [`core`] — attack graphs, complexity classification, certain-answer
//!   solvers, certain first-order rewriting, reductions;
//! * [`par`] — work-stealing parallel evaluation: the batch engine
//!   answering many queries over one snapshot, and the order-preserving
//!   fan-out view maintenance shards on;
//! * [`prob`] — block-independent-disjoint probabilistic databases, `IsSafe`,
//!   safe-plan evaluation;
//! * [`gen`] — seeded workload and instance generators;
//! * [`parser`] — a small text format plus DOT export;
//! * [`stream`] — materialized certain-answer views with block-level
//!   provenance, repaired incrementally from the changes each write records;
//! * [`serve`] — the concurrent TCP/HTTP server (and its connection handler
//!   over any byte stream, e.g. stdin/stdout): epoch snapshots,
//!   admission control, per-query deadlines, materialized views,
//!   `/metrics`.
//!
//! See the repository `README.md` for a quickstart and `DESIGN.md` for the
//! full system inventory.

pub use cqa_core as core;
pub use cqa_data as data;
pub use cqa_exec as exec;
pub use cqa_gen as gen;
pub use cqa_obs as obs;
pub use cqa_par as par;
pub use cqa_parser as parser;
pub use cqa_prob as prob;
pub use cqa_query as query;
pub use cqa_serve as serve;
pub use cqa_stream as stream;

/// Commonly used items, importable with `use cqa::prelude::*;`.
pub mod prelude {
    pub use cqa_core::{
        answers::certain_answers,
        classify::{classify, ComplexityClass},
        solvers::CertaintyEngine,
        AttackGraph,
    };
    pub use cqa_data::{Fact, Schema, Snapshot, UncertainDatabase, Value};
    pub use cqa_exec::{FoPlan, QueryPlan};
    pub use cqa_obs::{Registry, Snapshot as MetricsSnapshot, TraceSink};
    pub use cqa_par::{BatchEngine, ParPool};
    pub use cqa_query::{Atom, ConjunctiveQuery, Term, Variable};
    pub use cqa_stream::{MaterializedView, ViewMaintainer};
}
