//! # cqa-exec — compiled physical-plan execution
//!
//! The interpreters in `cqa_query::eval` and `cqa_core::fo::eval` walk their
//! query/formula trees on every call: join order is re-derived per search
//! node, probe keys are re-assembled from hash-map valuations, and every
//! extension clones a valuation. This crate is the compile-once /
//! execute-many counterpart:
//!
//! * [`QueryPlan`] lowers a [`cqa_query::ConjunctiveQuery`] into a fixed
//!   sequence of **keyed probe / index scan** steps over a register file
//!   (one dense slot per variable), ordered once by a [cost model](cost)
//!   fed from [`cqa_data::Statistics`];
//! * [`FoPlan`] lowers a [`cqa_query::FoFormula`] — in particular the
//!   certain rewritings of Theorem 1 — into physical operators: existential
//!   **index scans**, **block-quantified ∀** operators for the
//!   ∀-over-block shape of the rewriting (a fact-list walk instead of an
//!   active-domain sweep), column and domain scans for unguarded
//!   quantifiers, membership lookups, and complement (`¬` / anti-join)
//!   nodes;
//! * [`PlanCache`] memoizes compiled query plans per `(schema, query)`.
//!
//! Plans are immutable and `Send + Sync`: compile once per query, then
//! [`QueryPlan::prepare`] / [`FoPlan::prepare`] against any
//! [`cqa_data::DatabaseIndex`] snapshot resolves the probe handles and the
//! hot path becomes a flat operator loop — no tree-walking, no per-call
//! ordering decisions, no intermediate valuation cloning.
//!
//! On top of the compiled plans, the [`mod@vec`] module adds a **vectorized
//! block-at-a-time executor**: batches of dictionary codes flow through the
//! same operator trees (selection vectors, packed-key batch hash probes,
//! grouped any/all aggregation), selected per entry point by the cost model
//! via [`ExecMode`].
//!
//! The interpreters remain the *reference semantics*: compiled,
//! interpreted, and vectorized evaluation must stay observationally
//! identical, which `tests/properties.rs` enforces on randomized instances.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cost;
pub mod fo_plan;
mod probe;
pub mod query_plan;
pub mod vec;

pub use cache::{PlanCache, StatsStamp};
pub use fo_plan::{FoPlan, PreparedFo};
pub use query_plan::{PreparedQuery, QueryPlan};
pub use vec::ExecMode;
