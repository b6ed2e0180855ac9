//! # cqa-exec — compiled physical-plan execution
//!
//! The reference interpreters — `cqa_query::eval::naive` for conjunctive
//! queries, `cqa_core::fo::eval` for formulas — walk their query/formula
//! trees on every call, extending hash-map valuations by cloning. This
//! crate is the compile-once / execute-many counterpart, and the engine
//! every production `db |= q` decision runs:
//!
//! * [`QueryPlan`] lowers a [`cqa_query::ConjunctiveQuery`] into a fixed
//!   sequence of **keyed probe / index scan** steps over a register file
//!   (one dense slot per variable), ordered once by a cost model fed from
//!   [`cqa_data::Statistics`]; variables the caller binds at
//!   execute time can be declared as parameters
//!   ([`QueryPlan::compile_bound`]), so anchored checks probe on them;
//! * [`FoPlan`] lowers the guarded form of a [`cqa_query::FoFormula`] —
//!   the form of the certain rewritings of Theorem 1 — into physical
//!   operators: existential **index scans**, **block-quantified ∀**
//!   operators for the ∀-over-block shape of the rewriting (a fact-list
//!   walk instead of an active-domain sweep), membership lookups, and
//!   complement (`¬` / anti-join) nodes;
//! * [`cache`] holds what a per-query memo of compiled engines shares: the
//!   [`fingerprint`](cache::fingerprint) key, the bounded
//!   [`LruCache`](cache::LruCache) and the [`StatsStamp`] that tells an
//!   engine when its plans have outlived their statistics.
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
//! grouped any/all aggregation). Every formula evaluation and every
//! `answers` join runs there, except a join whose estimated work exceeds
//! the memory bound [`vec::QUERY_VEC_MAX`]; the early-exit join checks keep
//! the row engine.
//!
//! The interpreters remain the *reference semantics*: compiled,
//! interpreted, and vectorized evaluation must stay observationally
//! identical, which `tests/properties.rs` enforces on randomized instances.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod cost;
pub mod fo_plan;
mod probe;
pub mod query_plan;
pub mod vec;

pub use cache::StatsStamp;
pub use fo_plan::{FoPlan, PreparedFo};
pub use query_plan::{PreparedQuery, QueryPlan};
