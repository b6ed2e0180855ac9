//! # cqa-par — work-stealing parallel evaluation of `CERTAINTY(q)`
//!
//! The paper studies `CERTAINTY(q)` in **data complexity** (Section 3): the
//! query `q` is fixed, the uncertain database is the input. That is exactly
//! the shape that parallelizes — once `cqa-exec` has compiled `q` (and, in
//! the Theorem 1 region, its certain first-order rewriting `φ_q`) into
//! immutable `Send + Sync` plans, an evaluation is a loop over independent
//! subproblems bound to one immutable [`cqa_data::Snapshot`]:
//!
//! * **candidate answers** — each possible answer's certainty check grounds
//!   the query with that tuple and decides a Boolean instance, sharing
//!   nothing with the other candidates ([`certain_answers_par`]);
//! * **root-scan shards** — the root `∃`/first join step of a compiled plan
//!   iterates a fixed candidate fact list, and the search below disjoint
//!   slices is independent ([`ParallelEngine`], riding on the shard hooks
//!   of `cqa-exec`);
//! * **whole queries** — a service answering many queries over one frozen
//!   snapshot runs them concurrently through shared plan and engine caches
//!   ([`BatchEngine`], the `certainty serve` CLI story).
//!
//! Chunks execute on a small vendored work-stealing pool
//! (`vendor/workpool`, wrapped as [`ParPool`]) and merge
//! **deterministically**: verdicts are disjunctions (associative,
//! commutative) and answer sets merge into ordered `BTreeSet`s, so results
//! are byte-identical at every thread count — the property
//! `tests/properties.rs` enforces at 1, 2 and 7 threads. A sequential
//! cutoff fed by the `cqa-exec` cost model
//! ([`cqa_exec::QueryPlan::estimated_work`]) keeps small problems off the
//! pool entirely.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod answers;
mod batch;
mod config;
mod engine;
mod pool;

pub use answers::certain_answers_par;
pub use batch::{BatchEngine, BatchOutcome, BatchResult, ENGINE_MEMO_CAPACITY};
pub use config::ParConfig;
pub use engine::ParallelEngine;
pub use pool::{par_map, ParPool};
