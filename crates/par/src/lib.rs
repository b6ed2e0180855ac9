//! # cqa-par — work-stealing parallel evaluation of `CERTAINTY(q)`
//!
//! The paper studies `CERTAINTY(q)` in **data complexity** (Section 3): the
//! query `q` is fixed, the uncertain database is the input. A served system
//! sees many such fixed queries against one state of the data, and that is
//! the shape this crate parallelizes — independent subproblems bound to one
//! immutable [`cqa_data::Snapshot`]:
//!
//! * **whole queries** — a service answering many queries over one frozen
//!   snapshot runs them concurrently through one shared memo of per-query
//!   engines ([`BatchEngine`], behind `certainty serve`);
//! * **candidate chunks** — a layer that re-decides many candidate tuples
//!   of one query (`cqa-stream`'s view repair) splits them into chunks and
//!   merges the per-chunk results in order through [`par_map`].
//!
//! Each evaluation inside a job is sequential. Jobs execute on a small
//! vendored work-stealing pool (`vendor/workpool`, wrapped as [`ParPool`])
//! and merge **deterministically**: results come back in input order
//! whatever order the workers finished in, so output is byte-identical at
//! every thread count — the property `tests/properties.rs` enforces at 1, 2
//! and 7 threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod pool;

pub use batch::{BatchEngine, BatchOutcome, BatchResult, ENGINE_MEMO_CAPACITY};
pub use pool::{par_map, ParPool};
