//! # cqa-stream — incremental certain-answer maintenance under fact churn
//!
//! The paper's central object, the certain answers of a conjunctive query
//! over all primary-key repairs, is an expensive aggregate: deciding it from
//! scratch enumerates every possible answer and decides certainty per
//! candidate. But the **block structure** of primary-key repairs localizes
//! the damage a single mutation can do — a repair chooses one fact per
//! block, so the verdict of a candidate tuple `t` is a function of the
//! contents of exactly those blocks that hold at least one fact matching an
//! atom pattern of `q(t)` (a fact that no pattern matches can never appear
//! in a witnessing valuation, and a block without any matching fact
//! contributes the same "nothing" to every repair).
//!
//! This crate exploits that locality:
//!
//! * [`MaterializedView`] — the current certain/possible answer sets of one
//!   registered query, plus per-candidate **provenance**: the set of
//!   [`BlockKey`]s (relation + primary-key value) whose blocks the
//!   candidate's verdict depends on — atoms that constrain nothing are
//!   folded into one relation-wide entry so provenance stays O(1) per atom
//!   — with reverse indexes from block key and relation to dependent
//!   candidates.
//! * [`ViewMaintainer`] — consumes the changes a write recorded
//!   ([`cqa_data::ChangeSet`]: fact inserts, fact removals, block removals)
//!   and repairs the view **incrementally**: only candidates whose
//!   provenance intersects the touched blocks are re-decided, new
//!   candidates introduced by an inserted fact are discovered through a
//!   compiled `cqa-exec` plan of the partially grounded query, and past a
//!   damage threshold ([`DEFAULT_VIEW_THRESHOLD`])
//!   the maintainer falls back to the full re-evaluation it would otherwise
//!   beat. When the damage is large and a [`cqa_par::ParPool`] is attached,
//!   the retouched-candidate set is sharded across workers with a
//!   deterministic in-order merge.
//!
//! The serving layer (`cqa-serve`) registers views via `\subscribe`,
//! repairs them inside the write path, and publishes the repaired readings
//! **atomically with the epoch pointer swap**, so a reader of a view never
//! observes answers from a stale epoch. The property suite
//! (`tests/stream.rs`) holds the repaired view byte-identical to a
//! from-scratch recompute after every delta, at 1, 2 and 7 threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod maintain;
mod view;

pub use maintain::{RepairOutcome, ViewMaintainer, DEFAULT_VIEW_THRESHOLD};
pub use view::{BlockKey, MaterializedView, Provenance};
