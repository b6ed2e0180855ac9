//! # cqa-data
//!
//! The relational data model underlying *certain conjunctive query answering*
//! as defined in Section 3 ("Preliminaries") of
//!
//! > Jef Wijsen. *Charting the Tractability Frontier of Certain Conjunctive
//! > Query Answering*. PODS 2013.
//!
//! An **uncertain database** is a finite set of facts over a schema in which
//! every relation name carries a signature `[n, k]`: `n` is the arity and the
//! first `k` positions form the primary key. Primary keys *need not be
//! satisfied*: two distinct facts may agree on their key. A maximal set of
//! key-equal facts is a **block**; a **repair** (possible world) is obtained
//! by choosing exactly one fact from every block.
//!
//! This crate provides:
//!
//! * [`Value`] — constants (strings, integers, and the tuple values produced
//!   by the Theorem 2 reduction of the paper),
//! * [`Schema`], [`Relation`], [`Signature`] — relation names with `[n, k]`
//!   signatures,
//! * [`Fact`] and key-equality,
//! * [`UncertainDatabase`] with its block structure, consistency test and
//!   active domain,
//! * [`RepairIter`] / [`UncertainDatabase::repairs`] — enumeration and
//!   counting of repairs,
//! * [`DatabaseIndex`] — the database's copy-on-write storage (relation-local
//!   rows, blocks, key maps) with its demand-built, write-maintained
//!   secondary structures (dictionary-coded columns, hash indexes on position
//!   subsets, statistics) that turn the solvers' join steps into hash probes,
//! * [`Snapshot`] — an immutable, `Send + Sync` point-in-time handle onto
//!   that storage, which the parallel layer shares across threads,
//! * [`delta`] — the change record ([`ChangeSet`]) a write hands to whoever
//!   maintains derived state, such as `cqa-stream`'s materialized views,
//! * [`store`] — a durable chunked, dictionary-encoded on-disk format
//!   ([`store::save`] / [`store::load`]) so instances survive restarts,
//! * small utilities shared by the rest of the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
pub mod columnar;
mod cow;
mod database;
pub mod delta;
mod error;
mod fact;
pub mod index;
mod repairs;
mod schema;
mod snapshot;
pub mod store;
mod value;

pub use block::Block;
pub use columnar::{Columnar, Dictionary, RelationColumns};
pub use database::UncertainDatabase;
pub use delta::{ChangeSet, Delta};
pub use error::DataError;
pub use fact::Fact;
pub use index::{DatabaseIndex, PositionIndex, PositionSet, RelationStatistics, Rows, Statistics};
pub use repairs::{RepairIter, RepairSampler};
pub use schema::{Relation, RelationId, Schema, Signature};
pub use snapshot::Snapshot;
pub use store::{StoreError, StoreSummary};
pub use value::Value;

/// Convenience alias used across the workspace for fast hash maps.
pub type FxHashMap<K, V> = rustc_hash::FxHashMap<K, V>;
/// Convenience alias used across the workspace for fast hash sets.
pub type FxHashSet<T> = rustc_hash::FxHashSet<T>;
