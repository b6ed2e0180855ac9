//! # cqa-graph
//!
//! The directed-graph algorithms the `certainty-rs` solvers call:
//!
//! * [`DiGraph`] — a small, generic adjacency-list digraph,
//! * [`scc`] — Tarjan strongly connected components,
//! * [`cycles`] — elementary-cycle enumeration (Johnson) and acyclicity,
//! * [`paths`] — fixed-length cycles and the "elementary cycle longer than
//!   `k`" test used inside the proof of Theorem 4,
//! * [`spanning`] — maximum-weight spanning trees (join-tree construction)
//!   and undirected-tree path queries.
//!
//! The attack graphs of the paper have at most a handful of vertices (one per
//! query atom), while the graphs built by the cycle-query solver of Theorem 4
//! have one vertex per constant of the active domain; the algorithms here are
//! written to be correct for both regimes and efficient for the latter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cycles;
mod digraph;
pub mod paths;
pub mod scc;
pub mod spanning;

pub use digraph::{DiGraph, NodeId};
