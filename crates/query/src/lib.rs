//! # cqa-query
//!
//! Boolean conjunctive queries and the hypergraph machinery of Section 3 of
//!
//! > Jef Wijsen. *Charting the Tractability Frontier of Certain Conjunctive
//! > Query Answering*. PODS 2013.
//!
//! Provided here:
//!
//! * [`Variable`], [`Term`], [`Atom`], [`ConjunctiveQuery`] — queries are
//!   finite sets of atoms `R(x̄, ȳ)` whose key positions are a prefix of the
//!   attribute list (signatures live in the shared [`cqa_data::Schema`]);
//! * [`Valuation`] and the reference evaluator [`eval::naive`] (`db |= q`
//!   by nested loops; the compiled `cqa-exec` plans are what production
//!   code runs);
//! * substitutions `q[x ↦ a]` (Definition 7);
//! * functional dependencies `K(q)` and attribute closures (Definition 1);
//! * join trees and the Connectedness Condition, plus the GYO acyclicity
//!   test (Section 3, "Join tree and acyclic conjunctive query");
//! * a catalog of the queries used throughout the paper (`q0`, `q1` of
//!   Fig. 2, the Fig. 4 query, `C(k)` and `AC(k)` of Definition 8, …);
//! * [`FoFormula`] — the first-order formula AST in which certain rewritings
//!   (Theorem 1, built by `cqa-core`) are expressed and from which the
//!   `cqa-exec` physical planner compiles executable plans.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod atom;
pub mod catalog;
mod error;
pub mod eval;
pub mod fd;
pub mod fo_formula;
pub mod gyo;
pub mod join_tree;
mod query;
pub mod substitute;
mod term;
mod valuation;
pub mod varset;

pub use atom::{Atom, AtomId};
pub use error::QueryError;
pub use fo_formula::FoFormula;
pub use join_tree::JoinTree;
pub use query::{ConjunctiveQuery, QueryBuilder};
pub use term::{Term, Variable};
pub use valuation::Valuation;
pub use varset::{VarIndex, VarSet};
