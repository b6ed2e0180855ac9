//! The counting variant `♯CERTAINTY(q)`: how many repairs satisfy `q`?
//!
//! Maslowski and Wijsen showed an FP / ♯P-complete dichotomy for this problem
//! (Theorem 7 cites it); reproducing their dichotomy is out of scope for this
//! repository (see `DESIGN.md`, "Substitutions and scope"), but the
//! brute-force counter below is used to cross-validate `CERTAINTY` answers
//! (`certain ⇔ all repairs satisfy`) and the uniform-repair probability
//! (`Pr(q) = satisfying / total`).

use cqa_data::UncertainDatabase;
use cqa_query::{eval, ConjunctiveQuery};

/// The result of counting repairs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepairCount {
    /// Number of repairs satisfying the query.
    pub satisfying: u128,
    /// Total number of repairs.
    pub total: u128,
}

impl RepairCount {
    /// The fraction of satisfying repairs (the uniform-repair probability).
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.satisfying as f64 / self.total as f64
        }
    }

    /// True iff every repair satisfies the query.
    pub fn is_certain(&self) -> bool {
        self.satisfying == self.total
    }
}

/// Counts the repairs of `db` satisfying `query` by exhaustive enumeration.
/// Exponential in the number of violated blocks.
pub fn count_satisfying_repairs(db: &UncertainDatabase, query: &ConjunctiveQuery) -> RepairCount {
    let mut satisfying = 0u128;
    let mut total = 0u128;
    for repair in db.repairs() {
        total += 1;
        if eval::naive::satisfies(&repair, query) {
            satisfying += 1;
        }
    }
    RepairCount { satisfying, total }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_query::catalog;

    #[test]
    fn figure1_counts_three_of_four() {
        let q = catalog::conference().query;
        let db = catalog::conference_database();
        let count = count_satisfying_repairs(&db, &q);
        assert_eq!(count.total, 4);
        assert_eq!(count.satisfying, 3);
        assert!(!count.is_certain());
        assert!((count.fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn consistent_databases_have_a_single_repair() {
        let q = catalog::conference().query;
        let mut db = catalog::conference_database();
        let c = db.schema().relation_id("C").unwrap();
        let r = db.schema().relation_id("R").unwrap();
        db.remove_fact(&cqa_data::Fact::new(
            c,
            vec![
                cqa_data::Value::str("PODS"),
                cqa_data::Value::str("2016"),
                cqa_data::Value::str("Paris"),
            ],
        ));
        db.remove_fact(&cqa_data::Fact::new(
            r,
            vec![cqa_data::Value::str("KDD"), cqa_data::Value::str("B")],
        ));
        let count = count_satisfying_repairs(&db, &q);
        assert_eq!(count.total, 1);
        assert_eq!(count.satisfying, 1);
        assert!(count.is_certain());
    }
}
