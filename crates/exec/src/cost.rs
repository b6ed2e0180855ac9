//! The planner's cost model.
//!
//! Estimates follow the textbook independence assumptions: a relation scan
//! yields its cardinality, and each probed position divides the estimate by
//! the number of distinct values in that column (uniformity). The numbers
//! come from [`cqa_data::Statistics`] — exact for the snapshot they were
//! computed on — or fall back to neutral defaults when a plan is compiled
//! before any data exists. Estimates only pick join orders and guard atoms
//! and annotate `explain` output; execution never consults them, so a stale
//! estimate can cost speed, never correctness.

use cqa_data::{PositionSet, RelationId, Statistics};

/// Default cardinality assumed for a relation when no statistics are given.
const DEFAULT_CARDINALITY: f64 = 1024.0;
/// Default number of distinct values per column without statistics.
const DEFAULT_DISTINCT: f64 = 32.0;

/// A thin, copyable view over optional statistics.
#[derive(Clone, Copy)]
pub(crate) struct CostModel<'a> {
    stats: Option<&'a Statistics>,
}

impl<'a> CostModel<'a> {
    /// Builds a cost model over optional statistics.
    pub(crate) fn new(stats: Option<&'a Statistics>) -> Self {
        CostModel { stats }
    }

    /// Estimated number of facts of the relation.
    pub(crate) fn cardinality(&self, relation: RelationId) -> f64 {
        match self.stats {
            Some(s) => s.relation(relation).fact_count() as f64,
            None => DEFAULT_CARDINALITY,
        }
    }

    /// Estimated number of distinct values in one column (at least 1).
    pub(crate) fn distinct(&self, relation: RelationId, position: usize) -> f64 {
        let d = match self.stats {
            Some(s) => s
                .relation(relation)
                .distinct_count(position)
                .map(|d| d as f64)
                .unwrap_or(DEFAULT_DISTINCT),
            None => DEFAULT_DISTINCT,
        };
        d.max(1.0)
    }

    /// Estimated candidates per probe of `relation` on `probed` positions:
    /// `|R| / Π distinct(p)` under independence and uniformity.
    pub(crate) fn estimate_rows(&self, relation: RelationId, probed: PositionSet) -> f64 {
        let mut estimate = self.cardinality(relation);
        for pos in probed.iter() {
            estimate /= self.distinct(relation, pos);
        }
        estimate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_data::{Schema, UncertainDatabase};

    #[test]
    fn statistics_drive_the_estimates() {
        let schema = Schema::from_relations([("R", 2, 1)]).unwrap().into_shared();
        let mut db = UncertainDatabase::new(schema);
        for i in 0..8 {
            db.insert_values("R", [format!("k{}", i % 4), format!("v{i}")])
                .unwrap();
        }
        let index = db.index();
        let r = db.schema().relation_id("R").unwrap();
        let cost = CostModel::new(Some(index.statistics()));
        assert_eq!(cost.cardinality(r), 8.0);
        assert_eq!(cost.distinct(r, 0), 4.0);
        let probe = cost.estimate_rows(r, PositionSet::single(0));
        assert!((probe - 2.0).abs() < 1e-9);
        // Without statistics the defaults still order probes before scans.
        let neutral = CostModel::new(None);
        assert!(
            neutral.estimate_rows(r, PositionSet::single(0))
                < neutral.estimate_rows(r, PositionSet::empty())
        );
    }
}
