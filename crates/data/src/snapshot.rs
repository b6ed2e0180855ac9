//! Shareable point-in-time snapshots of an uncertain database.
//!
//! The parallel layers execute many independent subproblems against *one*
//! immutable state of the data: the queries of a batch (`cqa-par`) and the
//! candidate chunks of a view repair (`cqa-stream`) must all see the same
//! facts, the same blocks, and the same [`DatabaseIndex`] — and they run on
//! worker threads that outlive any `&UncertainDatabase` borrow a caller
//! could offer. A [`Snapshot`] is one more handle onto the database's
//! copy-on-write storage: taking and cloning it is a reference count, the
//! contents can never change, and every clone is `Send + Sync`.

use crate::{DatabaseIndex, Schema, UncertainDatabase};
use std::fmt;
use std::sync::Arc;

/// An immutable, cheaply cloneable point-in-time view of an
/// [`UncertainDatabase`] plus its [`DatabaseIndex`].
///
/// Obtained from [`UncertainDatabase::snapshot`]. The snapshot shares the
/// storage of the database it was taken from; a later mutation of the
/// original copies the chunks it touches first, so it is invisible here —
/// the property that makes "answer this batch of queries against one
/// consistent state" meaningful while the writer moves on.
///
/// ```
/// use cqa_data::{Schema, UncertainDatabase};
///
/// let schema = Schema::from_relations([("R", 2, 1)]).unwrap().into_shared();
/// let mut db = UncertainDatabase::new(schema);
/// db.insert_values("R", ["a", "1"]).unwrap();
/// let snapshot = db.snapshot();
/// db.insert_values("R", ["b", "2"]).unwrap();
/// assert_eq!(snapshot.database().fact_count(), 1); // the snapshot is frozen
/// assert_eq!(db.fact_count(), 2);
/// ```
#[derive(Clone)]
pub struct Snapshot {
    db: UncertainDatabase,
}

impl Snapshot {
    /// Freezes `db` into a snapshot.
    pub fn new(db: &UncertainDatabase) -> Snapshot {
        Snapshot { db: db.clone() }
    }

    /// The mutation epoch of the source database at freeze time
    /// ([`UncertainDatabase::epoch`]). Comparing this against the live
    /// database's current epoch detects staleness with one integer compare
    /// (only meaningful for the same database lineage) — the epoch the serve
    /// loop reports for every published snapshot.
    pub fn epoch(&self) -> u64 {
        self.db.epoch()
    }

    /// The frozen database contents.
    pub fn database(&self) -> &UncertainDatabase {
        &self.db
    }

    /// The schema of the frozen database.
    pub fn schema(&self) -> &Arc<Schema> {
        self.db.schema()
    }

    /// The storage and secondary indexes of the frozen contents.
    pub fn index(&self) -> &Arc<DatabaseIndex> {
        self.db.store()
    }

    /// Number of facts in the snapshot.
    pub fn fact_count(&self) -> usize {
        self.db.fact_count()
    }
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Snapshot({} facts)", self.fact_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    #[test]
    fn snapshots_freeze_contents_and_share_the_index() {
        let schema = Schema::from_relations([("R", 2, 1)]).unwrap().into_shared();
        let mut db = UncertainDatabase::new(schema);
        db.insert_values("R", ["a", "1"]).unwrap();
        let snapshot = db.snapshot();
        assert!(Arc::ptr_eq(snapshot.index(), &db.index()), "no copy");
        db.insert_values("R", ["a", "2"]).unwrap();
        assert!(!Arc::ptr_eq(snapshot.index(), &db.index()));
        assert_eq!(snapshot.fact_count(), 1);
        assert_eq!(db.fact_count(), 2);
        // Clones are cheap handles onto the same frozen state.
        let other = snapshot.clone();
        assert!(Arc::ptr_eq(other.index(), snapshot.index()));
        assert_eq!(
            other.database().active_domain().into_iter().next(),
            Some(Value::str("1"))
        );
        assert!(format!("{snapshot:?}").contains("1 facts"));
    }

    #[test]
    fn snapshots_move_across_threads() {
        let schema = Schema::from_relations([("R", 2, 1)]).unwrap().into_shared();
        let mut db = UncertainDatabase::new(schema);
        db.insert_values("R", ["a", "1"]).unwrap();
        let snapshot = db.snapshot();
        let handle = {
            let snapshot = snapshot.clone();
            std::thread::spawn(move || snapshot.fact_count())
        };
        assert_eq!(handle.join().unwrap(), 1);
    }
}
