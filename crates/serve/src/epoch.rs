//! MVCC-lite epoch management: frozen reader epochs, copy-on-write writers,
//! and materialized views published atomically with the epoch swap.
//!
//! The manager owns the **master** [`UncertainDatabase`] plus the
//! registered [`MaterializedView`]s (behind one writer mutex — views must
//! repair in lockstep with the data) and publishes the **current epoch** as
//! a single `Published` pair — the `Arc<`[`BatchEngine`]`>` over a frozen
//! [`cqa_data::Snapshot`] *and* the per-view frozen [`ViewReading`]s —
//! behind an `RwLock` that is only ever held for a pointer clone or a
//! pointer swap:
//!
//! * **Readers** ([`EpochManager::current`], [`EpochManager::view`]) clone
//!   out of one `Published`; a concurrent publish cannot tear their view,
//!   and because engine and view readings swap **together**, a `\view`
//!   response can never lag (or lead) the epoch a concurrent query
//!   observes.
//! * **Writers** ([`EpochManager::apply_write`]) serialize on the master
//!   mutex, apply the write to a *copy* of the master database (a reference
//!   count: the store is copy-on-write, and the mutation itself maintains
//!   every secondary index) while recording the exact [`ChangeSet`], repair
//!   every registered view from the changeset ([`ViewMaintainer::repair`]),
//!   fork the next engine with [`BatchEngine::with_snapshot`], and swap the
//!   published pair — only then does the copy become the master (**commit
//!   on publish**: a write that fails before the swap leaves no trace). Old
//!   epochs are let go by the next writer once their last in-flight reader
//!   is done; until then they are counted by the `serve.epochs.pinned`
//!   gauge.
//!
//! No-op writes (duplicate insert, absent removal, absent block removal)
//! publish nothing: the epoch number a client observes increments exactly
//! on effective mutations, mirroring [`UncertainDatabase::epoch`].

use crate::protocol::{self, WriteOp};
use cqa_core::answers::CertainAnswersEngine;
use cqa_data::{ChangeSet, Delta, Fact, UncertainDatabase};
use cqa_par::{BatchEngine, BatchOutcome, BatchResult, ParPool};
use cqa_stream::{MaterializedView, ViewMaintainer};
use rustc_hash::FxHashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// What a write did: whether it changed anything, and the epoch the caller
/// now observes (the new epoch if `changed`, the unchanged one otherwise).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteOutcome {
    /// True iff the mutation was effective (a fresh insert, a present
    /// removal) and a new epoch was published.
    pub changed: bool,
    /// The epoch after the write.
    pub epoch: u64,
}

/// One frozen reading of a registered view, published with (and only with)
/// its epoch's engine.
#[derive(Clone, Debug)]
pub struct ViewReading {
    /// The view's name.
    pub name: String,
    /// The epoch this reading reflects — always the epoch of the engine it
    /// was published with.
    pub epoch: u64,
    /// Number of certain answers.
    pub certain: usize,
    /// Number of possible answers.
    pub possible: usize,
    /// The pre-rendered protocol response line (`name: N certain / M
    /// possible; certain: ...`), byte-identical to what a fresh query for
    /// the same answer sets would render.
    pub line: String,
}

/// The atomically-swapped unit of publication: engine and view readings of
/// one epoch.
struct Published {
    engine: Arc<BatchEngine>,
    views: Arc<FxHashMap<String, Arc<ViewReading>>>,
}

/// The writer-side state: the master database and the live views it
/// maintains, mutated together under one lock.
struct MasterState {
    db: UncertainDatabase,
    views: FxHashMap<String, MaterializedView>,
}

/// The server's shared epoch state: master database + published engine and
/// views. The per-query engine memo lives on the engines, shared by every
/// epoch they fork.
pub struct EpochManager {
    master: Mutex<MasterState>,
    current: RwLock<Published>,
    maintainer: ViewMaintainer,
    /// Previously published engines some reader still held when last
    /// looked at ([`pinned_epochs`](Self::pinned_epochs)). The manager
    /// keeps them alive so that an old epoch is let go *here*, by the next
    /// writer, and never by the reader that happens to finish last: what
    /// the epoch did not share is freed by the thread that allocated it.
    retired: Mutex<Vec<Arc<BatchEngine>>>,
    /// Test-only fault injected between the mutation and the publish.
    #[cfg(test)]
    failpoint: Mutex<Option<Failpoint>>,
}

/// What an armed [`EpochManager::failpoint`] does to the next effective
/// write, once.
#[cfg(test)]
#[derive(Clone, Copy)]
enum Failpoint {
    Error,
    Panic,
}

impl EpochManager {
    /// Freezes `db` as epoch zero's snapshot and publishes its engine.
    pub fn new(db: UncertainDatabase, pool: ParPool) -> EpochManager {
        let engine = Arc::new(BatchEngine::new(db.snapshot(), pool.clone()));
        EpochManager {
            master: Mutex::new(MasterState {
                db,
                views: FxHashMap::default(),
            }),
            current: RwLock::new(Published {
                engine,
                views: Arc::new(FxHashMap::default()),
            }),
            maintainer: ViewMaintainer::with_pool(pool),
            retired: Mutex::new(Vec::new()),
            #[cfg(test)]
            failpoint: Mutex::new(None),
        }
    }

    /// The current epoch's engine. The returned `Arc` pins the epoch: the
    /// caller's whole query runs against this one frozen snapshot no matter
    /// how many writes publish newer epochs meanwhile.
    pub fn current(&self) -> Arc<BatchEngine> {
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .engine
            .clone()
    }

    /// The published epoch number.
    pub fn epoch(&self) -> u64 {
        self.current().epoch()
    }

    /// The current reading of the named view, frozen with the current
    /// epoch. A reading whose epoch disagrees with its engine's would be a
    /// torn publish; it is counted (`stream.view.stale_reads`) and the
    /// concurrency suite asserts the counter stays zero.
    pub fn view(&self, name: &str) -> Option<Arc<ViewReading>> {
        let published = self.current.read().unwrap_or_else(PoisonError::into_inner);
        let reading = published.views.get(name)?.clone();
        if reading.epoch != published.engine.epoch() {
            cqa_obs::count!("stream.view.stale_reads");
        }
        Some(reading)
    }

    /// Number of registered views.
    pub fn view_count(&self) -> usize {
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .views
            .len()
    }

    /// Number of old epochs still pinned by slow readers: previously
    /// published engines whose `Arc` is still held somewhere else. This is
    /// the `serve.epochs.pinned` gauge.
    pub fn pinned_epochs(&self) -> usize {
        let mut retired = self.retired.lock().unwrap_or_else(PoisonError::into_inner);
        // A count of one is the manager's own handle: nobody can pin a
        // retired epoch anew, so it is dead.
        retired.retain(|engine| Arc::strong_count(engine) > 1);
        retired.len()
    }

    /// Registers (or replaces) the view `name` over `query`, decided
    /// against the current epoch and published immediately — under the
    /// master lock, so registration serializes with writers and the
    /// published reading always matches the published engine's epoch.
    pub fn subscribe(
        &self,
        name: &str,
        query: &cqa_query::ConjunctiveQuery,
    ) -> Result<Arc<ViewReading>, String> {
        let mut master = self.master.lock().unwrap_or_else(PoisonError::into_inner);
        let mut view = MaterializedView::new(name, query)?;
        self.maintainer
            .initialize(&mut view, &master.db.snapshot())?;
        let reading = Arc::new(render_reading(&view));
        master.views.insert(name.to_string(), view);
        {
            let mut current = self.current.write().unwrap_or_else(PoisonError::into_inner);
            let mut views = (*current.views).clone();
            views.insert(name.to_string(), reading.clone());
            current.views = Arc::new(views);
        }
        cqa_obs::count!("stream.view.subscriptions");
        cqa_obs::gauge_set!("serve.views.registered", master.views.len() as i64);
        Ok(reading)
    }

    /// Applies one write and — iff it was effective — repairs every
    /// registered view from the recorded changeset and publishes the next
    /// epoch. Writers serialize on the master mutex, so epochs are published
    /// in write order; the publish itself is a single swap of the
    /// engine-plus-views pair under the write lock, never blocking readers
    /// for longer than a pointer clone takes.
    ///
    /// The write is applied to a copy of the master database that becomes
    /// the master only with that swap. If a view repair fails or panics
    /// before it, the master is untouched, every view the repair got to is
    /// re-decided from the published snapshot before the lock is released,
    /// and the next write is acknowledged with the epoch it would have had
    /// anyway.
    pub fn apply_write(&self, op: &WriteOp) -> Result<WriteOutcome, String> {
        let started = std::time::Instant::now();
        let mut master = self.master.lock().unwrap_or_else(PoisonError::into_inner);
        let mut next = master.db.clone();
        let mut changes = ChangeSet::new();
        if !record_write(&mut next, op, &mut changes)? {
            return Ok(WriteOutcome {
                changed: false,
                epoch: master.db.epoch(),
            });
        }
        cqa_obs::count!("serve.writes_effective");
        let snapshot = next.snapshot();
        let epoch = snapshot.epoch();
        let mut touched = 0;
        let repaired = catch_unwind(AssertUnwindSafe(|| {
            let mut readings = FxHashMap::default();
            for (name, view) in master.views.iter_mut() {
                touched += 1;
                // A repair error is unreachable for a validated query; if it
                // ever fires, re-decide from scratch rather than publishing
                // a stale reading.
                if self.maintainer.repair(view, &snapshot, &changes).is_err() {
                    cqa_obs::count!("stream.view.repair_errors");
                    self.maintainer.initialize(view, &snapshot)?;
                }
                readings.insert(name.clone(), Arc::new(render_reading(view)));
            }
            #[cfg(test)]
            self.fail_if_armed()?;
            Ok::<_, String>(readings)
        }));
        let readings = match repaired {
            Ok(Ok(readings)) => readings,
            failed => {
                cqa_obs::count!("serve.writes_rolled_back");
                let published = master.db.snapshot();
                // Same iteration order as above: the first `touched` views
                // are the ones the repair reached.
                for view in master.views.values_mut().take(touched) {
                    // A view that cannot even be re-decided keeps failing
                    // loudly on its next repair; the write path stays up.
                    let _ = catch_unwind(AssertUnwindSafe(|| {
                        self.maintainer.initialize(view, &published)
                    }));
                }
                match failed {
                    Err(panic) => resume_unwind(panic),
                    Ok(outcome) => return Err(outcome.expect_err("the success arm is above")),
                }
            }
        };
        let next_engine = Arc::new(self.current().with_snapshot(snapshot));
        let old = {
            let mut current = self.current.write().unwrap_or_else(PoisonError::into_inner);
            current.views = Arc::new(readings);
            std::mem::replace(&mut current.engine, next_engine)
        };
        master.db = next;
        {
            let mut retired = self.retired.lock().unwrap_or_else(PoisonError::into_inner);
            retired.push(old);
            retired.retain(|engine| Arc::strong_count(engine) > 1);
        }
        cqa_obs::count!("serve.epochs_published");
        cqa_obs::observe_duration!("serve.write_nanos", started.elapsed());
        Ok(WriteOutcome {
            changed: true,
            epoch,
        })
    }

    /// Fires the armed failpoint, once.
    #[cfg(test)]
    fn fail_if_armed(&self) -> Result<(), String> {
        let armed = self
            .failpoint
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        match armed {
            None => Ok(()),
            Some(Failpoint::Error) => Err("injected failure before publish".to_string()),
            Some(Failpoint::Panic) => panic!("injected panic before publish"),
        }
    }

    /// The memoized engine of `query`, from the
    /// current epoch's engine memo ([`BatchEngine::answer_engine`]).
    pub fn answer_engine(
        &self,
        query: &cqa_query::ConjunctiveQuery,
    ) -> Result<Arc<CertainAnswersEngine>, String> {
        self.current().answer_engine(query)
    }
}

/// Applies `op` to `db`, recording the exact deltas into `changes` —
/// including the per-fact removals of a whole-block removal, which the
/// database's own pending log nets out internally. Returns whether the
/// write was effective.
fn record_write(
    db: &mut UncertainDatabase,
    op: &WriteOp,
    changes: &mut ChangeSet,
) -> Result<bool, String> {
    Ok(match op {
        WriteOp::Insert(fact) => {
            let inserted = db.insert(fact.clone()).map_err(|e| e.to_string())?;
            if inserted {
                changes.record(Delta::Inserted(fact.clone()));
            }
            inserted
        }
        WriteOp::RemoveFact(fact) => {
            let emptied = db.block_of(fact).is_some_and(cqa_data::Block::is_singleton);
            let removed = db.remove_fact(fact);
            if removed {
                changes.record(Delta::Removed {
                    fact: fact.clone(),
                    emptied_block: emptied,
                });
            }
            removed
        }
        WriteOp::RemoveBlock(fact) => {
            // Capture the block's facts *before* removal: the whole block
            // disappears, and every member is a delta the views must see.
            let schema = db.schema().clone();
            let members: Vec<Fact> = db
                .block_with_key(fact.relation(), fact.key(&schema))
                .map(|block| block.facts().to_vec())
                .unwrap_or_default();
            let removed = db.remove_block_of(fact);
            if removed {
                let last = members.len();
                for (i, member) in members.into_iter().enumerate() {
                    changes.record(Delta::Removed {
                        fact: member,
                        emptied_block: i + 1 == last,
                    });
                }
            }
            removed
        }
    })
}

/// Freezes one view's current answer into the published reading shape. The
/// line is rendered through the same [`protocol::render_result`] as a query
/// response, so `\view name` and a fresh query over the same answer sets
/// are byte-identical.
fn render_reading(view: &MaterializedView) -> ViewReading {
    let sets = view.answer_sets();
    let certain = sets.certain.len();
    let possible = sets.possible.len();
    let line = protocol::render_result(&BatchResult {
        name: view.name().to_string(),
        outcome: BatchOutcome::Answers(sets),
    });
    ViewReading {
        name: view.name().to_string(),
        epoch: view.epoch(),
        certain,
        possible,
        line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_data::{Fact, Schema, Value};
    use cqa_query::{ConjunctiveQuery, Term, Variable};

    fn manager() -> EpochManager {
        let schema = Schema::from_relations([("R", 2, 1)]).unwrap().into_shared();
        let mut db = UncertainDatabase::new(schema);
        db.insert_values("R", ["a", "1"]).unwrap();
        EpochManager::new(db, ParPool::new(2))
    }

    fn fact(schema: &Arc<Schema>, key: &str, value: i64) -> Fact {
        let rel = schema.relation_id("R").unwrap();
        Fact::checked(schema, rel, vec![Value::str(key), Value::Int(value)]).unwrap()
    }

    fn open_query(schema: &Arc<Schema>) -> ConjunctiveQuery {
        ConjunctiveQuery::builder(schema.clone())
            .atom("R", [Term::var("x"), Term::var("y")])
            .free([Variable::new("x")])
            .build()
            .unwrap()
    }

    #[test]
    fn effective_writes_publish_new_epochs_and_noops_do_not() {
        let manager = manager();
        let schema = manager.current().snapshot().schema().clone();
        let before = manager.epoch();
        let reader_pin = manager.current();

        let outcome = manager
            .apply_write(&WriteOp::Insert(fact(&schema, "b", 2)))
            .unwrap();
        assert!(outcome.changed);
        assert!(outcome.epoch > before);
        assert_eq!(manager.epoch(), outcome.epoch);
        // A pinned reader epoch stays frozen across the publish.
        assert_eq!(reader_pin.snapshot().fact_count(), 1);
        assert_eq!(manager.current().snapshot().fact_count(), 2);

        // Duplicate insert and absent removals are no-ops: same epoch.
        for op in [
            WriteOp::Insert(fact(&schema, "b", 2)),
            WriteOp::RemoveFact(fact(&schema, "zzz", 9)),
            WriteOp::RemoveBlock(fact(&schema, "zzz", 9)),
        ] {
            let noop = manager.apply_write(&op).unwrap();
            assert!(!noop.changed);
            assert_eq!(noop.epoch, outcome.epoch);
        }

        // Removal publishes again.
        let removed = manager
            .apply_write(&WriteOp::RemoveFact(fact(&schema, "b", 2)))
            .unwrap();
        assert!(removed.changed);
        assert!(removed.epoch > outcome.epoch);
        assert_eq!(manager.current().snapshot().fact_count(), 1);
    }

    #[test]
    fn answer_engines_are_memoized_across_epochs() {
        let manager = manager();
        let schema = manager.current().snapshot().schema().clone();
        let query = open_query(&schema);
        let first = manager.answer_engine(&query).unwrap();
        manager
            .apply_write(&WriteOp::Insert(fact(&schema, "c", 3)))
            .unwrap();
        let second = manager.answer_engine(&query).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "memo survives epochs");
        assert_eq!(manager.current().cached_engine_count(), 1);
        // The Boolean query of the same body is a second entry of the one
        // memo, answered by its classified engine.
        let boolean = ConjunctiveQuery::builder(schema.clone())
            .atom("R", [Term::var("x"), Term::var("y")])
            .build()
            .unwrap();
        let BatchOutcome::Boolean { certain, .. } = manager.current().answer("b", &boolean).outcome
        else {
            panic!("a Boolean query has a Boolean outcome");
        };
        assert!(certain);
        // Its entry is an engine of the same type: asking for it hits the
        // memo instead of building a third entry.
        let boolean_engine = manager.answer_engine(&boolean).unwrap();
        assert!(!Arc::ptr_eq(&first, &boolean_engine));
        assert_eq!(manager.current().cached_engine_count(), 2);
        assert!(Arc::ptr_eq(&first, &manager.answer_engine(&query).unwrap()));
    }

    #[test]
    fn views_publish_atomically_with_the_epoch() {
        let manager = manager();
        let schema = manager.current().snapshot().schema().clone();
        let reading = manager
            .subscribe("keys", &open_query(&schema))
            .expect("subscribe");
        assert_eq!(reading.epoch, manager.epoch());
        assert_eq!((reading.certain, reading.possible), (1, 1));
        assert!(reading.line.starts_with("keys: 1 certain / 1 possible"));
        assert_eq!(manager.view_count(), 1);

        // An effective write repairs and republishes the view in the same
        // swap: reading epoch always equals the engine epoch.
        let outcome = manager
            .apply_write(&WriteOp::Insert(fact(&schema, "b", 2)))
            .unwrap();
        let reading = manager.view("keys").expect("published view");
        assert_eq!(reading.epoch, outcome.epoch);
        assert_eq!((reading.certain, reading.possible), (2, 2));

        // A no-op write leaves the published reading untouched.
        manager
            .apply_write(&WriteOp::RemoveFact(fact(&schema, "zzz", 9)))
            .unwrap();
        assert_eq!(manager.view("keys").unwrap().epoch, outcome.epoch);
        assert!(manager.view("nope").is_none());
        assert_eq!(
            cqa_obs::Registry::global()
                .snapshot()
                .counter("stream.view.stale_reads"),
            0
        );
    }

    #[test]
    fn whole_block_removal_repairs_views_through_the_recorded_deltas() {
        let manager = manager();
        let schema = manager.current().snapshot().schema().clone();
        manager
            .apply_write(&WriteOp::Insert(fact(&schema, "a", 2)))
            .unwrap();
        manager.subscribe("keys", &open_query(&schema)).unwrap();
        assert_eq!(manager.view("keys").unwrap().possible, 1);
        // Remove the whole two-fact block (naming a member that exists).
        let outcome = manager
            .apply_write(&WriteOp::RemoveBlock(fact(&schema, "a", 1)))
            .unwrap();
        assert!(outcome.changed);
        let reading = manager.view("keys").unwrap();
        assert_eq!((reading.certain, reading.possible), (0, 0));
        assert_eq!(reading.epoch, outcome.epoch);
    }

    #[test]
    fn a_write_that_fails_before_the_publish_leaves_no_trace() {
        for fault in [Failpoint::Error, Failpoint::Panic] {
            let manager = manager();
            let schema = manager.current().snapshot().schema().clone();
            manager.subscribe("keys", &open_query(&schema)).unwrap();
            let acked = manager
                .apply_write(&WriteOp::Insert(fact(&schema, "b", 2)))
                .unwrap();

            *manager.failpoint.lock().unwrap() = Some(fault);
            let doomed = WriteOp::Insert(fact(&schema, "c", 3));
            let outcome = catch_unwind(AssertUnwindSafe(|| manager.apply_write(&doomed)));
            match fault {
                Failpoint::Error => assert!(matches!(outcome, Ok(Err(_)))),
                Failpoint::Panic => assert!(outcome.is_err(), "the panic propagates"),
            }

            // Nothing of the failed write is visible: not in the epoch, not
            // to a point read, not in the view.
            assert_eq!(manager.epoch(), acked.epoch);
            let probe = ConjunctiveQuery::builder(schema.clone())
                .atom("R", [Term::constant("c"), Term::var("y")])
                .build()
                .unwrap();
            let BatchOutcome::Boolean { possible, .. } =
                manager.current().answer("probe", &probe).outcome
            else {
                panic!("a Boolean query has a Boolean outcome");
            };
            assert!(!possible, "the unacknowledged fact is not readable");
            let reading = manager.view("keys").unwrap();
            assert_eq!(
                (reading.certain, reading.possible, reading.epoch),
                (2, 2, acked.epoch)
            );

            // The master did not run ahead: the next effective write is
            // acknowledged as the successor of the last acknowledged one,
            // and every view agrees with a replay of the acknowledged
            // writes only.
            let next = manager
                .apply_write(&WriteOp::Insert(fact(&schema, "d", 4)))
                .unwrap();
            assert_eq!(next.epoch, acked.epoch + 1);
            let replay = self::manager();
            replay.subscribe("keys", &open_query(&schema)).unwrap();
            for key in [("b", 2), ("d", 4)] {
                replay
                    .apply_write(&WriteOp::Insert(fact(&schema, key.0, key.1)))
                    .unwrap();
            }
            assert_eq!(manager.epoch(), replay.epoch());
            assert_eq!(
                manager.view("keys").unwrap().line,
                replay.view("keys").unwrap().line
            );
            assert_eq!(manager.view("keys").unwrap().epoch, next.epoch);
            // The failed write was not half-applied either: it can be retried.
            assert!(manager.apply_write(&doomed).unwrap().changed);
            assert_eq!(manager.view("keys").unwrap().possible, 4);
        }
    }

    #[test]
    fn pinned_epoch_gauge_counts_slow_readers() {
        let manager = manager();
        let schema = manager.current().snapshot().schema().clone();
        assert_eq!(manager.pinned_epochs(), 0);
        let pin = manager.current();
        manager
            .apply_write(&WriteOp::Insert(fact(&schema, "b", 2)))
            .unwrap();
        assert_eq!(manager.pinned_epochs(), 1, "the old epoch is pinned");
        manager
            .apply_write(&WriteOp::Insert(fact(&schema, "c", 3)))
            .unwrap();
        // The intermediate epoch died unpinned; the original is still held.
        assert_eq!(manager.pinned_epochs(), 1);
        drop(pin);
        assert_eq!(manager.pinned_epochs(), 0);
    }
}
