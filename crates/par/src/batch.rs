//! The batch engine: many queries, one snapshot, one pool.
//!
//! This is the "serve heavy traffic" story of the ROADMAP: a service holds
//! one immutable [`Snapshot`] of the data and a stream of incoming queries.
//! [`BatchEngine::run`] answers a whole batch concurrently — one job per
//! query, inter-query parallelism — and returns the results **in input
//! order**, so the caller's output is deterministic however the workers
//! interleaved.
//!
//! Two caches amortize repeated traffic, both shared across the whole
//! process: compiled satisfaction plans go through
//! [`cqa_core::answers::shared_plan_cache`], and classified
//! [`CertaintyEngine`]s (classification + attack graph + compiled rewriting)
//! are memoized per `(schema, query)` fingerprint in the engine cache here —
//! the second time a query shape arrives, answering it is pure plan
//! execution.
//!
//! Within one batch job the evaluation is deliberately **sequential**: a
//! job that blocked on sub-jobs of the same pool could deadlock a small
//! pool, and inter-query parallelism already saturates the workers when
//! traffic is heavy. Use [`ParallelEngine`](crate::ParallelEngine) /
//! [`certain_answers_par`](crate::certain_answers_par) from outside the
//! pool for intra-query parallelism on a single huge problem.

use crate::pool::{par_map_opt, ParPool};
use cqa_core::answers::{certain_answers, AnswerSets};
use cqa_core::solvers::{CertaintyEngine, CertaintySolver};
use cqa_data::Snapshot;
use cqa_exec::cache::{fingerprint, Lookup, LruCache};
use cqa_query::ConjunctiveQuery;
use std::sync::Arc;

/// Capacity of the per-query-shape engine memos (this one and `cqa-serve`'s
/// answer-engine memo). A fingerprint includes the query's constants, so a
/// client cycling constants mints shapes without limit; past this many the
/// least recently used engine is evicted and reclassified on its next use.
pub const ENGINE_MEMO_CAPACITY: usize = 4096;

/// The outcome of one query of a batch.
#[derive(Debug)]
pub enum BatchOutcome {
    /// A Boolean query: its certainty and possibility verdicts, plus the
    /// name of the solver the engine dispatched to.
    Boolean {
        /// True iff every repair satisfies the query.
        certain: bool,
        /// True iff some repair satisfies the query.
        possible: bool,
        /// The dispatched solver (see `cqa_core::solvers`).
        solver: &'static str,
    },
    /// A query with free variables: its certain and possible answer sets.
    Answers(AnswerSets),
    /// The query could not be answered (classification failed, self-join,
    /// …). Batch processing continues past failed queries.
    Error(String),
}

/// One named result of [`BatchEngine::run`], in input order.
#[derive(Debug)]
pub struct BatchResult {
    /// The query's name, as submitted.
    pub name: String,
    /// What happened.
    pub outcome: BatchOutcome,
}

/// Answers batches of queries over one frozen [`Snapshot`].
pub struct BatchEngine {
    snapshot: Snapshot,
    pool: ParPool,
    /// Memoized classified engines per `(schema, query)` fingerprint.
    engines: Arc<LruCache<CertaintyEngine>>,
}

impl BatchEngine {
    /// A batch engine over `snapshot`, running on `pool`.
    pub fn new(snapshot: Snapshot, pool: ParPool) -> BatchEngine {
        BatchEngine {
            snapshot,
            pool,
            engines: Arc::new(LruCache::with_capacity(ENGINE_MEMO_CAPACITY)),
        }
    }

    /// The frozen snapshot every query of every batch is answered against.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// The mutation epoch of the engine's snapshot
    /// ([`Snapshot::epoch`]): one integer compare against the live
    /// database's [`epoch`](cqa_data::UncertainDatabase::epoch) tells a
    /// serving loop whether this engine is answering against stale data.
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// True iff `db` has been effectively mutated since this engine's
    /// snapshot was frozen from it.
    pub fn is_stale_for(&self, db: &cqa_data::UncertainDatabase) -> bool {
        self.snapshot.is_stale_for(db)
    }

    /// Swaps in a fresh snapshot, **keeping** the memoized classified
    /// engines: classification and rewriting shape depend only on the query
    /// and the schema, not the data, so after a refresh a known query shape
    /// is still pure plan execution (plans themselves re-check statistics
    /// drift in their own caches). Counted as `par.batch.refresh`.
    pub fn refresh(&mut self, snapshot: Snapshot) {
        cqa_obs::count!("par.batch.refresh");
        self.snapshot = snapshot;
    }

    /// A new engine over `snapshot` that **shares** this engine's pool and
    /// memoized classified engines. This is the epoch-swap primitive of the
    /// serving layer: readers keep answering on the old engine's frozen
    /// snapshot while the writer builds the next epoch's engine from the
    /// delta-patched index; publishing the new engine is then one atomic
    /// pointer swap, and known query shapes stay pure plan execution on
    /// both sides of the swap. Counted as `par.batch.epoch_fork`.
    pub fn with_snapshot(&self, snapshot: Snapshot) -> BatchEngine {
        cqa_obs::count!("par.batch.epoch_fork");
        BatchEngine {
            snapshot,
            pool: self.pool.clone(),
            engines: self.engines.clone(),
        }
    }

    /// The pool batch jobs run on.
    pub fn pool(&self) -> &ParPool {
        &self.pool
    }

    /// Number of classified engines currently memoized.
    pub fn cached_engine_count(&self) -> usize {
        self.engines.len()
    }

    /// Answers every query of the batch concurrently (one pool job per
    /// query) and returns the results in **input order**. A query that
    /// fails — or whose evaluation panics — yields [`BatchOutcome::Error`]
    /// without disturbing the others: a poisoned query must not take the
    /// serving process down.
    pub fn run(&self, queries: Vec<(String, ConjunctiveQuery)>) -> Vec<BatchResult> {
        let names: Vec<String> = queries.iter().map(|(name, _)| name.clone()).collect();
        let snapshot = self.snapshot.clone();
        let engines = self.engines.clone();
        let results = par_map_opt(&self.pool, queries, move |_, (name, query)| {
            let outcome = answer_one(&snapshot, &engines, &query);
            BatchResult { name, outcome }
        });
        results
            .into_iter()
            .zip(names)
            .map(|(result, name)| {
                result.unwrap_or_else(|| BatchResult {
                    name,
                    outcome: BatchOutcome::Error("query evaluation panicked".to_string()),
                })
            })
            .collect()
    }

    /// Answers a single query on the calling thread (the batch path without
    /// the pool round-trip), sharing the same caches.
    pub fn answer(&self, name: &str, query: &ConjunctiveQuery) -> BatchResult {
        BatchResult {
            name: name.to_string(),
            outcome: answer_one(&self.snapshot, &self.engines, query),
        }
    }
}

/// Answers one query against the snapshot, memoizing classified engines.
/// Each call records its wall time into the `par.batch.query_nanos`
/// histogram (the source of the serving layer's p50/p99).
fn answer_one(
    snapshot: &Snapshot,
    engines: &LruCache<CertaintyEngine>,
    query: &ConjunctiveQuery,
) -> BatchOutcome {
    let started = std::time::Instant::now();
    let outcome = answer_one_inner(snapshot, engines, query);
    cqa_obs::observe_duration!("par.batch.query_nanos", started.elapsed());
    outcome
}

fn answer_one_inner(
    snapshot: &Snapshot,
    engines: &LruCache<CertaintyEngine>,
    query: &ConjunctiveQuery,
) -> BatchOutcome {
    let db = snapshot.database();
    if !query.is_boolean() {
        return match certain_answers(query, db) {
            Ok(sets) => BatchOutcome::Answers(sets),
            Err(e) => BatchOutcome::Error(e.to_string()),
        };
    }
    // Classification runs outside the memo's lock; a concurrent duplicate
    // loses the entry race harmlessly (both engines answer alike).
    let engine =
        match engines.get_or_try_insert_with(fingerprint(query), || CertaintyEngine::new(query)) {
            Ok((engine, Lookup::Hit)) => {
                cqa_obs::count!("par.batch.engine.hit");
                engine
            }
            Ok((engine, Lookup::Miss { evicted })) => {
                cqa_obs::count!("par.batch.engine.miss");
                if evicted {
                    cqa_obs::count!("par.batch.engine.eviction");
                }
                engine
            }
            Err(e) => return BatchOutcome::Error(e.to_string()),
        };
    BatchOutcome::Boolean {
        certain: engine.is_certain(db),
        possible: engine.is_possible(db),
        solver: engine.solver_name(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_query::{catalog, Term, Variable};

    #[test]
    fn batches_answer_in_input_order_and_reuse_engines() {
        let db = catalog::conference_database();
        let engine = BatchEngine::new(db.snapshot(), ParPool::new(3));
        let boolean = catalog::conference().query;
        let free = ConjunctiveQuery::builder(boolean.schema().clone())
            .atom(
                "C",
                [Term::var("x"), Term::var("y"), Term::constant("Rome")],
            )
            .atom("R", [Term::var("x"), Term::constant("A")])
            .free([Variable::new("x")])
            .build()
            .unwrap();
        let batch: Vec<(String, ConjunctiveQuery)> = (0..12)
            .map(|i| {
                if i % 2 == 0 {
                    (format!("b{i}"), boolean.clone())
                } else {
                    (format!("f{i}"), free.clone())
                }
            })
            .collect();
        let results = engine.run(batch);
        assert_eq!(results.len(), 12);
        for (i, result) in results.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(result.name, format!("b{i}"));
                let BatchOutcome::Boolean {
                    certain,
                    possible,
                    solver,
                } = &result.outcome
                else {
                    panic!("expected a Boolean outcome for {}", result.name);
                };
                assert!(!certain && *possible);
                assert_eq!(*solver, "rewriting");
            } else {
                assert_eq!(result.name, format!("f{i}"));
                let BatchOutcome::Answers(sets) = &result.outcome else {
                    panic!("expected answer sets for {}", result.name);
                };
                assert!(sets.certain.is_empty());
                assert_eq!(sets.possible.len(), 2);
            }
        }
        // All six Boolean repetitions share one classified engine.
        assert_eq!(engine.cached_engine_count(), 1);
        assert_eq!(engine.snapshot().fact_count(), 6);
        assert_eq!(engine.pool().thread_count(), 3);
    }

    #[test]
    fn refresh_tracks_epochs_and_keeps_classified_engines() {
        let mut db = catalog::conference_database();
        let mut engine = BatchEngine::new(db.snapshot(), ParPool::new(2));
        let query = catalog::conference().query;
        engine.answer("warm", &query);
        assert_eq!(engine.cached_engine_count(), 1);
        assert!(!engine.is_stale_for(&db));
        // An effective mutation bumps the database epoch; the frozen
        // snapshot is now detectably stale by one integer compare.
        db.insert_values("R", ["conf_new", "t_new"]).unwrap();
        assert!(engine.is_stale_for(&db));
        assert_ne!(engine.epoch(), db.epoch());
        engine.refresh(db.snapshot());
        assert!(!engine.is_stale_for(&db));
        assert_eq!(engine.epoch(), db.epoch());
        // Classification is data-independent: the memo survives the swap.
        assert_eq!(engine.cached_engine_count(), 1);
        assert_eq!(engine.snapshot().fact_count(), 7);
    }

    #[test]
    fn with_snapshot_forks_an_epoch_sharing_the_engine_memo() {
        let mut db = catalog::conference_database();
        let old = BatchEngine::new(db.snapshot(), ParPool::new(2));
        let query = catalog::conference().query;
        old.answer("warm", &query);
        assert_eq!(old.cached_engine_count(), 1);
        db.insert_values("R", ["conf_new", "t_new"]).unwrap();
        let new = old.with_snapshot(db.snapshot());
        // The fork shares the classified-engine memo and the pool, but the
        // old engine keeps answering on its frozen epoch.
        assert_eq!(new.cached_engine_count(), 1);
        assert_eq!(old.snapshot().fact_count(), 6);
        assert_eq!(new.snapshot().fact_count(), 7);
        assert_ne!(old.epoch(), new.epoch());
        assert_eq!(new.epoch(), db.epoch());
        new.answer("again", &query);
        assert_eq!(old.cached_engine_count(), 1, "memo is shared, not copied");
    }

    #[test]
    fn distinct_constant_shapes_cannot_grow_the_engine_memo_past_its_capacity() {
        let schema = cqa_data::Schema::from_relations([("R", 2, 1)])
            .unwrap()
            .into_shared();
        let mut db = cqa_data::UncertainDatabase::new(schema.clone());
        db.insert_values("R", ["x0", "a"]).unwrap();
        let engine = BatchEngine::new(db.snapshot(), ParPool::new(1));
        // R("x<i>", y): one memo key per constant, the way a client cycling
        // constants mints them.
        let shape = |i: usize| {
            ConjunctiveQuery::builder(schema.clone())
                .atom("R", [Term::constant(format!("x{i}")), Term::var("y")])
                .build()
                .unwrap()
        };
        let evictions = || {
            cqa_obs::Registry::global()
                .snapshot()
                .counter("par.batch.engine.eviction")
        };
        let before = evictions();
        let first = engine.answer("q", &shape(0));
        assert!(matches!(
            first.outcome,
            BatchOutcome::Boolean { certain: true, .. }
        ));
        for i in 1..ENGINE_MEMO_CAPACITY + 100 {
            engine.answer("q", &shape(i));
        }
        assert_eq!(engine.cached_engine_count(), ENGINE_MEMO_CAPACITY);
        assert_eq!(evictions() - before, 100);
        // Shape 0 was the least recently used, so it is long evicted; asking
        // again reclassifies it and answers exactly as before.
        let again = engine.answer("q", &shape(0));
        assert_eq!(
            format!("{:?}", again.outcome),
            format!("{:?}", first.outcome)
        );
        assert_eq!(engine.cached_engine_count(), ENGINE_MEMO_CAPACITY);
        assert_eq!(evictions() - before, 101);
    }

    #[test]
    fn failing_queries_report_errors_without_stopping_the_batch() {
        let schema = cqa_data::Schema::from_relations([("R", 2, 1)])
            .unwrap()
            .into_shared();
        let self_join = ConjunctiveQuery::builder(schema.clone())
            .atom("R", [Term::var("x"), Term::var("y")])
            .atom("R", [Term::var("y"), Term::var("z")])
            .build()
            .unwrap();
        let mut db = cqa_data::UncertainDatabase::new(schema.clone());
        db.insert_values("R", ["a", "a"]).unwrap();
        let ok = ConjunctiveQuery::builder(schema)
            .atom("R", [Term::var("x"), Term::var("y")])
            .build()
            .unwrap();
        let engine = BatchEngine::new(db.snapshot(), ParPool::new(2));
        let results = engine.run(vec![("bad".into(), self_join), ("good".into(), ok.clone())]);
        assert!(matches!(results[0].outcome, BatchOutcome::Error(_)));
        assert!(
            matches!(
                results[1].outcome,
                BatchOutcome::Boolean { certain: true, .. }
            ),
            "R(a, a) is its own block: certain"
        );
        let single = engine.answer("again", &ok);
        assert_eq!(single.name, "again");
        assert!(matches!(single.outcome, BatchOutcome::Boolean { .. }));
    }
}
