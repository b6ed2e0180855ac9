//! The batch engine: many queries, one snapshot, one engine memo.
//!
//! This is the "serve heavy traffic" story of the ROADMAP: a service holds
//! one immutable [`Snapshot`] of the data and a stream of incoming queries.
//! The serving layer (`cqa-serve`) runs each query as one job on the
//! engine's [`ParPool`] — inter-query parallelism — and
//! [`BatchEngine::answer`] is what such a job runs.
//!
//! The paper measures data complexity: the query is fixed and the data
//! varies. So each query is classified, rewritten and compiled once, and the
//! result is kept in **one** place: a memo of per-query engines keyed by
//! [`fingerprint`], shared by every epoch forked from the same engine. Every
//! entry, Boolean or open, is a [`CertainAnswersEngine`]: the query's one
//! classified `CertaintyEngine` (solver, join plan and, in the Theorem 1
//! region, rewriting plan) plus answer-set enumeration. The second time a
//! query shape arrives, answering it is pure plan execution.
//!
//! Within one job the evaluation is deliberately **sequential**: a job
//! that blocked on sub-jobs of the same pool could deadlock a small pool,
//! and inter-query parallelism already saturates the workers when traffic
//! is heavy.

use crate::pool::ParPool;
use cqa_core::answers::{AnswerSets, CertainAnswersEngine};
use cqa_core::solvers::CertaintySolver;
use cqa_data::Snapshot;
use cqa_exec::cache::{fingerprint, Lookup, LruCache};
use cqa_query::ConjunctiveQuery;
use std::sync::Arc;

/// Capacity of the per-query engine memo, Boolean and open queries
/// together. A fingerprint includes the query's constants, so a client
/// cycling constants mints shapes without limit; past this many the least
/// recently used engine is evicted and rebuilt on its next use.
pub const ENGINE_MEMO_CAPACITY: usize = 8192;

/// The outcome of one query.
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
    /// …). The engine keeps answering other queries.
    Error(String),
}

/// One named result of [`BatchEngine::answer`].
#[derive(Debug)]
pub struct BatchResult {
    /// The query's name, as submitted.
    pub name: String,
    /// What happened.
    pub outcome: BatchOutcome,
}

/// Answers queries over one frozen [`Snapshot`].
pub struct BatchEngine {
    snapshot: Snapshot,
    pool: ParPool,
    /// Memoized per-query engines per `(schema, query)` fingerprint.
    engines: Arc<LruCache<CertainAnswersEngine>>,
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

    /// The frozen snapshot every query is answered against.
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

    /// A new engine over `snapshot` that **shares** this engine's pool and
    /// memoized per-query engines. This is the epoch-swap primitive of the
    /// serving layer: readers keep answering on the old engine's frozen
    /// snapshot while the writer builds the next epoch's engine from the
    /// delta-patched index; publishing the new engine is then one atomic
    /// pointer swap, and known query shapes stay pure plan execution on
    /// both sides of the swap — classification and rewriting shape depend
    /// only on the query and the schema, not the data (an open engine
    /// re-checks its plans' statistics drift itself). Counted as
    /// `par.batch.epoch_fork`.
    pub fn with_snapshot(&self, snapshot: Snapshot) -> BatchEngine {
        cqa_obs::count!("par.batch.epoch_fork");
        BatchEngine {
            snapshot,
            pool: self.pool.clone(),
            engines: self.engines.clone(),
        }
    }

    /// The pool the serving layer runs this engine's query jobs on.
    pub fn pool(&self) -> &ParPool {
        &self.pool
    }

    /// Number of per-query engines currently memoized.
    pub fn cached_engine_count(&self) -> usize {
        self.engines.len()
    }

    /// The memoized engine of `query`, built — classified once — on first
    /// sight of its fingerprint: its plans, shared across epochs. The
    /// serving layer decides an open query's candidates through it in
    /// cancellable chunks. Counted as `par.batch.engine.{hit,miss,eviction}`.
    pub fn answer_engine(
        &self,
        query: &ConjunctiveQuery,
    ) -> Result<Arc<CertainAnswersEngine>, String> {
        // Classification runs outside the memo's lock; a concurrent
        // duplicate loses the entry race harmlessly (both engines answer
        // alike).
        let (engine, lookup) = (self.engines)
            .get_or_try_insert_with(fingerprint(query), || CertainAnswersEngine::new(query))
            .map_err(|e| e.to_string())?;
        match lookup {
            Lookup::Hit => cqa_obs::count!("par.batch.engine.hit"),
            Lookup::Miss { evicted } => {
                cqa_obs::count!("par.batch.engine.miss");
                if evicted {
                    cqa_obs::count!("par.batch.engine.eviction");
                }
            }
        }
        Ok(engine)
    }

    /// Answers one query on the calling thread (a pool job, when served),
    /// through the engine memo. Each call records its wall time into the
    /// `par.batch.query_nanos` histogram (the source of the serving layer's
    /// p50/p99).
    pub fn answer(&self, name: &str, query: &ConjunctiveQuery) -> BatchResult {
        let started = std::time::Instant::now();
        let db = self.snapshot.database();
        let outcome = match self.answer_engine(query) {
            Err(e) => BatchOutcome::Error(e),
            Ok(engine) if query.is_boolean() => {
                let engine = engine.engine();
                BatchOutcome::Boolean {
                    certain: engine.is_certain(db),
                    possible: engine.is_possible(db),
                    solver: engine.solver_name(),
                }
            }
            Ok(engine) => match engine.answer_sets(db) {
                Ok(sets) => BatchOutcome::Answers(sets),
                Err(e) => BatchOutcome::Error(e.to_string()),
            },
        };
        cqa_obs::observe_duration!("par.batch.query_nanos", started.elapsed());
        BatchResult {
            name: name.to_string(),
            outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_query::{catalog, Term, Variable};
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// The memo's counters are process-wide: tests that read them, and
    /// every test that moves them, take turns.
    fn counted() -> MutexGuard<'static, ()> {
        static TURN: Mutex<()> = Mutex::new(());
        TURN.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn counter(name: &str) -> u64 {
        cqa_obs::Registry::global().snapshot().counter(name)
    }

    #[test]
    fn answers_share_one_classified_engine_per_query_shape() {
        let _turn = counted();
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
        let results: Vec<BatchResult> = (batch.iter())
            .map(|(name, query)| engine.answer(name, query))
            .collect();
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
        // The six Boolean repetitions share one classified engine and the
        // six open ones one answer engine.
        assert_eq!(engine.cached_engine_count(), 2);
        assert_eq!(engine.snapshot().fact_count(), 6);
        assert_eq!(engine.pool().thread_count(), 3);
    }

    #[test]
    fn with_snapshot_forks_an_epoch_sharing_the_engine_memo() {
        let _turn = counted();
        let mut db = catalog::conference_database();
        let old = BatchEngine::new(db.snapshot(), ParPool::new(2));
        let query = catalog::conference().query;
        old.answer("warm", &query);
        assert_eq!(old.cached_engine_count(), 1);
        assert_eq!(old.epoch(), db.epoch());
        // An effective mutation bumps the database epoch; the frozen
        // snapshot is now detectably stale by one integer compare.
        db.insert_values("R", ["conf_new", "t_new"]).unwrap();
        assert_ne!(old.epoch(), db.epoch());
        let new = old.with_snapshot(db.snapshot());
        // The fork shares the engine memo and the pool, but the
        // old engine keeps answering on its frozen epoch. Classification is
        // data-independent, so the memo survives the swap.
        assert_eq!(new.cached_engine_count(), 1);
        assert_eq!(old.snapshot().fact_count(), 6);
        assert_eq!(new.snapshot().fact_count(), 7);
        assert_ne!(old.epoch(), new.epoch());
        assert_eq!(new.epoch(), db.epoch());
        new.answer("again", &query);
        assert_eq!(old.cached_engine_count(), 1, "memo is shared, not copied");
    }

    #[test]
    fn an_open_query_misses_once_then_hits_across_an_epoch_fork() {
        let _turn = counted();
        let mut db = catalog::conference_database();
        let old = BatchEngine::new(db.snapshot(), ParPool::new(1));
        let query = ConjunctiveQuery::builder(db.schema().clone())
            .atom("R", [Term::var("x"), Term::constant("A")])
            .free([Variable::new("x")])
            .build()
            .unwrap();
        let counts = || {
            (
                counter("par.batch.engine.miss"),
                counter("par.batch.engine.hit"),
            )
        };
        let (misses, hits) = counts();
        let BatchOutcome::Answers(before) = old.answer("q", &query).outcome else {
            panic!("an open query has answer sets");
        };
        assert_eq!(counts(), (misses + 1, hits));
        db.insert_values("R", ["ICDT", "A"]).unwrap();
        let new = old.with_snapshot(db.snapshot());
        let BatchOutcome::Answers(after) = new.answer("q", &query).outcome else {
            panic!("an open query has answer sets");
        };
        assert_eq!(counts(), (misses + 1, hits + 1));
        // One engine, answering each epoch from its own snapshot.
        assert_eq!(new.cached_engine_count(), 1);
        assert_eq!(before.certain.len() + 1, after.certain.len());
    }

    #[test]
    fn distinct_constant_shapes_cannot_grow_the_engine_memo_past_its_capacity() {
        let _turn = counted();
        let schema = cqa_data::Schema::from_relations([("R", 2, 1)])
            .unwrap()
            .into_shared();
        let mut db = cqa_data::UncertainDatabase::new(schema.clone());
        db.insert_values("R", ["x0", "a"]).unwrap();
        db.insert_values("R", ["x1", "b"]).unwrap();
        let engine = BatchEngine::new(db.snapshot(), ParPool::new(1));
        // R("x<i>", y), Boolean for even `i` and open in `y` for odd `i`: one
        // memo key per constant, the way a client cycling constants mints
        // them, and both kinds of engine share the one bound.
        let shape = |i: usize| {
            let free = (i % 2 == 1).then(|| Variable::new("y"));
            ConjunctiveQuery::builder(schema.clone())
                .atom("R", [Term::constant(format!("x{i}")), Term::var("y")])
                .free(free)
                .build()
                .unwrap()
        };
        let before = counter("par.batch.engine.eviction");
        let first = engine.answer("q", &shape(0));
        assert!(matches!(
            first.outcome,
            BatchOutcome::Boolean { certain: true, .. }
        ));
        let open = engine.answer_engine(&shape(1)).unwrap();
        for i in 2..ENGINE_MEMO_CAPACITY + 100 {
            engine.answer("q", &shape(i));
        }
        assert_eq!(engine.cached_engine_count(), ENGINE_MEMO_CAPACITY);
        assert_eq!(counter("par.batch.engine.eviction") - before, 100);
        // Shapes 0 and 1 were the least recently used, so they are long
        // evicted; asking again rebuilds engines that answer exactly as
        // before.
        let again = engine.answer("q", &shape(0));
        assert_eq!(
            format!("{:?}", again.outcome),
            format!("{:?}", first.outcome)
        );
        let open_again = engine.answer_engine(&shape(1)).unwrap();
        assert!(!Arc::ptr_eq(&open, &open_again));
        let candidates = [
            vec![cqa_data::Value::str("b")],
            vec![cqa_data::Value::str("a")],
        ];
        let snapshot = engine.snapshot().database();
        assert_eq!(open.verdicts(snapshot, &candidates).unwrap(), [true, false]);
        assert_eq!(
            open_again.verdicts(snapshot, &candidates).unwrap(),
            [true, false]
        );
        assert_eq!(engine.cached_engine_count(), ENGINE_MEMO_CAPACITY);
        assert_eq!(counter("par.batch.engine.eviction") - before, 102);
    }

    #[test]
    fn a_failing_query_reports_an_error_and_the_engine_keeps_answering() {
        let _turn = counted();
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
        assert!(matches!(
            engine.answer("bad", &self_join).outcome,
            BatchOutcome::Error(_)
        ));
        assert!(
            matches!(
                engine.answer("good", &ok).outcome,
                BatchOutcome::Boolean { certain: true, .. }
            ),
            "R(a, a) is its own block: certain"
        );
        let single = engine.answer("again", &ok);
        assert_eq!(single.name, "again");
        assert!(matches!(single.outcome, BatchOutcome::Boolean { .. }));
    }
}
