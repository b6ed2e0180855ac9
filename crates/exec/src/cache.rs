//! Memoization of compiled plans per `(schema, query)`.
//!
//! Plans depend only on the query text, the schema and (for ordering, not
//! correctness) statistics, so a long-running service compiling each
//! incoming query once amortizes planning across every later snapshot. The
//! cache key is a structural fingerprint — relation signatures plus the
//! query rendering — rather than a pointer, so schema clones hit the same
//! entry and a dropped-and-reallocated schema cannot alias a stale one.
//!
//! The cache is **bounded**: its storage is the generic [`LruCache`] (which
//! also bounds the per-shape engine memos of `cqa-par` and `cqa-serve`), and
//! beyond its capacity the least-recently-used entry is evicted, so a service fed an unbounded stream of distinct
//! queries cannot grow without limit. Recency is tracked by a per-entry
//! stamp bumped from a global tick on every hit, which keeps the hot path
//! under the shared read lock; eviction (rare by construction) does an
//! O(n) min-stamp scan under the write lock. Hits, misses and evictions
//! are counted in the metrics registry under `exec.plan_cache.*`.
//!
//! Since the data layer keeps index snapshots alive across mutations (delta
//! maintenance instead of invalidation), a cached plan can now outlive the
//! statistics it was compiled against by *a lot*. Every entry therefore
//! remembers a [`StatsStamp`] of its compile-time statistics; a hit whose
//! current statistics have [drifted](StatsStamp::drifted_from) beyond
//! [`DRIFT_FACTOR`] recompiles the plan with the fresh statistics (counted
//! as `exec.plan_cache.stale`), so long-lived services keep honest join
//! orders as the data grows or shrinks underneath them.

use crate::QueryPlan;
use cqa_data::Statistics;
use cqa_query::ConjunctiveQuery;
use rustc_hash::FxHashMap;
use std::collections::hash_map::Entry;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Default capacity: far above any workload in this repo (the CLI and the
/// batch engine see tens of distinct queries), so eviction only engages
/// under a genuinely unbounded query stream.
pub const DEFAULT_CAPACITY: usize = 1024;

/// Cardinality ratio beyond which compile-time statistics are considered
/// stale: a relation must grow or shrink ≥ 4× before a cached plan is
/// recompiled. Join-order quality degrades logarithmically with estimate
/// error, so small drift is harmless while recompiling per mutation would
/// forfeit the cache entirely.
pub const DRIFT_FACTOR: usize = 4;

/// A compact summary of the [`Statistics`] a plan was compiled against:
/// the per-relation fact counts (the only inputs whose drift reorders
/// joins at the scale the cost model cares about).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsStamp {
    fact_counts: Vec<usize>,
}

impl StatsStamp {
    /// Stamps the statistics a plan is about to be compiled against
    /// (`None` stamps as "compiled blind").
    pub fn of(stats: Option<&Statistics>) -> StatsStamp {
        StatsStamp {
            fact_counts: stats
                .map(|s| s.iter().map(|(_, r)| r.fact_count()).collect())
                .unwrap_or_default(),
        }
    }

    /// True iff `stats` differ from this stamp by at least
    /// [`DRIFT_FACTOR`] on some relation's cardinality (or the stamp was
    /// taken blind and real statistics are now available). `None` never
    /// drifts — with no fresh statistics there is nothing better to
    /// recompile against.
    pub fn drifted_from(&self, stats: Option<&Statistics>) -> bool {
        let Some(stats) = stats else {
            return false;
        };
        let current: Vec<usize> = stats.iter().map(|(_, r)| r.fact_count()).collect();
        if self.fact_counts.len() != current.len() {
            return true;
        }
        self.fact_counts.iter().zip(&current).any(|(&old, &new)| {
            let (lo, hi) = if old <= new { (old, new) } else { (new, old) };
            hi.max(1) >= lo.max(1) * DRIFT_FACTOR
        })
    }
}

/// A cached value plus its last-touched stamp.
struct Slot<V> {
    value: Arc<V>,
    touched: AtomicU64,
}

/// How [`LruCache::get_or_try_insert_with`] found its value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// The key was cached.
    Hit,
    /// The key was absent and its value was built.
    Miss {
        /// True iff keeping the new entry evicted the least recently used.
        evicted: bool,
    },
}

/// A thread-safe, poison-proof, LRU-bounded map from a query
/// [`fingerprint`] to a shared value: the [`PlanCache`]'s storage, and the
/// bound on the per-shape engine memos of `cqa-par` and `cqa-serve`.
pub struct LruCache<V> {
    slots: RwLock<FxHashMap<String, Slot<V>>>,
    capacity: usize,
    tick: AtomicU64,
}

impl<V> LruCache<V> {
    /// Creates an empty cache evicting beyond `capacity` entries
    /// (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        LruCache {
            slots: RwLock::new(FxHashMap::default()),
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
        }
    }

    /// The capacity beyond which least-recently-used entries are evicted.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The value cached under `key`, marked as just used.
    pub fn get(&self, key: &str) -> Option<Arc<V>> {
        let slots = self.slots.read().unwrap_or_else(PoisonError::into_inner);
        let slot = slots.get(key)?;
        slot.touched.store(self.next_tick(), Ordering::Relaxed);
        Some(slot.value.clone())
    }

    /// Stores `value` under `key` — replacing a cached value when `replace`
    /// is set, keeping it otherwise — and evicts the least recently used
    /// entry if that outgrew the capacity. Returns the value now cached and
    /// whether an entry was evicted.
    fn put(&self, key: String, value: Arc<V>, replace: bool) -> (Arc<V>, bool) {
        let mut slots = self.slots.write().unwrap_or_else(PoisonError::into_inner);
        let touched = AtomicU64::new(self.next_tick());
        let kept = match slots.entry(key) {
            Entry::Occupied(mut slot) => {
                if replace {
                    slot.insert(Slot { value, touched });
                }
                slot.get().value.clone()
            }
            Entry::Vacant(slot) => slot.insert(Slot { value, touched }).value.clone(),
        };
        if slots.len() <= self.capacity {
            return (kept, false);
        }
        let oldest = slots
            .iter()
            .min_by_key(|(_, slot)| slot.touched.load(Ordering::Relaxed))
            .map(|(key, _)| key.clone())
            .expect("a cache over its capacity is not empty");
        slots.remove(&oldest);
        (kept, true)
    }

    /// The value cached under `key`, building and caching it on a miss.
    /// `build` runs outside the lock: concurrent first requests may build
    /// twice, but only one result is kept and both callers get it. A failed
    /// build caches nothing.
    pub fn get_or_try_insert_with<E>(
        &self,
        key: String,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, Lookup), E> {
        if let Some(value) = self.get(&key) {
            return Ok((value, Lookup::Hit));
        }
        let (value, evicted) = self.put(key, Arc::new(build()?), false);
        Ok((value, Lookup::Miss { evicted }))
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.slots
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached entry.
    pub fn clear(&self) {
        self.slots
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

/// A compiled plan plus the statistics it was compiled against.
struct CachedPlan {
    plan: Arc<QueryPlan>,
    stamp: StatsStamp,
}

/// A thread-safe, poison-proof, LRU-bounded cache of compiled
/// [`QueryPlan`]s.
pub struct PlanCache {
    plans: LruCache<CachedPlan>,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::with_capacity(DEFAULT_CAPACITY)
    }
}

/// The cache key of a query: relation signatures followed by the query
/// rendering. Exported so other per-query caches (the `cqa-par` batch
/// engine's classified-engine memo) key on exactly the same notion of
/// "same (schema, query)" and cannot drift from this cache.
pub fn fingerprint(query: &ConjunctiveQuery) -> String {
    let mut key = String::new();
    for (_, relation) in query.schema().iter() {
        let _ = write!(
            key,
            "{}[{},{}];",
            relation.name,
            relation.arity(),
            relation.key_len()
        );
    }
    let _ = write!(key, "|{query}");
    key
}

impl PlanCache {
    /// Creates an empty cache with the [default capacity](DEFAULT_CAPACITY).
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Creates an empty cache evicting beyond `capacity` plans (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            plans: LruCache::with_capacity(capacity),
        }
    }

    /// The capacity beyond which least-recently-used plans are evicted.
    pub fn capacity(&self) -> usize {
        self.plans.capacity()
    }

    /// The compiled plan for `query`, compiling (with `stats` guiding the
    /// join order) only on the first request for this `(schema, query)` —
    /// or again when `stats` have drifted ≥ [`DRIFT_FACTOR`] from the
    /// cached plan's compile-time statistics.
    pub fn plan(&self, query: &ConjunctiveQuery, stats: Option<&Statistics>) -> Arc<QueryPlan> {
        let key = fingerprint(query);
        let stale = match self.plans.get(&key) {
            Some(cached) if !cached.stamp.drifted_from(stats) => {
                cqa_obs::count!("exec.plan_cache.hit");
                return cached.plan.clone();
            }
            Some(_) => {
                cqa_obs::count!("exec.plan_cache.stale");
                true
            }
            None => {
                cqa_obs::count!("exec.plan_cache.miss");
                false
            }
        };
        // A drifted entry is replaced (a racing recompile was also compiled
        // against fresh statistics); a racing first compile keeps one plan.
        let compiled = Arc::new(CachedPlan {
            plan: Arc::new(QueryPlan::compile(query, stats)),
            stamp: StatsStamp::of(stats),
        });
        let (cached, evicted) = self.plans.put(key, compiled, stale);
        if evicted {
            cqa_obs::count!("exec.plan_cache.eviction");
        }
        cached.plan.clone()
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True iff no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Drops every cached plan.
    pub fn clear(&self) {
        self.plans.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_query::catalog;
    use std::sync::Arc as StdArc;

    #[test]
    fn identical_queries_share_one_plan() {
        let cache = PlanCache::new();
        let q = catalog::conference().query;
        let a = cache.plan(&q, None);
        let b = cache.plan(&q.clone(), None);
        assert!(StdArc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        let other = catalog::fo_path2().query;
        let c = cache.plan(&other, None);
        assert!(!StdArc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn cached_plans_execute() {
        let cache = PlanCache::new();
        let q = catalog::conference().query;
        let db = catalog::conference_database();
        let index = db.index();
        let plan = cache.plan(&q, Some(index.statistics()));
        assert!(plan.satisfies(&db));
    }

    #[test]
    fn capacity_evicts_the_least_recently_used_plan() {
        let cache = PlanCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        let first = catalog::conference().query;
        let second = catalog::fo_path2().query;
        let third = catalog::fo_path3().query;
        let a = cache.plan(&first, None);
        cache.plan(&second, None);
        // Touch `first` so `second` is now the least recently used.
        cache.plan(&first, None);
        cache.plan(&third, None);
        assert_eq!(cache.len(), 2);
        // `first` survived the eviction; `second` was dropped and
        // recompiles to a fresh allocation.
        let a2 = cache.plan(&first, None);
        assert!(StdArc::ptr_eq(&a, &a2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn drifted_statistics_recompile_the_cached_plan() {
        let cache = PlanCache::new();
        let q = catalog::conference().query;
        let mut db = catalog::conference_database();
        let plan = cache.plan(&q, Some(db.index().statistics()));
        // Same statistics: cache hit, same allocation.
        let again = cache.plan(&q, Some(db.index().statistics()));
        assert!(StdArc::ptr_eq(&plan, &again));
        // Grow one relation past DRIFT_FACTOR: the hit is declared stale
        // and the plan recompiles against the fresh statistics.
        let before = db
            .index()
            .statistics()
            .relation(db.schema().relation_id("R").unwrap())
            .fact_count();
        for i in 0..(before * DRIFT_FACTOR + 1) {
            db.insert_values("R", [format!("conf{i}"), format!("t{i}")])
                .unwrap();
        }
        let recompiled = cache.plan(&q, Some(db.index().statistics()));
        assert!(!StdArc::ptr_eq(&plan, &recompiled));
        assert_eq!(cache.len(), 1);
        // The replacement's stamp is fresh: no further recompile.
        let stable = cache.plan(&q, Some(db.index().statistics()));
        assert!(StdArc::ptr_eq(&recompiled, &stable));
        // Callers without statistics never trigger a drift recompile.
        let blind = cache.plan(&q, None);
        assert!(StdArc::ptr_eq(&recompiled, &blind));
    }

    #[test]
    fn stats_stamps_measure_relative_drift() {
        let db = catalog::conference_database();
        let index = db.index();
        let stamp = StatsStamp::of(Some(index.statistics()));
        assert!(!stamp.drifted_from(Some(index.statistics())));
        assert!(!stamp.drifted_from(None));
        // A blind stamp drifts as soon as real statistics appear.
        assert!(StatsStamp::of(None).drifted_from(Some(index.statistics())));
    }

    #[test]
    fn capacity_is_at_least_one() {
        let cache = PlanCache::with_capacity(0);
        assert_eq!(cache.capacity(), 1);
        cache.plan(&catalog::conference().query, None);
        cache.plan(&catalog::fo_path2().query, None);
        assert_eq!(cache.len(), 1);
    }
}
