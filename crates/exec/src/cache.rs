//! The per-query memo's building blocks.
//!
//! The serving path classifies, rewrites and compiles each query once and
//! keeps the result on one memoized engine per query (`cqa-par`'s
//! `BatchEngine` memo). This module supplies what that memo and its engines
//! share:
//!
//! * [`fingerprint`] — the memo key: relation signatures plus the query
//!   rendering, rather than a pointer, so schema clones hit the same entry
//!   and a dropped-and-reallocated schema cannot alias a stale one;
//! * [`LruCache`] — the memo's storage, **bounded**: beyond its capacity the
//!   least-recently-used entry is evicted, so a service fed an unbounded
//!   stream of distinct queries cannot grow without limit. Recency is
//!   tracked by a per-entry stamp bumped from a global tick on every hit,
//!   which keeps the hot path under the shared read lock; eviction (rare by
//!   construction) does an O(n) min-stamp scan under the write lock;
//! * [`StatsStamp`] — the statistics an engine's plans were compiled
//!   against. The data layer keeps index snapshots alive across mutations,
//!   so a memoized engine can outlive its compile-time statistics by *a
//!   lot*; once the current statistics have
//!   [drifted](StatsStamp::drifted_from) beyond [`DRIFT_FACTOR`] the engine
//!   recompiles, so long-lived services keep honest join orders as the data
//!   grows or shrinks underneath them.

use cqa_data::Statistics;
use cqa_query::ConjunctiveQuery;
use rustc_hash::FxHashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Cardinality ratio beyond which compile-time statistics are considered
/// stale: a relation must grow or shrink ≥ 4× before an engine's plans are
/// recompiled. Join-order quality degrades logarithmically with estimate
/// error, so small drift is harmless while recompiling per mutation would
/// forfeit compiling once.
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
        // Compared in place: every read of a memoized engine asks this.
        self.fact_counts.len() != stats.iter().count()
            || (self.fact_counts.iter().zip(stats.iter())).any(|(&old, (_, relation))| {
                let new = relation.fact_count();
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
/// [`fingerprint`] to a shared value: the storage of `cqa-par`'s per-query
/// engine memo.
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

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The value cached under `key`, marked as just used.
    fn get(&self, key: &str) -> Option<Arc<V>> {
        let slots = self.slots.read().unwrap_or_else(PoisonError::into_inner);
        let slot = slots.get(key)?;
        slot.touched.store(self.next_tick(), Ordering::Relaxed);
        Some(slot.value.clone())
    }

    /// Stores `value` under `key` — keeping an already cached value — and
    /// evicts the least recently used entry if that outgrew the capacity.
    /// Returns the value now cached and whether an entry was evicted.
    fn put(&self, key: String, value: Arc<V>) -> (Arc<V>, bool) {
        let mut slots = self.slots.write().unwrap_or_else(PoisonError::into_inner);
        let touched = AtomicU64::new(self.next_tick());
        let kept = slots
            .entry(key)
            .or_insert(Slot { value, touched })
            .value
            .clone();
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
        let (value, evicted) = self.put(key, Arc::new(build()?));
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
}

/// The memo key of a query: relation signatures followed by the query
/// rendering. The rendering's head (`q()` for a Boolean query, `q(x, …)`
/// otherwise) keeps a Boolean query and an open query of the same body
/// apart.
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

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_query::catalog;

    fn insert(cache: &LruCache<usize>, key: &str, value: usize) -> (Arc<usize>, Lookup) {
        cache
            .get_or_try_insert_with(key.to_string(), || Ok::<_, ()>(value))
            .unwrap()
    }

    #[test]
    fn a_key_is_built_once_and_shared() {
        let cache = LruCache::with_capacity(4);
        let (a, lookup) = insert(&cache, "k", 1);
        assert_eq!(lookup, Lookup::Miss { evicted: false });
        let (b, lookup) = insert(&cache, "k", 2);
        assert_eq!(lookup, Lookup::Hit);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*b, 1, "a hit never rebuilds");
        assert_eq!(cache.len(), 1);
        // A failed build caches nothing.
        let failed = cache.get_or_try_insert_with("e".to_string(), || Err::<usize, _>("no"));
        assert!(failed.is_err());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_evicts_the_least_recently_used_entry() {
        let cache = LruCache::with_capacity(2);
        let (first, _) = insert(&cache, "first", 1);
        insert(&cache, "second", 2);
        // Touch `first` so `second` is now the least recently used.
        insert(&cache, "first", 1);
        let (_, lookup) = insert(&cache, "third", 3);
        assert_eq!(lookup, Lookup::Miss { evicted: true });
        assert_eq!(cache.len(), 2);
        // `first` survived the eviction; `second` was dropped and rebuilds.
        let (again, lookup) = insert(&cache, "first", 1);
        assert_eq!(lookup, Lookup::Hit);
        assert!(Arc::ptr_eq(&first, &again));
        let (_, lookup) = insert(&cache, "second", 2);
        assert_eq!(lookup, Lookup::Miss { evicted: true });
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_is_at_least_one() {
        let cache = LruCache::with_capacity(0);
        insert(&cache, "a", 1);
        insert(&cache, "b", 2);
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
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
}
