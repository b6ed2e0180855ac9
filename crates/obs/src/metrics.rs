//! The metric primitives: relaxed-atomic counters and gauges, and a
//! fixed-bucket log-scale histogram with percentile extraction.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing event counter. All operations are relaxed
/// atomics: increments from any thread, no ordering guarantees between
/// metrics — snapshots are statistical, not transactional.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (thread counts, queue depths,
/// pool steal totals published periodically).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one per bit width of a `u64` plus one for
/// zero, so every value has a bucket and recording never branches on range.
pub const BUCKETS: usize = 65;

/// The bucket a value lands in: 0 for 0, otherwise the value's bit width
/// (`64 - leading_zeros`). Bucket `b ≥ 1` therefore holds
/// `[2^(b-1), 2^b - 1]` — fixed log-scale (power-of-two) buckets.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The inclusive `[low, high]` value range of bucket `index` (the inverse
/// of [`bucket_index`]). Panics if `index >= BUCKETS`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < BUCKETS, "bucket index out of range");
    match index {
        0 => (0, 0),
        64 => (1u64 << 63, u64::MAX),
        b => (1u64 << (b - 1), (1u64 << b) - 1),
    }
}

/// A fixed-bucket log-scale histogram. Recording is two relaxed
/// `fetch_add`s plus one on the value's bucket — no locks, no allocation,
/// safe from any thread. Percentiles are extracted from a
/// [`HistogramSnapshot`]; their error is bounded by the bucket width (at
/// most a factor of 2, tightened by linear interpolation within the
/// bucket).
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Histogram(count={}, sum={})",
            self.count.load(Ordering::Relaxed),
            self.sum.load(Ordering::Relaxed)
        )
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram's state. Buckets are read
    /// individually with relaxed loads; concurrent recorders may make the
    /// copy internally off by the in-flight observations — fine for
    /// statistics, which is all a histogram is for.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], with percentile extraction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Per-bucket observation counts ([`BUCKETS`] entries, see
    /// [`bucket_index`]).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    /// The mean observed value (0 for the empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The estimated `p`-th percentile (`0 < p ≤ 100`): the value at rank
    /// `⌈p/100 · count⌉`, located by walking the cumulative bucket counts
    /// and linearly interpolated within its bucket. The estimate always
    /// lies inside the [bucket](bucket_bounds) holding the true rank
    /// value, so the relative error is below the bucket's factor-of-2
    /// width. Returns 0 for the empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (index, &in_bucket) in self.buckets.iter().enumerate() {
            if in_bucket == 0 {
                continue;
            }
            if cumulative + in_bucket >= rank {
                let (low, high) = bucket_bounds(index);
                let within = (rank - cumulative - 1) as f64 / in_bucket as f64;
                return low + ((high - low) as f64 * within) as u64;
            }
            cumulative += in_bucket;
        }
        // Unreachable when count equals the bucket total; tolerate racy
        // snapshots by answering the top of the populated range.
        bucket_bounds(
            self.buckets
                .iter()
                .rposition(|&c| c > 0)
                .unwrap_or(BUCKETS - 1),
        )
        .1
    }

    /// The median ([`percentile`](HistogramSnapshot::percentile) 50).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// The 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// The 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// This snapshot minus an `earlier` one, bucket-wise (saturating, so a
    /// reset or a mismatched pair degrades to zeros instead of nonsense).
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_do_arithmetic() {
        let c = Counter::new();
        c.add(1);
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn bucket_index_matches_bucket_bounds() {
        for index in 0..BUCKETS {
            let (low, high) = bucket_bounds(index);
            assert_eq!(bucket_index(low), index, "low bound of {index}");
            assert_eq!(bucket_index(high), index, "high bound of {index}");
        }
        // Spot checks of the boundaries.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    /// The scalar reference: exact percentile over the sorted raw values
    /// (value at rank ⌈p/100·n⌉, the same nearest-rank convention the
    /// histogram approximates).
    fn scalar_percentile(sorted: &[u64], p: f64) -> u64 {
        let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank - 1]
    }

    #[test]
    fn percentiles_track_a_scalar_reference_within_bucket_error() {
        // Deterministic pseudo-random values spanning many buckets.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut values: Vec<u64> = (0..10_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                // Skew towards small values, like latencies: scale by a
                // random bit width.
                let width = (state >> 58) % 40;
                (state >> 20) & ((1u64 << width) - 1).max(1)
            })
            .collect();
        let hist = Histogram::new();
        for &v in &values {
            hist.record(v);
        }
        values.sort_unstable();
        let snap = hist.snapshot();
        assert_eq!(snap.count, values.len() as u64);
        assert_eq!(snap.sum, values.iter().sum::<u64>());
        for p in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let exact = scalar_percentile(&values, p);
            let approx = snap.percentile(p);
            // The estimate must land in the same log-scale bucket as the
            // exact nearest-rank value: relative error < 2x by design.
            assert_eq!(
                bucket_index(approx),
                bucket_index(exact),
                "p{p}: approx {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn percentile_edge_cases() {
        let empty = HistogramSnapshot::empty();
        assert_eq!(empty.percentile(50.0), 0);
        assert_eq!(empty.mean(), 0.0);

        let hist = Histogram::new();
        hist.record(7);
        let snap = hist.snapshot();
        // A single observation answers every percentile from its bucket.
        for p in [0.001, 50.0, 100.0] {
            assert_eq!(bucket_index(snap.percentile(p)), bucket_index(7));
        }

        // All-equal observations: every percentile in the value's bucket.
        let hist = Histogram::new();
        for _ in 0..100 {
            hist.record(1000);
        }
        let snap = hist.snapshot();
        assert_eq!(bucket_index(snap.p50()), bucket_index(1000));
        assert_eq!(bucket_index(snap.p99()), bucket_index(1000));
        assert_eq!(snap.mean(), 1000.0);
    }

    #[test]
    fn snapshot_diff_subtracts_bucketwise() {
        let hist = Histogram::new();
        hist.record(5);
        hist.record(100);
        let earlier = hist.snapshot();
        hist.record(100);
        hist.record(7000);
        let later = hist.snapshot();
        let delta = later.diff(&earlier);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum, 7100);
        assert_eq!(delta.buckets[bucket_index(100)], 1);
        assert_eq!(delta.buckets[bucket_index(7000)], 1);
        assert_eq!(delta.buckets[bucket_index(5)], 0);
    }
}
