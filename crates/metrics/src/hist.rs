//! Fixed-bucket log₂ histograms with exact-bucket quantiles.
//!
//! Buckets are powers of two: bucket `i` counts samples in
//! `(2^(i-1), 2^i]` (bucket 0 takes 0 and 1), and the final bucket is
//! the unbounded overflow.  A sample lands in its bucket with one
//! `fetch_add`, plus one each for the running count and sum and a
//! `fetch_max` for the exact maximum — four uncontended-in-practice
//! atomics, no lock, no allocation.
//!
//! Quantiles are *exact-bucket*: `quantile(0.99)` returns the upper
//! bound of the bucket containing the p99 rank, clamped to the exact
//! observed maximum (so a quantile never exceeds `max`, and the
//! overflow bucket answers with `max` itself).  That is conservative by
//! at most one power of two and needs no sample storage, which is what
//! makes it safe to leave enabled at saturation.

use std::sync::atomic::{AtomicU64, Ordering};

/// Bucket count for latency histograms: upper bounds 2⁰…2³⁰ µs
/// (~1 µs … ~18 min) plus overflow.  Anything slower than 18 minutes
/// is an outage, not a latency.
pub const LATENCY_BUCKETS: usize = 32;

/// A lock-free log₂ histogram over `u64` samples.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// A histogram with `buckets` buckets (≥ 2): `buckets - 1` finite
    /// power-of-two bounds and one overflow bucket.
    pub fn new(buckets: usize) -> Histogram {
        let buckets = buckets.max(2);
        Histogram {
            buckets: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// A histogram sized for microsecond latencies.
    pub fn latency() -> Histogram {
        Histogram::new(LATENCY_BUCKETS)
    }

    /// Number of buckets, including the overflow bucket.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Always false: a histogram has at least two buckets.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Upper bound of bucket `i`, or `None` for the overflow bucket.
    /// Bounds saturate at `u64::MAX` (a histogram wider than 64 finite
    /// buckets pins the tail instead of overflowing the shift).
    pub fn bound(&self, i: usize) -> Option<u64> {
        if i + 1 == self.buckets.len() {
            None
        } else {
            Some(1u64.checked_shl(i as u32).unwrap_or(u64::MAX))
        }
    }

    fn index_of(&self, v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            // ceil(log2(v)) = 64 - leading_zeros(v - 1), clamped into
            // the overflow bucket.
            let idx = 64 - (v - 1).leading_zeros() as usize;
            idx.min(self.buckets.len() - 1)
        }
    }

    /// Records one sample — four relaxed atomic ops, no lock.
    pub fn record(&self, v: u64) {
        self.buckets[self.index_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact maximum sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// A point-in-time copy for rendering and quantile queries.
    /// Concurrent recording may tear count vs. buckets by a sample or
    /// two; the snapshot normalizes `count` to the bucket sum so
    /// cumulative Prometheus series stay internally consistent.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = counts.iter().sum();
        HistogramSnapshot {
            counts,
            count,
            sum: self.sum(),
            max: self.max(),
        }
    }

    /// Exact-bucket quantile: see [`HistogramSnapshot::quantile`].
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }
}

/// A frozen histogram: bucket counts plus count/sum/max.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (last bucket = overflow).
    pub counts: Vec<u64>,
    /// Total samples (sum of `counts`).
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Exact maximum sample.
    pub max: u64,
}

impl HistogramSnapshot {
    /// An all-zero snapshot with `buckets` buckets.
    pub fn empty(buckets: usize) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: vec![0; buckets.max(2)],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Upper bound of bucket `i`, or `None` for the overflow bucket.
    pub fn bound(&self, i: usize) -> Option<u64> {
        if i + 1 == self.counts.len() {
            None
        } else {
            Some(1u64.checked_shl(i as u32).unwrap_or(u64::MAX))
        }
    }

    /// Folds another snapshot in (bucket-wise add); both must have the
    /// same shape.  Used to derive aggregate histograms (e.g. the
    /// global batch-size histogram as the sum of the per-class ones).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(self.counts.len(), other.counts.len(), "bucket shape");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact-bucket quantile for `q` in `[0, 1]`: the upper bound of
    /// the bucket holding the `ceil(q·count)`-th smallest sample,
    /// clamped to the exact observed maximum (which is also the answer
    /// for the overflow bucket).  An empty histogram answers 0.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.bound(i).map_or(self.max, |b| b.min(self.max));
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn exact_powers_of_two_land_on_their_own_bound() {
        // A sample equal to a bucket's upper bound belongs to that
        // bucket: buckets are (2^(i-1), 2^i].
        let h = Histogram::new(8);
        for i in 0..7u32 {
            h.record(1 << i); // 1, 2, 4, ..., 64
        }
        let s = h.snapshot();
        assert_eq!(s.counts, vec![1, 1, 1, 1, 1, 1, 1, 0]);
    }

    #[test]
    fn zero_lands_in_the_first_bucket() {
        let h = Histogram::new(4);
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.counts[0], 1);
        assert_eq!(s.max, 0);
        assert_eq!(s.quantile(0.5), 0, "bucket 0's bound 1 clamps to max 0");
    }

    #[test]
    fn bound_plus_one_falls_into_the_next_bucket() {
        let h = Histogram::new(8);
        h.record(4);
        h.record(5);
        let s = h.snapshot();
        assert_eq!(s.counts[2], 1, "4 in (2,4]");
        assert_eq!(s.counts[3], 1, "5 in (4,8]");
    }

    #[test]
    fn saturating_max_overflows_into_the_last_bucket() {
        let h = Histogram::new(8);
        h.record(u64::MAX);
        h.record(1 << 40);
        let s = h.snapshot();
        assert_eq!(s.counts[7], 2, "both beyond 2^6 -> overflow");
        assert_eq!(s.max, u64::MAX);
        assert_eq!(
            s.quantile(0.99),
            u64::MAX,
            "overflow quantile reports the exact observed max"
        );
    }

    #[test]
    fn wide_histogram_bounds_saturate_instead_of_shifting_out() {
        let h = Histogram::new(80);
        assert_eq!(h.bound(70), Some(u64::MAX));
        h.record(u64::MAX);
        assert_eq!(
            h.snapshot().counts[64],
            1,
            "MAX lands in bucket 64, whose bound saturates to u64::MAX"
        );
    }

    #[test]
    fn quantile_never_exceeds_the_observed_max() {
        let h = Histogram::latency();
        h.record(3);
        // 3 ∈ (2,4]: the bucket bound 4 would overstate the only sample.
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(0.99), 3);
    }

    #[test]
    fn quantiles_walk_cumulative_counts() {
        let h = Histogram::latency();
        // 90 fast samples at 100 µs, 10 slow at 10_000 µs.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(10_000);
        }
        // 100 ∈ (64,128]: bound 128.  10_000 ∈ (8192,16384]: bound 16384.
        assert_eq!(h.quantile(0.50), 128);
        assert_eq!(h.quantile(0.90), 128);
        // The slow bucket's bound clamps to the observed max.
        assert_eq!(h.quantile(0.99), 10_000);
        assert_eq!(h.quantile(1.0), 10_000);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 90 * 100 + 10 * 10_000);
        assert_eq!(s.max, 10_000);
    }

    #[test]
    fn merge_adds_bucketwise() {
        let a = Histogram::new(4);
        let b = Histogram::new(4);
        a.record(1);
        b.record(1);
        b.record(100);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.counts[0], 2);
        assert_eq!(s.counts[3], 1);
        assert_eq!(s.count, 3);
        assert_eq!(s.max, 100);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        // 16 threads × 5000 samples: the bucket sums, count, and sum
        // must all be exact — histograms share the counters' lock-free
        // consistency obligations.
        let h = Arc::new(Histogram::latency());
        let threads: Vec<_> = (0..16)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..5000u64 {
                        h.record((t * 5000 + i) % 4096);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 80_000);
        assert_eq!(s.counts.iter().sum::<u64>(), 80_000);
    }
}
