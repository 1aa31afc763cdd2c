//! Log-bucketed latency histograms with fixed bucket boundaries.
//!
//! Bucket `i` covers the half-open nanosecond range `[2^(i-1), 2^i)`
//! (bucket 0 holds exactly 0 ns); the last bucket absorbs everything at or
//! above `2^(BUCKETS-2)` ns (~2.3 minutes). The boundaries are compile-time
//! constants, never adapted to the data, so two histograms recorded by
//! different workers — or different figure cells — merge by plain
//! bucket-wise addition and the merged shape is independent of merge order.
//! Quantile summaries are therefore reproducible for a given multiset of
//! recorded values, to bucket resolution.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Number of buckets: 0 ns, then one power-of-two bucket per bit up to
/// `2^38` ns, with the final bucket open-ended.
pub const BUCKETS: usize = 40;

/// The fixed bucket index for a nanosecond value (see the module docs).
#[inline]
fn bucket_index(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        ((64 - ns.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// The *exclusive* upper boundary of bucket `index`, in nanoseconds
/// (`u64::MAX` for the open-ended last bucket). Used as the quantile
/// estimate for values landing in the bucket.
pub fn bucket_upper_ns(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << index
    }
}

/// A thread-safe latency histogram over fixed log2 buckets.
///
/// All fields are atomics with order-free updates (addition and max), so
/// concurrent recording from pool workers yields the same totals as
/// sequential recording — the histogram is deterministic in everything but
/// the wall-clock values themselves.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one observation of `ns` nanoseconds.
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram (plain data, mergeable).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|bucket| bucket.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`Histogram`]: bucket counts plus count/sum/max.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts ([`BUCKETS`] entries, fixed
    /// boundaries — see [`bucket_upper_ns`]).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all recorded values, in nanoseconds.
    pub sum_ns: u64,
    /// Largest recorded value, in nanoseconds.
    pub max_ns: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    /// Folds `other` into `self` bucket-wise. Associative and commutative
    /// in every field, so merge order cannot change the result.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// The bucket-resolution estimate of quantile `q` in `[0, 1]`: the
    /// upper boundary of the first bucket at which the cumulative count
    /// reaches `ceil(q × count)`. 0 for an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= rank {
                // The open-ended last bucket reports the observed max
                // rather than a meaningless boundary.
                return if index >= BUCKETS - 1 {
                    self.max_ns
                } else {
                    bucket_upper_ns(index)
                };
            }
        }
        self.max_ns
    }

    /// Mean recorded value in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_boundaries_are_fixed_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper_ns(0), 0);
        assert_eq!(bucket_upper_ns(1), 2);
        assert_eq!(bucket_upper_ns(10), 1024);
        assert_eq!(bucket_upper_ns(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let hist = Histogram::new();
        for ns in [1u64, 2, 3, 100, 1000] {
            hist.record(ns);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum_ns, 1106);
        assert_eq!(snap.max_ns, 1000);
        // rank ceil(0.5*5)=3 → cumulative reaches 3 in bucket 2 ([2,4)).
        assert_eq!(snap.quantile_ns(0.5), 4);
        assert_eq!(snap.quantile_ns(1.0), 1024);
        assert_eq!(snap.quantile_ns(0.0), 2);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let snap = HistogramSnapshot::empty();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile_ns(0.99), 0);
        assert_eq!(snap.mean_ns(), 0.0);
        assert_eq!(snap.buckets.len(), BUCKETS);
    }

    proptest! {
        /// Bucket counts must agree with a naive per-value recompute, and
        /// any split of the values across two histograms must merge to the
        /// same snapshot — the fixed-boundary determinism argument.
        #[test]
        fn bucket_counts_match_naive_recompute(
            values in proptest::collection::vec(0u64..=1u64 << 41, 0..200),
            split in 0usize..200,
        ) {
            let hist = Histogram::new();
            for &ns in &values {
                hist.record(ns);
            }
            let snap = hist.snapshot();

            // Naive recompute of every derived field.
            let mut naive = vec![0u64; BUCKETS];
            for &ns in &values {
                naive[bucket_index(ns)] += 1;
            }
            prop_assert_eq!(&snap.buckets, &naive);
            prop_assert_eq!(snap.count, values.len() as u64);
            prop_assert_eq!(snap.sum_ns, values.iter().sum::<u64>());
            prop_assert_eq!(snap.max_ns, values.iter().copied().max().unwrap_or(0));

            // Any split + merge reproduces the unsplit snapshot exactly.
            let split = split.min(values.len());
            let (left, right) = (Histogram::new(), Histogram::new());
            for &ns in &values[..split] {
                left.record(ns);
            }
            for &ns in &values[split..] {
                right.record(ns);
            }
            let mut merged = left.snapshot();
            merged.merge(&right.snapshot());
            prop_assert_eq!(merged, snap);
        }

        /// The quantile estimate brackets the true quantile: at least the
        /// bucket's lower boundary, and exactly the value's bucket upper
        /// bound for the rank-selected element.
        #[test]
        fn quantile_lands_in_the_right_bucket(
            values in proptest::collection::vec(0u64..=1u64 << 30, 1..100),
            q in 0.0f64..1.0,
        ) {
            let hist = Histogram::new();
            for &ns in &values {
                hist.record(ns);
            }
            let snap = hist.snapshot();
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let rank = ((q * sorted.len() as f64).ceil() as usize)
                .clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            let estimate = snap.quantile_ns(q);
            prop_assert_eq!(estimate, bucket_upper_ns(bucket_index(truth)));
            prop_assert!(estimate >= truth);
        }
    }
}
