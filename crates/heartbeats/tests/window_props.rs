//! Property tests: the timestamp ring's statistics must agree with a naive
//! recomputation over the full beat history, for arbitrary beat/window
//! sequences: mixed streams, plain-only streams (whose side ring of tags
//! and distortions is never allocated), streams whose first tagged or
//! distorted beat arrives after eviction has begun, and a one-beat window.
//!
//! Quantities derived purely from retained timestamps (rates, min/max
//! instantaneous rate, tagged latency) must agree *bitwise* — the ring
//! performs the same subtractions and divisions on the same operands. The
//! rolling distortion mean may differ from a fresh scan in the last ulps
//! (floating-point addition is not associative under eviction), so it is
//! compared to 1e-9 relative.

use heartbeats::{HeartbeatRecord, Tag, Window};
use proptest::prelude::*;
use proptest::TestCaseError;

/// A naive reference: keeps every record ever pushed and recomputes each
/// statistic from scratch over the last `capacity` records.
struct NaiveWindow {
    capacity: usize,
    all: Vec<HeartbeatRecord>,
}

impl NaiveWindow {
    fn retained(&self) -> &[HeartbeatRecord] {
        let start = self.all.len().saturating_sub(self.capacity);
        &self.all[start..]
    }

    fn rate_between(start: f64, end: f64, beats: u64) -> f64 {
        let elapsed = end - start;
        if elapsed > 0.0 {
            beats as f64 / elapsed
        } else {
            0.0
        }
    }

    fn instant(&self) -> f64 {
        let w = self.retained();
        if w.len() < 2 {
            return 0.0;
        }
        Self::rate_between(w[w.len() - 2].timestamp, w[w.len() - 1].timestamp, 1)
    }

    fn window(&self) -> f64 {
        let w = self.retained();
        if w.len() < 2 {
            return 0.0;
        }
        Self::rate_between(w[0].timestamp, w[w.len() - 1].timestamp, w.len() as u64 - 1)
    }

    fn global(&self) -> f64 {
        if self.all.len() < 2 || self.retained().len() < 2 {
            return 0.0;
        }
        Self::rate_between(
            self.all[0].timestamp,
            self.all[self.all.len() - 1].timestamp,
            self.all.len() as u64 - 1,
        )
    }

    /// (min_instant, max_instant) over positive consecutive intervals.
    fn min_max_instant(&self) -> (f64, f64) {
        let w = self.retained();
        let mut min_interval = f64::INFINITY;
        let mut max_interval = 0.0f64;
        for pair in w.windows(2) {
            let dt = pair[1].timestamp - pair[0].timestamp;
            if dt > 0.0 {
                min_interval = min_interval.min(dt);
                max_interval = max_interval.max(dt);
            }
        }
        if max_interval == 0.0 {
            (0.0, 0.0)
        } else {
            (1.0 / max_interval, 1.0 / min_interval)
        }
    }

    fn mean_distortion(&self) -> Option<f64> {
        let values: Vec<f64> = self.retained().iter().filter_map(|r| r.distortion).collect();
        if values.is_empty() {
            None
        } else {
            Some(values.iter().sum::<f64>() / values.len() as f64)
        }
    }

    fn tagged_latency(&self, tag: &Tag) -> Option<f64> {
        let times: Vec<f64> = self
            .retained()
            .iter()
            .filter(|r| r.tag.as_ref() == Some(tag))
            .map(|r| r.timestamp)
            .collect();
        if times.len() < 2 {
            None
        } else {
            Some(times[times.len() - 1] - times[times.len() - 2])
        }
    }
}

/// A beat's shape, derived deterministically from its generated value so
/// every shape (simultaneous beats, distortion-free beats, sparse tags) is
/// exercised.
fn beat(seq: usize, raw: f64, now: &mut f64, annotated: bool, tag: &Tag) -> HeartbeatRecord {
    let salt = (raw * 1.0e6) as u64;
    let interval = if salt.is_multiple_of(5) { 0.0 } else { raw };
    *now += interval;
    let mut record = HeartbeatRecord::new(seq as u64, *now);
    if annotated && salt.is_multiple_of(3) {
        record = record.with_distortion(raw);
    }
    if annotated && salt.is_multiple_of(4) {
        record = record.with_tag(tag.clone());
    }
    record
}

/// Pushes `record` into both windows and checks every statistic.
fn push_and_compare(
    ring: &mut Window,
    naive: &mut NaiveWindow,
    record: HeartbeatRecord,
    tag: &Tag,
) -> Result<(), TestCaseError> {
    ring.push(record.clone());
    naive.all.push(record);

    // Integer bookkeeping is exact.
    prop_assert_eq!(ring.len(), naive.retained().len());
    prop_assert_eq!(ring.total_beats(), naive.all.len() as u64);

    // Timestamp-derived rates are bitwise identical.
    let stats = ring.heart_rate();
    prop_assert_eq!(stats.beats_in_window, naive.retained().len());
    prop_assert_eq!(stats.instant.to_bits(), naive.instant().to_bits());
    prop_assert_eq!(stats.window.to_bits(), naive.window().to_bits());
    prop_assert_eq!(stats.global.to_bits(), naive.global().to_bits());
    let (min_instant, max_instant) = naive.min_max_instant();
    prop_assert_eq!(stats.min_instant.to_bits(), min_instant.to_bits());
    prop_assert_eq!(stats.max_instant.to_bits(), max_instant.to_bits());

    // The rolling distortion mean tracks the scan to float noise.
    let (rolling, scanned) = (ring.mean_distortion(), naive.mean_distortion());
    prop_assert_eq!(rolling.is_some(), scanned.is_some());
    if let (Some(rolling), Some(scanned)) = (rolling, scanned) {
        prop_assert!((rolling - scanned).abs() <= 1e-9 * scanned.abs().max(1.0));
    }

    // Tagged latency is bitwise identical.
    let ring_latency = ring.tagged_latency(tag).map(f64::to_bits);
    let naive_latency = naive.tagged_latency(tag).map(f64::to_bits);
    prop_assert_eq!(ring_latency, naive_latency);

    // The side ring exists exactly when some beat ever carried a tag or a
    // distortion.
    let annotated = naive
        .all
        .iter()
        .any(|r| r.tag.is_some() || r.distortion.is_some());
    prop_assert_eq!(ring.is_annotated(), annotated);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ring_rolling_stats_match_naive_recompute(
        raw_intervals in proptest::collection::vec(0.0..0.5f64, 2..80),
        capacity in 1usize..24,
    ) {
        let mut ring = Window::new(capacity);
        let mut naive = NaiveWindow { capacity, all: Vec::new() };
        let tag = Tag::new("frame");
        let mut now = 0.0;
        for (seq, raw) in raw_intervals.iter().enumerate() {
            let record = beat(seq, *raw, &mut now, true, &tag);
            push_and_compare(&mut ring, &mut naive, record, &tag)?;
        }
    }

    #[test]
    fn plain_streams_never_allocate_the_side_ring(
        raw_intervals in proptest::collection::vec(0.0..0.5f64, 2..80),
        capacity in 1usize..24,
    ) {
        let mut ring = Window::new(capacity);
        let mut naive = NaiveWindow { capacity, all: Vec::new() };
        let tag = Tag::new("frame");
        let mut now = 0.0;
        for (seq, raw) in raw_intervals.iter().enumerate() {
            let record = beat(seq, *raw, &mut now, false, &tag);
            push_and_compare(&mut ring, &mut naive, record, &tag)?;
        }
        prop_assert!(!ring.is_annotated());
        prop_assert_eq!(ring.mean_distortion(), None);
    }

    #[test]
    fn annotations_arriving_after_eviction_match_naive_recompute(
        raw_intervals in proptest::collection::vec(0.0..0.5f64, 2..80),
        capacity in 1usize..24,
        extra_plain in 0usize..24,
    ) {
        // Every beat before `first_annotated` is plain, and the window has
        // already evicted by then: the side ring is allocated mid-stream
        // with earlier plain beats still retained.
        let first_annotated = capacity + 1 + extra_plain;
        let mut ring = Window::new(capacity);
        let mut naive = NaiveWindow { capacity, all: Vec::new() };
        let tag = Tag::new("frame");
        let mut now = 0.0;
        for (seq, raw) in raw_intervals.iter().cycle().take(first_annotated + 64).enumerate() {
            let mut record = beat(seq, *raw, &mut now, seq >= first_annotated, &tag);
            if seq == first_annotated {
                record = if extra_plain % 2 == 0 {
                    record.with_tag(tag.clone())
                } else {
                    record.with_distortion(*raw)
                };
            }
            push_and_compare(&mut ring, &mut naive, record, &tag)?;
        }
        prop_assert!(ring.is_annotated());
    }

    #[test]
    fn a_one_beat_window_matches_naive_recompute(
        raw_intervals in proptest::collection::vec(0.0..0.5f64, 2..80),
    ) {
        let mut ring = Window::new(1);
        let mut naive = NaiveWindow { capacity: 1, all: Vec::new() };
        let tag = Tag::new("frame");
        let mut now = 0.0;
        for (seq, raw) in raw_intervals.iter().enumerate() {
            let record = beat(seq, *raw, &mut now, seq % 2 == 1, &tag);
            push_and_compare(&mut ring, &mut naive, record, &tag)?;
            let stats = ring.heart_rate();
            prop_assert_eq!(stats.beats_in_window, 1);
            prop_assert_eq!(stats.min_instant, 0.0);
            prop_assert_eq!(ring.tagged_latency(&tag), None);
        }
    }
}
