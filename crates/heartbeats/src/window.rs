use std::collections::{HashMap, VecDeque};

use serde::{Deserialize, Serialize};

use crate::record::{HeartbeatRecord, Tag};

/// Summary statistics of the heart rate observed over a window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeartRateStats {
    /// Heart rate over the most recent pair of beats, in beats/second.
    pub instant: f64,
    /// Heart rate over the whole window, in beats/second.
    pub window: f64,
    /// Heart rate since the first beat ever recorded, in beats/second.
    pub global: f64,
    /// Number of beats currently held in the window.
    pub beats_in_window: usize,
}

impl Default for HeartRateStats {
    fn default() -> Self {
        HeartRateStats {
            instant: 0.0,
            window: 0.0,
            global: 0.0,
            beats_in_window: 0,
        }
    }
}

/// A bounded ring of heartbeat timestamps with rolling statistics.
///
/// The window retains the timestamps of the most recent `capacity` beats,
/// oldest first, and nothing else for a plain beat: a beat's sequence
/// number is its push index and its work report is informational, so
/// neither is kept. Tags and distortion reports live in a side ring
/// parallel to the timestamps, allocated when the first beat carrying
/// either arrives; a window fed only plain beats never allocates it.
///
/// Heart rates read the ring's endpoints, so [`Window::heart_rate`] is
/// O(1). The slowest and fastest instantaneous rates come from their own
/// query, [`Window::instant_extremes`], which scans the at most
/// `capacity - 1` retained intervals, so neither a push nor a heart-rate
/// snapshot pays for them; the scan subtracts the same operands as any
/// incremental tracking would, so its results are the same bits. Mean
/// distortion is a rolling sum and tagged latency a per-tag timestamp
/// ring, both O(1) per query.
#[derive(Debug, Clone)]
pub struct Window {
    capacity: usize,
    /// Retained beat timestamps, oldest first. Never grows past
    /// `capacity`: a push at capacity evicts the front first.
    times: VecDeque<f64>,
    first_timestamp: Option<f64>,
    total_beats: u64,
    /// Tags and distortions of the retained beats; `None` until a beat
    /// carrying either is pushed.
    annotations: Option<Box<Annotations>>,
}

/// The side ring of a [`Window`]: one entry per retained beat, parallel
/// to the timestamp ring, plus the rolling aggregates built from it.
#[derive(Debug, Clone, Default)]
struct Annotations {
    beats: VecDeque<(Option<Tag>, Option<f64>)>,
    /// Rolling distortion aggregate over retained beats that report one.
    distortion_sum: f64,
    distortion_count: usize,
    /// Retained timestamps of each tag's beats, oldest first, so the
    /// latency between the two most recent tagged beats is an O(1) lookup.
    tag_times: HashMap<Tag, VecDeque<f64>>,
}

impl Annotations {
    /// A side ring for a window already holding `retained` plain beats.
    fn after_plain_beats(retained: usize, capacity: usize) -> Self {
        let mut beats = VecDeque::with_capacity(capacity);
        beats.resize(retained, (None, None));
        Annotations {
            beats,
            ..Annotations::default()
        }
    }

    fn push(&mut self, timestamp: f64, tag: Option<Tag>, distortion: Option<f64>) {
        if let Some(d) = distortion {
            self.distortion_sum += d;
            self.distortion_count += 1;
        }
        if let Some(tag) = &tag {
            self.tag_times
                .entry(tag.clone())
                .or_default()
                .push_back(timestamp);
        }
        self.beats.push_back((tag, distortion));
    }

    fn evict_front(&mut self) {
        let Some((tag, distortion)) = self.beats.pop_front() else {
            return;
        };
        if let Some(d) = distortion {
            self.distortion_sum -= d;
            self.distortion_count -= 1;
            if self.distortion_count == 0 {
                // Reset rolling error so long-lived windows cannot drift.
                self.distortion_sum = 0.0;
            }
        }
        if let Some(tag) = tag {
            if let Some(times) = self.tag_times.get_mut(&tag) {
                times.pop_front();
                if times.is_empty() {
                    self.tag_times.remove(&tag);
                }
            }
        }
    }
}

impl Window {
    /// Creates a window retaining up to `capacity` beats.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be at least 1");
        Window {
            capacity,
            times: VecDeque::with_capacity(capacity),
            first_timestamp: None,
            total_beats: 0,
            annotations: None,
        }
    }

    /// Maximum number of beats the window retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of beats currently retained.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` if no beats have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Total number of beats ever pushed (including evicted ones).
    pub fn total_beats(&self) -> u64 {
        self.total_beats
    }

    /// Timestamp of the most recent beat, if any.
    pub fn last_timestamp(&self) -> Option<f64> {
        self.times.back().copied()
    }

    /// Whether the side ring of tags and distortions has been allocated,
    /// i.e. whether any beat ever pushed carried a tag or a distortion.
    pub fn is_annotated(&self) -> bool {
        self.annotations.is_some()
    }

    /// Pushes a new record, evicting the oldest if the window is full.
    /// The record's sequence number and work report are not retained.
    pub fn push(&mut self, record: HeartbeatRecord) {
        self.push_beat(record.timestamp, record.tag, record.distortion);
    }

    #[inline]
    pub(crate) fn push_beat(&mut self, timestamp: f64, tag: Option<Tag>, distortion: Option<f64>) {
        if self.times.len() == self.capacity {
            self.times.pop_front();
            if let Some(annotations) = self.annotations.as_deref_mut() {
                annotations.evict_front();
            }
        }
        if self.annotations.is_none() && (tag.is_some() || distortion.is_some()) {
            // Every beat retained so far was plain.
            self.annotations = Some(Box::new(Annotations::after_plain_beats(
                self.times.len(),
                self.capacity,
            )));
        }
        if let Some(annotations) = self.annotations.as_deref_mut() {
            annotations.push(timestamp, tag, distortion);
        }
        self.first_timestamp.get_or_insert(timestamp);
        self.times.push_back(timestamp);
        self.total_beats += 1;
    }

    /// Counts `beats` plain beats as pushed without storing them: a batch
    /// whose middle beats are evicted before they can be read. The caller
    /// pushes at least `capacity` more beats before the window is read, so
    /// the ring ends as it would have had the beats been pushed.
    pub(crate) fn count_evicted(&mut self, beats: u64) {
        self.total_beats += beats;
    }

    /// Heart-rate statistics over the retained beats.
    ///
    /// The *instant* rate uses the last two beats, the *window* rate uses the
    /// first and last retained beat, and the *global* rate uses the first
    /// beat ever recorded. Rates are zero until two beats are available.
    /// O(1): the slowest and fastest instantaneous rates over the window
    /// are [`Self::instant_extremes`].
    pub fn heart_rate(&self) -> HeartRateStats {
        let n = self.times.len();
        if n < 2 {
            return HeartRateStats {
                beats_in_window: n,
                ..HeartRateStats::default()
            };
        }
        let last = self.times[n - 1];
        let first_in_window = self.times[0];

        let instant = rate_between(self.times[n - 2], last, 1);
        let window = rate_between(first_in_window, last, n as u64 - 1);
        let global = match self.first_timestamp {
            Some(first) if self.total_beats > 1 => rate_between(first, last, self.total_beats - 1),
            _ => 0.0,
        };
        HeartRateStats {
            instant,
            window,
            global,
            beats_in_window: n,
        }
    }

    /// The slowest and fastest instantaneous rates over the window, in
    /// beats/second, as `(slowest, fastest)`: one over the longest and one
    /// over the shortest positive beat-to-beat interval, covering every
    /// consecutive pair retained. Simultaneous beats (zero intervals) are
    /// excluded, matching the `instant` convention that a zero interval
    /// yields no rate. Both are zero until two beats with distinct
    /// timestamps are retained. One scan of the at most `capacity - 1`
    /// retained intervals per call.
    pub fn instant_extremes(&self) -> (f64, f64) {
        // Fastest rate = shortest positive interval; slowest rate =
        // longest. The fold is written as selects, not branches or
        // `f64::min`/`max`: whether an interval is positive or a new
        // extreme is data-dependent, and both other forms measured about
        // 1.7x the select form's cost per scan (64-beat windows, 2-vCPU
        // host).
        let (mut shortest, mut longest) = (f64::INFINITY, 0.0f64);
        let mut fold = |interval: f64| {
            let positive = if interval > 0.0 {
                interval
            } else {
                f64::INFINITY
            };
            shortest = if positive < shortest {
                positive
            } else {
                shortest
            };
            longest = if interval > longest {
                interval
            } else {
                longest
            };
        };
        let (head, tail) = self.times.as_slices();
        head.windows(2).for_each(|pair| fold(pair[1] - pair[0]));
        if let (Some(&earlier), Some(&later)) = (head.last(), tail.first()) {
            fold(later - earlier);
        }
        tail.windows(2).for_each(|pair| fold(pair[1] - pair[0]));
        if longest > 0.0 {
            (1.0 / longest, 1.0 / shortest)
        } else {
            (0.0, 0.0)
        }
    }

    /// Mean distortion over the retained beats that report one, or `None`
    /// if no retained beat carries a distortion value. Maintained as a
    /// rolling sum, so repeated queries cost O(1).
    pub fn mean_distortion(&self) -> Option<f64> {
        let annotations = self.annotations.as_deref()?;
        if annotations.distortion_count == 0 {
            None
        } else {
            Some(annotations.distortion_sum / annotations.distortion_count as f64)
        }
    }

    /// Latency between the two most recent beats carrying `tag`, in seconds.
    /// O(1): each tag's retained timestamps are kept in a per-tag ring.
    pub fn tagged_latency(&self, tag: &Tag) -> Option<f64> {
        let times = self.annotations.as_deref()?.tag_times.get(tag)?;
        let n = times.len();
        if n < 2 {
            return None;
        }
        Some(times[n - 1] - times[n - 2])
    }
}

fn rate_between(start: f64, end: f64, beats: u64) -> f64 {
    let elapsed = end - start;
    if elapsed > 0.0 {
        beats as f64 / elapsed
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::HeartbeatRecord;

    fn beat(seq: u64, t: f64) -> HeartbeatRecord {
        HeartbeatRecord::new(seq, t)
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = Window::new(0);
    }

    #[test]
    fn empty_window_reports_zero_rates() {
        let w = Window::new(8);
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        let stats = w.heart_rate();
        assert_eq!(stats.instant, 0.0);
        assert_eq!(stats.window, 0.0);
        assert_eq!(stats.global, 0.0);
        assert_eq!(w.instant_extremes(), (0.0, 0.0));
    }

    #[test]
    fn steady_beats_yield_constant_rate() {
        let mut w = Window::new(16);
        for i in 0..10 {
            w.push(beat(i, i as f64 * 0.1)); // 10 beats/s
        }
        let stats = w.heart_rate();
        assert!((stats.instant - 10.0).abs() < 1e-9);
        assert!((stats.window - 10.0).abs() < 1e-9);
        assert!((stats.global - 10.0).abs() < 1e-9);
        assert_eq!(stats.beats_in_window, 10);
        let (slowest, fastest) = w.instant_extremes();
        assert!((slowest - 10.0).abs() < 1e-6);
        assert!((fastest - 10.0).abs() < 1e-6);
    }

    #[test]
    fn eviction_keeps_window_rate_recent() {
        let mut w = Window::new(4);
        // Slow phase: 1 beat/s.
        for i in 0..5 {
            w.push(beat(i, i as f64));
        }
        // Fast phase: 100 beats/s.
        for i in 0..8 {
            w.push(beat(5 + i, 5.0 + (i + 1) as f64 * 0.01));
        }
        let stats = w.heart_rate();
        assert_eq!(w.len(), 4);
        assert!(stats.window > 50.0, "window rate should track fast phase");
        assert!(stats.global < 5.0, "global rate reflects whole history");
        assert_eq!(w.total_beats(), 13);
        // The slow-phase intervals have been evicted, so the slowest
        // retained instantaneous rate belongs to the fast phase.
        assert!(w.instant_extremes().0 > 50.0);
    }

    #[test]
    fn instant_rate_uses_last_pair() {
        let mut w = Window::new(8);
        w.push(beat(0, 0.0));
        w.push(beat(1, 1.0));
        w.push(beat(2, 1.5));
        let stats = w.heart_rate();
        assert!((stats.instant - 2.0).abs() < 1e-9);
        let (slowest, fastest) = w.instant_extremes();
        assert!((slowest - 1.0).abs() < 1e-9);
        assert!((fastest - 2.0).abs() < 1e-9);
    }

    #[test]
    fn min_max_track_eviction_of_extremes() {
        let mut w = Window::new(3);
        w.push(beat(0, 0.0));
        w.push(beat(1, 10.0)); // interval 10 (slowest)
        w.push(beat(2, 10.5)); // interval 0.5
        assert!((w.instant_extremes().0 - 0.1).abs() < 1e-12);
        w.push(beat(3, 11.0)); // evicts beat 0 → interval 10 leaves
        let (slowest, fastest) = w.instant_extremes();
        assert!((slowest - 2.0).abs() < 1e-12);
        assert!((fastest - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mean_distortion_ignores_unreported_beats() {
        let mut w = Window::new(8);
        w.push(beat(0, 0.0).with_distortion(0.2));
        w.push(beat(1, 1.0));
        w.push(beat(2, 2.0).with_distortion(0.4));
        assert!((w.mean_distortion().unwrap() - 0.3).abs() < 1e-9);
        let empty = Window::new(4);
        assert!(empty.mean_distortion().is_none());
    }

    #[test]
    fn mean_distortion_follows_eviction() {
        let mut w = Window::new(2);
        w.push(beat(0, 0.0).with_distortion(0.9));
        w.push(beat(1, 1.0).with_distortion(0.1));
        w.push(beat(2, 2.0).with_distortion(0.3));
        // The 0.9 report was evicted with its beat.
        assert!((w.mean_distortion().unwrap() - 0.2).abs() < 1e-9);
        w.push(beat(3, 3.0));
        w.push(beat(4, 4.0));
        assert!(w.mean_distortion().is_none());
    }

    #[test]
    fn tagged_latency_measures_between_matching_tags() {
        let mut w = Window::new(8);
        w.push(beat(0, 0.0).with_tag("frame"));
        w.push(beat(1, 0.4));
        w.push(beat(2, 1.0).with_tag("frame"));
        w.push(beat(3, 1.2).with_tag("other"));
        let latency = w.tagged_latency(&crate::Tag::new("frame")).unwrap();
        assert!((latency - 1.0).abs() < 1e-9);
        assert!(w.tagged_latency(&crate::Tag::new("missing")).is_none());
    }

    #[test]
    fn tagged_latency_forgets_evicted_beats() {
        let mut w = Window::new(2);
        w.push(beat(0, 0.0).with_tag("frame"));
        w.push(beat(1, 1.0).with_tag("frame"));
        assert!((w.tagged_latency(&crate::Tag::new("frame")).unwrap() - 1.0).abs() < 1e-12);
        w.push(beat(2, 2.0));
        // Only one tagged beat remains in the window.
        assert!(w.tagged_latency(&crate::Tag::new("frame")).is_none());
    }

    #[test]
    fn simultaneous_beats_do_not_divide_by_zero() {
        let mut w = Window::new(4);
        w.push(beat(0, 1.0));
        w.push(beat(1, 1.0));
        let stats = w.heart_rate();
        assert_eq!(stats.instant, 0.0);
        assert_eq!(stats.window, 0.0);
        assert_eq!(w.instant_extremes(), (0.0, 0.0));
    }
}
