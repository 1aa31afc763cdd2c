use serde::{Deserialize, Serialize};

/// Monotonically increasing sequence number assigned to each heartbeat.
pub type BeatSeq = u64;

/// An optional label attached to a heartbeat.
///
/// Tags mark *special* beats: the SEEC performance goal can be expressed as a
/// target latency between two beats carrying the same tag, and energy goals
/// can be expressed as a budget between tagged beats (DAC 2012 §3.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Tag(String);

impl Tag {
    /// Creates a tag from any string-like value.
    pub fn new(name: impl Into<String>) -> Self {
        Tag(name.into())
    }

    /// Returns the tag name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for Tag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Tag {
    fn from(value: &str) -> Self {
        Tag::new(value)
    }
}

impl From<String> for Tag {
    fn from(value: String) -> Self {
        Tag::new(value)
    }
}

/// A single recorded heartbeat.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeartbeatRecord {
    /// Sequence number (0 for the first beat of the application).
    pub seq: BeatSeq,
    /// Simulation time at which the beat was emitted, in seconds.
    pub timestamp: f64,
    /// Optional tag carried by the beat.
    pub tag: Option<Tag>,
    /// Optional application-reported accuracy (distortion from the nominal
    /// value, where 0.0 means "exactly nominal"); see [`crate::AccuracyGoal`].
    pub distortion: Option<f64>,
    /// Optional amount of application work completed since the previous beat
    /// (e.g. particles processed). Purely informational.
    pub work: Option<f64>,
}

impl HeartbeatRecord {
    /// Creates a plain, untagged heartbeat record.
    pub fn new(seq: BeatSeq, timestamp: f64) -> Self {
        HeartbeatRecord {
            seq,
            timestamp,
            tag: None,
            distortion: None,
            work: None,
        }
    }

    /// Attaches a tag to this record.
    pub fn with_tag(mut self, tag: impl Into<Tag>) -> Self {
        self.tag = Some(tag.into());
        self
    }

    /// Attaches a distortion value to this record.
    pub fn with_distortion(mut self, distortion: f64) -> Self {
        self.distortion = Some(distortion);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_round_trips_through_display() {
        let tag = Tag::new("frame-start");
        assert_eq!(tag.name(), "frame-start");
        assert_eq!(tag.to_string(), "frame-start");
        assert_eq!(Tag::from("frame-start"), tag);
        assert_eq!(Tag::from(String::from("frame-start")), tag);
    }

    #[test]
    fn record_builder_attaches_fields() {
        let rec = HeartbeatRecord::new(7, 1.25)
            .with_tag("checkpoint")
            .with_distortion(0.05);
        assert_eq!(rec.seq, 7);
        assert_eq!(rec.timestamp, 1.25);
        assert_eq!(rec.tag, Some(Tag::new("checkpoint")));
        assert_eq!(rec.distortion, Some(0.05));
    }

    #[test]
    fn plain_record_has_no_optional_fields() {
        let rec = HeartbeatRecord::new(0, 0.0);
        assert!(rec.tag.is_none());
        assert!(rec.distortion.is_none());
        assert!(rec.work.is_none());
    }
}
