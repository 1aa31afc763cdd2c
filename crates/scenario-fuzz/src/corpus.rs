//! The coverage corpus: one scenario per distinct behavior signature.

use serde::{Deserialize, Serialize};
use workloads::Scenario;

use crate::signature::BehaviorSignature;

/// One corpus slot: the scenario, its signature, and its lineage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusEntry {
    /// The (sanitized) scenario.
    pub scenario: Scenario,
    /// The behavior signature that earned the slot.
    pub signature: BehaviorSignature,
    /// The mutation strategy that produced it (`None` for seed entries).
    pub strategy: Option<String>,
    /// Index of the corpus entry it was mutated from (`None` for seeds).
    pub parent: Option<usize>,
    /// The fuzz iteration that produced it (`None` for seeds).
    pub iteration: Option<u64>,
}

/// The corpus: entries in admission order, at most one per signature key.
///
/// Serialized as plain JSON (`to_json` / `from_json`) so a saved corpus
/// re-seeds a later fuzz run or an offline investigation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Corpus {
    /// Admitted entries, oldest first.
    pub entries: Vec<CorpusEntry>,
}

impl Corpus {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether some entry already carries this signature key.
    ///
    /// Linear scan: corpora are tens-to-hundreds of entries and every
    /// candidate lookup is preceded by a full scenario execution, which
    /// dominates by orders of magnitude.
    fn contains_signature(&self, key: &str) -> bool {
        self.entries
            .iter()
            .any(|entry| entry.signature.key() == key)
    }

    /// Admits `entry` if its signature is new; returns whether it was kept.
    pub fn admit(&mut self, entry: CorpusEntry) -> bool {
        if self.contains_signature(&entry.signature.key()) {
            return false;
        }
        self.entries.push(entry);
        true
    }

    /// The sorted signature keys currently covered.
    pub fn signature_keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .entries
            .iter()
            .map(|entry| entry.signature.key())
            .collect();
        keys.sort();
        keys
    }

    /// Serializes the corpus as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("corpus serializes")
    }

    /// Reloads a corpus saved by [`Corpus::to_json`].
    fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Reloads a corpus tolerantly: each entry is parsed independently, so
    /// one truncated or schema-drifted entry costs that entry rather than
    /// silently voiding the whole file (which a strict load would).
    /// Returns the salvaged corpus plus `(loaded, rejected)` entry counts.
    ///
    /// # Errors
    ///
    /// Errors only when the document itself is malformed — not valid JSON,
    /// or not an object carrying an `entries` array.
    pub fn from_json_lossy(text: &str) -> Result<(Self, usize, usize), serde_json::Error> {
        use serde::ser::Value;
        let value: Value = serde_json::from_str(text)?;
        let entries = match &value {
            Value::Object(fields) => fields
                .iter()
                .find(|(key, _)| key == "entries")
                .map(|(_, value)| value),
            _ => None,
        };
        let Some(Value::Array(items)) = entries else {
            // Wrong top-level shape: surface the strict parser's error.
            return Self::from_json(text).map(|corpus| {
                let loaded = corpus.len();
                (corpus, loaded, 0)
            });
        };
        let mut corpus = Corpus::default();
        let mut rejected = 0usize;
        for item in items {
            match serde_json::from_value::<CorpusEntry>(item) {
                Ok(entry) => corpus.entries.push(entry),
                Err(_) => rejected += 1,
            }
        }
        let loaded = corpus.len();
        Ok((corpus, loaded, rejected))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::{PolicyPathCounters, ScenarioOutcome};

    fn entry(apps: usize) -> CorpusEntry {
        let outcome = ScenarioOutcome {
            violations: Vec::new(),
            counters: PolicyPathCounters::default(),
            apps,
            racks: 1,
            cap_violation_fraction: 0.0,
            mean_attainment: 0.5,
            perf_per_watt: 0.01,
            baseline_perf_per_watt: 0.008,
        };
        CorpusEntry {
            scenario: workloads::vocabulary_mixes(1).swap_remove(0),
            signature: BehaviorSignature::of(&outcome),
            strategy: Some("nudge".to_string()),
            parent: Some(0),
            iteration: Some(3),
        }
    }

    #[test]
    fn admission_dedups_by_signature_and_json_round_trips() {
        let mut corpus = Corpus::default();
        assert!(corpus.admit(entry(5)));
        assert!(!corpus.admit(entry(5)), "same signature must be rejected");
        assert!(corpus.admit(entry(9)), "new fleet bucket is new coverage");
        assert_eq!(corpus.len(), 2);

        let reloaded = Corpus::from_json(&corpus.to_json()).unwrap();
        assert_eq!(reloaded, corpus);
        assert_eq!(reloaded.signature_keys(), corpus.signature_keys());
    }

    #[test]
    fn lossy_reload_salvages_readable_entries_and_counts_the_rest() {
        let mut corpus = Corpus::default();
        assert!(corpus.admit(entry(5)));
        assert!(corpus.admit(entry(9)));

        // A clean file loads whole with nothing rejected.
        let (clean, loaded, rejected) = Corpus::from_json_lossy(&corpus.to_json()).unwrap();
        assert_eq!((loaded, rejected), (2, 0));
        assert_eq!(clean, corpus);

        // Corrupt one entry in place (a schema-drifted object): the strict
        // loader voids the file, the lossy loader salvages the other entry
        // and reports the casualty.
        let mut json = corpus.to_json();
        let needle = "\"strategy\": \"nudge\"";
        let at = json.find(needle).unwrap();
        json.replace_range(at..at + needle.len(), "\"strategy\": 42");
        assert!(Corpus::from_json(&json).is_err(), "strict load must fail");
        let (salvaged, loaded, rejected) = Corpus::from_json_lossy(&json).unwrap();
        assert_eq!((loaded, rejected), (1, 1));
        assert_eq!(salvaged.len(), 1);

        // A document that is not a corpus at all surfaces the strict error.
        assert!(Corpus::from_json_lossy("[1, 2, 3]").is_err());
        assert!(Corpus::from_json_lossy("{nope").is_err());
    }
}
