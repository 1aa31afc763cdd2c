//! Coverage-guided scenario fuzzer for the coordination stack.
//!
//! Seeds the corpus with the hand-written scenario vocabulary, mutates
//! scenarios under a fixed per-run seed, executes every candidate through
//! the instrumented fig5 pipelines ([`experiments::fuzz::fuzz_probe`]),
//! keeps mutants whose behavior signature is new, and shrinks every
//! incident to a minimal reproducer. Fully deterministic: the same
//! `--seed` and `--iterations` produce byte-identical corpus and report.
//!
//! ```text
//! cargo run --release --bin fuzz -- --seed 2012 --iterations 256
//! ```
//!
//! Writes `fuzz_corpus.json` (the coverage corpus) and `fuzz_report.json`
//! (executions, per-strategy stats, shrunk incidents) to the working
//! directory; override with `--corpus PATH` / `--report PATH`. When the
//! corpus file already exists it is reloaded first — entry by entry, so a
//! partially-unreadable corpus reports exactly how many entries were
//! salvaged vs. rejected instead of degrading silently — and its scenarios
//! join the seed pool, so successive runs (and the CI corpus cache)
//! accumulate coverage instead of rediscovering it. Pass `--obs PATH` to
//! also write an [`obs::ObsReport`]: execution and corpus counters plus a
//! structured event stream (corpus loads, incidents).

use std::sync::Arc;

use obs::{Counter, Event, EventKind, Recorder};
use scenario_fuzz::{fuzz, FuzzConfig};

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|arg| arg == flag)
        .and_then(|index| args.get(index + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = flag_value(&args, "--seed")
        .map(|value| value.parse().expect("--seed takes an integer"))
        .unwrap_or(2012);
    let iterations: u64 = flag_value(&args, "--iterations")
        .map(|value| value.parse().expect("--iterations takes an integer"))
        .unwrap_or(64);
    let corpus_path = flag_value(&args, "--corpus").unwrap_or_else(|| "fuzz_corpus.json".into());
    let report_path = flag_value(&args, "--report").unwrap_or_else(|| "fuzz_report.json".into());
    let obs_path = flag_value(&args, "--obs");
    let recorder = obs_path.as_ref().map(|_| Arc::new(Recorder::in_memory()));

    let config = FuzzConfig {
        seed,
        iterations,
        ..FuzzConfig::default()
    };
    let mut seeds = workloads::scenario_mixes(seed);
    seeds.extend(workloads::vocabulary_mixes(seed));

    // Re-seed from a previous run's corpus when the file already exists
    // (the CI corpus cache hands successive runs their accumulated
    // coverage). Still deterministic: same seed + same corpus file, same
    // output.
    if let Ok(text) = std::fs::read_to_string(&corpus_path) {
        match scenario_fuzz::Corpus::from_json_lossy(&text) {
            Ok((previous, loaded, rejected)) => {
                println!(
                    "reloaded {loaded} corpus entries from {corpus_path} ({rejected} rejected)"
                );
                if rejected > 0 {
                    eprintln!(
                        "warning: {rejected} corpus entries in {corpus_path} were unreadable \
                         and dropped; coverage from those signatures must be rediscovered"
                    );
                }
                if let Some(recorder) = &recorder {
                    recorder.add(Counter::CorpusLoaded, loaded as u64);
                    recorder.add(Counter::CorpusRejected, rejected as u64);
                    recorder.emit(Event {
                        quantum: 0,
                        kind: EventKind::CorpusLoad {
                            loaded: loaded as u64,
                            rejected: rejected as u64,
                        },
                    });
                }
                seeds.extend(previous.entries.into_iter().map(|entry| entry.scenario));
            }
            Err(err) => eprintln!("ignoring unreadable corpus {corpus_path}: {err}"),
        }
    }

    println!(
        "scenario fuzz: seed {seed}, {iterations} iterations, {} seed scenarios",
        seeds.len()
    );
    let mut executor = experiments::fuzz::probe_executor_obs(seed, recorder.clone());
    let (corpus, report) = fuzz(&config, &seeds, &mut executor);

    println!(
        "executions {}  corpus {}  signatures {}  incidents {}",
        report.executions,
        report.corpus_size,
        report.signatures.len(),
        report.incidents.len()
    );
    for stat in &report.strategies {
        println!(
            "  strategy {:<13} attempts {:>5}  admitted {:>4}",
            stat.name, stat.attempts, stat.admitted
        );
    }
    for incident in &report.incidents {
        println!(
            "incident [{}]  found {} apps / {} quanta  shrunk to {} apps / {} quanta ({} shrink executions)",
            incident.classes.join(" + "),
            incident.found_apps,
            incident.found_quanta,
            incident.scenario.apps.len(),
            incident.scenario.quanta,
            incident.shrink_executions
        );
    }

    experiments::write_json_or_exit(&corpus_path, &corpus);
    experiments::write_json_or_exit(&report_path, &report);

    if let (Some(obs_path), Some(recorder)) = (obs_path, recorder) {
        for incident in &report.incidents {
            recorder.emit(Event {
                quantum: 0,
                kind: EventKind::Incident {
                    classes: incident.classes.join(" + "),
                },
            });
        }
        experiments::write_json_or_exit(&obs_path, &recorder.snapshot().to_report());
    }
}
