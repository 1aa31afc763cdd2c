//! The repository benchmark: three closed-loop workloads in simulated time,
//! driven from outside through the public API of the `heartbeats`, `seec`,
//! `coordinator`, `exec`, `experiments` and `scenario-fuzz` crates.
//!
//! ```text
//! python3 perfbench/run.py --workload <fleet-steady|fleet-churn|scenarios> \
//!     [--seed 2012] [--seconds 10] [--trace 0|1]
//! ```
//!
//! The benchmark plays the platform: it sends quantum q+1 only after
//! `Coordinator::step` for quantum q returned, and the program sees only
//! inputs generated from `--seed`. Outputs are checked (invariant oracles,
//! a pinned award digest, the committed figure JSONs). The last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a traced run with `--trace 1`. Diagnostics go to standard
//! error. README.md in this directory maps each layer metric to the
//! end-to-end metric and workload it should move.

mod fleet;
mod scenarios;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics (`--trace 0`), as (name, unit).
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("quantum_p50_ms", "ms"),
    ("quantum_p90_ms", "ms"),
    ("app_quanta_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("goal_attainment_pct", "%"),
    ("cap_violation_pct", "%"),
    ("perf_per_watt", "1/W"),
];

/// Per-layer metrics (`--trace 1`), as (name, unit). A layer a workload
/// bypasses reports 0.
const PER_LAYER: [(&str, &str); 35] = [
    ("heartbeats.advance_ns", "ns"),
    ("heartbeats.advance_calls", "count"),
    ("seec.runtime_build_us", "us"),
    ("seec.decision_ns", "ns"),
    ("seec.decisions", "count"),
    ("coordinator.step_ms", "ms"),
    ("coordinator.step_p90_ms", "ms"),
    ("coordinator.observe_us", "us"),
    ("coordinator.arbitrate_us", "us"),
    ("coordinator.decide_us", "us"),
    ("coordinator.summarise_us", "us"),
    ("coordinator.apps_slept", "count"),
    ("coordinator.apps_skipped", "count"),
    ("coordinator.apps_rearbitrated", "count"),
    ("coordinator.apps_decided", "count"),
    ("coordinator.awake_ratio", "ratio"),
    ("coordinator.awards_changed_ratio", "ratio"),
    ("coordinator.register_us", "us"),
    ("coordinator.retire_us", "us"),
    ("coordinator.set_budget_us", "us"),
    ("coordinator.admission_rejected_ratio", "ratio"),
    ("coordinator.quarantines", "count"),
    ("coordinator.readmissions", "count"),
    ("coordinator.datacenter_step_us", "us"),
    ("exec.dispatches", "count"),
    ("exec.dispatch_us", "us"),
    ("experiments.fig3_s", "s"),
    ("experiments.fig5_s", "s"),
    ("experiments.fig5_extended_s", "s"),
    ("experiments.fig5_hierarchy_s", "s"),
    ("experiments.fig5_chaos_s", "s"),
    ("scenario_fuzz.campaign_s", "s"),
    ("scenario_fuzz.executions_per_s", "1/s"),
    ("obs.trace_overhead_pct", "%"),
    ("process.setup_rss_mb", "MB"),
];

/// Command-line settings.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Host seconds the run measures for.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

/// The default workload seed; the committed figure JSONs are pinned at it.
pub const DEFAULT_SEED: u64 = 2012;

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (quanta stepped, or figure outputs checked).
    pub attempted: u64,
    /// Attempted operations that failed: a step error, a panic, an
    /// invariant violation, or an output mismatch.
    pub failed: u64,
    /// Metric values by name (end-to-end or per-layer, per `--trace`).
    pub metrics: BTreeMap<&'static str, f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?;
            }
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|seconds| seconds.is_finite() && *seconds > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "fleet-steady" => fleet::run(fleet::Kind::Steady, &args),
        "fleet-churn" => fleet::run(fleet::Kind::Churn, &args),
        "scenarios" => scenarios::run(&args),
        other => {
            eprintln!(
                "perfbench: unknown workload {other:?} (fleet-steady, fleet-churn, scenarios)"
            );
            return ExitCode::from(2);
        }
    };

    let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(listed.len());
    for &(name, unit) in listed {
        // Bypassed layers report 0; every end-to-end metric is measured.
        let value = match outcome.metrics.get(name) {
            Some(&value) => value,
            None if args.trace => 0.0,
            None => panic!("workload {} did not measure {name}", args.workload),
        };
        assert!(value.is_finite(), "{name} is not finite: {value}");
        eprintln!("  {name:<40} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

/// Writes the traced run's span summary to `$PERFBENCH_OUT` (set by
/// run.py to a directory under the build output), when that is set.
fn write_trace(tracer: &trace::Tracer, args: &Args) {
    let Some(dir) = std::env::var_os("PERFBENCH_OUT") else {
        return;
    };
    let path =
        std::path::Path::new(&dir).join(format!("trace-{}-{}.json", args.workload, args.seed));
    match tracer.write_summary(&path) {
        Ok(()) => eprintln!("span summary written to {}", path.display()),
        Err(err) => eprintln!("could not write {}: {err}", path.display()),
    }
}
