//! Regenerates Figure 5: multi-application coordination under a power budget.
//!
//! By default this reproduces the original three-mix figure bit-for-bit
//! (`fig5.json`). Pass `--extended` to *additionally* run the extended
//! scenario family — the 100-app arrival storm and the 1200-app
//! stepped-budget mix, exercising runtime registration/retirement, mid-run
//! budget steps, and the sharded coordinator — and write it to
//! `fig5_extended.json`. Pass `--hierarchy` to run the same rack-tagged
//! extended mixes through the two-level (rack → datacenter) coordination
//! stack — uncoordinated vs. one flat coordinator vs.
//! `DatacenterArbiter` over per-rack `RackCoordinator`s — and write
//! `fig5_hierarchy.json`. Pass `--chaos` to run the fault-injected chaos
//! mixes through all five robustness regimes (uncoordinated, naive and
//! degraded coordination, each behind audit-only or clamping rack
//! enforcement) and write `fig5_chaos.json`; `--enforce` writes the
//! breaker-focused projection of the same runs to `fig5_enforce.json`.
//! The default output is unchanged either way.
//!
//! Pass `--obs PATH` to also write an [`obs::ObsReport`] covering every
//! figure computed in the run: phase counters, stage latency histograms,
//! executor dispatch timing, and the structured event stream, merged in
//! cell-index order so the report is deterministic up to wall-clock
//! timings. Telemetry is passive — the figure JSONs are byte-identical
//! with and without `--obs` (the determinism tests pin this).

use std::sync::Arc;

use experiments::{Figure5, Figure5Hierarchy, FigureChaos, FigureEnforce};
use obs::{ObsSnapshot, Recorder, Stage};
use workloads::{chaos_mixes, extended_scenario_mixes, scenario_mixes};

/// The canonical seed every figure runs at.
const SEED: u64 = 2012;

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|arg| arg == flag)
        .and_then(|index| args.get(index + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let extended = args.iter().any(|arg| arg == "--extended");
    let hierarchy = args.iter().any(|arg| arg == "--hierarchy");
    let chaos = args.iter().any(|arg| arg == "--chaos");
    let enforce = args.iter().any(|arg| arg == "--enforce");
    let obs_path = flag_value(&args, "--obs");

    let mut merged = obs_path.as_ref().map(|_| ObsSnapshot::empty());
    let observe = merged.is_some();
    // Folds a `compute_scenarios_obs` snapshot into the merged report.
    let mut absorb = |snapshot: Option<ObsSnapshot>| {
        if let (Some(merged), Some(snapshot)) = (merged.as_mut(), snapshot) {
            merged.merge(&snapshot);
        }
    };

    // Executor dispatch timing rides on its own recorder attached to the
    // shared pool for the duration of the run; its histogram merges into
    // the report last so the deterministic sections stay in figure order.
    let dispatch = if observe {
        let recorder = Arc::new(Recorder::in_memory());
        let timer = Arc::clone(&recorder);
        exec::global_pool().set_dispatch_observer(Some(Arc::new(move |ns| {
            timer.time(Stage::Dispatch, ns);
        })));
        Some(recorder)
    } else {
        None
    };

    let (figure, snapshot) = Figure5::compute_scenarios_obs(&scenario_mixes(SEED), SEED, observe);
    absorb(snapshot);
    println!(
        "Figure 5 — multi-application SEEC on the calibrated R410 under a machine power budget\n"
    );
    println!("{}", figure.to_table());
    experiments::write_json_or_exit("fig5.json", &figure);

    if extended {
        let (figure, snapshot) =
            Figure5::compute_scenarios_obs(&extended_scenario_mixes(SEED), SEED, observe);
        absorb(snapshot);
        println!(
            "\nExtended scenario family — runtime lifecycle, budget steps, sharded coordinator\n"
        );
        println!("{}", figure.to_table());
        experiments::write_json_or_exit("fig5_extended.json", &figure);
    }

    if hierarchy {
        let (figure, snapshot) =
            Figure5Hierarchy::compute_scenarios_obs(&extended_scenario_mixes(SEED), SEED, observe);
        absorb(snapshot);
        println!(
            "\nHierarchical coordination — the rack-tagged extended mixes, budget flowing \
             datacenter → rack → app\n"
        );
        println!("{}", figure.to_table());
        experiments::write_json_or_exit("fig5_hierarchy.json", &figure);
    }

    if chaos || enforce {
        let (figure, snapshot) =
            FigureChaos::compute_scenarios_obs(&chaos_mixes(SEED), SEED, observe);
        absorb(snapshot);
        if chaos {
            println!(
                "\nChaos — fault-injected mixes under degradation and rack enforcement\n"
            );
            println!("{}", figure.to_table());
            experiments::write_json_or_exit("fig5_chaos.json", &figure);
        }
        if enforce {
            let projection = FigureEnforce::from_chaos(&figure);
            println!(
                "\nEnforcement — what the rack breaker closes, and what it costs\n"
            );
            println!("{}", projection.to_table());
            experiments::write_json_or_exit("fig5_enforce.json", &projection);
        }
    }

    if let (Some(obs_path), Some(mut merged)) = (obs_path, merged) {
        if let Some(dispatch) = dispatch {
            exec::global_pool().set_dispatch_observer(None);
            merged.merge(&dispatch.snapshot());
        }
        experiments::write_json_or_exit(&obs_path, &merged.to_report());
    }
}
