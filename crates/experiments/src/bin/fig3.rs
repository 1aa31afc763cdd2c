//! Regenerates Figure 3: SEEC on an existing Linux/x86 system.
//!
//! By default this reproduces the historical figure bit-for-bit
//! (`fig3.json`). Pass `--leaky-pi` to *additionally* run the calibrated
//! (convex) goal-respecting protocol twice — classical integral vs. the
//! flag-gated leaky integral (`CONVEX_PROTOCOL_LEAK`) — print the fidelity
//! delta, and write the comparison to `fig3_leaky.json`. Pass
//! `--belief-aging` to sweep the flag-gated belief-aging halflives
//! (`BELIEF_AGING_HALFLIVES`) through the same calibrated protocol — the
//! ROADMAP's phase-stale-beliefs probe — and write the sweep to
//! `fig3_belief_aging.json`. The default outputs are unchanged either way.

use experiments::fig3::{
    ConvexTuning, BELIEF_AGING_HALFLIVES, CONVEX_PROTOCOL_LEAK, QUANTA_PER_RUN,
};
use experiments::Figure3;
use serde::Serialize;
use xeon_sim::XeonServer;

/// The leaky-integral comparison on the calibrated server, as raw data.
#[derive(Serialize)]
struct LeakyComparison {
    leak: f64,
    classical_mean_seec_vs_dynamic_oracle: f64,
    leaky_mean_seec_vs_dynamic_oracle: f64,
    classical: Figure3,
    leaky: Figure3,
}

/// One halflife's arm of the belief-aging sweep.
#[derive(Serialize)]
struct BeliefAgingArm {
    halflife_periods: f64,
    mean_seec_vs_dynamic_oracle: f64,
    figure: Figure3,
}

/// The belief-aging sweep on the calibrated server, as raw data.
#[derive(Serialize)]
struct BeliefAgingSweep {
    classical_mean_seec_vs_dynamic_oracle: f64,
    classical: Figure3,
    arms: Vec<BeliefAgingArm>,
}

fn mean_seec_ratio(figure: &Figure3) -> f64 {
    let sum: f64 = figure.rows.iter().map(|row| row.normalized()[2]).sum();
    sum / figure.rows.len() as f64
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let leaky = args.iter().any(|arg| arg == "--leaky-pi");
    let belief_aging = args.iter().any(|arg| arg == "--belief-aging");

    let figure = Figure3::compute();
    println!("Figure 3 — SEEC on the Xeon E5530 server, perf/W normalised to the dynamic oracle\n");
    println!("{}", figure.to_table());
    experiments::write_json_or_exit("fig3.json", &figure);

    // Both studies compare against the same calibrated classical baseline;
    // compute it once when either flag asks for it.
    let server = XeonServer::dell_r410_calibrated();
    let classical =
        (leaky || belief_aging).then(|| Figure3::compute_on(&server, 2012, QUANTA_PER_RUN));

    if leaky {
        let classical = classical.clone().expect("computed when --leaky-pi is set");
        let leaky = Figure3::compute_on_tuned(
            &server,
            2012,
            QUANTA_PER_RUN,
            ConvexTuning {
                leak: CONVEX_PROTOCOL_LEAK,
                ..ConvexTuning::default()
            },
        );
        let comparison = LeakyComparison {
            leak: CONVEX_PROTOCOL_LEAK,
            classical_mean_seec_vs_dynamic_oracle: mean_seec_ratio(&classical),
            leaky_mean_seec_vs_dynamic_oracle: mean_seec_ratio(&leaky),
            classical,
            leaky,
        };
        println!(
            "\nLeaky-PI experiment on the calibrated (convex) protocol \
             (leak {:.2}):\n  classical integral: SEEC at {:.3} of the dynamic oracle\n  \
             leaky integral:     SEEC at {:.3} of the dynamic oracle",
            comparison.leak,
            comparison.classical_mean_seec_vs_dynamic_oracle,
            comparison.leaky_mean_seec_vs_dynamic_oracle,
        );
        experiments::write_json_or_exit("fig3_leaky.json", &comparison);
    }

    if belief_aging {
        let classical = classical.expect("computed when --belief-aging is set");
        let classical_mean = mean_seec_ratio(&classical);
        println!(
            "\nBelief-aging experiment on the calibrated (convex) protocol:\n  \
             no aging (halflife ∞): SEEC at {classical_mean:.3} of the dynamic oracle"
        );
        let arms: Vec<BeliefAgingArm> = BELIEF_AGING_HALFLIVES
            .iter()
            .map(|&halflife_periods| {
                let figure = Figure3::compute_on_tuned(
                    &server,
                    2012,
                    QUANTA_PER_RUN,
                    ConvexTuning {
                        belief_halflife: halflife_periods,
                        ..ConvexTuning::default()
                    },
                );
                let mean = mean_seec_ratio(&figure);
                println!(
                    "  halflife {halflife_periods:>4.0} periods:   SEEC at {mean:.3} \
                     of the dynamic oracle"
                );
                BeliefAgingArm {
                    halflife_periods,
                    mean_seec_vs_dynamic_oracle: mean,
                    figure,
                }
            })
            .collect();
        let sweep = BeliefAgingSweep {
            classical_mean_seec_vs_dynamic_oracle: classical_mean,
            classical,
            arms,
        };
        experiments::write_json_or_exit("fig3_belief_aging.json", &sweep);
    }
}
