//! Regenerates Figure 4: anticipated SEEC results on the Angstrom processor.

use experiments::{Figure3, Figure4};

fn main() {
    // The Figure-4 prediction reuses the SEEC-vs-static-oracle multiplier
    // measured on the existing system (Figure 3), exactly as the paper does.
    let fig3 = Figure3::compute();
    let multiplier = fig3.seec_vs_static_oracle();
    let figure = Figure4::compute_with_multiplier(multiplier);
    println!("Figure 4 — anticipated SEEC results on the 256-core Angstrom processor\n");
    println!("{}", figure.to_table());
    experiments::write_json_or_exit("fig4.json", &figure);
}
