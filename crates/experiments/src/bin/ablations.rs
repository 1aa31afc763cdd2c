//! Runs the design-choice ablations listed in DESIGN.md.

use experiments::ablation::Ablations;

fn main() {
    let ablations = Ablations::compute();
    println!("Ablations — adaptive NoC features, coherence protocols, decision placement\n");
    println!("{}", ablations.to_table());
    experiments::write_json_or_exit("ablations.json", &ablations);
}
