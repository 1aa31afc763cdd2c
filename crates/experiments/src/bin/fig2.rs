//! Regenerates Figure 2: efficiency of closed adaptive systems.

use experiments::Figure2;

fn main() {
    let figure = Figure2::compute();
    println!("Figure 2 — barnes on a 64-core multicore, cores x cache sweep\n");
    println!("{}", figure.to_table());
    println!(
        "Pareto-optimal configurations: {} of {}",
        figure.frontier.len(),
        figure.points.len()
    );
    println!(
        "Closed-system (cache-only or core-only) choices off the Pareto frontier: {}",
        figure.suboptimal_closed_choices().len()
    );
    experiments::write_json_or_exit("fig2.json", &figure);
}
