//! Reproduces **Figure 1** ("Impact of εg"): RER of the noisy
//! association count vs εg, one series per release level `I_{9,i}`,
//! `i ∈ [0,7]`.
//!
//! ```text
//! cargo run -p gdp-bench --release --bin fig1 [-- --paper-scale --trials 25 --seed 42]
//! ```

use gdp_bench::args::CommonArgs;
use gdp_bench::fig1::{run, to_table, Fig1Config};
use gdp_bench::{build_context, thin_hierarchy, ExperimentContext};
use gdp_core::SplitStrategy;

fn main() {
    let args = CommonArgs::parse();
    // Paper setup: "each group in level i is split to 4 subgroups in
    // level i−1" — level i has 4^(9−i) groups per side. We build 16
    // binary split rounds and keep every second level, yielding the
    // 10-level hierarchy (0 = individuals, 9 = whole dataset) whose
    // releases are I9,0..I9,7.
    let rounds = 16;
    eprintln!(
        "fig1: generating {} graph, specializing {rounds} binary rounds...",
        if args.paper_scale {
            "paper-scale"
        } else {
            "laptop-scale"
        }
    );
    let ExperimentContext { graph, hierarchy } = build_context(
        args.dblp_config(),
        rounds,
        SplitStrategy::Exponential,
        args.seed,
    );
    let hierarchy = thin_hierarchy(&hierarchy, 2);
    eprintln!(
        "fig1: graph m={} edges, hierarchy {} levels; {} trials per cell",
        graph.edge_count(),
        hierarchy.level_count(),
        args.trials
    );

    let config = Fig1Config::paper(hierarchy.level_count(), args.trials, args.seed ^ 0xF16);
    let rows = run(&graph, &hierarchy, &config);
    let table = to_table(&rows, &config.levels, hierarchy.level_count() - 1);

    println!("Figure 1 — Impact of eps_g (mean RER of noisy association count)");
    println!(
        "dataset: {} authors, {} papers, {} associations; delta = {:e}",
        graph.left_count(),
        graph.right_count(),
        graph.edge_count(),
        config.delta
    );
    println!();
    print!("{}", table.render());

    if let Err(e) = std::fs::create_dir_all("results")
        .and_then(|_| std::fs::write("results/fig1.csv", table.to_csv()))
    {
        eprintln!("warning: could not write results/fig1.csv: {e}");
    } else {
        eprintln!("wrote results/fig1.csv");
    }
}
