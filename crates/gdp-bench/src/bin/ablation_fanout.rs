//! Ablation A3 — fanout interpretation. The paper's "each group in level
//! i is split to 4 subgroups in level i−1" admits two readings: block
//! counts per side double per level (our default: the 4 subgroups are
//! 2 left + 2 right), or quadruple per level. This experiment builds both
//! hierarchies (the latter by thinning a deeper binary hierarchy) plus an
//! 8× variant and compares the per-level sensitivity ladders and RER.
//!
//! ```text
//! cargo run -p gdp-bench --release --bin ablation_fanout [-- --trials 25]
//! ```

use gdp_bench::args::CommonArgs;
use gdp_bench::fig1::{run, Fig1Config};
use gdp_bench::table::{fmt_f64, Table};
use gdp_bench::{build_context, thin_hierarchy, ExperimentContext};
use gdp_core::{NoiseMechanism, SplitStrategy};

fn main() {
    let args = CommonArgs::parse();
    // 12 binary rounds so stride-2 and stride-3 thinnings stay deep.
    let ExperimentContext { graph, hierarchy } = build_context(
        args.dblp_config(),
        12,
        SplitStrategy::Exponential,
        args.seed,
    );

    let mut table = Table::new([
        "fanout", "levels", "sens_L1", "sens_L2", "sens_L3", "rer_L1", "rer_L2", "rer_L3",
    ]);
    for (label, stride) in [("2_per_side", 1usize), ("4_per_side", 2), ("8_per_side", 3)] {
        let h = thin_hierarchy(&hierarchy, stride);
        let sens = h.sensitivities(&graph);
        eprintln!("ablation_fanout: {label} → {} levels", h.level_count());
        let config = Fig1Config {
            epsilons: vec![0.5],
            delta: 1e-6,
            levels: vec![1, 2, 3],
            trials: args.trials,
            mechanism: NoiseMechanism::GaussianClassic,
            seed: args.seed ^ 0xA3,
        };
        let rows = run(&graph, &h, &config);
        let rer = &rows[0].rer_by_level;
        table.push_row([
            label.to_string(),
            h.level_count().to_string(),
            sens[1].to_string(),
            sens[2].to_string(),
            sens[3].to_string(),
            fmt_f64(rer[0]),
            fmt_f64(rer[1]),
            fmt_f64(rer[2]),
        ]);
    }

    println!("Ablation A3 — fanout interpretation (eps_g = 0.5)");
    println!("sens_Lk / rer_Lk refer to levels of each thinned hierarchy");
    println!();
    print!("{}", table.render());
    if let Err(e) = std::fs::create_dir_all("results")
        .and_then(|_| std::fs::write("results/ablation_fanout.csv", table.to_csv()))
    {
        eprintln!("warning: could not write results/ablation_fanout.csv: {e}");
    }
}
