//! Ablation A5 — consumer-side post-processing (an extension beyond the
//! paper). Every level's noisy total estimates the same quantity;
//! inverse-variance fusion of the levels a reader may access improves
//! accuracy at zero privacy cost. This experiment quantifies the gain
//! per privilege rank.
//!
//! ```text
//! cargo run -p gdp-bench --release --bin ablation_postprocess [-- --trials 25]
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use gdp_bench::args::CommonArgs;
use gdp_bench::table::{fmt_f64, Table};
use gdp_bench::{build_context, ExperimentContext};
use gdp_core::postprocess::fuse_total_estimates;
use gdp_core::{relative_error, DisclosureConfig, MultiLevelDiscloser, SplitStrategy};

fn main() {
    let args = CommonArgs::parse();
    let ExperimentContext { graph, hierarchy } =
        build_context(args.dblp_config(), 6, SplitStrategy::Exponential, args.seed);
    let truth = graph.edge_count() as f64;
    let discloser = MultiLevelDiscloser::new(
        DisclosureConfig::count_only(0.5, 1e-6).expect("valid parameters"),
    );
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xA5);
    let top = hierarchy.level_count() - 1;

    let mut table = Table::new(["privilege", "levels_seen", "rer_best_single", "rer_fused"]);
    // privilege p reads levels p..=top.
    for privilege in [0usize, 2, 4, top] {
        eprintln!("ablation_postprocess: privilege {privilege}");
        let accessible: Vec<usize> = (privilege..=top).collect();
        let mut rer_single = 0f64;
        let mut rer_fused = 0f64;
        for _ in 0..args.trials {
            let release = discloser
                .disclose(&graph, &hierarchy, &mut rng)
                .expect("disclosure succeeds");
            // Best single level a reader would use: the finest accessible.
            let single = release
                .level(privilege)
                .expect("level released")
                .total_associations()
                .expect("count released");
            rer_single += relative_error(single, truth);
            let (fused, _) = fuse_total_estimates(&release, &accessible).expect("fusion succeeds");
            rer_fused += relative_error(fused, truth);
        }
        let t = args.trials as f64;
        table.push_row([
            privilege.to_string(),
            accessible.len().to_string(),
            fmt_f64(rer_single / t),
            fmt_f64(rer_fused / t),
        ]);
    }

    println!("Ablation A5 — inverse-variance fusion of accessible levels (eps_g = 0.5)");
    println!("post-processing only: no additional privacy cost");
    println!();
    print!("{}", table.render());
    if let Err(e) = std::fs::create_dir_all("results")
        .and_then(|_| std::fs::write("results/ablation_postprocess.csv", table.to_csv()))
    {
        eprintln!("warning: could not write results/ablation_postprocess.csv: {e}");
    }
}
