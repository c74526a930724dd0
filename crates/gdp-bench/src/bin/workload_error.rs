//! Experiment W1 — subset-query answering error (extension beyond the
//! paper). A consumer answers random subset-count queries from the
//! per-group release of each level via [`gdp_core::answering`]; this
//! measures the mean RER as a function of level and subset size,
//! exposing the resolution/noise trade-off the multi-level design
//! creates for downstream analytics.
//!
//! ```text
//! cargo run -p gdp-bench --release --bin workload_error [-- --trials 25]
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use gdp_bench::args::CommonArgs;
use gdp_bench::table::{fmt_f64, Table};
use gdp_bench::{build_context, ExperimentContext};
use gdp_core::answering::SubsetCountEstimator;
use gdp_core::{relative_error, DisclosureConfig, MultiLevelDiscloser, Query, SplitStrategy};
use gdp_datagen::workload::CountQueryWorkload;

fn main() {
    let args = CommonArgs::parse();
    let ExperimentContext { graph, hierarchy } =
        build_context(args.dblp_config(), 6, SplitStrategy::Exponential, args.seed);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x31);
    let discloser = MultiLevelDiscloser::new(
        DisclosureConfig::count_only(0.8, 1e-6)
            .expect("valid parameters")
            .with_queries(vec![Query::PerGroupCounts]),
    );

    let subset_sizes = [50u32, 500, 5_000];
    let levels = [0usize, 2, 4];
    let queries_per_size = 20usize;

    let mut table = Table::new(["subset_size", "level_0", "level_2", "level_4"]);
    for &size in &subset_sizes {
        eprintln!("workload_error: subset size {size}");
        let workload = CountQueryWorkload::random_left(&mut rng, &graph, queries_per_size, size);
        let mut level_rer = vec![0f64; levels.len()];
        for _ in 0..args.trials {
            let release = discloser
                .disclose(&graph, &hierarchy, &mut rng)
                .expect("disclosure succeeds");
            for (slot, &level) in levels.iter().enumerate() {
                let estimator = SubsetCountEstimator::new(
                    release.level(level).expect("level exists"),
                    hierarchy.level(level).expect("level exists"),
                )
                .expect("per-group release present");
                for q in workload.queries() {
                    let est = estimator
                        .estimate(q.side, &q.nodes)
                        .expect("nodes in range");
                    level_rer[slot] += relative_error(est, q.true_answer as f64);
                }
            }
        }
        let denom = (args.trials * queries_per_size) as f64;
        table.push_row([
            size.to_string(),
            fmt_f64(level_rer[0] / denom),
            fmt_f64(level_rer[1] / denom),
            fmt_f64(level_rer[2] / denom),
        ]);
    }

    println!("W1 — subset-count answering error from per-group releases (eps_g = 0.8)");
    println!("rows: query subset size; columns: release level answered from");
    println!();
    print!("{}", table.render());
    if let Err(e) = std::fs::create_dir_all("results")
        .and_then(|_| std::fs::write("results/workload_error.csv", table.to_csv()))
    {
        eprintln!("warning: could not write results/workload_error.csv: {e}");
    }
}
