//! Quickstart: generate a DBLP-like association graph, build a group
//! hierarchy privately, and release the association count at every level
//! under εg-group differential privacy.
//!
//! **Paper scenario:** the core two-phase pipeline (Sections III–IV) on
//! the author–paper association graph, at 1:100 laptop scale.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! **Expected output:** a table with one row per hierarchy level
//! (level, group count, noisy total, relative error), finishing with
//! the headline observation that finer levels (smaller groups) carry
//! less noise and lower RER while coarser levels protect whole
//! subpopulations. Exact noisy values vary with the build's RNG stream
//! but are deterministic for a fixed seed.

use group_dp::core::{
    relative_error, DisclosureConfig, MultiLevelDiscloser, SpecializationConfig, Specializer,
};
use group_dp::datagen::{DblpConfig, DblpGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(7);

    // A 1:100-scale DBLP-like bipartite graph: authors × papers.
    let graph = DblpGenerator::new(DblpConfig::laptop_scale()).generate(&mut rng);
    println!(
        "dataset: {} authors, {} papers, {} associations",
        graph.left_count(),
        graph.right_count(),
        graph.edge_count()
    );

    // Phase 1 — specialize the node set into a multi-level group
    // hierarchy via the exponential mechanism (6 binary rounds → 8 levels).
    let hierarchy =
        Specializer::new(SpecializationConfig::paper_default(6)?).specialize(&graph, &mut rng)?;
    println!(
        "hierarchy: {} levels, group counts {:?}",
        hierarchy.level_count(),
        hierarchy.group_counts()
    );

    // Phase 2 — noisy release of the association count at every level,
    // calibrated to each level's group sensitivity (εg = 0.5, δ = 1e-6).
    let release = MultiLevelDiscloser::new(DisclosureConfig::count_only(0.5, 1e-6)?)
        .disclose(&graph, &hierarchy, &mut rng)?;

    let truth = graph.edge_count() as f64;
    println!("\nlevel  groups  noisy_count        rer");
    for level in release.levels() {
        let noisy = level.total_associations().expect("count query released");
        println!(
            "{:>5}  {:>6}  {:>11.1}  {:>9.5}",
            level.level,
            level.group_count,
            noisy,
            relative_error(noisy, truth)
        );
    }
    println!("\nfiner levels (smaller groups) → less noise → lower RER;");
    println!("coarser levels protect whole subpopulations and pay in accuracy.");
    Ok(())
}
