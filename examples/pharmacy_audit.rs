//! The paper's motivating pharmacy example: *"the total number of
//! 'Psychiatric' drugs made by buyers in a given neighborhood"* is a
//! group-sensitive statistic.
//!
//! This example shows both halves of the story:
//!
//! 1. why individual DP is not enough — the neighborhood-level aggregate
//!    is computed exactly and would leak under a per-record guarantee;
//! 2. the group-private release — neighborhoods are the groups, and the
//!    per-group purchase counts are perturbed with noise calibrated to
//!    whole-neighborhood sensitivity.
//!
//! ```text
//! cargo run --example pharmacy_audit
//! ```
//!
//! **Expected output:** first the exact (leaking) neighborhood ×
//! drug-category table, then the group-private release: per-neighborhood
//! noisy psychiatric-purchase counts whose noise scale is calibrated to
//! the largest whole-neighborhood contribution — so individual
//! neighborhoods' counts drown in noise (RERs well above 1) while the
//! city-wide total stays usable.

use group_dp::core::{relative_error, DisclosureConfig, MultiLevelDiscloser, Query};
use group_dp::core::{GroupHierarchy, GroupLevel};
use group_dp::datagen::pharmacy::{self, DrugCategory, PharmacyConfig};
use group_dp::graph::{Side, SidePartition};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(99);
    let data = pharmacy::generate(&mut rng, &PharmacyConfig::default());
    println!(
        "pharmacy dataset: {} patients, {} drugs, {} purchases, {} neighborhoods",
        data.graph.left_count(),
        data.graph.right_count(),
        data.graph.edge_count(),
        data.neighborhood_count
    );

    // The sensitive aggregate, computed exactly (what a naive individual-DP
    // pipeline would consider "safe statistics"):
    let psych = data.category_purchases(DrugCategory::Psychiatric);
    println!("\nexact psychiatric purchases (all neighborhoods): {psych}");
    for nb in 0..3 {
        println!(
            "  neighborhood {nb}: {} psychiatric purchases (exact — the leak)",
            data.neighborhood_category_purchases(nb, DrugCategory::Psychiatric)
        );
    }

    // Group-private release: groups = real attributes, not synthetic
    // splits. Left groups are neighborhoods; right groups are drug
    // categories.
    let neighborhood_partition = SidePartition::new(
        Side::Left,
        data.neighborhoods.clone(),
        data.neighborhood_count,
    )?;
    let category_of = |c: DrugCategory| -> u32 {
        DrugCategory::all().iter().position(|&x| x == c).unwrap() as u32
    };
    let category_partition = SidePartition::new(
        Side::Right,
        data.drug_categories
            .iter()
            .map(|&c| category_of(c))
            .collect(),
        DrugCategory::all().len() as u32,
    )?;
    let attribute_level = GroupLevel::new(neighborhood_partition, category_partition)?;

    // A two-level hierarchy: attribute groups, then everything.
    let whole = GroupLevel::new(
        SidePartition::whole(Side::Left, data.graph.left_count()).expect("patients exist"),
        SidePartition::whole(Side::Right, data.graph.right_count()).expect("drugs exist"),
    )?;
    let hierarchy = GroupHierarchy::new(vec![attribute_level, whole])?;

    let config = DisclosureConfig::count_only(0.8, 1e-6)?
        .with_queries(vec![Query::TotalAssociations, Query::PerGroupCounts]);
    let release = MultiLevelDiscloser::new(config).disclose(&data.graph, &hierarchy, &mut rng)?;

    // The attribute level's per-group release: the first
    // `neighborhood_count` entries are neighborhoods, then categories.
    let attr = release.level(0)?;
    let per_group = attr.query(Query::PerGroupCounts).expect("configured");
    println!("\ngroup-private per-neighborhood purchase counts (first 3):");
    for nb in 0..3usize {
        let noisy = per_group.noisy_values[nb];
        let truth = attribute_level_incident(&data, nb as u32);
        println!(
            "  neighborhood {nb}: noisy {noisy:.0} vs exact {truth} (RER {:.3})",
            relative_error(noisy, truth as f64)
        );
    }
    let psych_idx =
        data.neighborhood_count as usize + category_of(DrugCategory::Psychiatric) as usize;
    println!(
        "  psychiatric category (all neighborhoods): noisy {:.0} vs exact {psych}",
        per_group.noisy_values[psych_idx]
    );
    println!(
        "\nnoise scale at the attribute level: {:.1} (calibrated to the\n\
         largest whole-group contribution — an entire neighborhood)",
        per_group.noise_scale
    );
    Ok(())
}

/// Exact purchases by one neighborhood (for the comparison printout).
fn attribute_level_incident(data: &pharmacy::PharmacyDataset, nb: u32) -> u64 {
    use group_dp::graph::LeftId;
    data.neighborhoods
        .iter()
        .enumerate()
        .filter(|(_, &n)| n == nb)
        .map(|(l, _)| data.graph.left_degree(LeftId::new(l as u32)) as u64)
        .sum()
}
