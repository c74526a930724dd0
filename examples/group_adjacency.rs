//! A small, fully worked demonstration of the paper's Definitions 1–4
//! (individual vs group adjacency, `εg`-group DP) on concrete dataset
//! vectors — useful for building intuition before the graph pipeline.
//!
//! ```text
//! cargo run --example group_adjacency
//! ```
//!
//! **Expected output:** the worked dataset vectors under an individual
//! adjacency step vs a whole-group step, the resulting L1 sensitivities
//! (group sensitivity = the largest whole-group contribution), Laplace
//! releases calibrated to each, and a final check that a singleton
//! group structure (max group size 1) recovers ordinary individual DP.

use group_dp::core::adjacency::{DatasetVector, Group, GroupStructure};
use group_dp::mechanisms::{Epsilon, L1Sensitivity, LaplaceMechanism};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Universe U = {a, b, c, d}; groups G1 = {a, b}, G2 = {c, d}.
    let groups = GroupStructure::new(vec![Group::new(vec![0, 1]), Group::new(vec![2, 3])], 4)
        .expect("valid partition");

    let d2 = DatasetVector::new(vec![1, 1, 0, 0]); // {a, b}
    let d1 = d2.union_group(&groups.groups()[1]); // {a, b, c, d}

    println!("D2 = {:?}  (records {:?})", d2.counts(), d2.total());
    println!("D1 = D2 ∪ G2 = {:?}", d1.counts());
    println!(
        "individual adjacency (Def. 1): ‖D1 − D2‖₁ = {} → {}",
        d1.l1_distance(&d2),
        d1.is_individual_adjacent(&d2)
    );
    println!(
        "group adjacency (Def. 3): witness group index = {:?}",
        groups.adjacency_witness(&d1, &d2)
    );

    // Why group privacy needs bigger noise: the count query changes by
    // |G| between group-adjacent datasets, not by 1.
    let count_gap = (d1.total() - d2.total()) as f64;
    println!("\ncount query gap between group-adjacent datasets: {count_gap}");

    let eps = Epsilon::new(0.5)?;
    let individual = LaplaceMechanism::new(eps, L1Sensitivity::new(1.0)?)?;
    let group = LaplaceMechanism::new(eps, L1Sensitivity::new(count_gap)?)?;
    println!(
        "Laplace scale for ε-individual-DP: {:.1}; for εg-group-DP: {:.1}",
        individual.scale(),
        group.scale()
    );

    let mut rng = StdRng::seed_from_u64(5);
    println!("\nfive group-private releases of |D1| = {}:", d1.total());
    for _ in 0..5 {
        println!("  {:.2}", group.randomize(d1.total() as f64, &mut rng));
    }
    println!(
        "\nthe singleton structure recovers individual DP: max group size {} → \
         same adjacency as Def. 1",
        GroupStructure::singletons(4).max_group_size()
    );
    Ok(())
}
