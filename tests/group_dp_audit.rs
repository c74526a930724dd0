//! Empirical group-DP audit of the end-to-end level release.
//!
//! Definition 4 demands: for group-adjacent datasets `D1 = D2 ∪ Gᵢ` and
//! every output event `S`, `Pr[A(D1) ∈ S] ≤ e^{εg}·Pr[A(D2) ∈ S] (+ δ)`.
//!
//! We realize a group-adjacency step on a real graph by deleting every
//! association incident to one group of the audited level, release the
//! total count many times on both datasets through the *same* mechanism
//! (σ calibrated to the level's group sensitivity on the larger
//! dataset), and verify the likelihood-ratio bound on a histogram of
//! outputs. Sampling slack is added to both sides.

use group_dp::core::{GroupHierarchy, GroupLevel, LevelSensitivity};
use group_dp::datagen::models::erdos_renyi;
use group_dp::graph::{BipartiteGraph, GraphBuilder, Side, SidePartition};
use group_dp::mechanisms::{
    Delta, Epsilon, GaussianMechanism, L1Sensitivity, L2Sensitivity, LaplaceMechanism,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Removes every edge incident to left block `block` of `partition`.
fn remove_group(graph: &BipartiteGraph, partition: &SidePartition, block: u32) -> BipartiteGraph {
    let mut builder = GraphBuilder::new(graph.left_count(), graph.right_count());
    for (l, r) in graph.edges() {
        if partition.block_of(l.index()) != block {
            builder.add_edge(l, r).unwrap();
        }
    }
    builder.build()
}

fn audit_histogram_bound(
    samples_a: &[f64],
    samples_b: &[f64],
    epsilon: f64,
    delta: f64,
    lo: f64,
    hi: f64,
    buckets: usize,
) {
    let n = samples_a.len() as f64;
    let width = (hi - lo) / buckets as f64;
    let hist = |xs: &[f64]| {
        let mut h = vec![0f64; buckets];
        for &x in xs {
            let idx = ((x - lo) / width).floor();
            if idx >= 0.0 && (idx as usize) < buckets {
                h[idx as usize] += 1.0;
            }
        }
        for c in &mut h {
            *c /= n;
        }
        h
    };
    let ha = hist(samples_a);
    let hb = hist(samples_b);
    let slack = 0.015; // sampling error allowance at these sample sizes
    for i in 0..buckets {
        assert!(
            ha[i] <= epsilon.exp() * hb[i] + delta + slack,
            "bucket {i}: P_A = {} vs bound {}",
            ha[i],
            epsilon.exp() * hb[i] + delta + slack
        );
        assert!(
            hb[i] <= epsilon.exp() * ha[i] + delta + slack,
            "bucket {i} (reverse)"
        );
    }
}

#[test]
fn gaussian_level_release_satisfies_group_dp_bound() {
    let mut rng = StdRng::seed_from_u64(20);
    let graph = erdos_renyi(&mut rng, 60, 60, 400);
    // An explicit 4-block level on each side.
    let left = SidePartition::new(Side::Left, (0..60).map(|i| i % 4).collect(), 4).unwrap();
    let right = SidePartition::new(Side::Right, (0..60).map(|i| i % 4).collect(), 4).unwrap();
    let level = GroupLevel::new(left.clone(), right).unwrap();

    // Group-adjacent dataset: drop left block 2 entirely.
    let adjacent = remove_group(&graph, &left, 2);
    assert!(adjacent.edge_count() < graph.edge_count());

    let (eps, delta) = (0.8f64, 1e-3f64);
    let sens = LevelSensitivity::total_count(&level, &graph);
    let mech = GaussianMechanism::classic(
        Epsilon::new(eps).unwrap(),
        Delta::new(delta).unwrap(),
        L2Sensitivity::new(sens.l2).unwrap(),
    )
    .unwrap();

    let n = 120_000;
    let a: Vec<f64> = (0..n)
        .map(|_| mech.randomize(graph.edge_count() as f64, &mut rng))
        .collect();
    let b: Vec<f64> = (0..n)
        .map(|_| mech.randomize(adjacent.edge_count() as f64, &mut rng))
        .collect();

    let sigma = mech.sigma();
    let center = graph.edge_count() as f64;
    audit_histogram_bound(
        &a,
        &b,
        eps,
        delta,
        center - 4.0 * sigma,
        center + 4.0 * sigma,
        24,
    );
}

#[test]
fn laplace_level_release_satisfies_pure_group_dp_bound() {
    let mut rng = StdRng::seed_from_u64(21);
    let graph = erdos_renyi(&mut rng, 40, 40, 250);
    let left = SidePartition::new(Side::Left, (0..40).map(|i| i % 2).collect(), 2).unwrap();
    let right = SidePartition::whole(Side::Right, 40).unwrap();
    let level = GroupLevel::new(left.clone(), right).unwrap();
    let adjacent = remove_group(&graph, &left, 1);

    let eps = 0.6f64;
    let sens = LevelSensitivity::total_count(&level, &graph);
    let mech = LaplaceMechanism::new(
        Epsilon::new(eps).unwrap(),
        L1Sensitivity::new(sens.l1).unwrap(),
    )
    .unwrap();

    let n = 120_000;
    let a: Vec<f64> = (0..n)
        .map(|_| mech.randomize(graph.edge_count() as f64, &mut rng))
        .collect();
    let b: Vec<f64> = (0..n)
        .map(|_| mech.randomize(adjacent.edge_count() as f64, &mut rng))
        .collect();
    let scale = mech.scale();
    let center = graph.edge_count() as f64;
    audit_histogram_bound(
        &a,
        &b,
        eps,
        0.0,
        center - 6.0 * scale,
        center + 6.0 * scale,
        20,
    );
}

#[test]
fn sensitivity_bounds_every_single_group_removal() {
    // The audited guarantee hinges on Δ ≥ |count(G) − count(G \ g)| for
    // every group g of the level; verify exhaustively.
    let mut rng = StdRng::seed_from_u64(22);
    let graph = erdos_renyi(&mut rng, 50, 50, 300);
    let left = SidePartition::new(Side::Left, (0..50).map(|i| i % 5).collect(), 5).unwrap();
    let right = SidePartition::new(Side::Right, (0..50).map(|i| i % 3).collect(), 3).unwrap();
    let level = GroupLevel::new(left.clone(), right.clone()).unwrap();
    let sens = LevelSensitivity::total_count(&level, &graph);

    for block in 0..5 {
        let adjacent = remove_group(&graph, &left, block);
        let change = graph.edge_count() - adjacent.edge_count();
        assert!(
            change as f64 <= sens.l1,
            "left block {block} changes count by {change} > Δ {}",
            sens.l1
        );
    }
    // Hierarchy-wide: coarser levels never have smaller sensitivity.
    let whole = GroupLevel::new(
        SidePartition::whole(Side::Left, 50).unwrap(),
        SidePartition::whole(Side::Right, 50).unwrap(),
    )
    .unwrap();
    let h = GroupHierarchy::new(vec![level, whole]).unwrap();
    let sens_per_level = h.sensitivities(&graph);
    assert!(sens_per_level[0] <= sens_per_level[1]);
}
