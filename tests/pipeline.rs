//! Cross-crate integration tests: datagen → specialization → disclosure
//! → access control → metrics, end to end.

use group_dp::core::{
    mean_relative_error, AccessControlled, DisclosureConfig, MultiLevelDiscloser, NoiseMechanism,
    Privilege, Query, SpecializationConfig, Specializer, SplitStrategy,
};
use group_dp::datagen::{DblpConfig, DblpGenerator};
use group_dp::graph::BipartiteGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset(seed: u64) -> BipartiteGraph {
    DblpGenerator::new(DblpConfig::tiny()).generate(&mut StdRng::seed_from_u64(seed))
}

#[test]
fn end_to_end_all_strategies_and_mechanisms() {
    let graph = dataset(1);
    for strategy in [
        SplitStrategy::Exponential,
        SplitStrategy::Median,
        SplitStrategy::Random,
    ] {
        let mut spec = SpecializationConfig::paper_default(4).unwrap();
        spec.strategy = strategy;
        let hierarchy = Specializer::new(spec)
            .specialize(&graph, &mut StdRng::seed_from_u64(2))
            .unwrap();
        for mechanism in [
            NoiseMechanism::GaussianClassic,
            NoiseMechanism::GaussianAnalytic,
            NoiseMechanism::Laplace,
            NoiseMechanism::Geometric,
        ] {
            let config = DisclosureConfig::count_only(0.7, 1e-6)
                .unwrap()
                .with_mechanism(mechanism)
                .with_queries(vec![
                    Query::TotalAssociations,
                    Query::PerGroupCounts,
                    Query::LeftDegreeHistogram { max_degree: 16 },
                ]);
            let release = MultiLevelDiscloser::new(config)
                .disclose(&graph, &hierarchy, &mut StdRng::seed_from_u64(3))
                .unwrap();
            assert_eq!(release.levels().len(), hierarchy.level_count());
            for level in release.levels() {
                assert_eq!(level.queries.len(), 3);
                // Per-group vector length = group count at the level.
                let pg = level.query(Query::PerGroupCounts).unwrap();
                assert_eq!(pg.noisy_values.len() as u64, level.group_count);
            }
        }
    }
}

#[test]
fn rer_ladder_is_monotone_in_level_on_average() {
    let graph = dataset(4);
    let hierarchy = Specializer::new(SpecializationConfig::median(4).unwrap())
        .specialize(&graph, &mut StdRng::seed_from_u64(5))
        .unwrap();
    let discloser = MultiLevelDiscloser::new(DisclosureConfig::count_only(0.5, 1e-6).unwrap());
    let truth = graph.edge_count() as f64;
    let mut rng = StdRng::seed_from_u64(6);
    let trials = 80;
    let level_count = hierarchy.level_count();
    let mut rer = vec![Vec::with_capacity(trials); level_count];
    for _ in 0..trials {
        let release = discloser.disclose(&graph, &hierarchy, &mut rng).unwrap();
        for (i, level) in release.levels().iter().enumerate() {
            rer[i].push((level.total_associations().unwrap(), truth));
        }
    }
    let means: Vec<f64> = rer.into_iter().map(mean_relative_error).collect();
    // Finest vs coarsest must differ by a large factor; interior levels
    // may wobble statistically but the endpoints are unambiguous.
    assert!(
        means[level_count - 1] > 5.0 * means[0],
        "no RER ladder: {means:?}"
    );
    // Weak monotonicity with slack for sampling noise.
    for w in means.windows(2) {
        assert!(w[1] > 0.25 * w[0], "inverted ladder segment: {means:?}");
    }
}

#[test]
fn access_control_composes_with_release() {
    let graph = dataset(7);
    let hierarchy = Specializer::new(SpecializationConfig::median(3).unwrap())
        .specialize(&graph, &mut StdRng::seed_from_u64(8))
        .unwrap();
    let release = MultiLevelDiscloser::new(DisclosureConfig::count_only(0.9, 1e-6).unwrap())
        .disclose(&graph, &hierarchy, &mut StdRng::seed_from_u64(9))
        .unwrap();
    let gated = AccessControlled::new(release).unwrap();
    let levels = hierarchy.level_count();
    for p in 0..levels {
        let view = gated.view(Privilege::new(p));
        assert_eq!(view.len(), levels - p);
        assert!(view.iter().all(|l| l.level >= p));
        if p > 0 {
            assert!(gated.level(Privilege::new(p), p - 1).is_err());
        }
        assert!(gated.level(Privilege::new(p), p).is_ok());
    }
}

#[test]
fn whole_pipeline_deterministic_per_seed() {
    let run = |seed: u64| {
        let graph = dataset(10);
        let mut rng = StdRng::seed_from_u64(seed);
        let hierarchy = Specializer::new(SpecializationConfig::paper_default(4).unwrap())
            .specialize(&graph, &mut rng)
            .unwrap();
        MultiLevelDiscloser::new(DisclosureConfig::count_only(0.5, 1e-6).unwrap())
            .disclose(&graph, &hierarchy, &mut rng)
            .unwrap()
    };
    assert_eq!(run(11), run(11));
    assert_ne!(run(11), run(12));
}

#[test]
fn csv_export_has_one_row_per_level() {
    let graph = dataset(13);
    let hierarchy = Specializer::new(SpecializationConfig::median(3).unwrap())
        .specialize(&graph, &mut StdRng::seed_from_u64(14))
        .unwrap();
    let release = MultiLevelDiscloser::new(DisclosureConfig::count_only(0.5, 1e-6).unwrap())
        .disclose(&graph, &hierarchy, &mut StdRng::seed_from_u64(15))
        .unwrap();
    let csv = release.total_count_csv();
    assert_eq!(csv.trim().lines().count(), hierarchy.level_count() + 1);
}
