//! Fixed-seed bytes of the two-phase pipeline.
//!
//! The specializer splits each block from its own seeded `StdRng`
//! stream and the discloser releases each level from its own stream;
//! every stream's seed is drawn in task order from the master generator
//! (see `docs/determinism.md`). So a fixed seed fixes every released
//! bit. The tests below pin those bytes: XXH64 digests of the sealed
//! `.gda` encoding of a full exponential-specializer + disclose run.
//!
//! The digests were recorded when both phases still fanned their tasks
//! out over a thread pool, at one and at two threads, and the two agreed.
//! The thread-count test names are kept from then: the pins now check
//! that the sequential pipeline still writes exactly those bytes.

use group_dp::core::{
    codec, DisclosureConfig, MultiLevelDiscloser, MultiLevelRelease, NoiseMechanism, Query,
    ReleaseArtifact, SpecializationConfig, Specializer,
};
use group_dp::datagen::{DblpConfig, DblpGenerator};
use group_dp::graph::io::xxh64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// XXH64 of the sealed `.gda` encoding of [`full_pipeline`]'s output
/// at seed 77, per mechanism.
const PINNED_RELEASES: [(NoiseMechanism, u64); 3] = [
    (NoiseMechanism::GaussianClassic, 0x0d08_07d0_3b2c_7922),
    (NoiseMechanism::Laplace, 0x7c13_1d17_7921_3edc),
    (NoiseMechanism::Geometric, 0xf773_4cf5_2223_56e6),
];

fn full_pipeline(seed: u64, mechanism: NoiseMechanism) -> ReleaseArtifact {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
    let hierarchy = Specializer::new(SpecializationConfig::paper_default(4).expect("valid rounds"))
        .specialize(&graph, &mut rng)
        .expect("specialization succeeds");
    let discloser = MultiLevelDiscloser::new(
        DisclosureConfig::count_only(0.5, 1e-6)
            .expect("valid budget")
            .with_mechanism(mechanism)
            .with_queries(vec![
                Query::TotalAssociations,
                Query::PerGroupCounts,
                Query::LeftDegreeHistogram { max_degree: 16 },
            ]),
    );
    let release = discloser
        .disclose(&graph, &hierarchy, &mut rng)
        .expect("disclosure succeeds");
    ReleaseArtifact::seal("det", 1, hierarchy, release).expect("release seals")
}

#[test]
fn fixed_seed_release_is_bit_identical_across_thread_counts() {
    for (mechanism, pinned) in PINNED_RELEASES {
        let bytes = codec::encode(&full_pipeline(77, mechanism)).expect("release encodes");
        assert_eq!(xxh64(&bytes), pinned, "{mechanism:?} release bytes moved");
    }
}

#[test]
fn repeated_runs_at_same_thread_count_are_identical() {
    let a = full_pipeline(5, NoiseMechanism::GaussianAnalytic);
    let b = full_pipeline(5, NoiseMechanism::GaussianAnalytic);
    assert_eq!(a, b);
}

/// `disclose` answers every level from the `HierarchyStats` cache (one
/// edge sweep + rollups); `disclose_level` is the per-level rescan
/// baseline. Feeding both the same per-level RNG streams must produce
/// **bit-identical** releases.
#[test]
fn cached_disclosure_is_bit_identical_to_per_level_rescan_path() {
    for mechanism in [
        NoiseMechanism::GaussianClassic,
        NoiseMechanism::Laplace,
        NoiseMechanism::Geometric,
    ] {
        let seed = 123u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
        let hierarchy =
            Specializer::new(SpecializationConfig::paper_default(4).expect("valid rounds"))
                .specialize(&graph, &mut rng)
                .expect("specialization succeeds");
        let discloser = MultiLevelDiscloser::new(
            DisclosureConfig::count_only(0.5, 1e-6)
                .expect("valid budget")
                .with_mechanism(mechanism)
                .with_queries(vec![
                    Query::TotalAssociations,
                    Query::PerGroupCounts,
                    Query::LeftDegreeHistogram { max_degree: 16 },
                    Query::GroupSizeCounts,
                ]),
        );

        // Cached path, exactly as `disclose` runs it.
        let mut disclose_rng = rng.clone();
        let cached = discloser
            .disclose(&graph, &hierarchy, &mut disclose_rng)
            .expect("cached disclosure succeeds");

        // Uncached composition: replicate the seed schedule (one u64 per
        // level, drawn sequentially from the master RNG) and release
        // every level through the rescan path.
        let seeds: Vec<u64> = hierarchy
            .levels()
            .iter()
            .map(|_| rng.gen::<u64>())
            .collect();
        let levels = hierarchy
            .levels()
            .iter()
            .enumerate()
            .map(|(i, level)| {
                let mut level_rng = StdRng::seed_from_u64(seeds[i]);
                discloser
                    .disclose_level(&graph, level, i, &mut level_rng)
                    .expect("per-level rescan succeeds")
            })
            .collect();
        let uncached = MultiLevelRelease::new(
            discloser.config().mechanism,
            discloser.config().epsilon_g.get(),
            discloser.config().delta.get(),
            levels,
        )
        .expect("release assembles");

        assert_eq!(cached, uncached, "{mechanism:?} cached != rescan");
    }
}
