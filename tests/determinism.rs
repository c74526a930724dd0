//! Thread-count invariance of the parallel two-phase pipeline.
//!
//! The specializer fans block splits out across rayon workers and the
//! discloser fans levels out; both thread per-task seeded `StdRng`
//! streams drawn sequentially from the master generator. This test pins
//! the resulting guarantee: a fixed-seed disclosure is **bit-identical**
//! under `RAYON_NUM_THREADS=1` and under a multi-thread pool.
//!
//! The in-tree rayon stand-in re-reads `RAYON_NUM_THREADS` on every
//! parallel call, so the env var can be flipped mid-process. The two
//! tests below each restore the prior value; they also serialize on a
//! mutex because Rust runs `#[test]`s of one binary concurrently and the
//! env var is process-global.

use std::sync::Mutex;

use group_dp::core::{
    DisclosureConfig, MultiLevelDiscloser, MultiLevelRelease, NoiseMechanism, Query,
    SpecializationConfig, Specializer,
};
use group_dp::datagen::{DblpConfig, DblpGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_thread_count<R>(threads: &str, f: impl FnOnce() -> R) -> R {
    let prior = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", threads);
    let out = f();
    match prior {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    out
}

fn full_pipeline(seed: u64, mechanism: NoiseMechanism) -> MultiLevelRelease {
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
    discloser
        .disclose(&graph, &hierarchy, &mut rng)
        .expect("disclosure succeeds")
}

#[test]
fn fixed_seed_release_is_bit_identical_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    for mechanism in [
        NoiseMechanism::GaussianClassic,
        NoiseMechanism::Laplace,
        NoiseMechanism::Geometric,
    ] {
        let single = with_thread_count("1", || full_pipeline(77, mechanism));
        let multi = with_thread_count("8", || full_pipeline(77, mechanism));
        let default_pool = full_pipeline(77, mechanism);
        // PartialEq covers every noisy value, scale and metadata field.
        assert_eq!(
            single, multi,
            "{mechanism:?} differed between 1 and 8 threads"
        );
        assert_eq!(
            single, default_pool,
            "{mechanism:?} differed between 1 thread and the default pool"
        );
    }
}

#[test]
fn repeated_runs_at_same_thread_count_are_identical() {
    let _guard = ENV_LOCK.lock().unwrap();
    let a = with_thread_count("3", || full_pipeline(5, NoiseMechanism::GaussianAnalytic));
    let b = with_thread_count("3", || full_pipeline(5, NoiseMechanism::GaussianAnalytic));
    assert_eq!(a, b);
}

/// `disclose` answers every level from the `HierarchyStats` cache (one
/// edge sweep + rollups); `disclose_level` is the per-level rescan
/// baseline. Feeding both the same per-level RNG streams must produce
/// **bit-identical** releases — the PR-1 output is unchanged — and the
/// cached path must stay thread-count invariant.
#[test]
fn cached_disclosure_is_bit_identical_to_per_level_rescan_path() {
    let _guard = ENV_LOCK.lock().unwrap();
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

        // And the cached path itself is thread-count invariant.
        let single = with_thread_count("1", || {
            discloser
                .disclose(&graph, &hierarchy, &mut rng.clone())
                .expect("disclosure succeeds")
        });
        let multi = with_thread_count("8", || {
            discloser
                .disclose(&graph, &hierarchy, &mut rng.clone())
                .expect("disclosure succeeds")
        });
        assert_eq!(single, multi, "{mechanism:?} thread-count variant");
    }
}
