//! Publish → serve: seal a multi-level release into an on-disk
//! artifact, load it back, and answer subset-count workloads through
//! the privilege-gated serving subsystem.
//!
//! **Paper scenario:** the deployment half of the multi-privilege model
//! (Section V) — the published bundle `{I_{L,i}}` is the long-lived
//! product; audiences holding different privileges consume different
//! levels of the *same* artifact, and every answer is pure
//! post-processing (no further privacy budget is spent, however many
//! queries arrive).
//!
//! ```text
//! cargo run --release --example serving
//! ```
//!
//! **Expected output:** the artifact manifest summary after a save→load
//! round trip through a `.gda` file (schema v6, byte count, level/group
//! shape), then one
//! four-author subset query answered at the finest level each privilege
//! may read. Full clearance reads level 0 (full resolution, but four
//! singleton groups' worth of noise lands on this tiny subset);
//! privilege 3 and 6 read coarser levels whose per-node pre-mass
//! averages the noise down — smaller absolute deviation, blurrier
//! structure: the multi-level design's resolution/noise trade-off.
//! Then the typed query surface at level 3 (one group's raw
//! noisy mass, the left-side total, the released degree histogram —
//! all through the same privilege gate), a privilege-enforcement
//! demonstration (level finer than clearance → `AccessDenied`) and a
//! memoization line showing the replayed workload was served entirely
//! from cache. Exact noisy values vary with the build's RNG stream but
//! are deterministic for a fixed seed.

use group_dp::core::{
    DisclosureConfig, DisclosureSession, Privilege, Query, ReleaseArtifact, SpecializationConfig,
    Specializer,
};
use group_dp::datagen::{DblpConfig, DblpGenerator};
use group_dp::graph::Side;
use group_dp::mechanisms::PrivacyBudget;
use group_dp::serve::{
    AnswerService, IndexedRelease, Query as TypedQuery, ReleaseStore, SubsetQuery,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2_2017);

    // ---- publisher side -------------------------------------------------
    let graph = DblpGenerator::new(DblpConfig::laptop_scale()).generate(&mut rng);
    let truth: f64 = (0..4u32)
        .map(|a| graph.left_degree(group_dp::graph::LeftId::new(a)) as f64)
        .sum();
    let hierarchy =
        Specializer::new(SpecializationConfig::paper_default(6)?).specialize(&graph, &mut rng)?;
    let mut session = DisclosureSession::new(graph, hierarchy, PrivacyBudget::new(1.0, 1e-5)?);
    let config = DisclosureConfig::count_only(0.8, 1e-6)?.with_queries(vec![
        Query::TotalAssociations,
        Query::PerGroupCounts,
        Query::LeftDegreeHistogram { max_degree: 32 },
    ]);
    let artifact = session.publish(&config, "dblp-weekly", 1, &mut rng)?;

    // The artifact is the on-disk product: save it as a `.gda` file,
    // then serve from the loaded copy (lossless by construction —
    // pinned by property tests).
    let dir = std::env::temp_dir().join(format!("gdp-serving-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(ReleaseArtifact::canonical_file_name("dblp-weekly", 1));
    artifact.save_atomic(&path)?;
    let bytes = std::fs::metadata(&path)?.len();
    let loaded = ReleaseArtifact::load(&path)?;
    std::fs::remove_dir_all(&dir)?;
    assert_eq!(artifact, loaded);
    let manifest = loaded.manifest();
    println!(
        "artifact `{}` epoch {}: schema v{}, {} bytes, {} levels, {} → {} groups\n",
        manifest.dataset,
        manifest.epoch,
        manifest.schema_version,
        bytes,
        manifest.level_count,
        manifest.group_counts.first().unwrap(),
        manifest.group_counts.last().unwrap(),
    );

    // ---- serving side ---------------------------------------------------
    let store = ReleaseStore::new();
    store.insert(IndexedRelease::new(loaded)?)?;
    let service = AnswerService::new(store);

    let query = TypedQuery::SubsetCount(SubsetQuery {
        side: Side::Left,
        nodes: vec![0, 1, 2, 3],
    });
    println!("subset {{authors 0–3}} (true incident count {truth}):");
    println!("privilege  answered_level  estimate   |error|");
    for privilege in [Privilege::full(), Privilege::new(3), Privilege::new(6)] {
        let level = service
            .finest_allowed("dblp-weekly", 1, privilege)?
            .expect("privilege maps to a level");
        let estimate = service
            .answer_typed("dblp-weekly", 1, privilege, level, &query)?
            .scalar()
            .unwrap();
        println!(
            "{:>9}  {:>14}  {:>8.1}  {:>8.1}",
            privilege.finest_level(),
            level,
            estimate,
            (estimate - truth).abs()
        );
    }

    // The typed query surface: the same privilege-gated, memoized path
    // serves group masses, the released degree histogram and side
    // totals — every variant pure post-processing, every answer
    // bit-identical to a rescan of the raw release.
    let level = 3;
    let mass = service
        .answer_typed(
            "dblp-weekly",
            1,
            Privilege::new(3),
            level,
            &TypedQuery::GroupMass {
                side: Side::Left,
                group: 0,
            },
        )?
        .scalar()
        .unwrap();
    let total = service
        .answer_typed(
            "dblp-weekly",
            1,
            Privilege::new(3),
            level,
            &TypedQuery::SideTotal { side: Side::Left },
        )?
        .scalar()
        .unwrap();
    let hist = service.answer_typed(
        "dblp-weekly",
        1,
        Privilege::new(3),
        level,
        &TypedQuery::DegreeHistogram { side: Side::Left },
    )?;
    let bins = hist.histogram().unwrap();
    println!(
        "\ntyped queries at level {level}: group 0 mass {mass:.1}, left total {total:.1}, \
         degree histogram [{} bins, noisy mass {:.0}]",
        bins.len(),
        bins.iter().sum::<f64>()
    );

    // Enforcement: a privilege-3 reader asking for the individual level
    // is refused before any value is touched.
    let denied = service.answer_typed("dblp-weekly", 1, Privilege::new(3), 0, &query);
    println!("\nprivilege 3 requesting level 0: {}", denied.unwrap_err());

    // Post-processing is budget-free, so the service memoizes: replay
    // the whole workload and watch the cache absorb it.
    for privilege in [Privilege::full(), Privilege::new(3), Privilege::new(6)] {
        let level = service
            .finest_allowed("dblp-weekly", 1, privilege)?
            .unwrap();
        service.answer_typed("dblp-weekly", 1, privilege, level, &query)?;
    }
    let stats = service.cache_stats();
    println!(
        "cache: {} entries, {} hits, {} misses — repeated queries cost nothing \
         (and no privacy budget either: ledger still shows eps {:.1} spent)",
        stats.entries,
        stats.hits,
        stats.misses,
        session.accountant().spent_epsilon(),
    );
    Ok(())
}
