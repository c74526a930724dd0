//! The epoch-chain smoke the CI pipeline leans on: publish epoch 0,
//! advance to epoch 1 through the incremental `publish_next` path
//! (edge delta → dirty-row statistics update → sealed artifact), serve
//! **both** epochs back from a directory store, and require the
//! over-budget epoch 2 to be refused with the typed
//! `BudgetExhausted` error while the session and the store stay intact.
//! The cumulative cross-epoch ledger must be stamped into every
//! manifest and must survive the `.gda` codec (see `docs/epochs.md`).

use group_dp::core::{
    ArtifactFormat, CoreError, DisclosureConfig, DisclosureSession, Privilege, Query,
    ReleaseArtifact, SpecializationConfig, Specializer,
};
use group_dp::datagen::{DblpConfig, DblpGenerator};
use group_dp::graph::{EdgeDelta, Side};
use group_dp::mechanisms::{MechanismError, PrivacyBudget};
use group_dp::serve::{AnswerService, Query as ServeQuery, ReleaseStore};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn epoch_chain_publishes_serves_and_enforces_the_ledger() {
    let dir = std::env::temp_dir().join(format!("gdp-epoch-chain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let mut rng = StdRng::seed_from_u64(31);
    let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
    let hierarchy = Specializer::new(SpecializationConfig::paper_default(3).unwrap())
        .specialize(&graph, &mut rng)
        .unwrap();

    // The authorized total admits exactly two epochs of this config.
    let config = DisclosureConfig::count_only(0.5, 1e-6)
        .unwrap()
        .with_queries(vec![
            Query::TotalAssociations,
            Query::PerGroupCounts,
            Query::LeftDegreeHistogram { max_degree: 32 },
        ]);
    let total = PrivacyBudget::new(1.0, 2e-6).unwrap();
    let mut session = DisclosureSession::new(graph.clone(), hierarchy, total);

    // Epoch 0: full publish.
    let (a0, p0) = session
        .publish_to_dir_as(&config, "chain", 0, &dir, ArtifactFormat::Binary, &mut rng)
        .unwrap();
    let l0 = a0.manifest().ledger.as_ref().expect("ledger stamped");
    assert_eq!(l0.releases, 1);
    assert!((l0.epoch_epsilon - 0.5).abs() < 1e-12);
    assert!((l0.cumulative_epsilon - 0.5).abs() < 1e-12);
    assert!((l0.total_epsilon - 1.0).abs() < 1e-12);

    // Epoch 1: incremental publish from a delta (drop the first two
    // edges, add two absent pairs).
    let deletes: Vec<_> = graph.edges().take(2).collect();
    let mut inserts = Vec::new();
    for l in 0..graph.left_count() {
        for r in 0..graph.right_count() {
            let (l, r) = (l.into(), r.into());
            if inserts.len() < 2 && !graph.has_edge(l, r) {
                inserts.push((l, r));
            }
        }
    }
    let delta = EdgeDelta::new(inserts, deletes);
    let (a1, p1) = session
        .publish_next_to_dir_as(
            &config,
            "chain",
            &delta,
            &dir,
            ArtifactFormat::Binary,
            &mut rng,
        )
        .unwrap();
    assert_eq!(a1.epoch(), 1);
    // The published artifacts share the session's hierarchy, whose
    // content-digest memo sealing filled; a `.gda` reload carries none.
    // Equality sees only the levels, and the ledger block survives the
    // codec.
    for (published, path) in [(&a0, &p0), (&a1, &p1)] {
        assert_eq!(&ReleaseArtifact::load(path).unwrap(), published);
    }
    let l1 = a1.manifest().ledger.as_ref().expect("ledger stamped");
    assert_eq!(l1.releases, 2);
    assert!((l1.cumulative_epsilon - 1.0).abs() < 1e-12);
    assert_eq!(l1.remaining_epsilon(), 0.0);
    assert!(l1.exhausted());

    // Epoch 2 would overdraw the chain: typed refusal, session intact —
    // the base epoch is still epoch 1, the graph still the epoch-1
    // graph, and no third artifact lands in the store.
    let graph_before = session.graph().clone();
    let err = session
        .publish_next_to_dir_as(
            &config,
            "chain",
            &EdgeDelta::empty(),
            &dir,
            ArtifactFormat::Binary,
            &mut rng,
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Mechanism(MechanismError::BudgetExhausted { .. })
        ),
        "wanted BudgetExhausted, got {err:?}"
    );
    assert_eq!(session.last_published(), Some(("chain", 1)));
    assert_eq!(session.graph(), &graph_before);

    // Serve both epochs back from the directory store.
    let store = ReleaseStore::open_dir(&dir).unwrap();
    assert_eq!(store.epochs("chain"), vec![0, 1]);
    let service = AnswerService::new(store);
    let q = ServeQuery::SideTotal { side: Side::Left };
    for epoch in [0u64, 1] {
        let answer = service
            .answer_typed("chain", epoch, Privilege::full(), 1, &q)
            .unwrap_or_else(|e| panic!("epoch {epoch} must answer: {e}"));
        drop(answer);
    }

    std::fs::remove_dir_all(&dir).ok();
}
