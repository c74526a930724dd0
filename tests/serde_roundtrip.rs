//! JSON round-trips of the artifacts a deployment persists: release
//! bundles, hierarchies, configurations. Uses the workspace's std-only
//! `serde_json` stand-in (see `vendor/README.md`).

use group_dp::core::{
    AccessControlled, DisclosureConfig, GroupHierarchy, MultiLevelDiscloser, MultiLevelRelease,
    Query, SpecializationConfig, Specializer,
};
use group_dp::datagen::{DblpConfig, DblpGenerator};
use group_dp::graph::BipartiteGraph;
use group_dp::mechanisms::{Epsilon, PrivacyBudget};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup() -> (BipartiteGraph, GroupHierarchy, MultiLevelRelease) {
    let mut rng = StdRng::seed_from_u64(30);
    let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
    let hierarchy = Specializer::new(SpecializationConfig::median(3).unwrap())
        .specialize(&graph, &mut rng)
        .unwrap();
    let release = MultiLevelDiscloser::new(
        DisclosureConfig::count_only(0.5, 1e-6)
            .unwrap()
            .with_queries(vec![Query::TotalAssociations, Query::PerGroupCounts]),
    )
    .disclose(&graph, &hierarchy, &mut rng)
    .unwrap();
    (graph, hierarchy, release)
}

#[test]
fn release_bundle_round_trips() {
    let (_, _, release) = setup();
    let json = serde_json::to_string(&release).unwrap();
    let back: MultiLevelRelease = serde_json::from_str(&json).unwrap();
    assert_eq!(release, back);
}

#[test]
fn hierarchy_round_trips() {
    let (_, hierarchy, _) = setup();
    let json = serde_json::to_string(&hierarchy).unwrap();
    let back: GroupHierarchy = serde_json::from_str(&json).unwrap();
    assert_eq!(hierarchy, back);
}

#[test]
fn graph_round_trips() {
    let (graph, _, _) = setup();
    let json = serde_json::to_string(&graph).unwrap();
    let back: BipartiteGraph = serde_json::from_str(&json).unwrap();
    assert_eq!(graph, back);
}

#[test]
fn gated_release_round_trips() {
    let (_, _, release) = setup();
    let gated = AccessControlled::new(release).unwrap();
    let json = serde_json::to_string(&gated).unwrap();
    let back: AccessControlled = serde_json::from_str(&json).unwrap();
    assert_eq!(gated, back);
}

#[test]
fn sealed_artifact_round_trips_and_stays_answerable() {
    use group_dp::core::{Privilege, ReleaseArtifact};
    use group_dp::graph::Side;
    use group_dp::serve::{
        AnswerService, IndexedRelease, Query as ServeQuery, ReleaseStore, SubsetQuery,
    };

    let (_, hierarchy, release) = setup();
    let artifact = ReleaseArtifact::seal("dblp", 7, hierarchy, release).unwrap();
    let json = serde_json::to_string(&artifact).unwrap();
    let back: ReleaseArtifact = serde_json::from_str(&json).unwrap();
    assert_eq!(artifact, back);

    // The loaded artifact serves the same answers as the original.
    let answer_from = |a: ReleaseArtifact| {
        let store = ReleaseStore::new();
        store.insert(IndexedRelease::new(a).unwrap()).unwrap();
        AnswerService::new(store)
            .answer_typed(
                "dblp",
                7,
                Privilege::full(),
                0,
                &ServeQuery::SubsetCount(SubsetQuery {
                    side: Side::Left,
                    nodes: vec![0, 1, 2, 3],
                }),
            )
            .unwrap()
            .scalar()
            .unwrap()
    };
    assert_eq!(answer_from(artifact).to_bits(), answer_from(back).to_bits());
}

#[test]
fn validated_newtypes_reject_bad_json() {
    // Epsilon deserialization goes through the validating constructor.
    assert!(serde_json::from_str::<Epsilon>("0.5").is_ok());
    assert!(serde_json::from_str::<Epsilon>("0.0").is_err());
    assert!(serde_json::from_str::<Epsilon>("-1.0").is_err());
    // A budget with invalid delta is rejected as a whole.
    assert!(serde_json::from_str::<PrivacyBudget>(r#"{"epsilon":0.5,"delta":1.5}"#).is_err());
    assert!(serde_json::from_str::<PrivacyBudget>(r#"{"epsilon":0.5,"delta":1e-6}"#).is_ok());
}

#[test]
fn configs_round_trip() {
    let spec = SpecializationConfig::paper_default(5).unwrap();
    let json = serde_json::to_string(&spec).unwrap();
    let back: SpecializationConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(spec, back);

    let disc = DisclosureConfig::count_only(0.5, 1e-6).unwrap();
    let json = serde_json::to_string(&disc).unwrap();
    let back: DisclosureConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(disc, back);
}
