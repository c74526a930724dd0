//! Serve → consume over HTTP: start the hardened network frontend over
//! an in-process answering service, drive it with the bundled client,
//! and drain it gracefully.
//!
//! **Paper scenario:** the last hop of the consumer path (Section V) —
//! the sealed multi-level release is a network service now, and the
//! privacy guarantees only reach real readers if that service stays up
//! under load. Everything here is pure post-processing (no budget is
//! spent per request), so the frontend's whole job is availability:
//! bounded queueing with explicit `503` backpressure, per-request
//! deadlines, slow-peer socket timeouts, supervised workers, and a
//! drain that finishes accepted work before exiting.
//!
//! ```text
//! cargo run --release --example http_frontend
//! ```
//!
//! **Expected output:** the bound address, one answer per query
//! variant fetched over a real socket (each verified bit-identical to
//! the direct in-process call), a `/stats` line showing the per-variant
//! counters and memo-cache hit rate, and a clean drain report.

use std::sync::Arc;
use std::time::Duration;

use group_dp::core::ReleaseArtifact;
use group_dp::core::{
    DisclosureConfig, MultiLevelDiscloser, Privilege, Query, SpecializationConfig, Specializer,
};
use group_dp::datagen::{DblpConfig, DblpGenerator};
use group_dp::graph::Side;
use group_dp::net::{client, AnswerRequest, AnswerResponse, FaultPlan, Server, ServerConfig};
use group_dp::serve::{
    AnswerService, IndexedRelease, Query as TypedQuery, ReleaseStore, SubsetQuery, TypedAnswer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // Publish a tiny release into an in-memory store.
    let mut rng = StdRng::seed_from_u64(90);
    let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
    let hierarchy = Specializer::new(SpecializationConfig::median(3).unwrap())
        .specialize(&graph, &mut rng)
        .unwrap();
    let release = MultiLevelDiscloser::new(
        DisclosureConfig::count_only(0.9, 1e-6)
            .unwrap()
            .with_queries(vec![
                Query::PerGroupCounts,
                Query::LeftDegreeHistogram { max_degree: 12 },
            ]),
    )
    .disclose(&graph, &hierarchy, &mut rng)
    .unwrap();
    let artifact = ReleaseArtifact::seal("dblp", 1, hierarchy, release).unwrap();
    let store = ReleaseStore::new();
    store
        .insert(IndexedRelease::new(artifact).unwrap())
        .unwrap();
    let service = Arc::new(AnswerService::new(store));

    // Start the frontend on a free port.
    let handle = Server::start(
        Arc::clone(&service),
        ServerConfig::default(),
        FaultPlan::none(),
    )
    .expect("bind the frontend");
    println!("serving on http://{}", handle.addr());

    // One query per variant, over a real socket.
    let queries = [
        TypedQuery::SubsetCount(SubsetQuery {
            side: Side::Left,
            nodes: vec![0, 3, 7, 11],
        }),
        TypedQuery::GroupMass {
            side: Side::Left,
            group: 0,
        },
        TypedQuery::DegreeHistogram { side: Side::Left },
        TypedQuery::SideTotal { side: Side::Right },
    ];
    for query in &queries {
        let body = serde_json::to_string(&AnswerRequest {
            dataset: "dblp".to_string(),
            epoch: 1,
            privilege: 0,
            level: 1,
            query: query.clone(),
        })
        .unwrap();
        let response =
            client::post_json(handle.addr(), "/v1/answer", &body, Duration::from_secs(5))
                .expect("request over the socket");
        assert_eq!(response.status, 200);
        let parsed: AnswerResponse =
            serde_json::from_str(&String::from_utf8(response.body).unwrap()).unwrap();
        let served: TypedAnswer = parsed.answer.into();

        // The HTTP answer is bit-identical to the direct call.
        let direct = service
            .answer_typed("dblp", 1, Privilege::new(0), 1, query)
            .unwrap();
        match (&served, &direct) {
            (TypedAnswer::Scalar(s), TypedAnswer::Scalar(d)) => {
                assert_eq!(s.to_bits(), d.to_bits());
                println!("{:<16} -> {s:.3}", query.name());
            }
            (TypedAnswer::Histogram(s), TypedAnswer::Histogram(d)) => {
                assert_eq!(s.len(), d.len());
                assert!(s
                    .iter()
                    .zip(d.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
                println!(
                    "{:<16} -> histogram[{} bins, mass {:.1}]",
                    query.name(),
                    s.len(),
                    s.iter().sum::<f64>()
                );
            }
            _ => unreachable!("shapes differ"),
        }
    }

    // Observability: the counters the operator would watch.
    let stats = handle.stats();
    println!(
        "mid-run stats: {} completed, variants {:?}, cache hit rate {:.0}%",
        stats.completed,
        (
            stats.per_variant.subset_count,
            stats.per_variant.group_mass,
            stats.per_variant.degree_histogram,
            stats.per_variant.side_total,
        ),
        stats.cache.hit_rate * 100.0
    );

    // Graceful drain: finish accepted work, refuse new connections.
    let report = handle.join();
    println!(
        "drained: clean={} ({} answered in total)",
        report.clean, report.stats.completed
    );
    assert!(report.clean);
}
