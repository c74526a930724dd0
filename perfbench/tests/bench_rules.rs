//! The benchmark's own rules: which tail percentiles a sample supports,
//! the gap and residual arithmetic, and that wrong outputs lower
//! `success_rate` and make the run incorrect.

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::SeedableRng;

use gdp_core::{ArtifactFormat, DisclosureSession, SpecializationConfig, Specializer};
use gdp_datagen::{DblpConfig, DblpGenerator};
use gdp_graph::Side;
use gdp_net::{AnswerResponse, BatchAnswerResponse, Response, WireAnswer};
use gdp_serve::{IndexedRelease, Query, SubsetQuery, TypedAnswer};

use perfbench::report::{Report, Tally};
use perfbench::stats::{self, Latency};
use perfbench::{fixture, verify};

#[test]
fn a_tail_needs_ten_samples_beyond_it() {
    assert_eq!(stats::beyond(1000, 0.99), 10);
    assert!(stats::tail_supported(1000, 0.99));
    assert!(!stats::tail_supported(999, 0.99));
    assert!(stats::tail_supported(100, 0.90));
    assert!(!stats::tail_supported(99, 0.90));
    assert_eq!(stats::samples_for_tail(0.99), 1000);
    assert_eq!(stats::samples_for_tail(0.90), 100);
    assert_eq!(stats::beyond(0, 0.5), 0);
}

#[test]
fn quantiles_are_nearest_rank() {
    let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(stats::quantile(&sorted, 0.5), 5.0);
    assert_eq!(stats::quantile(&sorted, 0.9), 9.0);
    assert_eq!(stats::quantile(&sorted, 0.99), 10.0);
    assert_eq!(stats::quantile(&sorted, 0.0), 1.0);
    assert!(stats::quantile(&[], 0.5).is_nan());
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), 2.0);
}

#[test]
fn unsupported_tails_fall_back_to_the_whole_run() {
    // 99 samples: p90 has 9 beyond, so no chunk supports it.
    let samples: Vec<f64> = (1..=99).map(f64::from).collect();
    assert_eq!(stats::tail(&samples, 0.90), (90.0, 0));
    // 100 samples: exactly one chunk, the whole run.
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(stats::tail(&samples, 0.90), (90.0, 1));
}

#[test]
fn supported_tails_are_the_median_of_chunk_tails() {
    // Three chunks of 1000; the middle one is slow throughout its tail,
    // the last one has a one-off spike at its very top.
    let mut samples = Vec::new();
    for chunk in 0..3 {
        for i in 0..1000 {
            let base = f64::from(i) / 1000.0;
            let slow = if chunk == 1 && i >= 900 { 50.0 } else { 0.0 };
            samples.push(base + slow);
        }
    }
    samples[2999] = 1e9;
    let (p99, chunks) = stats::tail(&samples, 0.99);
    assert_eq!(chunks, 3);
    // Chunk p99s are 0.989, 50.989 and 0.989: the median ignores the
    // disturbed chunk.
    assert!((p99 - 0.989).abs() < 1e-12, "{p99}");
    let (p90, chunks) = stats::tail(&samples, 0.90);
    assert_eq!(chunks, 10);
    assert!(p90 < 1.0, "{p90}");
}

#[test]
fn throughput_is_the_median_chunk_rate() {
    // Ten chunks of one 1 ms op each, except one 100 ms op.
    let mut latencies = vec![1.0; 10];
    latencies[4] = 100.0;
    assert_eq!(stats::throughput(&latencies), 1000.0);
    let summary = Latency::of(&latencies);
    assert_eq!(summary.n, 10);
    assert_eq!(summary.p50, 1.0);
    assert_eq!(summary.p90.1, 0, "10 samples cannot support p90");
    assert!(summary.describe().contains("NOT met"));
}

#[test]
fn gap_is_the_op_minus_its_layers() {
    assert_eq!(stats::gap(10.0, &[2.0, 3.0, 4.0]), 1.0);
    assert_eq!(stats::gap(9.0, &[2.0, 3.0, 4.0]), 0.0);
    assert!(stats::gap(8.0, &[2.0, 3.0, 4.0]) < 0.0);
    assert_eq!(stats::gap(5.0, &[]), 5.0);
}

#[test]
fn transport_is_the_round_trip_minus_each_requests_layers() {
    let residuals = stats::residuals(&[50.0, 60.0], &[vec![1.0, 2.0, 3.0], vec![10.0]]);
    assert_eq!(residuals, vec![44.0, 50.0]);
    assert_eq!(stats::overhead_pct(110.0, 100.0), 10.0);
    assert_eq!(stats::overhead_pct(95.0, 100.0), -5.0);
}

/// A small sealed release chain published by the same session API the
/// benchmark drives, in a directory of its own.
fn published(name: &str) -> (PathBuf, gdp_core::ReleaseArtifact, IndexedRelease) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    let mut rng = StdRng::seed_from_u64(5);
    let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
    let hierarchy = Specializer::new(SpecializationConfig::paper_default(3).unwrap())
        .specialize(&graph, &mut rng)
        .unwrap();
    let mut session = DisclosureSession::new(graph, hierarchy, fixture::budget_for(2));
    let (artifact, path) = session
        .publish_to_dir_as(
            &fixture::disclosure(),
            fixture::DATASET,
            1,
            &dir,
            ArtifactFormat::Binary,
            &mut rng,
        )
        .unwrap();
    let indexed = IndexedRelease::new(artifact.clone()).unwrap();
    (path, artifact, indexed)
}

#[test]
fn a_tampered_artifact_lowers_success_rate() {
    let (path, artifact, _) = published("tampered");
    let mut tally = Tally::default();
    tally.record(verify::check_artifact(&path, &artifact, 1));
    assert_eq!(tally.success_rate(), 1.0);

    // The ledger must account for exactly the epochs published.
    assert!(verify::check_artifact(&path, &artifact, 2).is_err());

    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    tally.record(verify::check_artifact(&path, &artifact, 1));
    assert_eq!(tally.failed(), 1);
    assert!(tally.success_rate() < 1.0);

    let mut report = Report {
        tally,
        ..Report::default()
    };
    report.metric("success_rate", report.tally.success_rate(), "ratio");
    assert!(!report.correct());
    assert!(report
        .render_json()
        .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
}

#[test]
fn a_corrupted_reference_answer_lowers_success_rate() {
    let (_, _, indexed) = published("corrupted");
    let query = Query::SideTotal { side: Side::Left };
    let reference = indexed.answer(0, &query).unwrap();
    // The body exactly as the server renders it.
    let body = Response::json(
        200,
        &AnswerResponse {
            answer: WireAnswer::from(&reference),
        },
    )
    .body;

    let mut tally = Tally::default();
    tally.record(verify::served_answer(&body, &reference));
    assert_eq!(tally.success_rate(), 1.0);

    // One ulp off is a wrong answer.
    let value = reference.scalar().unwrap();
    let corrupted = TypedAnswer::Scalar(f64::from_bits(value.to_bits() ^ 1));
    tally.record(verify::served_answer(&body, &corrupted));
    assert!(tally.success_rate() < 1.0);

    // A batch with one wrong answer fails as a whole.
    let queries: Vec<Query> = (0..4)
        .map(|i| {
            Query::SubsetCount(SubsetQuery {
                side: Side::Left,
                nodes: vec![i, i + 5],
            })
        })
        .collect();
    let answers: Vec<WireAnswer> = queries
        .iter()
        .map(|q| WireAnswer::from(&indexed.answer(0, q).unwrap()))
        .collect();
    let good = Response::json(
        200,
        &BatchAnswerResponse {
            answers: answers.clone(),
        },
    )
    .body;
    assert!(verify::served_batch(&good, &queries, &indexed, 0).is_ok());
    let mut wrong = answers;
    wrong[2] = WireAnswer::Scalar(-1.0);
    let bad = Response::json(200, &BatchAnswerResponse { answers: wrong }).body;
    tally.record(verify::served_batch(&bad, &queries, &indexed, 0));
    assert_eq!(tally.failed(), 2);
}

#[test]
fn a_demoted_op_counts_once() {
    let mut tally = Tally::default();
    tally.ok();
    tally.ok();
    tally.demote("found wrong after the timed phase");
    assert_eq!((tally.attempted(), tally.failed()), (2, 1));
    assert_eq!(tally.success_rate(), 0.5);
}

#[test]
fn deltas_are_balanced_and_valid() {
    let mut rng = StdRng::seed_from_u64(9);
    let mut graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
    let edges = graph.edge_count();
    let mut source = fixture::DeltaSource::new(3, graph.left_count());
    for _ in 0..5 {
        let delta = source.next(&graph);
        assert_eq!(
            delta.insert_count(),
            delta.delete_count() + (delta.len() % 2)
        );
        graph.apply_delta_in_place(&delta).unwrap();
    }
    assert!(graph.edge_count().abs_diff(edges) <= 5);
}

#[test]
fn the_metric_lists_match_benchmark_json() {
    use serde::Value;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let field = |map: &[(String, Value)], key: &str| -> Value {
        map.iter().find(|(k, _)| k == key).unwrap().1.clone()
    };
    let listed = |key: &str| -> Vec<(String, String)> {
        let Value::Seq(items) = field(json.as_map().unwrap(), key) else {
            panic!("{key} is not a list")
        };
        items
            .iter()
            .map(|item| {
                let map = item.as_map().unwrap();
                match (field(map, "name"), field(map, "unit")) {
                    (Value::Str(n), Value::Str(u)) => (n, u),
                    other => panic!("{other:?}"),
                }
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&perfbench::END_TO_END));
    assert_eq!(listed("per_layer"), own(&perfbench::PER_LAYER));
}
