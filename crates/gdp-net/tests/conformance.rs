//! Serving conformance through a real socket: every HTTP answer must be
//! bit-identical to a direct [`AnswerService`] call, and every error
//! must carry its documented status and stable kind.

mod common;

use std::time::Duration;

use gdp_core::Privilege;
use gdp_graph::Side;
use gdp_net::{
    client, AnswerRequest, AnswerResponse, BatchAnswerRequest, BatchAnswerResponse, ErrorBody,
    FaultPlan, HttpError, ReleasesResponse, StatsSnapshot,
};
use gdp_serve::{Query, SubsetQuery, TypedAnswer};

const TIMEOUT: Duration = Duration::from_secs(5);

fn variants() -> Vec<Query> {
    vec![
        Query::SubsetCount(SubsetQuery {
            side: Side::Left,
            nodes: vec![0, 3, 7, 11],
        }),
        Query::GroupMass {
            side: Side::Right,
            group: 0,
        },
        Query::DegreeHistogram { side: Side::Left },
        Query::SideTotal { side: Side::Right },
    ]
}

fn assert_bits_equal(got: &TypedAnswer, want: &TypedAnswer, context: &str) {
    match (got, want) {
        (TypedAnswer::Scalar(g), TypedAnswer::Scalar(w)) => {
            assert_eq!(g.to_bits(), w.to_bits(), "{context}: scalar bits differ");
        }
        (TypedAnswer::Histogram(g), TypedAnswer::Histogram(w)) => {
            assert_eq!(g.len(), w.len(), "{context}: bin count differs");
            for (i, (gb, wb)) in g.iter().zip(w.iter()).enumerate() {
                assert_eq!(gb.to_bits(), wb.to_bits(), "{context}: bin {i} bits differ");
            }
        }
        _ => panic!("{context}: answer shapes differ ({got:?} vs {want:?})"),
    }
}

#[test]
fn http_answers_are_bit_identical_to_direct_calls() {
    let service = common::service();
    let handle = common::start(common::test_config(), FaultPlan::none());
    let levels = service.store().get("dblp", 4).unwrap().level_count();

    for level in 0..levels {
        for query in variants() {
            let direct = service
                .answer_typed("dblp", 4, Privilege::new(0), level, &query)
                .unwrap();
            let body = serde_json::to_string(&AnswerRequest {
                dataset: "dblp".to_string(),
                epoch: 4,
                privilege: 0,
                level,
                query: query.clone(),
            })
            .unwrap();
            let response = client::post_json(handle.addr(), "/v1/answer", &body, TIMEOUT).unwrap();
            assert_eq!(response.status, 200, "level {level} {}", query.name());
            let parsed: AnswerResponse =
                serde_json::from_str(&String::from_utf8(response.body).unwrap()).unwrap();
            let served: TypedAnswer = parsed.answer.into();
            assert_bits_equal(&served, &direct, &format!("level {level} {}", query.name()));
        }
    }

    handle.shutdown();
    assert!(handle.join().clean);
}

#[test]
fn batch_answers_match_direct_batch_in_order() {
    let service = common::service();
    let handle = common::start(common::test_config(), FaultPlan::none());

    let queries = variants();
    let direct = service
        .answer_typed_batch("dblp", 4, Privilege::new(0), 1, &queries)
        .unwrap();
    let body = serde_json::to_string(&BatchAnswerRequest {
        dataset: "dblp".to_string(),
        epoch: 4,
        privilege: 0,
        level: 1,
        queries: queries.clone(),
    })
    .unwrap();
    let response = client::post_json(handle.addr(), "/v1/answer_batch", &body, TIMEOUT).unwrap();
    assert_eq!(response.status, 200);
    let parsed: BatchAnswerResponse =
        serde_json::from_str(&String::from_utf8(response.body).unwrap()).unwrap();
    assert_eq!(parsed.answers.len(), direct.len());
    for (i, (wire, want)) in parsed.answers.into_iter().zip(direct.iter()).enumerate() {
        let served: TypedAnswer = wire.into();
        assert_bits_equal(&served, want, &format!("batch slot {i}"));
    }

    handle.shutdown();
    handle.join();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let handle = common::start(common::test_config(), FaultPlan::none());
    let mut conn = client::ClientConn::connect(handle.addr(), TIMEOUT).unwrap();
    for epoch_probe in 0..20u64 {
        let body = serde_json::to_string(&AnswerRequest {
            dataset: "dblp".to_string(),
            epoch: 4,
            privilege: 0,
            level: (epoch_probe % 3) as usize,
            query: Query::SideTotal { side: Side::Left },
        })
        .unwrap();
        let response = conn
            .send("POST", "/v1/answer", Some(body.as_bytes()))
            .unwrap();
        assert_eq!(response.status, 200, "request {epoch_probe}");
        assert_eq!(response.header("connection"), Some("keep-alive"));
    }
    // All twenty requests rode a single accepted connection. (The
    // completion counter ticks just after the response bytes land, so
    // poll rather than race it.)
    common::wait_for(&handle, "20 completions", |s| s.completed == 20);
    assert_eq!(handle.stats().accepted, 1);
    // Hang up before draining so the worker sees EOF, not a read stall.
    drop(conn);
    handle.shutdown();
    handle.join();
}

#[test]
fn the_request_reaching_the_keep_alive_cap_is_answered_with_connection_close() {
    let mut config = common::test_config();
    config.max_requests_per_connection = 3;
    let handle = common::start(config, FaultPlan::none());
    let mut conn = client::ClientConn::connect(handle.addr(), TIMEOUT).unwrap();
    for (i, want) in ["keep-alive", "keep-alive", "close"]
        .into_iter()
        .enumerate()
    {
        let response = conn.send("GET", "/health", None).unwrap();
        assert_eq!(response.status, 200, "request {i}");
        assert_eq!(response.header("connection"), Some(want), "request {i}");
    }
    // The server ended the connection after the capped response.
    let after = conn.send("GET", "/health", None);
    assert!(
        matches!(after, Err(HttpError::Closed) | Err(HttpError::Io(_))),
        "expected the capped connection to be closed, got {after:?}"
    );
    common::wait_for(&handle, "3 completions", |s| s.completed == 3);
    assert_eq!(handle.stats().accepted, 1);
    handle.shutdown();
    assert!(handle.join().clean);
}

#[test]
fn error_taxonomy_holds_through_the_socket() {
    let handle = common::start(common::test_config(), FaultPlan::none());
    let addr = handle.addr();
    let answer = |dataset: &str, epoch: u64, privilege: usize, level: usize, query: Query| {
        let body = serde_json::to_string(&AnswerRequest {
            dataset: dataset.to_string(),
            epoch,
            privilege,
            level,
            query,
        })
        .unwrap();
        let response = client::post_json(addr, "/v1/answer", &body, TIMEOUT).unwrap();
        let parsed: ErrorBody =
            serde_json::from_str(&String::from_utf8(response.body.clone()).unwrap()).unwrap();
        (response.status, parsed.kind)
    };

    let side_total = Query::SideTotal { side: Side::Left };
    // Privilege 2 asking for level 0 (finer than allowed): denied.
    assert_eq!(
        answer("dblp", 4, 2, 0, side_total.clone()),
        (403, "access_denied".to_string())
    );
    // Unknown dataset and unknown epoch: never published.
    assert_eq!(
        answer("movies", 4, 0, 0, side_total.clone()),
        (404, "unknown_release".to_string())
    );
    assert_eq!(
        answer("dblp", 99, 0, 0, side_total.clone()),
        (404, "unknown_release".to_string())
    );
    // Level beyond the hierarchy: out of range.
    assert_eq!(
        answer("dblp", 4, 0, 99, side_total),
        (404, "level_out_of_range".to_string())
    );
    // A node id past the side's size: the query itself is bad.
    assert_eq!(
        answer(
            "dblp",
            4,
            0,
            0,
            Query::SubsetCount(SubsetQuery {
                side: Side::Left,
                nodes: vec![u32::MAX],
            })
        ),
        (400, "bad_query".to_string())
    );

    // Unparseable body and unknown route.
    let response = client::post_json(addr, "/v1/answer", "{not json", TIMEOUT).unwrap();
    assert_eq!(response.status, 400);
    let parsed: ErrorBody =
        serde_json::from_str(&String::from_utf8(response.body).unwrap()).unwrap();
    assert_eq!(parsed.kind, "bad_json");
    let response = client::get(addr, "/nope", TIMEOUT).unwrap();
    assert_eq!(response.status, 404);

    handle.shutdown();
    handle.join();
}

#[test]
fn health_stats_and_releases_report_the_serving_state() {
    let handle = common::start(common::test_config(), FaultPlan::none());
    let addr = handle.addr();

    let response = client::get(addr, "/health", TIMEOUT).unwrap();
    assert_eq!(response.status, 200);
    assert!(String::from_utf8(response.body).unwrap().contains("\"ok\""));

    // The release listing carries everything needed to build queries.
    let response = client::get(addr, "/v1/releases", TIMEOUT).unwrap();
    assert_eq!(response.status, 200);
    let listing: ReleasesResponse =
        serde_json::from_str(&String::from_utf8(response.body).unwrap()).unwrap();
    assert_eq!(listing.releases.len(), 1);
    let info = &listing.releases[0];
    assert_eq!((info.dataset.as_str(), info.epoch), ("dblp", 4));
    assert!(info.levels >= 2);
    assert!(info.left_nodes > 0 && info.right_nodes > 0);
    assert_eq!(info.left_groups.len(), info.levels);
    assert_eq!(info.right_groups.len(), info.levels);
    // Coarser levels never have more groups than finer ones.
    for w in info.left_groups.windows(2) {
        assert!(w[0] >= w[1] || w[1] == 0);
    }

    // Serve one of each variant, then check /stats adds up.
    for query in variants() {
        let body = serde_json::to_string(&AnswerRequest {
            dataset: "dblp".to_string(),
            epoch: 4,
            privilege: 0,
            level: 0,
            query,
        })
        .unwrap();
        assert_eq!(
            client::post_json(addr, "/v1/answer", &body, TIMEOUT)
                .unwrap()
                .status,
            200
        );
    }
    let response = client::get(addr, "/stats", TIMEOUT).unwrap();
    assert_eq!(response.status, 200);
    let stats: StatsSnapshot =
        serde_json::from_str(&String::from_utf8(response.body).unwrap()).unwrap();
    assert_eq!(stats.status, "ok");
    assert_eq!(stats.per_variant.subset_count, 1);
    assert_eq!(stats.per_variant.group_mass, 1);
    assert_eq!(stats.per_variant.degree_histogram, 1);
    assert_eq!(stats.per_variant.side_total, 1);
    assert_eq!(stats.cache.misses, 4);
    assert_eq!(stats.cache.entries, 4);
    assert_eq!(stats.workers, 2);
    assert_eq!(stats.queue_capacity, 16);
    // The /stats GET itself is still in flight while snapshotting.
    assert!(stats.in_flight >= 1);

    handle.shutdown();
    let report = handle.join();
    assert!(report.clean);
    assert_eq!(report.abandoned_workers, 0);
    assert_eq!(report.abandoned_queue, 0);
}

#[test]
fn oversized_bodies_are_refused_with_413() {
    let mut config = common::test_config();
    config.max_body_bytes = 256;
    let handle = common::start(config, FaultPlan::none());
    let huge = format!("{{\"pad\":\"{}\"}}", "x".repeat(1024));
    let response = client::post_json(handle.addr(), "/v1/answer", &huge, TIMEOUT).unwrap();
    assert_eq!(response.status, 413);
    common::wait_for(&handle, "bad_requests", |s| s.bad_requests == 1);
    handle.shutdown();
    handle.join();
}
