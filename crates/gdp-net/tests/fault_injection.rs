//! Deterministic degradation-mode tests: every way the frontend can
//! degrade — queue overflow, deadline expiry, slow-loris stalls, worker
//! panics, injected artifact failures, shutdown mid-flight — is forced
//! with the fault plan and pinned to its documented behavior.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use gdp_graph::Side;
use gdp_net::{client, AnswerRequest, ErrorBody, FaultAction, FaultPlan, Gate, HttpError};
use gdp_serve::Query;

const TIMEOUT: Duration = Duration::from_secs(5);

fn answer_body(dataset: &str) -> String {
    serde_json::to_string(&AnswerRequest {
        dataset: dataset.to_string(),
        epoch: 4,
        privilege: 0,
        level: 0,
        query: Query::SideTotal { side: Side::Left },
    })
    .unwrap()
}

fn error_kind(body: &[u8]) -> String {
    let parsed: ErrorBody = serde_json::from_str(std::str::from_utf8(body).unwrap()).unwrap();
    parsed.kind
}

#[test]
fn queue_overflow_is_refused_with_503_and_retry_after() {
    let gate = Gate::new();
    let faults = FaultPlan::none();
    faults.set("dblp", FaultAction::Hold(gate.clone()));
    let mut config = common::test_config();
    config.workers = 1;
    config.queue_capacity = 1;
    let handle = common::start(config, faults);
    let addr = handle.addr();

    // A occupies the single worker (held open by the gate).
    let a = std::thread::spawn(move || {
        client::post_json(
            addr,
            "/v1/answer",
            &answer_body("dblp"),
            Duration::from_secs(10),
        )
    });
    common::wait_for(&handle, "held request in flight", |s| s.in_flight == 1);

    // B fills the single queue slot.
    let b = std::thread::spawn(move || {
        client::post_json(
            addr,
            "/v1/answer",
            &answer_body("dblp"),
            Duration::from_secs(10),
        )
    });
    common::wait_for(&handle, "queued connection", |s| s.queue_depth == 1);

    // C overflows: an immediate 503 with the Retry-After hint, straight
    // from the acceptor — no unbounded buffering, no silent stall.
    let refused = client::post_json(addr, "/v1/answer", &answer_body("dblp"), TIMEOUT).unwrap();
    assert_eq!(refused.status, 503);
    assert_eq!(refused.header("retry-after"), Some("1"));
    assert_eq!(error_kind(&refused.body), "overloaded");
    assert_eq!(handle.stats().rejected_overflow, 1);

    // Releasing the gate drains A then B in order, both successfully.
    gate.open();
    assert_eq!(a.join().unwrap().unwrap().status, 200);
    assert_eq!(b.join().unwrap().unwrap().status, 200);

    let report = handle.join();
    assert!(report.clean, "{report:?}");
    assert_eq!(report.stats.completed, 2);
    assert_eq!(report.stats.rejected_overflow, 1);
}

#[test]
fn backoff_client_rides_out_backpressure() {
    let gate = Gate::new();
    let faults = FaultPlan::none();
    faults.set("dblp", FaultAction::Hold(gate.clone()));
    let mut config = common::test_config();
    config.workers = 1;
    config.queue_capacity = 1;
    let handle = common::start(config, faults);
    let addr = handle.addr();

    let a = std::thread::spawn(move || {
        client::post_json(
            addr,
            "/v1/answer",
            &answer_body("dblp"),
            Duration::from_secs(10),
        )
    });
    common::wait_for(&handle, "held request in flight", |s| s.in_flight == 1);
    let b = std::thread::spawn(move || {
        client::post_json(
            addr,
            "/v1/answer",
            &answer_body("dblp"),
            Duration::from_secs(10),
        )
    });
    common::wait_for(&handle, "queued connection", |s| s.queue_depth == 1);

    // The gate opens shortly; until then every fresh attempt is a 503,
    // and the backoff client keeps retrying instead of failing.
    let opener = {
        let gate = gate.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            gate.open();
        })
    };
    let (response, retries) = client::with_backoff(
        || client::post_json(addr, "/v1/answer", &answer_body("dblp"), TIMEOUT),
        20,
        Duration::from_millis(25),
        42,
    )
    .unwrap();
    assert_eq!(response.status, 200);
    assert!(
        retries >= 1,
        "expected at least one 503 retry, got {retries}"
    );

    opener.join().unwrap();
    assert_eq!(a.join().unwrap().unwrap().status, 200);
    assert_eq!(b.join().unwrap().unwrap().status, 200);
    assert!(handle.join().clean);
}

#[test]
fn injected_delay_expires_the_request_deadline() {
    let faults = FaultPlan::none();
    faults.set("dblp", FaultAction::Delay(Duration::from_millis(300)));
    let mut config = common::test_config();
    config.request_deadline = Duration::from_millis(100);
    let handle = common::start(config, faults.clone());
    let addr = handle.addr();

    let response = client::post_json(addr, "/v1/answer", &answer_body("dblp"), TIMEOUT).unwrap();
    assert_eq!(response.status, 504);
    assert_eq!(error_kind(&response.body), "deadline_exceeded");
    assert_eq!(handle.stats().deadline_expired, 1);

    // The expiry is per-request: with the fault cleared, the very next
    // request answers normally.
    faults.clear("dblp");
    let response = client::post_json(addr, "/v1/answer", &answer_body("dblp"), TIMEOUT).unwrap();
    assert_eq!(response.status, 200);
    assert!(handle.join().clean);
}

#[test]
fn injected_artifact_failure_is_a_typed_500() {
    let faults = FaultPlan::none();
    faults.set(
        "dblp",
        FaultAction::Fail("artifact shard went unreadable".to_string()),
    );
    let handle = common::start(common::test_config(), faults.clone());
    let addr = handle.addr();

    let response = client::post_json(addr, "/v1/answer", &answer_body("dblp"), TIMEOUT).unwrap();
    assert_eq!(response.status, 500);
    assert_eq!(error_kind(&response.body), "fault_injected");

    faults.clear("dblp");
    let response = client::post_json(addr, "/v1/answer", &answer_body("dblp"), TIMEOUT).unwrap();
    assert_eq!(response.status, 200);
    assert!(handle.join().clean);
}

#[test]
fn slow_loris_connections_are_dropped_on_the_read_timeout() {
    let mut config = common::test_config();
    config.io_timeout = Duration::from_millis(150);
    let handle = common::start(config, FaultPlan::none());
    let addr = handle.addr();

    // Feed a partial request line, then stall. The server must reclaim
    // the worker after its read timeout instead of waiting forever.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"POST /v1/answer HTT").unwrap();
    stream.flush().unwrap();
    common::wait_for(&handle, "slow-loris drop", |s| s.io_timeouts == 1);

    // The server hung up on us...
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut sink = Vec::new();
    assert_eq!(stream.read_to_end(&mut sink).unwrap_or(0), 0);

    // ...and still answers well-behaved clients.
    let response = client::post_json(addr, "/v1/answer", &answer_body("dblp"), TIMEOUT).unwrap();
    assert_eq!(response.status, 200);
    assert!(handle.join().clean);
}

#[test]
fn worker_panics_are_supervised_and_respawned() {
    let faults = FaultPlan::none();
    faults.set("boom", FaultAction::Panic);
    let handle = common::start(common::test_config(), faults);
    let addr = handle.addr();

    for round in 1..=3u64 {
        // The panicking request loses its own connection (the server is
        // mid-unwind, so nothing is written back)...
        let got = client::post_json(addr, "/v1/answer", &answer_body("boom"), TIMEOUT);
        assert!(
            matches!(got, Err(HttpError::Closed) | Err(HttpError::Io(_))),
            "round {round}: expected a dropped connection, got {got:?}"
        );
        // ...the supervisor counts the panic and respawns the pool...
        common::wait_for(&handle, "respawned worker", |s| {
            s.worker_panics == round && s.worker_restarts == round && s.workers == 2
        });
        // ...and the service keeps answering.
        let response =
            client::post_json(addr, "/v1/answer", &answer_body("dblp"), TIMEOUT).unwrap();
        assert_eq!(response.status, 200, "round {round}");
    }

    // The in-flight gauge was unwound correctly every time. The gauge
    // drops just after the last response's bytes land, so wait for it
    // rather than race it.
    common::wait_for(&handle, "in-flight gauge drained", |s| s.in_flight == 0);
    let stats = handle.stats();
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.worker_panics, 3);
    assert_eq!(stats.worker_restarts, 3);
    assert!(handle.join().clean);
}

#[test]
fn graceful_shutdown_drains_in_flight_and_refuses_new_connections() {
    let gate = Gate::new();
    let faults = FaultPlan::none();
    faults.set("dblp", FaultAction::Hold(gate.clone()));
    let handle = common::start(common::test_config(), faults);
    let addr = handle.addr();

    let held = std::thread::spawn(move || {
        client::post_json(
            addr,
            "/v1/answer",
            &answer_body("dblp"),
            Duration::from_secs(10),
        )
    });
    common::wait_for(&handle, "held request in flight", |s| s.in_flight == 1);

    handle.shutdown();
    assert!(handle.is_draining());

    // New connections are refused once the acceptor has stopped (the
    // listener is gone, or a straggler is dropped unanswered).
    let refused_deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if client::get(addr, "/health", Duration::from_millis(250)).is_err() {
            break;
        }
        assert!(
            std::time::Instant::now() < refused_deadline,
            "acceptor kept serving after shutdown"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // The accepted in-flight request still completes — with the server
    // announcing the connection close.
    gate.open();
    let response = held.join().unwrap().unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(response.header("connection"), Some("close"));

    let report = handle.join();
    assert!(report.clean, "{report:?}");
    assert_eq!(report.abandoned_workers, 0);
    assert_eq!(report.abandoned_queue, 0);
    assert_eq!(report.stats.status, "draining");
    assert!(report.stats.completed >= 1);
}

#[test]
fn shutdown_endpoint_triggers_the_same_drain() {
    let handle = common::start(common::test_config(), FaultPlan::none());
    let addr = handle.addr();

    let response = client::post_json(addr, "/shutdown", "", TIMEOUT).unwrap();
    assert_eq!(response.status, 200);
    assert!(String::from_utf8(response.body)
        .unwrap()
        .contains("draining"));
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !handle.is_draining() {
        assert!(std::time::Instant::now() < deadline, "drain flag never set");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(handle.join().clean);
}
