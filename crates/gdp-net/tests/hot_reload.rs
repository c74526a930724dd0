//! Live store lifecycle through a real socket: admin reloads and the
//! supervised watcher pick up freshly published epochs *while serving*,
//! GC'd epochs retire into typed 404s, and reload failures degrade to
//! counters — the releases already held keep answering bit-for-bit.

mod common;

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gdp_graph::Side;
use gdp_net::{
    client, AnswerRequest, ErrorBody, FaultPlan, ReloadConfig, ReloadResponse, Server,
    ServerConfig, ServerHandle,
};
use gdp_serve::{AnswerService, Query, ReleaseStore};

const TIMEOUT: Duration = Duration::from_secs(5);

fn answer_body(dataset: &str, epoch: u64) -> String {
    serde_json::to_string(&AnswerRequest {
        dataset: dataset.to_string(),
        epoch,
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

/// A store directory holding `dblp` epochs 1 and 2, atomically written.
fn seed_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gdp-hot-reload-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    for epoch in [1, 2] {
        common::artifact("dblp", epoch)
            .save_atomic(dir.join(format!("dblp-e{epoch}.gda")))
            .unwrap();
    }
    dir
}

/// Starts a server over a degraded open of `dir` with `reload`.
fn start_dir_server(dir: &Path, reload: ReloadConfig) -> ServerHandle {
    let (store, report) = ReleaseStore::open_dir_report(dir).unwrap();
    assert_eq!(
        report.quarantined(),
        0,
        "seed dir must be clean: {report:?}"
    );
    let config = ServerConfig {
        reload,
        ..common::test_config()
    };
    Server::start(
        Arc::new(AnswerService::new(store)),
        config,
        FaultPlan::none(),
    )
    .expect("bind hot-reload test server")
}

#[test]
fn admin_reload_under_traffic_serves_old_and_new_epochs() {
    let dir = seed_dir("admin");
    let handle = start_dir_server(&dir, ReloadConfig::manual(&dir));
    let addr = handle.addr();

    // Continuous traffic against the already-served epochs while the
    // third is published and hot-loaded: every response must be inside
    // the typed taxonomy, and since these queries are all valid, that
    // means 200 — a reload never costs a request.
    let stop = Arc::new(AtomicBool::new(false));
    let traffic: Vec<_> = (0..2)
        .map(|worker| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || -> Result<u64, String> {
                let body = answer_body("dblp", 1 + worker as u64 % 2);
                let mut served = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let response = client::post_json(addr, "/v1/answer", &body, TIMEOUT)
                        .map_err(|e| format!("transport error mid-reload: {e:?}"))?;
                    if response.status != 200 {
                        return Err(format!(
                            "non-taxonomy failure: {} ({})",
                            response.status,
                            error_kind(&response.body)
                        ));
                    }
                    served += 1;
                }
                Ok(served)
            })
        })
        .collect();

    // Publish epoch 3 mid-flight, then reload on demand.
    common::artifact("dblp", 3)
        .save_atomic(dir.join("dblp-e3.gda"))
        .unwrap();
    let response = client::post_json(addr, "/v1/admin/reload", "", TIMEOUT).unwrap();
    assert_eq!(response.status, 200);
    let reload: ReloadResponse =
        serde_json::from_str(std::str::from_utf8(&response.body).unwrap()).unwrap();
    assert_eq!(reload.report.loaded(), 1, "{}", reload.summary);
    assert_eq!(reload.report.already_registered(), 2, "{}", reload.summary);

    // The fresh epoch answers immediately; a served epoch still does.
    for epoch in [3, 1] {
        let response =
            client::post_json(addr, "/v1/answer", &answer_body("dblp", epoch), TIMEOUT).unwrap();
        assert_eq!(response.status, 200, "epoch {epoch} after reload");
    }

    stop.store(true, Ordering::SeqCst);
    for thread in traffic {
        let served = thread.join().unwrap().expect("traffic stayed clean");
        assert!(served > 0, "traffic thread never got a request through");
    }

    // The store section accounts for the whole lifecycle.
    let stats = handle.stats();
    assert_eq!(stats.store.datasets, 1);
    assert_eq!(stats.store.epochs, 3);
    assert_eq!(stats.store.reload_attempts, 1);
    assert_eq!(stats.store.reload_failures, 0);
    assert_eq!(stats.store.epochs_loaded_live, 1);
    assert!(
        stats.store.last_reload.starts_with("ok: "),
        "{}",
        stats.store.last_reload
    );
    assert!(
        !stats.store.watcher_alive,
        "manual config must not spawn a watcher"
    );

    assert!(handle.join().clean);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn watcher_auto_loads_new_epochs_and_is_counted() {
    let dir = seed_dir("watcher");
    let handle = start_dir_server(&dir, ReloadConfig::watch(&dir, Duration::from_millis(25)));
    let addr = handle.addr();
    common::wait_for(&handle, "watcher alive", |s| s.store.watcher_alive);

    common::artifact("dblp", 3)
        .save_atomic(dir.join("dblp-e3.gda"))
        .unwrap();
    common::wait_for(&handle, "watcher to pick up epoch 3", |s| {
        s.store.epochs == 3
    });
    let response = client::post_json(addr, "/v1/answer", &answer_body("dblp", 3), TIMEOUT).unwrap();
    assert_eq!(response.status, 200);

    // Deleting a backing file retires its release on the next sweep —
    // consumers get the typed 404, not stale answers.
    std::fs::remove_file(dir.join("dblp-e1.gda")).unwrap();
    common::wait_for(&handle, "watcher to retire epoch 1", |s| {
        s.store.epochs == 2
    });
    let response = client::post_json(addr, "/v1/answer", &answer_body("dblp", 1), TIMEOUT).unwrap();
    assert_eq!(response.status, 404);
    assert_eq!(error_kind(&response.body), "unknown_release");

    let stats = handle.stats();
    assert!(stats.store.reload_attempts >= 2, "{stats:?}");
    assert_eq!(stats.store.epochs_loaded_live, 1);
    assert_eq!(stats.store.epochs_retired, 1);

    let report = handle.join();
    assert!(report.clean);
    assert!(
        !report.stats.store.watcher_alive,
        "watcher must exit on drain"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scanned_entries_keep_one_index_across_a_ledger_pass() {
    // A scan indexes every file before registering it, so the `/stats`
    // ledger pass (a `get` on every epoch) only reads: each entry is
    // the same `Arc` before and after it.
    let dir = seed_dir("ledger");
    let (store, _) = ReleaseStore::open_dir_report(&dir).unwrap();
    let before = [1, 2].map(|epoch| store.get("dblp", epoch).unwrap());
    gdp_net::ledger_section(&store);
    for (epoch, held) in [1, 2].into_iter().zip(&before) {
        let after = store.get("dblp", epoch).unwrap();
        assert!(Arc::ptr_eq(held, &after), "epoch {epoch} was re-indexed");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reload_without_directory_is_a_typed_400() {
    // The stock test server holds a programmatic store: nothing to
    // reload from, and the endpoint says so instead of 404ing.
    let handle = common::start(common::test_config(), FaultPlan::none());
    let response = client::post_json(handle.addr(), "/v1/admin/reload", "", TIMEOUT).unwrap();
    assert_eq!(response.status, 400);
    assert_eq!(error_kind(&response.body), "reload_unavailable");
    let stats = handle.stats();
    assert_eq!(stats.store.reload_attempts, 0);
    assert_eq!(stats.store.last_reload, "never");
    assert!(handle.join().clean);
}

#[test]
fn reload_failure_degrades_while_serving_continues() {
    let dir = seed_dir("degrade");
    let handle = start_dir_server(&dir, ReloadConfig::manual(&dir));
    let addr = handle.addr();

    // Vandalize one artifact in place: the reload quarantines it, the
    // already-validated in-memory copy keeps serving.
    std::fs::write(dir.join("dblp-e2.gda"), "{ vandalized").unwrap();
    let response = client::post_json(addr, "/v1/admin/reload", "", TIMEOUT).unwrap();
    assert_eq!(response.status, 200);
    let reload: ReloadResponse =
        serde_json::from_str(std::str::from_utf8(&response.body).unwrap()).unwrap();
    assert_eq!(reload.report.quarantined(), 1, "{}", reload.summary);
    let response = client::post_json(addr, "/v1/answer", &answer_body("dblp", 2), TIMEOUT).unwrap();
    assert_eq!(
        response.status, 200,
        "vandalized epoch keeps serving from memory"
    );

    // Losing the directory wholesale is the unrecoverable shape: a
    // typed 500, a failure counter — and serving still continues.
    std::fs::remove_dir_all(&dir).unwrap();
    let response = client::post_json(addr, "/v1/admin/reload", "", TIMEOUT).unwrap();
    assert_eq!(response.status, 500);
    assert_eq!(error_kind(&response.body), "reload_failed");
    let stats = handle.stats();
    assert_eq!(stats.store.reload_attempts, 2);
    assert_eq!(stats.store.reload_failures, 1);
    assert_eq!(stats.store.quarantined, 1);
    assert!(
        stats.store.last_reload.starts_with("failed: "),
        "{}",
        stats.store.last_reload
    );
    for epoch in [1, 2] {
        let response =
            client::post_json(addr, "/v1/answer", &answer_body("dblp", epoch), TIMEOUT).unwrap();
        assert_eq!(
            response.status, 200,
            "epoch {epoch} survives a dead directory"
        );
    }
    assert!(handle.join().clean);
    std::fs::remove_dir_all(&dir).ok();
}
