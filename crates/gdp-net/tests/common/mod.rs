//! Shared fixture: a real answering service behind a real socket.

use std::sync::Arc;
use std::time::Duration;

use gdp_core::{
    DisclosureConfig, MultiLevelDiscloser, Query as CoreQuery, ReleaseArtifact,
    SpecializationConfig, Specializer,
};
use gdp_datagen::{DblpConfig, DblpGenerator};
use gdp_net::{FaultPlan, Server, ServerConfig, ServerHandle};
use gdp_serve::{AnswerService, IndexedRelease, ReleaseStore};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A sealed release over a tiny deterministic graph.
pub fn artifact(dataset: &str, epoch: u64) -> ReleaseArtifact {
    let mut rng = StdRng::seed_from_u64(90);
    let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
    let hierarchy = Specializer::new(SpecializationConfig::median(3).unwrap())
        .specialize(&graph, &mut rng)
        .unwrap();
    let release = MultiLevelDiscloser::new(
        DisclosureConfig::count_only(0.9, 1e-6)
            .unwrap()
            .with_queries(vec![
                CoreQuery::PerGroupCounts,
                CoreQuery::LeftDegreeHistogram { max_degree: 12 },
            ]),
    )
    .disclose(&graph, &hierarchy, &mut rng)
    .unwrap();
    ReleaseArtifact::seal(dataset, epoch, hierarchy, release).unwrap()
}

/// An [`AnswerService`] holding `dblp` epoch 4.
pub fn service() -> Arc<AnswerService> {
    let store = ReleaseStore::new();
    store
        .insert(IndexedRelease::new(artifact("dblp", 4)).unwrap())
        .unwrap();
    Arc::new(AnswerService::new(store))
}

/// A config sized for fast tests: small pool, tight-but-not-flaky
/// timeouts.
pub fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 16,
        request_deadline: Duration::from_secs(5),
        io_timeout: Duration::from_secs(5),
        drain_deadline: Duration::from_secs(5),
        retry_after_secs: 1,
        max_body_bytes: 1 << 20,
        max_requests_per_connection: 1000,
        reload: gdp_net::ReloadConfig::default(),
    }
}

/// Starts a server over [`service`] with `config` and `faults`.
pub fn start(config: ServerConfig, faults: FaultPlan) -> ServerHandle {
    Server::start(service(), config, faults).expect("bind test server")
}

/// Polls `predicate` against the handle's stats until it holds or 5 s
/// pass (fails the test on timeout).
pub fn wait_for<F: Fn(&gdp_net::StatsSnapshot) -> bool>(
    handle: &ServerHandle,
    what: &str,
    predicate: F,
) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if predicate(&handle.stats()) {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for {what}: {:?}",
            handle.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}
