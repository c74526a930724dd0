//! The publish workloads, driven in process through `DisclosureSession`
//! (the API `gdp publish` calls).
//!
//! * `publish_full` — one operation is a whole base publish: edge-list
//!   bytes → `read_edge_list` → `Specializer::specialize` →
//!   `DisclosureSession::publish_to_dir_as` (`.gda`, fsync'd atomic write).
//! * `publish_epochs` — one operation is one incremental epoch on a
//!   long-lived session: `EdgeDelta::from_text` →
//!   `DisclosureSession::publish_next_to_dir_as`.
//!
//! The traced run replays each operation through the public calls the
//! session makes, in the same order on the same inputs and RNG state,
//! timing each call, and checks that the replay writes the same bytes.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use gdp_core::{
    codec, ArtifactFormat, DisclosureConfig, DisclosureSession, GroupHierarchy, HierarchyStats,
    ManifestLedger, MultiLevelDiscloser, MultiLevelRelease, ReleaseArtifact, SpecializationConfig,
    Specializer,
};
use gdp_graph::{io as graph_io, BipartiteGraph, DegreeHistogram, EdgeDelta};

use crate::fixture::{self, DeltaSource, DATASET, DELTA, EPSILON};
use crate::report::Report;
use crate::stats::{self, Latency};
use crate::trace::Tracer;
use crate::{text, verify, Opts};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Untimed epochs before `publish_epochs` starts timing: they size the
/// thread-local delta scratch the steady state reuses.
const WARMUP_EPOCHS: u64 = 3;
/// Releases the `publish_epochs` budget authorizes — more than any run
/// can publish, so the whole run is authorized up front (and the total
/// `δ` stays below 1).
const AUTHORIZED_EPOCHS: u64 = 100_000;

/// The publish layers a traced operation is split into, in call order.
const FULL_LAYERS: [&str; 7] = [
    "graph.io.read_edge_list_ms",
    "core.specialize_ms",
    "core.stats.compute_ms",
    "core.disclosure.noise_ms",
    "core.artifact.seal_ms",
    "core.codec.encode_ms",
    "graph.io.atomic_write_ms",
];
const EPOCH_LAYERS: [&str; 7] = [
    "graph.delta.from_text_ms",
    "graph.delta.apply_ms",
    "core.stats.apply_delta_ms",
    "core.disclosure.noise_ms",
    "core.artifact.seal_ms",
    "core.codec.encode_ms",
    "graph.io.atomic_write_ms",
];
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A fresh, empty directory.
fn fresh_dir(path: PathBuf) -> Result<PathBuf, String> {
    if path.exists() {
        std::fs::remove_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// The ledger a session stamps, replayed for the traced path: sequential
/// composition of one fixed charge, summed in the accountant's order.
#[derive(Debug, Clone)]
struct LedgerReplay {
    spent_epsilon: f64,
    spent_delta: f64,
    releases: u64,
    authorized: u64,
}

impl LedgerReplay {
    fn new(authorized: u64) -> Self {
        Self {
            spent_epsilon: 0.0,
            spent_delta: 0.0,
            releases: 0,
            authorized,
        }
    }

    fn charge(&mut self) -> ManifestLedger {
        let total = fixture::budget_for(self.authorized);
        self.spent_epsilon += EPSILON;
        self.spent_delta += DELTA;
        self.releases += 1;
        ManifestLedger {
            epoch_epsilon: EPSILON,
            epoch_delta: DELTA,
            cumulative_epsilon: self.spent_epsilon,
            cumulative_delta: self.spent_delta,
            total_epsilon: total.epsilon.get(),
            total_delta: total.delta.get(),
            releases: self.releases,
        }
    }
}

/// The common tail of both traced replays: noise, seal, encode, write.
#[allow(clippy::too_many_arguments)]
fn traced_release_tail(
    tracer: &mut Tracer,
    op: u64,
    discloser_config: &DisclosureConfig,
    graph: &BipartiteGraph,
    hierarchy: &GroupHierarchy,
    stats: &HierarchyStats,
    rng: &mut StdRng,
    epoch: u64,
    ledger: ManifestLedger,
    dir: &Path,
) -> Result<Vec<u8>, String> {
    let release = tracer.span("core.disclosure.noise_ms", op, Some("op"), || {
        let hist = DegreeHistogram::from_degrees(&graph.left_degrees());
        MultiLevelDiscloser::new(discloser_config.clone())
            .disclose_from_stats(hierarchy, stats, &hist, rng)
    });
    let release = release.map_err(text)?;
    let hierarchy = hierarchy.clone();
    let artifact = tracer.span("core.artifact.seal_ms", op, Some("op"), || {
        ReleaseArtifact::seal_with_ledger(DATASET, epoch, hierarchy, release, ledger)
    });
    let artifact = artifact.map_err(text)?;
    let bytes = tracer.span("core.codec.encode_ms", op, Some("op"), || {
        codec::encode(&artifact)
    });
    let bytes = bytes.map_err(text)?;
    let path = dir.join(ReleaseArtifact::canonical_file_name_as(
        DATASET,
        epoch,
        ArtifactFormat::Binary,
    ));
    tracer
        .span("graph.io.atomic_write_ms", op, Some("op"), || {
            graph_io::atomic_write_bytes(&bytes, &path)
        })
        .map_err(text)?;
    Ok(bytes)
}

/// Compares a traced replay's bytes with what the session wrote.
fn same_bytes(untraced: &Path, traced: &[u8]) -> Result<(), String> {
    let written = std::fs::read(untraced).map_err(|e| format!("{}: {e}", untraced.display()))?;
    if written == traced {
        Ok(())
    } else {
        Err(format!(
            "traced replay of {} wrote different bytes ({} vs {})",
            untraced.display(),
            traced.len(),
            written.len()
        ))
    }
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(f64::NAN, |m| m.len() as f64)
}

/// End-to-end metrics shared by both publish workloads.
fn publish_metrics(
    report: &mut Report,
    setup_s: &[f64],
    latencies_ms: &[f64],
    sizes: &[f64],
    peaks_mb: &[f64],
    rel_error: f64,
) {
    let p = Latency::of(latencies_ms);
    report.note("latency samples", p.describe());
    report.note(
        "setup samples",
        format!("{} (median reported)", setup_s.len()),
    );
    report.metric("setup_s", stats::median(setup_s), "s");
    report.metric("throughput_ops", p.throughput, "ops/s");
    report.metric("latency_p50_ms", p.p50, "ms");
    report.metric("latency_p90_ms", p.p90.0, "ms");
    report.metric("latency_p99_ms", p.p99.0, "ms");
    report.metric("success_rate", report.tally.success_rate(), "ratio");
    report.metric("rss_mb", stats::median(peaks_mb), "MB");
    let mut sorted = sizes.to_vec();
    sorted.sort_by(f64::total_cmp);
    report.metric("artifact_bytes", stats::quantile(&sorted, 0.5), "bytes");
    report.metric("release_rel_error", rel_error, "ratio");
}

/// Per-layer metrics of a traced publish run: each layer's median, the
/// gap between the untraced operation and the layers, and the tracing
/// overhead; then the spans are written out.
fn publish_layers(
    report: &mut Report,
    tracer: &Tracer,
    layers: &[&str],
    untraced_ms: &[f64],
    datagen_ms: &[f64],
    opts: &Opts,
) -> Result<(), String> {
    report.metric("datagen.generate_ms", stats::median(datagen_ms), "ms");
    let mut medians = Vec::new();
    for &name in layers {
        let median = stats::median(&tracer.durations_ms(name));
        report.metric(name, median, "ms");
        medians.push(median);
    }
    let untraced = stats::median(untraced_ms);
    let traced_ops = tracer.durations_ms("op");
    let traced = stats::median(&traced_ops);
    report.metric("publish.gap_ms", stats::gap(untraced, &medians), "ms");
    report.metric(
        "trace.overhead_pct",
        stats::overhead_pct(traced, untraced),
        "%",
    );
    report.note(
        "traced ops",
        format!(
            "{} (untraced median {untraced:.3} ms, traced median {traced:.3} ms)",
            traced_ops.len()
        ),
    );
    crate::write_spans(tracer, opts, report)
}

/// One untraced full publish, exactly as `gdp publish` runs it.
fn full_publish(
    edge_list: &[u8],
    spec: &SpecializationConfig,
    config: &DisclosureConfig,
    op_seed: u64,
    dir: &Path,
) -> Result<(DisclosureSession, ReleaseArtifact, PathBuf), String> {
    let graph = graph_io::read_edge_list(edge_list).map_err(text)?;
    let mut rng = StdRng::seed_from_u64(op_seed);
    let hierarchy = Specializer::new(*spec)
        .specialize(&graph, &mut rng)
        .map_err(text)?;
    let mut session = DisclosureSession::new(graph, hierarchy, fixture::budget_for(1));
    let (artifact, path) = session
        .publish_to_dir_as(config, DATASET, 1, dir, ArtifactFormat::Binary, &mut rng)
        .map_err(text)?;
    Ok((session, artifact, path))
}

/// The same full publish, one timed span per public call.
fn traced_full_publish(
    tracer: &mut Tracer,
    op: u64,
    edge_list: &[u8],
    spec: &SpecializationConfig,
    config: &DisclosureConfig,
    op_seed: u64,
    dir: &Path,
) -> Result<Vec<u8>, String> {
    let started = Instant::now();
    let graph = tracer
        .span("graph.io.read_edge_list_ms", op, Some("op"), || {
            graph_io::read_edge_list(edge_list)
        })
        .map_err(text)?;
    let mut rng = StdRng::seed_from_u64(op_seed);
    let hierarchy = tracer
        .span("core.specialize_ms", op, Some("op"), || {
            Specializer::new(*spec).specialize(&graph, &mut rng)
        })
        .map_err(text)?;
    let stats = tracer
        .span("core.stats.compute_ms", op, Some("op"), || {
            HierarchyStats::compute(&graph, &hierarchy)
        })
        .map_err(text)?;
    let ledger = LedgerReplay::new(1).charge();
    let bytes = traced_release_tail(
        tracer, op, config, &graph, &hierarchy, &stats, &mut rng, 1, ledger, dir,
    )?;
    tracer.record("op", op, started, Instant::now());
    Ok(bytes)
}

/// Seed of operation `i` of a `publish_full` run.
fn op_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x2545_F491_4F6C_DD1D)
        .wrapping_add(i.wrapping_mul(0x9E37_79B9))
}

/// Runs `publish_full`.
pub fn run_full(opts: &Opts) -> Report {
    let mut report = Report::default();
    if let Err(e) = run_full_into(opts, &mut report) {
        report.check("workload ran to completion", Err(e));
    }
    report
}

fn run_full_into(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let dir = fresh_dir(opts.work.join("publish_full"))?;
    let traced_dir = fresh_dir(opts.work.join("publish_full-traced"))?;
    report.note("artifact filesystem", fixture::filesystem_of(&dir));

    // Set-up: input generation (graph, then its edge-list bytes).
    let mut setup_s = Vec::new();
    let mut datagen_ms = Vec::new();
    let mut edge_list = Vec::new();
    for _ in 0..SETUP_REPS {
        edge_list = Vec::new();
        let started = Instant::now();
        let graph = fixture::generate(opts.seed);
        datagen_ms.push(ms(started.elapsed()));
        graph_io::write_edge_list(&graph, &mut edge_list).map_err(text)?;
        setup_s.push(started.elapsed().as_secs_f64());
    }
    report.note("edge list", format!("{} bytes", edge_list.len()));

    let spec = fixture::specialization();
    let config = fixture::disclosure();
    let mut tracer = Tracer::new();
    let mut latencies = Vec::new();
    let mut sizes = Vec::new();
    let mut last: Option<(DisclosureSession, ReleaseArtifact)> = None;
    let mut peaks_mb = Vec::new();
    let steal = fixture::StealWatch::start();
    let started = Instant::now();
    let mut i = 0u64;
    while i == 0 || started.elapsed().as_secs_f64() < opts.seconds {
        let seed_i = op_seed(opts.seed, i);
        // rss_mb is the operation's own peak: nothing of the previous
        // operation or of input generation counts.
        drop(last.take());
        fixture::reset_peak_rss();
        let t = Instant::now();
        let result = full_publish(&edge_list, &spec, &config, seed_i, &dir);
        let took = ms(t.elapsed());
        peaks_mb.extend(fixture::peak_rss_mb("self"));
        match result {
            Ok((session, artifact, path)) => {
                latencies.push(took);
                sizes.push(file_len(&path));
                let mut outcome = verify::check_artifact(&path, &artifact, 1);
                if opts.trace && outcome.is_ok() {
                    outcome = traced_full_publish(
                        &mut tracer,
                        i,
                        &edge_list,
                        &spec,
                        &config,
                        seed_i,
                        &traced_dir,
                    )
                    .and_then(|bytes| same_bytes(&path, &bytes));
                }
                report.tally.record(outcome);
                last = Some((session, artifact));
            }
            Err(e) => report.tally.fail(format!("publish {i}: {e}")),
        }
        i += 1;
    }
    report.note("host steal during the timed phase", steal.describe());

    let rel_error = match &last {
        Some((session, artifact)) => {
            let truth =
                HierarchyStats::compute(session.graph(), session.hierarchy()).map_err(text)?;
            verify::release_rel_error(artifact.release(), &truth)?
        }
        None => f64::NAN,
    };
    if opts.trace {
        publish_layers(report, &tracer, &FULL_LAYERS, &latencies, &datagen_ms, opts)?;
    } else {
        publish_metrics(report, &setup_s, &latencies, &sizes, &peaks_mb, rel_error);
    }
    Ok(())
}

/// The traced replay's own copy of the session state.
struct Shadow {
    graph: BipartiteGraph,
    hierarchy: GroupHierarchy,
    stats: HierarchyStats,
    ledger: LedgerReplay,
}

/// Runs `publish_epochs`.
pub fn run_epochs(opts: &Opts) -> Report {
    let mut report = Report::default();
    if let Err(e) = run_epochs_into(opts, &mut report) {
        report.check("workload ran to completion", Err(e));
    }
    report
}

fn run_epochs_into(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let dir = fresh_dir(opts.work.join("publish_epochs"))?;
    let traced_dir = fresh_dir(opts.work.join("publish_epochs-traced"))?;
    report.note("artifact filesystem", fixture::filesystem_of(&dir));
    let config = fixture::disclosure();

    // Set-up: input generation, specialization and the base epoch.
    let mut setup_s = Vec::new();
    let mut datagen_ms = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let started = Instant::now();
        let graph = fixture::generate(opts.seed);
        datagen_ms.push(ms(started.elapsed()));
        let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x0070_7562_6c69_7368);
        let hierarchy = Specializer::new(fixture::specialization())
            .specialize(&graph, &mut rng)
            .map_err(text)?;
        let mut session =
            DisclosureSession::new(graph, hierarchy, fixture::budget_for(AUTHORIZED_EPOCHS));
        let (artifact, path) = session
            .publish_to_dir_as(&config, DATASET, 1, &dir, ArtifactFormat::Binary, &mut rng)
            .map_err(text)?;
        setup_s.push(started.elapsed().as_secs_f64());
        state = Some((session, rng, artifact, path));
    }
    let (mut session, mut rng, base, base_path) = state.expect("SETUP_REPS is positive");
    report.check(
        "base epoch reloads",
        verify::check_artifact(&base_path, &base, 1),
    );
    report.note(
        "graph",
        format!(
            "{} left x {} right, {} edges",
            session.graph().left_count(),
            session.graph().right_count(),
            session.graph().edge_count()
        ),
    );

    let mut source = DeltaSource::new(opts.seed, session.graph().left_count());
    let mut epochs = 1u64;
    let mut previous = base_path;
    let mut warmup = Ok(());
    for _ in 0..WARMUP_EPOCHS {
        let delta = source.next(session.graph());
        let (artifact, path) = session
            .publish_next_to_dir_as(
                &config,
                DATASET,
                &delta,
                &dir,
                ArtifactFormat::Binary,
                &mut rng,
            )
            .map_err(text)?;
        epochs += 1;
        warmup = warmup.and(verify::check_artifact(&path, &artifact, epochs));
        let _ = std::fs::remove_file(&previous);
        previous = path;
    }
    report.check("warm-up epochs reload", warmup);

    let mut shadow = opts.trace.then(|| {
        let graph = session.graph().clone();
        let hierarchy = session.hierarchy().clone();
        let stats = HierarchyStats::compute(&graph, &hierarchy);
        let mut ledger = LedgerReplay::new(AUTHORIZED_EPOCHS);
        for _ in 0..epochs {
            ledger.charge();
        }
        stats.map(|stats| Shadow {
            graph,
            hierarchy,
            stats,
            ledger,
        })
    });
    if let Some(Err(e)) = &shadow {
        return Err(format!("shadow stats: {e}"));
    }
    let mut shadow = shadow.take().map(|s| s.expect("checked above"));

    let mut tracer = Tracer::new();
    let mut latencies = Vec::new();
    let mut sizes = Vec::new();
    let mut last: Option<(StdRng, ReleaseArtifact)> = None;
    let mut peaks_mb = Vec::new();
    let steal = fixture::StealWatch::start();
    let started = Instant::now();
    let mut op = 0u64;
    while op == 0 || started.elapsed().as_secs_f64() < opts.seconds {
        let delta_text = source.next(session.graph()).to_text();
        let rng_before = rng.clone();
        // rss_mb is the epoch's own peak: the previous epoch's artifact
        // and set-up's transients do not count.
        last = None;
        fixture::reset_peak_rss();
        let t = Instant::now();
        let result = EdgeDelta::from_text(&delta_text)
            .map_err(text)
            .and_then(|delta| {
                session
                    .publish_next_to_dir_as(
                        &config,
                        DATASET,
                        &delta,
                        &dir,
                        ArtifactFormat::Binary,
                        &mut rng,
                    )
                    .map_err(text)
            });
        let took = ms(t.elapsed());
        peaks_mb.extend(fixture::peak_rss_mb("self"));
        match result {
            Ok((artifact, path)) => {
                latencies.push(took);
                epochs += 1;
                sizes.push(file_len(&path));
                let mut outcome = verify::check_artifact(&path, &artifact, epochs);
                if let (Some(shadow), true) = (shadow.as_mut(), outcome.is_ok()) {
                    outcome = traced_epoch(
                        &mut tracer,
                        op,
                        shadow,
                        &config,
                        &delta_text,
                        rng_before.clone(),
                        epochs,
                        &traced_dir,
                    )
                    .and_then(|bytes| same_bytes(&path, &bytes));
                }
                report.tally.record(outcome);
                let _ = std::fs::remove_file(&previous);
                let _ =
                    std::fs::remove_file(traced_dir.join(previous.file_name().unwrap_or_default()));
                previous = path;
                last = Some((rng_before, artifact));
            }
            Err(e) => report.tally.fail(format!("epoch {}: {e}", epochs + 1)),
        }
        op += 1;
    }
    report.note("host steal during the timed phase", steal.describe());
    report.note("epochs published", epochs.to_string());

    // The last epoch must be bit-identical to a full recompute over the
    // same graph, drawn from the same RNG state.
    let truth = HierarchyStats::compute(session.graph(), session.hierarchy()).map_err(text)?;
    let rel_error = match last {
        Some((mut rng_before, artifact)) => {
            let hist = DegreeHistogram::from_degrees(&session.graph().left_degrees());
            let recomputed: MultiLevelRelease = MultiLevelDiscloser::new(config.clone())
                .disclose_from_stats(session.hierarchy(), &truth, &hist, &mut rng_before)
                .map_err(text)?;
            if !verify::releases_bit_identical(&recomputed, artifact.release()) {
                report
                    .tally
                    .demote("last epoch differs from a full-recompute disclosure");
                report.check(
                    "last epoch equals full recompute",
                    Err("releases differ".into()),
                );
            } else {
                report.check("last epoch equals full recompute", Ok(()));
            }
            verify::release_rel_error(artifact.release(), &truth)?
        }
        None => f64::NAN,
    };
    if opts.trace {
        publish_layers(
            report,
            &tracer,
            &EPOCH_LAYERS,
            &latencies,
            &datagen_ms,
            opts,
        )?;
    } else {
        publish_metrics(report, &setup_s, &latencies, &sizes, &peaks_mb, rel_error);
    }
    Ok(())
}

/// One epoch replayed on the shadow state, one span per public call
/// `publish_next_to_dir_as` makes.
#[allow(clippy::too_many_arguments)]
fn traced_epoch(
    tracer: &mut Tracer,
    op: u64,
    shadow: &mut Shadow,
    config: &DisclosureConfig,
    delta_text: &str,
    mut rng: StdRng,
    epoch: u64,
    dir: &Path,
) -> Result<Vec<u8>, String> {
    let started = Instant::now();
    let delta = tracer
        .span("graph.delta.from_text_ms", op, Some("op"), || {
            EdgeDelta::from_text(delta_text)
        })
        .map_err(text)?;
    tracer
        .span("graph.delta.apply_ms", op, Some("op"), || {
            shadow.graph.apply_delta_in_place(&delta)
        })
        .map_err(text)?;
    tracer
        .span("core.stats.apply_delta_ms", op, Some("op"), || {
            shadow.stats.apply_delta(&shadow.hierarchy, &delta)
        })
        .map_err(text)?;
    let ledger = shadow.ledger.charge();
    let bytes = traced_release_tail(
        tracer,
        op,
        config,
        &shadow.graph,
        &shadow.hierarchy,
        &shadow.stats,
        &mut rng,
        epoch,
        ledger,
        dir,
    )?;
    tracer.record("op", op, started, Instant::now());
    Ok(bytes)
}
