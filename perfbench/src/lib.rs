//! A benchmark of the publish and serve paths of the group-DP system:
//! four workloads, end-to-end metrics with tracing off, and per-layer
//! metrics from a separate traced run that times each call into a
//! crate's public functions. See `README.md` in this directory.

pub mod fixture;
pub mod publish;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod verify;

use std::path::PathBuf;

use report::{Metric, Report};
use trace::Tracer;

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = [
    "publish_full",
    "publish_epochs",
    "serve_point",
    "serve_batch",
];

/// End-to-end metrics every untraced run puts in its JSON result, with
/// units (the `end_to_end` list of `BENCHMARK.json`).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_ops", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("success_rate", "ratio"),
    ("rss_mb", "MB"),
    ("artifact_bytes", "bytes"),
    ("release_rel_error", "ratio"),
];

/// End-to-end metrics every untraced run prints but leaves out of its
/// JSON result: most workloads have too few samples for the tail rule,
/// and where they have enough the tails follow host preemption more than
/// the program (see `README.md`, "Steadiness").
pub const UNGATED: [(&str, &str); 2] = [("latency_p90_ms", "ms"), ("latency_p99_ms", "ms")];

/// Per-layer metrics every traced run prints, with units. A layer the
/// workload does not call reads `0`.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("datagen.generate_ms", "ms"),
    ("graph.io.read_edge_list_ms", "ms"),
    ("core.specialize_ms", "ms"),
    ("core.stats.compute_ms", "ms"),
    ("graph.delta.from_text_ms", "ms"),
    ("graph.delta.apply_ms", "ms"),
    ("core.stats.apply_delta_ms", "ms"),
    ("core.disclosure.noise_ms", "ms"),
    ("core.artifact.seal_ms", "ms"),
    ("core.codec.encode_ms", "ms"),
    ("graph.io.atomic_write_ms", "ms"),
    ("publish.gap_ms", "ms"),
    ("serve.store.open_ms", "ms"),
    ("serve.index.build_ms", "ms"),
    ("net.http.parse_us", "us"),
    ("net.api.decode_us", "us"),
    ("serve.service.answer_us", "us"),
    ("serve.index.answer_us", "us"),
    ("serve.service.overhead_us", "us"),
    ("net.api.encode_us", "us"),
    ("net.http.write_us", "us"),
    ("net.transport_us", "us"),
    ("serve.cache.hit_rate", "ratio"),
    ("serve.cache.evictions", "count"),
    ("trace.overhead_pct", "%"),
];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every input is drawn from.
    pub seed: u64,
    /// How long the timed phase runs, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory for stores, artifacts, logs and spans.
    pub work: PathBuf,
    /// The `gdp` binary the serve workloads spawn.
    pub gdp: Option<PathBuf>,
    /// The host's usable cores: the rayon pool width and `gdp serve
    /// --workers`. It can exceed the cores this process is pinned to.
    pub nproc: usize,
}

/// Runs one workload and returns its report, holding exactly the
/// metrics the mode reports, in [`END_TO_END`] (and [`UNGATED`]) or
/// [`PER_LAYER`] order.
pub fn run(opts: &Opts) -> Report {
    let mut report = match opts.workload.as_str() {
        "publish_full" => publish::run_full(opts),
        "publish_epochs" => publish::run_epochs(opts),
        "serve_point" => serve::run(opts, false),
        "serve_batch" => serve::run(opts, true),
        other => {
            let mut r = Report::default();
            r.check("known workload", Err(format!("unknown workload `{other}`")));
            r
        }
    };
    // The run's stores and artifacts are regenerated from the seed every
    // run; only its logs and spans are kept.
    if let Ok(entries) = std::fs::read_dir(&opts.work) {
        for entry in entries.flatten() {
            let ours = entry
                .file_name()
                .to_string_lossy()
                .starts_with(&opts.workload);
            if ours && entry.path().is_dir() {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
    let measured = std::mem::take(&mut report.metrics);
    // In the traced run a layer the workload never calls reads 0; any
    // other metric the run failed to produce is not a measurement.
    let absent = if opts.trace && report.run_checks.iter().all(|(_, r)| r.is_ok()) {
        0.0
    } else {
        f64::NAN
    };
    let pick = |(name, unit): &(&str, &'static str)| Metric {
        name: name.to_string(),
        value: measured
            .iter()
            .find(|m| m.name == *name)
            .map_or(absent, |m| m.value),
        unit,
    };
    if opts.trace {
        report.metrics = PER_LAYER.iter().map(pick).collect();
    } else {
        report.metrics = END_TO_END.iter().map(pick).collect();
        report.ungated = UNGATED.iter().map(pick).collect();
    }
    report
}

/// Writes a traced run's spans to `<work>/<workload>-spans.jsonl` and
/// notes where.
fn write_spans(tracer: &Tracer, opts: &Opts, report: &mut Report) -> Result<(), String> {
    let path = opts.work.join(format!("{}-spans.jsonl", opts.workload));
    tracer
        .write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    report.note("spans", path.display().to_string());
    Ok(())
}

/// Renders an error for a report line.
fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}
