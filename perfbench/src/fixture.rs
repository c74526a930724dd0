//! The inputs every workload shares — one seeded Zipf-attachment graph,
//! the release configuration `gdp publish` uses, balanced churn deltas
//! — and the host facts printed with the metrics.

use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gdp_core::{DisclosureConfig, NoiseMechanism, Query, SpecializationConfig};
use gdp_datagen::engine::GraphModel;
use gdp_datagen::zipf::{spread_rank, ZipfSampler};
use gdp_graph::{BipartiteGraph, EdgeDelta, LeftId, RightId};
use gdp_mechanisms::PrivacyBudget;

/// Left-side nodes (the skewed side: authors in DBLP terms).
pub const LEFT: u32 = 100_000;
/// Right-side nodes (papers).
pub const RIGHT: u32 = 333_334;
/// Partners each right node draws.
pub const PER_RIGHT: u32 = 3;
/// Zipf exponent of left-side attachment (bibliographic data sits at
/// about 1.05–1.3).
pub const EXPONENT: f64 = 1.15;
/// Specialization rounds (the `gdp publish` default).
pub const ROUNDS: u32 = 8;
/// Per-release group-privacy `ε` (the `gdp publish` default).
pub const EPSILON: f64 = 0.5;
/// Per-release `δ` (the `gdp publish` default).
pub const DELTA: f64 = 1e-6;
/// Dataset name of every published release.
pub const DATASET: &str = "bench";
/// Share of edges an epoch delta changes: 1%, half inserts, half deletes.
pub const CHURN_PER_EDGE: f64 = 0.01;

/// Generates the shared graph from the workload seed: about 1M
/// associations with DBLP-like skew. The seed is mixed so the graph's
/// generator shares no stream with anything drawn later from `seed`.
pub fn generate(seed: u64) -> BipartiteGraph {
    let model = GraphModel::ZipfAttachment {
        left: LEFT,
        right: RIGHT,
        per_right: PER_RIGHT,
        exponent: EXPONENT,
    };
    model.generate(&mut StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x6772_6170_6800,
    ))
}

/// Phase-1 configuration, exactly as `gdp publish` builds it.
pub fn specialization() -> SpecializationConfig {
    SpecializationConfig::paper_default(ROUNDS).expect("ROUNDS is positive")
}

/// Phase-2 configuration, exactly as `gdp publish` builds it.
pub fn disclosure() -> DisclosureConfig {
    DisclosureConfig::count_only(EPSILON, DELTA)
        .expect("EPSILON and DELTA are a valid budget")
        .with_mechanism(NoiseMechanism::GaussianClassic)
        .with_queries(vec![
            Query::TotalAssociations,
            Query::PerGroupCounts,
            Query::LeftDegreeHistogram { max_degree: 64 },
        ])
}

/// A budget authorizing `releases` releases of [`disclosure`].
pub fn budget_for(releases: u64) -> PrivacyBudget {
    PrivacyBudget::new(EPSILON * releases as f64, DELTA * releases as f64)
        .expect("a positive multiple of a valid budget is valid")
}

/// Draws balanced churn deltas against the current graph: deletes are
/// near-uniform existing edges (a uniform right node, then a uniform
/// partner; right degrees are all about [`PER_RIGHT`]) and inserts are
/// absent pairs whose left end follows the generator's Zipf law, so the
/// graph keeps its size and its skew however many epochs run.
#[derive(Debug, Clone)]
pub struct DeltaSource {
    zipf: ZipfSampler,
    rng: StdRng,
}

impl DeltaSource {
    /// A source for a graph with `left` left nodes, seeded from the
    /// workload seed.
    pub fn new(seed: u64, left: u32) -> Self {
        Self {
            zipf: ZipfSampler::new(u64::from(left.max(1)), EXPONENT).expect("EXPONENT is positive"),
            rng: StdRng::seed_from_u64(seed ^ 0x6465_6c74_6173),
        }
    }

    /// The next delta valid against `graph`, which must have the left
    /// side the source was made for.
    pub fn next(&mut self, graph: &BipartiteGraph) -> EdgeDelta {
        let churn = (graph.edge_count() as f64 * CHURN_PER_EDGE) as usize;
        let want_deletes = churn / 2;
        let want_inserts = churn - want_deletes;
        let mut chosen: HashSet<(u32, u32)> = HashSet::with_capacity(churn * 2);
        let mut deletes = Vec::with_capacity(want_deletes);
        while deletes.len() < want_deletes {
            let r = RightId::new(self.rng.gen_range(0..graph.right_count()));
            let partners = graph.neighbors_of_right(r);
            if partners.is_empty() {
                continue;
            }
            let l = partners[self.rng.gen_range(0..partners.len())];
            if chosen.insert((l.index(), r.index())) {
                deletes.push((l, r));
            }
        }
        let mut inserts = Vec::with_capacity(want_inserts);
        while inserts.len() < want_inserts {
            let rank = self.zipf.sample(&mut self.rng) - 1;
            let l = LeftId::new(spread_rank(rank, self.zipf.n()) as u32);
            let r = RightId::new(self.rng.gen_range(0..graph.right_count()));
            if !graph.has_edge(l, r) && chosen.insert((l.index(), r.index())) {
                inserts.push((l, r));
            }
        }
        EdgeDelta::new(inserts, deletes)
    }
}

/// Worker threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPUs this process may run on (`Cpus_allowed_list`), as the
/// kernel prints them.
pub fn cpus_allowed() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|list| list.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set (VmHWM) of process `pid` (`"self"` for this one),
/// in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets this process's peak resident set (VmHWM) to its current
/// resident set, so a later [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() {
    // Best effort: without it the peak also covers set-up.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The mount point and file-system type holding `dir`, read from
/// `/proc/mounts` (longest matching mount point).
pub fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(point)
                .then(|| (point.to_string(), fstype.to_string()))
        })
        .max_by_key(|(point, _)| point.len())
        .map_or("unknown".to_string(), |(point, fstype)| {
            format!("{fstype} mounted at {point}")
        })
}

/// Cumulative host CPU ticks `(busy + idle, stolen)` from `/proc/stat`
/// (user through steal; guest time is already inside user).
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// Measures the share of CPU time a hypervisor steals from this host
/// over an interval — the main source of run-to-run spread on shared
/// virtual machines, printed so a noisy run can be recognized.
#[derive(Debug, Clone, Copy)]
pub struct StealWatch(Option<(u64, u64)>);

impl StealWatch {
    /// Starts the interval.
    pub fn start() -> Self {
        Self(cpu_ticks())
    }

    /// The stolen share since [`StealWatch::start`], as a report line.
    pub fn describe(&self) -> String {
        match (self.0, cpu_ticks()) {
            (Some((all0, steal0)), Some((all1, steal1))) if all1 > all0 => format!(
                "{:.1}% of host CPU time",
                (steal1 - steal0) as f64 * 100.0 / (all1 - all0) as f64
            ),
            _ => "unknown".to_string(),
        }
    }
}

/// Steps of the calibration loop: 13.4 ms on a 2-vCPU cloud VM at its
/// fastest.
const CALIBRATION_STEPS: u64 = 8_000_000;

/// Milliseconds a fixed single-threaded integer loop takes, the median
/// of `reps` timings. The loop's work never changes, so a shift between
/// runs is the host's own speed, which hypervisor steal does not show.
pub fn calibration_ms(reps: usize) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
            for i in 0..CALIBRATION_STEPS {
                x = (x ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(17);
            }
            std::hint::black_box(x);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&times)
}
