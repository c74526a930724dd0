//! Order statistics over per-operation samples, and the arithmetic that
//! turns layer timings into gaps and residuals.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `sorted` (ascending): the smallest
/// sample with at least `q · n` samples at or below it. `NaN` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the `q`-quantile's rank.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// Whether `n` samples support reporting the `q`-quantile as a tail:
/// at least [`TAIL_BEYOND`] samples must lie beyond it.
pub fn tail_supported(n: usize, q: f64) -> bool {
    beyond(n, q) >= TAIL_BEYOND
}

/// The median of unsorted `samples` (`NaN` when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// Most consecutive chunks a run's samples are split into.
pub const MAX_CHUNKS: usize = 10;

/// The fewest samples whose `q`-quantile has [`TAIL_BEYOND`] samples
/// beyond it (100 for p90, 1000 for p99).
pub fn samples_for_tail(q: f64) -> usize {
    (1..)
        .find(|&n| tail_supported(n, q))
        .expect("every q < 1 is reachable")
}

/// Splits `samples` into `chunks` consecutive runs of near-equal length.
fn chunked(samples: &[f64], chunks: usize) -> impl Iterator<Item = &[f64]> {
    let n = samples.len();
    (0..chunks).map(move |i| &samples[i * n / chunks..(i + 1) * n / chunks])
}

/// A tail percentile robust to a burst of host interference: the run is
/// split into as many consecutive chunks (at most [`MAX_CHUNKS`]) as
/// still give every chunk [`TAIL_BEYOND`] samples beyond its
/// `q`-quantile, and the median of the chunk quantiles is reported.
/// With too few samples for one such chunk, the whole run's quantile is
/// reported and the returned chunk count is `0` (the rule is not met).
pub fn tail(samples: &[f64], q: f64) -> (f64, usize) {
    let chunks = (samples.len() / samples_for_tail(q)).min(MAX_CHUNKS);
    if chunks == 0 {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        return (quantile(&sorted, q), 0);
    }
    let per_chunk: Vec<f64> = chunked(samples, chunks)
        .map(|c| {
            let mut sorted = c.to_vec();
            sorted.sort_by(f64::total_cmp);
            quantile(&sorted, q)
        })
        .collect();
    (median(&per_chunk), chunks)
}

/// Operations per second of operation time, as the median over up to
/// [`MAX_CHUNKS`] consecutive chunks of `latencies_ms` (a chunk's rate
/// is its count over its summed latency).
pub fn throughput(latencies_ms: &[f64]) -> f64 {
    let chunks = latencies_ms.len().min(MAX_CHUNKS);
    let rates: Vec<f64> = chunked(latencies_ms, chunks)
        .map(|c| c.len() as f64 / (c.iter().sum::<f64>() / 1e3))
        .collect();
    median(&rates)
}

/// The latency summary a run reports: median over all samples, tails by
/// [`tail`], rate by [`throughput`].
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    /// Number of samples.
    pub n: usize,
    /// Median latency.
    pub p50: f64,
    /// 90th percentile, and the chunks it is the median of.
    pub p90: (f64, usize),
    /// 99th percentile, and the chunks it is the median of.
    pub p99: (f64, usize),
    /// Operations per second of operation time.
    pub throughput: f64,
}

impl Latency {
    /// Summarizes `samples`, given in the order they were taken.
    pub fn of(samples: &[f64]) -> Self {
        Self {
            n: samples.len(),
            p50: median(samples),
            p90: tail(samples, 0.90),
            p99: tail(samples, 0.99),
            throughput: throughput(samples),
        }
    }

    /// The sample counts behind each figure, for the report.
    pub fn describe(&self) -> String {
        let tail = |name: &str, q: f64, (_, chunks): (f64, usize)| {
            match self.n.checked_div(chunks) {
            Some(per_chunk) => format!(
                "{name}: median of {chunks} chunks of >= {per_chunk} samples (>= {TAIL_BEYOND} beyond each)"
            ),
            None => format!(
                "{name}: whole run, only {} samples beyond (rule of {TAIL_BEYOND} NOT met)",
                beyond(self.n, q)
            ),
        }
        };
        format!(
            "n={}; p50 over all; {}; {}; throughput: median of {} chunks",
            self.n,
            tail("p90", 0.90, self.p90),
            tail("p99", 0.99, self.p99),
            self.n.min(MAX_CHUNKS)
        )
    }
}

/// What a whole operation took beyond the sum of its timed layers:
/// `op_median − Σ layer_medians`. A gap near zero means the layers
/// cover the operation; a large one names a missing layer.
pub fn gap(op_median: f64, layer_medians: &[f64]) -> f64 {
    op_median - layer_medians.iter().sum::<f64>()
}

/// The per-operation residual of a round trip: the client-observed time
/// minus every in-process layer of the same request. The median of
/// these residuals is the transport cost (syscalls, handoff, wake-ups).
pub fn residuals(round_trips: &[f64], layers_per_op: &[Vec<f64>]) -> Vec<f64> {
    round_trips
        .iter()
        .zip(layers_per_op)
        .map(|(rtt, layers)| rtt - layers.iter().sum::<f64>())
        .collect()
}

/// Tracing overhead in percent: how much slower a traced operation ran
/// than an untraced one, relative to the untraced median.
pub fn overhead_pct(traced_median: f64, untraced_median: f64) -> f64 {
    (traced_median - untraced_median) / untraced_median * 100.0
}
