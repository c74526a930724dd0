//! Streaming generation engine: sharded edge sources feeding the
//! row-shard CSR assembly.
//!
//! # Why this exists
//!
//! The first-generation generators drew every edge on one thread and
//! pushed it through the incremental [`gdp_graph::GraphBuilder`], whose
//! global `O(m log m)` sort made datagen the largest phase of the
//! 1M-edge pipeline run (~43 ms — larger than disclosure after the
//! PR-2 `HierarchyStats` engine). This module rebuilds generation as a
//! streaming pipeline:
//!
//! 1. A model implements [`StreamingEdgeSource`]: it declares a fixed
//!    number of **shards** (a function of the workload only) and emits
//!    each shard's edges into an [`EdgeSink`].
//! 2. The engine draws one seed per shard **sequentially from the
//!    master RNG** — the workspace determinism convention (see
//!    `docs/determinism.md`) — and fills the shards in order.
//! 3. Every shard owns a contiguous row range and streams straight into
//!    a [`gdp_graph::RowShardSink`], which canonicalizes rows on the
//!    fly; [`gdp_graph::assemble_left_rows`] or
//!    [`gdp_graph::assemble_right_rows`] then concatenates the shards
//!    and derives the other side with one transpose scatter. No global
//!    edge list is materialized and nothing is ever globally sorted.
//!
//! Fixed-seed output is identical to replaying the same shards through
//! the incremental builder ([`generate_incremental`]), and its bytes
//! are pinned by the `gdp-datagen` determinism tests.
//!
//! # Models
//!
//! * [`ErdosRenyiStream`] — uniform random associations; shards carry
//!   fixed balanced draw quotas (total exactly `edges`) that telescope
//!   multinomially down to per-row counts through a binomial chain
//!   (exact inversion at small means, a clamped Gaussian approximation
//!   above — see `sample_binomial` in the source).
//! * [`ZipfAttachmentStream`] — power-law popularity: every right node
//!   draws `per_right` left partners by Zipf rank
//!   ([`crate::zipf::ZipfSampler`]), scattered over ids with
//!   [`crate::zipf::spread_rank`]. Produces the degree-skewed regimes
//!   the GRAND/private-graph-release evaluations emphasize.
//! * [`PlantedBipartiteStream`] — a block-structured bipartite model
//!   with a known ground-truth partition
//!   ([`PlantedBipartiteStream::ground_truth_partitions`]), used to
//!   exercise the hierarchy/specialization path on data that genuinely
//!   has group structure.
//!
//! [`GraphModel`] wraps the three as a plain-data scenario enum for the
//! CLI, benches and workload builders.
//!
//! ```
//! use gdp_datagen::engine::GraphModel;
//! use rand::SeedableRng;
//!
//! let model = GraphModel::ErdosRenyi { left: 500, right: 500, edges: 4_000 };
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let g = model.generate(&mut rng);
//! assert_eq!(g.left_count(), 500);
//! // Realized count is slightly below the target: duplicates merge.
//! assert!(g.edge_count() <= 4_000 && g.edge_count() > 3_500);
//! ```

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gdp_graph::{
    assemble_left_rows, assemble_right_rows, BipartiteGraph, EdgeSink, GraphBuilder, LeftId,
    RecordingSink, RightId, RowShardSink, Side, SidePartition,
};

use crate::zipf::{spread_rank, ZipfSampler};

/// Target edge draws per shard; the shard count is the workload size
/// divided by this, clamped to [`MAX_SHARDS`].
const TARGET_SHARD_DRAWS: usize = 16_384;

/// Upper bound on the shard count (shards are cheap, but per-shard
/// column histograms are not free).
const MAX_SHARDS: usize = 64;

/// Exact binomial inversion is used up to this mean; above it the
/// clamped Gaussian approximation takes over.
const BINV_MEAN_MAX: f64 = 32.0;

/// Which side's nodes a [`StreamingEdgeSource`]'s rows are. Every shard
/// owns a contiguous row range and emits its rows in ascending order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmissionOrder {
    /// Rows are **left** nodes; assembled by
    /// [`gdp_graph::assemble_left_rows`].
    LeftRows,
    /// Rows are **right** nodes; assembled in the transposed
    /// orientation by [`gdp_graph::assemble_right_rows`].
    RightRows,
}

/// A sharded, seedable edge stream — the generation half of the
/// streaming datagen engine (the construction half is
/// [`gdp_graph::RowShardSink`] plus the two assemblers).
///
/// Implementations must keep [`shard_count`](StreamingEdgeSource::shard_count)
/// and every shard's emission a pure function of the source's
/// configuration and the shard's RNG, so that the engine's fixed-seed
/// guarantee holds.
pub trait StreamingEdgeSource {
    /// Left-side node count of the generated graph.
    fn left_count(&self) -> u32;

    /// Right-side node count of the generated graph.
    fn right_count(&self) -> u32;

    /// Number of independent shards, each with its own seeded stream.
    fn shard_count(&self) -> usize;

    /// Which side the rows are; decides which assembler the engine
    /// uses.
    fn emission_order(&self) -> EmissionOrder;

    /// The contiguous row range shard `shard` covers. The ranges of
    /// shards `0..shard_count()` must tile the row side in order.
    fn shard_rows(&self, shard: usize) -> Range<u32>;

    /// Expected edges emitted by shard `shard` (pre-allocation hint).
    fn shard_edge_hint(&self, shard: usize) -> usize;

    /// Emits shard `shard`'s edges into `sink`, drawing randomness only
    /// from `rng` (the shard's private stream).
    fn fill_shard<S: EdgeSink>(&self, shard: usize, rng: &mut StdRng, sink: &mut S);
}

/// Generates a graph from a streaming source: per-shard seeds are drawn
/// in shard order from `rng`, each shard fills its own row sink, and
/// the CSR is assembled directly — see the [module docs](self).
///
/// Fixed-seed output equals [`generate_incremental`] on the same source
/// and seed.
///
/// # Panics
///
/// Panics if the source emits an endpoint outside its declared side
/// sizes (generators sample in range by construction).
pub fn generate<M, R>(source: &M, rng: &mut R) -> BipartiteGraph
where
    M: StreamingEdgeSource + ?Sized,
    R: Rng + ?Sized,
{
    let col_count = match source.emission_order() {
        EmissionOrder::LeftRows => source.right_count(),
        EmissionOrder::RightRows => source.left_count(),
    };
    let shards: Vec<RowShardSink> = (0..source.shard_count())
        .map(|i| fill_row_shard(source, i, rng.gen(), col_count))
        .collect();
    match source.emission_order() {
        EmissionOrder::LeftRows => {
            assemble_left_rows(source.left_count(), source.right_count(), shards)
                .expect("row shards tile the left side")
        }
        EmissionOrder::RightRows => {
            assemble_right_rows(source.left_count(), source.right_count(), shards)
                .expect("row shards tile the right side")
        }
    }
}

fn fill_row_shard<M: StreamingEdgeSource + ?Sized>(
    source: &M,
    shard: usize,
    seed: u64,
    col_count: u32,
) -> RowShardSink {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sink = RowShardSink::new(
        source.shard_rows(shard),
        col_count,
        source.shard_edge_hint(shard),
    );
    source.fill_shard(shard, &mut rng, &mut sink);
    sink
}

/// The equivalence baseline: replays exactly the same shard streams
/// (same seed schedule, same draws) through the incremental
/// [`GraphBuilder`]. Property tests pin `generate == generate_incremental`
/// bitwise; benches use it as the before/after comparison point.
pub fn generate_incremental<M, R>(source: &M, rng: &mut R) -> BipartiteGraph
where
    M: StreamingEdgeSource + ?Sized,
    R: Rng + ?Sized,
{
    let transposed = source.emission_order() == EmissionOrder::RightRows;
    let hint: usize = (0..source.shard_count())
        .map(|i| source.shard_edge_hint(i))
        .sum();
    let mut builder = GraphBuilder::with_capacity(source.left_count(), source.right_count(), hint);
    for i in 0..source.shard_count() {
        let seed = rng.gen::<u64>();
        let mut sink = RecordingSink::new();
        source.fill_shard(i, &mut StdRng::seed_from_u64(seed), &mut sink);
        for (row, col) in sink.into_edges() {
            let (l, r) = if transposed { (col, row) } else { (row, col) };
            builder
                .add_edge(LeftId::new(l), RightId::new(r))
                .expect("sources sample endpoints in range");
        }
    }
    builder.build()
}

/// Balanced contiguous split of `0..total` into `shard_count` ranges.
pub fn shard_span(total: u32, shard: usize, shard_count: usize) -> Range<u32> {
    let lo = (total as u64 * shard as u64 / shard_count as u64) as u32;
    let hi = (total as u64 * (shard as u64 + 1) / shard_count as u64) as u32;
    lo..hi
}

/// Shard count for a workload of `draws` expected edges over `rows`
/// rows: one shard per [`TARGET_SHARD_DRAWS`] draws, at most
/// [`MAX_SHARDS`], never more than one per row.
fn shard_count_for(draws: usize, rows: u32) -> usize {
    (draws / TARGET_SHARD_DRAWS)
        .clamp(1, MAX_SHARDS)
        .min(rows.max(1) as usize)
}

/// Standard-normal variate via Box–Muller (two uniforms, no rejection —
/// a fixed draw count keeps shard streams easy to reason about).
fn normal_z<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples `Binomial(n, p)`.
///
/// Exact inversion (BINV) below mean [`BINV_MEAN_MAX`]; above it, a
/// Gaussian approximation rounded and clamped to `[0, n]`. At the means
/// the engine's telescoping splits draw (hundreds to tens of
/// thousands), the approximation's total-variation error is orders of
/// magnitude below the noise the DP pipeline itself injects — a
/// documented synthetic-workload trade-off that keeps the split `O(1)`
/// per shard instead of pulling in a BTPE-class sampler.
fn sample_binomial<R: Rng + ?Sized>(rng: &mut R, n: usize, p: f64) -> usize {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    if p > 0.5 {
        return n - sample_binomial(rng, n, 1.0 - p);
    }
    let mean = n as f64 * p;
    if mean <= BINV_MEAN_MAX {
        // Exact inversion: walk the CDF with one uniform.
        let q = 1.0 - p;
        let s = p / q;
        let mut pmf = q.powi(n.try_into().unwrap_or(i32::MAX));
        let mut u: f64 = rng.gen();
        let mut k = 0usize;
        while u > pmf && k < n {
            u -= pmf;
            k += 1;
            pmf *= s * (n - k + 1) as f64 / k as f64;
        }
        k
    } else {
        let sd = (mean * (1.0 - p)).sqrt();
        let draw = (mean + sd * normal_z(rng)).round();
        (draw.max(0.0) as usize).min(n)
    }
}

/// Uniform draw from `0..n` out of 32 random bits (multiply-shift; the
/// `2^-32`-scale bias is irrelevant at synthetic-workload sizes and
/// lets one `u64` feed two endpoint draws).
#[inline]
fn scale32(bits: u32, n: u32) -> u32 {
    ((bits as u64 * n as u64) >> 32) as u32
}

// ---------------------------------------------------------------------
// Models
// ---------------------------------------------------------------------

/// Streaming Erdős–Rényi: exactly `edges` uniform draws.
///
/// Shards own contiguous left-node ranges with a fixed, balanced share
/// of the draw quota each (so the total is exactly `edges`); within a
/// shard the quota telescopes multinomially down to per-row counts via
/// a binomial chain, and each row's right endpoints stream straight
/// into the CSR sink. Semantically the streaming sibling of
/// [`crate::models::erdos_renyi`] (duplicate draws merge; realized
/// edges can sit slightly below `edges`, never above).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErdosRenyiStream {
    left: u32,
    right: u32,
    edges: usize,
    shards: usize,
}

impl ErdosRenyiStream {
    /// Creates the source.
    ///
    /// # Panics
    ///
    /// Panics if either side is zero.
    pub fn new(left: u32, right: u32, edges: usize) -> Self {
        assert!(left > 0 && right > 0, "sides must be non-empty");
        Self {
            left,
            right,
            edges,
            shards: shard_count_for(edges, left),
        }
    }
}

impl StreamingEdgeSource for ErdosRenyiStream {
    fn left_count(&self) -> u32 {
        self.left
    }

    fn right_count(&self) -> u32 {
        self.right
    }

    fn shard_count(&self) -> usize {
        self.shards
    }

    fn emission_order(&self) -> EmissionOrder {
        EmissionOrder::LeftRows
    }

    fn shard_rows(&self, shard: usize) -> Range<u32> {
        shard_span(self.left, shard, self.shards)
    }

    fn shard_edge_hint(&self, shard: usize) -> usize {
        let rows = self.shard_rows(shard);
        (self.edges as u64 * rows.len() as u64 / self.left as u64) as usize + 64
    }

    fn fill_shard<S: EdgeSink>(&self, shard: usize, rng: &mut StdRng, sink: &mut S) {
        let rows = self.shard_rows(shard);
        // Fixed per-shard draw quota: a balanced deterministic split of
        // `edges`, so the total draw count is exactly `edges` no matter
        // how many shards exist (independent per-shard binomials would
        // make the total random and break the `≤ edges` invariant).
        // Within the shard, the quota telescopes multinomially across
        // rows through the binomial chain below.
        let quota = |s: u64| self.edges as u64 * s / self.shards as u64;
        let mut remaining = (quota(shard as u64 + 1) - quota(shard as u64)) as usize;
        let mut rows_left = rows.len() as u32;
        for row in rows {
            let k = if rows_left == 1 {
                remaining
            } else {
                sample_binomial(rng, remaining, 1.0 / rows_left as f64)
            };
            rows_left -= 1;
            remaining -= k;
            if k == 0 {
                continue;
            }
            sink.begin_row(row);
            // One u64 feeds two right-endpoint draws.
            for _ in 0..k / 2 {
                let x = rng.gen::<u64>();
                sink.push_col(scale32((x >> 32) as u32, self.right));
                sink.push_col(scale32(x as u32, self.right));
            }
            if k % 2 == 1 {
                sink.push_col(scale32((rng.gen::<u64>() >> 32) as u32, self.right));
            }
        }
    }
}

/// Streaming Zipf/power-law attachment: every right node draws
/// `per_right` left partners by Zipf rank, spread over left ids with
/// [`spread_rank`]. Left degrees follow a truncated power law — the
/// degree-skewed regime of the paper's author–paper data — while right
/// degrees are constant.
///
/// Shards own right-node ranges ([`EmissionOrder::RightRows`]); the
/// sampler itself is the hot path.
#[derive(Debug, Clone)]
pub struct ZipfAttachmentStream {
    left: u32,
    right: u32,
    per_right: u32,
    sampler: ZipfSampler,
    shards: usize,
}

impl ZipfAttachmentStream {
    /// Creates the source.
    ///
    /// # Panics
    ///
    /// Panics if either side or `per_right` is zero, or the exponent is
    /// not finite and positive.
    pub fn new(left: u32, right: u32, per_right: u32, exponent: f64) -> Self {
        assert!(left > 0 && right > 0, "sides must be non-empty");
        assert!(per_right > 0, "per_right must be positive");
        let sampler =
            ZipfSampler::new(left as u64, exponent).expect("exponent must be finite and positive");
        let edges = right as usize * per_right as usize;
        Self {
            left,
            right,
            per_right,
            sampler,
            shards: shard_count_for(edges, right),
        }
    }

    /// The Zipf exponent in use.
    pub fn exponent(&self) -> f64 {
        self.sampler.exponent()
    }
}

impl StreamingEdgeSource for ZipfAttachmentStream {
    fn left_count(&self) -> u32 {
        self.left
    }

    fn right_count(&self) -> u32 {
        self.right
    }

    fn shard_count(&self) -> usize {
        self.shards
    }

    fn emission_order(&self) -> EmissionOrder {
        EmissionOrder::RightRows
    }

    fn shard_rows(&self, shard: usize) -> Range<u32> {
        shard_span(self.right, shard, self.shards)
    }

    fn shard_edge_hint(&self, shard: usize) -> usize {
        self.shard_rows(shard).len() * self.per_right as usize
    }

    fn fill_shard<S: EdgeSink>(&self, shard: usize, rng: &mut StdRng, sink: &mut S) {
        let mut ranks = vec![0u64; self.per_right as usize];
        for row in self.shard_rows(shard) {
            sink.begin_row(row);
            self.sampler.sample_into(&mut ranks, rng);
            for &rank in &ranks {
                sink.push_col(spread_rank(rank - 1, self.left as u64) as u32);
            }
        }
    }
}

/// Streaming planted block model: `blocks` equal-spaced groups on each
/// side (node `i` belongs to block `i % blocks`); every left node draws
/// `per_left` associations, landing inside its own block's right-side
/// partners with probability `intra_prob` and uniformly anywhere
/// otherwise. The known partition
/// ([`ground_truth_partitions`](PlantedBipartiteStream::ground_truth_partitions))
/// makes this the scenario for testing that specialization recovers
/// real group structure.
///
/// The streaming sibling of [`crate::models::planted_blocks`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlantedBipartiteStream {
    left: u32,
    right: u32,
    blocks: u32,
    per_left: u32,
    intra_prob: f64,
    shards: usize,
}

impl PlantedBipartiteStream {
    /// Creates the source.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero, `blocks` exceeds either side, or
    /// `intra_prob` is outside `[0, 1]`.
    pub fn new(left: u32, right: u32, blocks: u32, per_left: u32, intra_prob: f64) -> Self {
        assert!(left > 0 && right > 0 && blocks > 0 && per_left > 0);
        assert!(blocks <= left && blocks <= right, "more blocks than nodes");
        assert!((0.0..=1.0).contains(&intra_prob));
        let edges = left as usize * per_left as usize;
        Self {
            left,
            right,
            blocks,
            per_left,
            intra_prob,
            shards: shard_count_for(edges, left),
        }
    }

    /// The planted partitions (left, right): node `i` in block
    /// `i % blocks` — the ground truth a specialization run should
    /// approximately recover.
    pub fn ground_truth_partitions(&self) -> (SidePartition, SidePartition) {
        let assign = |n: u32| (0..n).map(|i| i % self.blocks).collect::<Vec<_>>();
        (
            SidePartition::new(Side::Left, assign(self.left), self.blocks)
                .expect("dense planted blocks"),
            SidePartition::new(Side::Right, assign(self.right), self.blocks)
                .expect("dense planted blocks"),
        )
    }
}

impl StreamingEdgeSource for PlantedBipartiteStream {
    fn left_count(&self) -> u32 {
        self.left
    }

    fn right_count(&self) -> u32 {
        self.right
    }

    fn shard_count(&self) -> usize {
        self.shards
    }

    fn emission_order(&self) -> EmissionOrder {
        EmissionOrder::LeftRows
    }

    fn shard_rows(&self, shard: usize) -> Range<u32> {
        shard_span(self.left, shard, self.shards)
    }

    fn shard_edge_hint(&self, shard: usize) -> usize {
        self.shard_rows(shard).len() * self.per_left as usize
    }

    fn fill_shard<S: EdgeSink>(&self, shard: usize, rng: &mut StdRng, sink: &mut S) {
        // Intra-block coin on a 32-bit scale: one u64 drives both the
        // coin (high bits) and the endpoint draw (low bits).
        let intra_threshold = (self.intra_prob * (1u64 << 32) as f64) as u64;
        for row in self.shard_rows(shard) {
            let block = row % self.blocks;
            let per_block = self.right / self.blocks + u32::from(block < self.right % self.blocks);
            sink.begin_row(row);
            for _ in 0..self.per_left {
                let x = rng.gen::<u64>();
                let col = if (x >> 32) < intra_threshold {
                    block + scale32(x as u32, per_block) * self.blocks
                } else {
                    scale32(x as u32, self.right)
                };
                sink.push_col(col);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Scenario enum
// ---------------------------------------------------------------------

/// Plain-data description of a streaming scenario model — the form the
/// CLI's `generate --model`, the workload builder and `bench_pipeline`
/// pass around.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphModel {
    /// Uniform random associations ([`ErdosRenyiStream`]).
    ErdosRenyi {
        /// Left-side node count.
        left: u32,
        /// Right-side node count.
        right: u32,
        /// Uniform draws (realized edges merge duplicates).
        edges: usize,
    },
    /// Power-law attachment ([`ZipfAttachmentStream`]).
    ZipfAttachment {
        /// Left-side node count (the skewed side).
        left: u32,
        /// Right-side node count.
        right: u32,
        /// Partners drawn per right node.
        per_right: u32,
        /// Zipf exponent (≈ 1.05–1.3 matches bibliographic data).
        exponent: f64,
    },
    /// Planted block structure ([`PlantedBipartiteStream`]).
    PlantedBlocks {
        /// Left-side node count.
        left: u32,
        /// Right-side node count.
        right: u32,
        /// Planted groups per side.
        blocks: u32,
        /// Associations drawn per left node.
        per_left: u32,
        /// Probability an association stays inside its block.
        intra_prob: f64,
    },
}

impl GraphModel {
    /// Stable snake_case name (bench report keys, CLI values).
    pub fn name(&self) -> &'static str {
        match self {
            Self::ErdosRenyi { .. } => "erdos_renyi",
            Self::ZipfAttachment { .. } => "zipf_attachment",
            Self::PlantedBlocks { .. } => "planted_blocks",
        }
    }

    /// Edge draws before duplicate merging.
    pub fn expected_edges(&self) -> usize {
        match *self {
            Self::ErdosRenyi { edges, .. } => edges,
            Self::ZipfAttachment {
                right, per_right, ..
            } => right as usize * per_right as usize,
            Self::PlantedBlocks { left, per_left, .. } => left as usize * per_left as usize,
        }
    }

    /// Generates through the streaming engine ([`generate`]).
    ///
    /// # Panics
    ///
    /// Panics if the model parameters are degenerate (see the source
    /// constructors).
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> BipartiteGraph {
        match *self {
            Self::ErdosRenyi { left, right, edges } => {
                generate(&ErdosRenyiStream::new(left, right, edges), rng)
            }
            Self::ZipfAttachment {
                left,
                right,
                per_right,
                exponent,
            } => generate(
                &ZipfAttachmentStream::new(left, right, per_right, exponent),
                rng,
            ),
            Self::PlantedBlocks {
                left,
                right,
                blocks,
                per_left,
                intra_prob,
            } => generate(
                &PlantedBipartiteStream::new(left, right, blocks, per_left, intra_prob),
                rng,
            ),
        }
    }

    /// Generates through the incremental-builder baseline
    /// ([`generate_incremental`]); bit-identical to
    /// [`GraphModel::generate`] under the same seed.
    ///
    /// # Panics
    ///
    /// Panics if the model parameters are degenerate.
    pub fn generate_incremental<R: Rng + ?Sized>(&self, rng: &mut R) -> BipartiteGraph {
        match *self {
            Self::ErdosRenyi { left, right, edges } => {
                generate_incremental(&ErdosRenyiStream::new(left, right, edges), rng)
            }
            Self::ZipfAttachment {
                left,
                right,
                per_right,
                exponent,
            } => generate_incremental(
                &ZipfAttachmentStream::new(left, right, per_right, exponent),
                rng,
            ),
            Self::PlantedBlocks {
                left,
                right,
                blocks,
                per_left,
                intra_prob,
            } => generate_incremental(
                &PlantedBipartiteStream::new(left, right, blocks, per_left, intra_prob),
                rng,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_graph::GraphStats;

    fn models() -> Vec<GraphModel> {
        vec![
            GraphModel::ErdosRenyi {
                left: 300,
                right: 400,
                edges: 3_000,
            },
            GraphModel::ZipfAttachment {
                left: 200,
                right: 900,
                per_right: 3,
                exponent: 1.15,
            },
            GraphModel::PlantedBlocks {
                left: 300,
                right: 300,
                blocks: 5,
                per_left: 8,
                intra_prob: 0.85,
            },
        ]
    }

    #[test]
    fn streaming_equals_incremental_for_every_model() {
        for model in models() {
            let fast = model.generate(&mut StdRng::seed_from_u64(11));
            let slow = model.generate_incremental(&mut StdRng::seed_from_u64(11));
            assert_eq!(fast, slow, "{} diverged from the baseline", model.name());
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for model in models() {
            let a = model.generate(&mut StdRng::seed_from_u64(5));
            let b = model.generate(&mut StdRng::seed_from_u64(5));
            let c = model.generate(&mut StdRng::seed_from_u64(6));
            assert_eq!(a, b);
            assert_ne!(a, c, "{} ignored its seed", model.name());
        }
    }

    #[test]
    fn erdos_renyi_multi_shard_never_exceeds_target() {
        // Large enough for several shards: the fixed per-shard quotas
        // must sum to exactly `edges`, so realized edges stay ≤ target
        // (independent per-shard binomials would break this).
        let model = GraphModel::ErdosRenyi {
            left: 200_000,
            right: 200_000,
            edges: 40_000,
        };
        for seed in 0..8 {
            let g = model.generate(&mut StdRng::seed_from_u64(seed));
            assert!(
                g.edge_count() <= 40_000,
                "seed {seed}: {} draws exceeded the quota",
                g.edge_count()
            );
            assert!(g.edge_count() > 39_000, "seed {seed}: {}", g.edge_count());
        }
        let fast = model.generate(&mut StdRng::seed_from_u64(3));
        let slow = model.generate_incremental(&mut StdRng::seed_from_u64(3));
        assert_eq!(fast, slow);
    }

    #[test]
    fn erdos_renyi_realized_edges_near_target() {
        let g = GraphModel::ErdosRenyi {
            left: 500,
            right: 500,
            edges: 10_000,
        }
        .generate(&mut StdRng::seed_from_u64(1));
        assert!(g.edge_count() <= 10_000);
        assert!(g.edge_count() > 9_500, "got {}", g.edge_count());
        let stats = GraphStats::compute(&g);
        assert!((stats.max_left_degree as f64) < 6.0 * stats.mean_left_degree);
    }

    #[test]
    fn zipf_attachment_left_degrees_are_skewed() {
        let g = GraphModel::ZipfAttachment {
            left: 2_000,
            right: 10_000,
            per_right: 3,
            exponent: 1.1,
        }
        .generate(&mut StdRng::seed_from_u64(2));
        let stats = GraphStats::compute(&g);
        assert!(
            stats.max_left_degree as f64 > 8.0 * stats.mean_left_degree,
            "expected skew: max {} mean {}",
            stats.max_left_degree,
            stats.mean_left_degree
        );
        // Right degrees are capped by construction.
        assert!(stats.max_right_degree <= 3);
    }

    #[test]
    fn planted_blocks_concentrate_intra_mass() {
        let source = PlantedBipartiteStream::new(400, 400, 4, 5, 0.9);
        let g = generate(&source, &mut StdRng::seed_from_u64(3));
        let (pl, pr) = source.ground_truth_partitions();
        let pc = gdp_graph::PairCounts::compute(&g, &pl, &pr);
        let intra: u64 = (0..4).map(|b| pc.get(b, b)).sum();
        let frac = intra as f64 / pc.total() as f64;
        assert!(frac > 0.8, "intra fraction {frac}");
    }

    #[test]
    fn binomial_split_is_exact_at_small_means() {
        // Exhaustively check BINV stays in range and hits both tails.
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen_zero = false;
        let mut seen_two_plus = false;
        for _ in 0..2_000 {
            let k = sample_binomial(&mut rng, 40, 0.02);
            assert!(k <= 40);
            seen_zero |= k == 0;
            seen_two_plus |= k >= 2;
        }
        assert!(seen_zero && seen_two_plus);
    }

    #[test]
    fn binomial_mean_tracks_np() {
        let mut rng = StdRng::seed_from_u64(5);
        for &(n, p) in &[(1_000usize, 0.004), (10_000, 0.3), (5_000, 0.9)] {
            let trials = 3_000;
            let total: f64 = (0..trials)
                .map(|_| sample_binomial(&mut rng, n, p) as f64)
                .sum();
            let mean = total / trials as f64;
            let want = n as f64 * p;
            let sd = (n as f64 * p * (1.0 - p)).sqrt();
            assert!(
                (mean - want).abs() < 4.0 * sd / (trials as f64).sqrt() + 0.5,
                "n={n} p={p}: mean {mean} vs {want}"
            );
        }
    }

    #[test]
    fn shard_spans_tile_exactly() {
        for total in [1u32, 7, 64, 1000] {
            for shards in [1usize, 2, 7, 64] {
                let shards = shards.min(total as usize);
                let mut next = 0u32;
                for s in 0..shards {
                    let span = shard_span(total, s, shards);
                    assert_eq!(span.start, next);
                    next = span.end;
                }
                assert_eq!(next, total);
            }
        }
    }
}
