use rand::Rng;
use serde::{Deserialize, Serialize};

use gdp_graph::{BipartiteGraph, GraphBuilder, LeftId, RightId};

use crate::zipf::ZipfSampler;

/// Configuration of the DBLP-like bipartite generator.
///
/// Authors are the left side, papers the right side. Each paper draws an
/// author-list size from a truncated geometric-like distribution with the
/// configured mean, and fills the list with authors drawn by **Zipf rank**
/// — a heavy-tailed productivity distribution matching bibliographic
/// reality (a few authors write hundreds of papers; most write one or
/// two). The Zipf ranks are shuffled over author ids by a fixed
/// multiplicative hash so that "rank 1" is not always author 0.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DblpConfig {
    /// Number of authors (left nodes).
    pub authors: u32,
    /// Number of papers (right nodes).
    pub papers: u32,
    /// Mean number of authors per paper (DBLP ≈ 2.80).
    pub mean_authors_per_paper: f64,
    /// Maximum author-list size per paper.
    pub max_authors_per_paper: u32,
    /// Zipf exponent of author productivity (≈ 1.05–1.3 fits DBLP).
    pub zipf_exponent: f64,
    /// Cap on papers per author. Real bibliographies are a *truncated*
    /// power law — the busiest DBLP author has a few thousand papers,
    /// about 3·10⁻⁴ of all associations, not the constant fraction a raw
    /// Zipf draw would allocate. Presets keep `cap / edges` roughly
    /// scale-invariant so relative errors transfer across scales.
    pub max_papers_per_author: u32,
}

impl DblpConfig {
    /// The paper's exact DBLP totals: 1,295,100 authors; 2,281,341
    /// papers; mean authors/paper calibrated so expected associations ≈
    /// 6,384,117. Generation takes a few seconds and ~200 MB.
    pub fn paper_scale() -> Self {
        Self {
            authors: 1_295_100,
            papers: 2_281_341,
            // 6,384,117 / 2,281,341 ≈ 2.7984
            mean_authors_per_paper: 6_384_117.0 / 2_281_341.0,
            max_authors_per_paper: 24,
            zipf_exponent: 1.15,
            max_papers_per_author: 2_000,
        }
    }

    /// 1:100 scale with identical shape — the default for experiments.
    pub fn laptop_scale() -> Self {
        Self {
            authors: 12_951,
            papers: 22_813,
            mean_authors_per_paper: 6_384_117.0 / 2_281_341.0,
            max_authors_per_paper: 24,
            zipf_exponent: 1.15,
            max_papers_per_author: 20,
        }
    }

    /// A tiny instance for unit tests and doc examples.
    pub fn tiny() -> Self {
        Self {
            authors: 120,
            papers: 200,
            mean_authors_per_paper: 2.8,
            max_authors_per_paper: 8,
            zipf_exponent: 1.15,
            max_papers_per_author: 40,
        }
    }

    /// Expected number of associations (before duplicate-author merging).
    pub fn expected_edges(&self) -> f64 {
        self.papers as f64 * self.mean_authors_per_paper
    }
}

impl Default for DblpConfig {
    /// [`DblpConfig::laptop_scale`].
    fn default() -> Self {
        Self::laptop_scale()
    }
}

/// Generator producing DBLP-like author–paper association graphs from a
/// [`DblpConfig`]. See the config docs for the generative model.
///
/// ```
/// use gdp_datagen::{DblpConfig, DblpGenerator};
/// use rand::SeedableRng;
///
/// let gen = DblpGenerator::new(DblpConfig::tiny());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(42);
/// let g = gen.generate(&mut rng);
/// assert_eq!(g.left_count(), 120);
/// assert_eq!(g.right_count(), 200);
/// ```
#[derive(Debug, Clone)]
pub struct DblpGenerator {
    config: DblpConfig,
}

impl DblpGenerator {
    /// Creates a generator with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero authors/papers,
    /// non-positive mean, mean exceeding the max list size, or an invalid
    /// Zipf exponent) — configurations are programmer input, not data.
    pub fn new(config: DblpConfig) -> Self {
        assert!(config.authors > 0, "authors must be positive");
        assert!(config.papers > 0, "papers must be positive");
        assert!(
            config.mean_authors_per_paper > 1.0,
            "mean authors/paper must exceed 1"
        );
        assert!(
            (config.mean_authors_per_paper) <= config.max_authors_per_paper as f64,
            "mean exceeds max list size"
        );
        assert!(
            config.zipf_exponent.is_finite() && config.zipf_exponent > 0.0,
            "zipf exponent must be positive"
        );
        assert!(
            config.max_papers_per_author as f64 * config.authors as f64
                > 1.2 * config.expected_edges(),
            "per-author cap leaves too little capacity for the target edge count"
        );
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DblpConfig {
        &self.config
    }

    /// Generates one graph. Deterministic given the RNG state.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> BipartiteGraph {
        let c = &self.config;
        let zipf = ZipfSampler::new(c.authors as u64, c.zipf_exponent).expect("validated in new()");
        let mut builder =
            GraphBuilder::with_capacity(c.authors, c.papers, c.expected_edges().ceil() as usize);
        // Geometric author-list size: P[k] = (1−p)^{k−1}·p on k ≥ 1 has
        // mean 1/p, so p = 1/mean; truncation at max barely moves the
        // mean for DBLP-like parameters (tail mass < 1e-4).
        let p = (1.0 / c.mean_authors_per_paper).min(1.0);
        let mut load = vec![0u32; c.authors as usize];
        for paper in 0..c.papers {
            let k = sample_list_size(rng, p, c.max_authors_per_paper);
            for _ in 0..k {
                let author = self.pick_author(&zipf, &mut load, rng);
                builder
                    .add_edge(LeftId::new(author), RightId::new(paper))
                    .expect("generated indices are in range");
            }
        }
        builder.build()
    }

    /// Draws an author by truncated Zipf rank: resample while the chosen
    /// author is at the per-author cap, falling back to a linear probe
    /// from a random start (total capacity exceeds demand by
    /// construction, so the probe terminates).
    fn pick_author<R: Rng + ?Sized>(
        &self,
        zipf: &ZipfSampler,
        load: &mut [u32],
        rng: &mut R,
    ) -> u32 {
        let c = &self.config;
        for _ in 0..32 {
            let rank = zipf.sample(rng);
            let author = scramble_rank(rank - 1, c.authors);
            if load[author as usize] < c.max_papers_per_author {
                load[author as usize] += 1;
                return author;
            }
        }
        let start = rng.gen_range(0..c.authors);
        for offset in 0..c.authors {
            let author = (start + offset) % c.authors;
            if load[author as usize] < c.max_papers_per_author {
                load[author as usize] += 1;
                return author;
            }
        }
        unreachable!("capacity validated in new(): some author is below the cap")
    }
}

/// Author-list size: `1 + Geometric(p)`, truncated to `1..=max`.
fn sample_list_size<R: Rng + ?Sized>(rng: &mut R, p: f64, max: u32) -> u32 {
    let mut k = 1u32;
    while k < max && rng.gen::<f64>() > p {
        k += 1;
    }
    k
}

/// Bijectively scrambles a Zipf rank into an author id so popular ranks
/// are spread over the id space (see [`crate::zipf::spread_rank`]).
fn scramble_rank(rank: u64, n: u32) -> u32 {
    crate::zipf::spread_rank(rank, n as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_graph::GraphStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tiny_generation_is_deterministic() {
        let gen = DblpGenerator::new(DblpConfig::tiny());
        let a = gen.generate(&mut StdRng::seed_from_u64(9));
        let b = gen.generate(&mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
        let c = gen.generate(&mut StdRng::seed_from_u64(10));
        assert_ne!(a, c);
    }

    #[test]
    fn edge_count_close_to_expected() {
        let config = DblpConfig {
            authors: 5_000,
            papers: 10_000,
            mean_authors_per_paper: 2.8,
            max_authors_per_paper: 24,
            zipf_exponent: 1.15,
            max_papers_per_author: 40,
        };
        let g = DblpGenerator::new(config).generate(&mut StdRng::seed_from_u64(1));
        let expected = config.expected_edges();
        // Duplicate (author, paper) pairs merge, so the realized count
        // sits slightly below expectation; accept a 12% band.
        let ratio = g.edge_count() as f64 / expected;
        assert!(
            (0.83..=1.05).contains(&ratio),
            "edges {} vs expected {expected}",
            g.edge_count()
        );
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let config = DblpConfig {
            authors: 20_000,
            papers: 40_000,
            mean_authors_per_paper: 2.8,
            max_authors_per_paper: 24,
            zipf_exponent: 1.1,
            max_papers_per_author: 120,
        };
        let g = DblpGenerator::new(config).generate(&mut StdRng::seed_from_u64(2));
        let stats = GraphStats::compute(&g);
        // Heavy tail: the busiest author has far more papers than the
        // mean, saturating near (but never beyond) the per-author cap.
        assert!(
            stats.max_left_degree as f64 > 15.0 * stats.mean_left_degree,
            "max {} mean {}",
            stats.max_left_degree,
            stats.mean_left_degree
        );
        assert!(stats.max_left_degree <= 120);
        // Papers have bounded author lists.
        assert!(stats.max_right_degree <= 24);
    }

    #[test]
    fn paper_scale_config_matches_paper_totals() {
        let c = DblpConfig::paper_scale();
        assert_eq!(c.authors, 1_295_100);
        assert_eq!(c.papers, 2_281_341);
        assert!((c.expected_edges() - 6_384_117.0).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "mean exceeds max")]
    fn degenerate_config_panics() {
        DblpGenerator::new(DblpConfig {
            authors: 10,
            papers: 10,
            mean_authors_per_paper: 50.0,
            max_authors_per_paper: 8,
            zipf_exponent: 1.0,
            max_papers_per_author: 100,
        });
    }

    #[test]
    fn scramble_is_injective_over_small_domain() {
        let n = 1000u32;
        let mut seen = vec![false; n as usize];
        for rank in 0..n as u64 {
            let id = scramble_rank(rank, n);
            assert!(id < n);
            assert!(!seen[id as usize], "collision at rank {rank}");
            seen[id as usize] = true;
        }
    }

    #[test]
    fn list_size_mean_is_near_target() {
        let mut rng = StdRng::seed_from_u64(3);
        let mean_target = 2.8f64;
        let p = 1.0 / mean_target;
        let n = 100_000;
        let mean = (0..n)
            .map(|_| sample_list_size(&mut rng, p, 24) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - mean_target).abs() < 0.1, "mean {mean}");
    }
}
