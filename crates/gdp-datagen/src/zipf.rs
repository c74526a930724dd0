//! A Zipf (power-law rank) sampler over `{1, …, n}` with exponent `s > 0`:
//! `P[X = k] ∝ k^{−s}`.
//!
//! Implemented with the rejection-inversion method of Hörmann &
//! Derflinger ("Rejection-inversion to generate variates from monotone
//! discrete distributions", 1996) — O(1) per sample regardless of `n`,
//! which matters because the DBLP-scale generator draws millions of
//! author ranks from a universe of a million authors.

use rand::Rng;

/// O(1)-per-sample Zipf sampler (see module docs).
///
/// ```
/// use gdp_datagen::zipf::ZipfSampler;
/// use rand::SeedableRng;
///
/// let z = ZipfSampler::new(1_000, 1.2).expect("valid parameters");
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let k = z.sample(&mut rng);
/// assert!((1..=1_000).contains(&k));
/// ```
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    n: u64,
    s: f64,
    h_x1: f64,
    h_half: f64,
    hx0: f64,
    head: HeadTable,
}

/// Precomputed envelope boundaries and acceptance thresholds for the
/// first [`HEAD_TABLE_MAX`] ranks — where a Zipf distribution holds
/// nearly all of its mass. The batched sampling path
/// ([`ZipfSampler::sample_into`]) replaces its per-draw transcendental
/// work (`H⁻¹`, `H`, `k^{−s}`) with one binary search plus one
/// comparison against these tables whenever the uniform lands in the
/// head region; only tail draws fall back to the closed-form path.
#[derive(Debug, Clone)]
struct HeadTable {
    /// `upper[k-1] = H(k + 0.5)` for `k = 1..=len` — ascending, so the
    /// candidate rank for a uniform `u` is the first entry `≥ u`.
    upper: Vec<f64>,
    /// `threshold[k-1] = H(k + 0.5) − k^{−s}`: accept candidate `k`
    /// iff `u ≥ threshold[k-1]` — the same float expression the
    /// per-draw path evaluates. (Candidate *selection* may still differ
    /// from the per-draw path by one rank when a uniform lands within a
    /// few ulps of an envelope boundary — `H⁻¹` is only an approximate
    /// inverse of the tabulated `H` — so the two paths sample the same
    /// law but are not stream-identical; the statistical tests pin the
    /// distribution, not the draw sequence.)
    threshold: Vec<f64>,
}

/// Head-table size cap: covers the whole support for small universes
/// and the high-mass head for large ones (≈90 % of draws at the
/// bibliographic exponents this workspace uses).
const HEAD_TABLE_MAX: u64 = 1024;

impl HeadTable {
    fn build(n: u64, s: f64) -> Self {
        let len = n.min(HEAD_TABLE_MAX) as usize;
        let mut upper = Vec::with_capacity(len);
        let mut threshold = Vec::with_capacity(len);
        for k in 1..=len as u64 {
            let kf = k as f64;
            let h_upper = h_integral(kf + 0.5, s);
            upper.push(h_upper);
            threshold.push(h_upper - (-s * kf.ln()).exp());
        }
        Self { upper, threshold }
    }
}

impl ZipfSampler {
    /// Creates a sampler over `{1, …, n}` with exponent `s`.
    ///
    /// Returns `None` when `n == 0` or `s` is not finite and positive
    /// (the method also supports `s = 1` via its log branch).
    pub fn new(n: u64, s: f64) -> Option<Self> {
        if n == 0 || !s.is_finite() || s <= 0.0 {
            return None;
        }
        let h = |x: f64| -> f64 { h_integral(x, s) };
        Some(Self {
            n,
            s,
            h_x1: h(1.5) - 1.0,
            h_half: h(0.5),
            hx0: h(n as f64 + 0.5),
            head: HeadTable::build(n, s),
        })
    }

    /// The support upper bound `n`.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The exponent `s`.
    pub fn exponent(&self) -> f64 {
        self.s
    }

    /// Draws one rank in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        // Rejection-inversion over the envelope H.
        loop {
            let u = self.hx0 + rng.gen::<f64>() * (self.h_half - self.hx0);
            let x = h_integral_inverse(u, self.s);
            let k64 = x.clamp(1.0, self.n as f64);
            let k = (k64 + 0.5) as u64;
            let k = k.clamp(1, self.n);
            let kf = k as f64;
            if u >= h_integral(kf + 0.5, self.s) - (-self.s * kf.ln()).exp() {
                return k;
            }
            // Shortcut acceptance for the head of the distribution.
            if u >= self.h_x1 {
                return 1;
            }
        }
    }

    /// Fills `out` with fresh ranks — the batched counterpart of
    /// [`ZipfSampler::sample`], following the workspace's
    /// `sample_into`/`randomize_slice` batched-sampling convention
    /// (see `docs/batched-noise.md`): one calibrated sampler, `N`
    /// draws, no per-value re-setup.
    ///
    /// Unlike the closed-form per-draw path, this routes every draw
    /// through the precomputed head table: a uniform landing among the
    /// first 1024 ranks (≈90 % of draws at bibliographic exponents)
    /// resolves by binary search + one table comparison —
    /// no `ln`/`exp` at all — which is what lifts the sampler-bound
    /// Zipf-attachment datagen model (`bench_pipeline`'s
    /// `zipf_sampler` entry measures the two paths head-to-head).
    ///
    /// ```
    /// use gdp_datagen::zipf::ZipfSampler;
    /// use rand::SeedableRng;
    ///
    /// let z = ZipfSampler::new(100, 1.1).expect("valid parameters");
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    /// let mut ranks = [0u64; 8];
    /// z.sample_into(&mut ranks, &mut rng);
    /// assert!(ranks.iter().all(|&k| (1..=100).contains(&k)));
    /// ```
    pub fn sample_into<R: Rng + ?Sized>(&self, out: &mut [u64], rng: &mut R) {
        for slot in out {
            *slot = self.sample_assisted(rng);
        }
    }

    /// One draw through the head table (tail draws fall back to the
    /// closed-form rejection-inversion step).
    fn sample_assisted<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        // The uniform runs over (H(0.5), H(n+0.5)]; small u ↔ small
        // rank. `head_ceiling` is H(len+0.5), the upper edge of the
        // last tabulated rank's envelope region.
        let head_ceiling = *self.head.upper.last().expect("table is non-empty");
        loop {
            let u = self.hx0 + rng.gen::<f64>() * (self.h_half - self.hx0);
            if u <= head_ceiling {
                // Candidate rank: first k with u ≤ H(k + 0.5).
                let idx = self.head.upper.partition_point(|&b| b < u);
                if u >= self.head.threshold[idx] {
                    return idx as u64 + 1;
                }
            } else {
                // Tail: the same closed-form step `sample` performs.
                let x = h_integral_inverse(u, self.s);
                let k64 = x.clamp(1.0, self.n as f64);
                let k = (k64 + 0.5) as u64;
                let k = k.clamp(1, self.n);
                let kf = k as f64;
                if u >= h_integral(kf + 0.5, self.s) - (-self.s * kf.ln()).exp() {
                    return k;
                }
            }
            // Shortcut acceptance for the head of the distribution
            // (the same rule the per-draw path applies).
            if u >= self.h_x1 {
                return 1;
            }
        }
    }

    /// The normalized probability `P[X = k]`, computed by brute force —
    /// O(n); intended for tests and small `n` only.
    pub fn pmf(&self, k: u64) -> f64 {
        if k == 0 || k > self.n {
            return 0.0;
        }
        let z: f64 = (1..=self.n).map(|i| (i as f64).powf(-self.s)).sum();
        (k as f64).powf(-self.s) / z
    }
}

/// Bijectively spreads a **zero-based** Zipf rank (`rank < n`) over the
/// id space `0..n`, so popularity is not correlated with id order. (One
/// fixed point remains: rank 0 — zero under any multiplicative hash —
/// stays at id 0; every other rank scatters.) A [`ZipfSampler`] draw is
/// 1-based — subtract 1 first.
///
/// Multiplicative hashing by a fixed odd constant permutes
/// `0..next_power_of_two(n)`; anything landing beyond `n` is folded
/// back in by re-hashing. Termination holds because a permutation's
/// orbit returns to its starting point, and the start (`rank`) is
/// itself `< n` — which is why the zero-based precondition is enforced
/// rather than documented away (some overshoot-only orbits exist).
/// Shared by the DBLP generator and the streaming Zipf-attachment model
/// so both produce the same notion of "popularity scattered over ids".
///
/// ```
/// use gdp_datagen::zipf::spread_rank;
///
/// let n = 1000;
/// let mut seen = vec![false; n as usize];
/// for rank in 0..n {
///     let id = spread_rank(rank, n);
///     assert!(id < n && !seen[id as usize]); // injective, in range
///     seen[id as usize] = true;
/// }
/// ```
///
/// # Panics
///
/// Panics if `n` is zero or `rank >= n` (e.g. a 1-based rank passed
/// without the `- 1`).
pub fn spread_rank(rank: u64, n: u64) -> u64 {
    assert!(n > 0, "id space must be non-empty");
    assert!(rank < n, "rank {rank} must be zero-based and below {n}");
    let m = n.next_power_of_two();
    let mut x = rank;
    loop {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) & (m - 1);
        if x < n {
            return x;
        }
    }
}

/// `H(x) = ∫ x^{−s} dx`: `(x^{1−s} − 1)/(1 − s)` for `s ≠ 1`, `ln x` else.
/// Written with `exp_m1`/`ln_1p` for precision near `s = 1`.
fn h_integral(x: f64, s: f64) -> f64 {
    let log_x = x.ln();
    helper2((1.0 - s) * log_x) * log_x
}

/// Inverse of [`h_integral`].
fn h_integral_inverse(u: f64, s: f64) -> f64 {
    let mut t = u * (1.0 - s);
    if t < -1.0 {
        // Clamp round-off below the smallest representable branch value.
        t = -1.0;
    }
    (helper1(t) * u).exp()
}

/// `helper1(x) = ln(1+x)/x`, extended continuously to 1 at 0.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
    }
}

/// `helper2(x) = (e^x − 1)/x`, extended continuously to 1 at 0.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(ZipfSampler::new(0, 1.0).is_none());
        assert!(ZipfSampler::new(10, 0.0).is_none());
        assert!(ZipfSampler::new(10, -1.0).is_none());
        assert!(ZipfSampler::new(10, f64::NAN).is_none());
    }

    #[test]
    fn samples_stay_in_support() {
        let z = ZipfSampler::new(50, 1.1).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50_000 {
            let k = z.sample(&mut rng);
            assert!((1..=50).contains(&k));
        }
    }

    #[test]
    fn empirical_frequencies_match_pmf() {
        let z = ZipfSampler::new(20, 1.3).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let n = 400_000;
        let mut counts = [0u64; 21];
        for _ in 0..n {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for k in 1..=20u64 {
            let freq = counts[k as usize] as f64 / n as f64;
            let want = z.pmf(k);
            assert!(
                (freq - want).abs() < 0.01,
                "k={k}: freq {freq} vs pmf {want}"
            );
        }
    }

    #[test]
    fn exponent_one_works() {
        let z = ZipfSampler::new(100, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0u64; 101];
        let n = 200_000;
        for _ in 0..n {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        // P[1]/P[2] = 2 under s = 1.
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((ratio - 2.0).abs() < 0.15, "ratio {ratio}");
    }

    #[test]
    fn heavier_tail_with_smaller_exponent() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 100_000;
        let tail_mass = |s: f64, rng: &mut StdRng| {
            let z = ZipfSampler::new(1000, s).unwrap();
            (0..n).filter(|_| z.sample(rng) > 100).count() as f64 / n as f64
        };
        let heavy = tail_mass(0.8, &mut rng);
        let light = tail_mass(2.0, &mut rng);
        assert!(
            heavy > light + 0.05,
            "expected heavier tail: {heavy} vs {light}"
        );
    }

    #[test]
    fn singleton_support() {
        let z = ZipfSampler::new(1, 1.5).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 1);
        }
        assert!((z.pmf(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = ZipfSampler::new(30, 1.7).unwrap();
        let total: f64 = (1..=30).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(z.pmf(0), 0.0);
        assert_eq!(z.pmf(31), 0.0);
    }

    #[test]
    fn large_n_is_fast_and_valid() {
        let z = ZipfSampler::new(2_000_000, 1.05).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..10_000 {
            let k = z.sample(&mut rng);
            assert!((1..=2_000_000).contains(&k));
        }
    }

    #[test]
    fn batched_frequencies_match_pmf() {
        // The table-assisted batch path samples the same law as the
        // per-draw path: compare its empirical frequencies to the pmf.
        let z = ZipfSampler::new(20, 1.3).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 400_000usize;
        let mut draws = vec![0u64; n];
        z.sample_into(&mut draws, &mut rng);
        let mut counts = [0u64; 21];
        for &k in &draws {
            assert!((1..=20).contains(&k));
            counts[k as usize] += 1;
        }
        for k in 1..=20u64 {
            let freq = counts[k as usize] as f64 / n as f64;
            let want = z.pmf(k);
            assert!(
                (freq - want).abs() < 0.01,
                "k={k}: freq {freq} vs pmf {want}"
            );
        }
    }

    #[test]
    fn batched_tail_beyond_table_stays_in_support_and_occupied() {
        // A universe far larger than the head table: tail ranks must
        // still be reachable and in range through the fallback branch.
        let z = ZipfSampler::new(2_000_000, 1.05).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let mut draws = vec![0u64; 20_000];
        z.sample_into(&mut draws, &mut rng);
        assert!(draws.iter().all(|&k| (1..=2_000_000).contains(&k)));
        let tail = draws.iter().filter(|&&k| k > HEAD_TABLE_MAX).count();
        assert!(tail > 0, "no draw ever left the head table");
    }

    #[test]
    fn batched_head_matches_per_draw_distribution() {
        // Head-region agreement between the two paths, rank by rank:
        // both must put statistically identical mass on the top ranks.
        let z = ZipfSampler::new(5_000, 1.15).unwrap();
        let n = 300_000usize;
        let mut rng = StdRng::seed_from_u64(9);
        let mut batched = vec![0u64; n];
        z.sample_into(&mut batched, &mut rng);
        let mut rng = StdRng::seed_from_u64(10);
        let per_draw: Vec<u64> = (0..n).map(|_| z.sample(&mut rng)).collect();
        for k in 1..=8u64 {
            let fb = batched.iter().filter(|&&x| x == k).count() as f64 / n as f64;
            let fp = per_draw.iter().filter(|&&x| x == k).count() as f64 / n as f64;
            assert!(
                (fb - fp).abs() < 0.01,
                "k={k}: batched {fb} vs per-draw {fp}"
            );
        }
    }

    #[test]
    fn helpers_are_continuous_at_zero() {
        assert!((helper1(1e-12) - 1.0).abs() < 1e-9);
        assert!((helper2(1e-12) - 1.0).abs() < 1e-9);
        assert!((helper1(0.1) - (1.1f64).ln() / 0.1).abs() < 1e-12);
        assert!((helper2(0.1) - (0.1f64.exp() - 1.0) / 0.1).abs() < 1e-12);
    }
}
