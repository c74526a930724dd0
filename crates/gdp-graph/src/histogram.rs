use serde::{Deserialize, Serialize};

/// Serde-facing mirror of [`DegreeHistogram`]; deserializing goes
/// through `TryFrom`, which re-checks the construction invariants, so a
/// histogram loaded from an untrusted document carries the same
/// guarantees as one built by [`DegreeHistogram::from_degrees`].
#[derive(Debug, Deserialize)]
struct HistogramPayload {
    counts: Vec<u64>,
    total: u64,
}

/// A histogram over node degrees (or any non-negative integer quantity).
///
/// Used by [`crate::GraphStats`] for degree-distribution summaries and by
/// the `gdp-core` degree-histogram query, whose noisy release is one of
/// the per-level disclosures. Deserialization re-validates the
/// construction invariants (total equals the summed counts, no empty
/// trailing bin), so a histogram loaded from an untrusted document
/// carries the same guarantees as one built by
/// [`DegreeHistogram::from_degrees`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(try_from = "HistogramPayload")]
pub struct DegreeHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl TryFrom<HistogramPayload> for DegreeHistogram {
    type Error = String;

    fn try_from(p: HistogramPayload) -> Result<Self, String> {
        let sum = p
            .counts
            .iter()
            .try_fold(0u64, |acc, &c| acc.checked_add(c))
            .ok_or_else(|| "histogram counts overflow u64".to_string())?;
        if sum != p.total {
            return Err(format!(
                "histogram total {} disagrees with summed counts {sum}",
                p.total
            ));
        }
        if p.counts.last() == Some(&0) {
            return Err("histogram carries an empty trailing bin".to_string());
        }
        Ok(Self {
            counts: p.counts,
            total: p.total,
        })
    }
}

impl DegreeHistogram {
    /// Builds a histogram from raw degree values. Bin `d` counts the
    /// number of nodes with degree exactly `d`.
    ///
    /// An empty input produces a histogram with **no** bins (not one
    /// spurious zero bin): `counts()` is empty, `total() == 0`, and
    /// `max_degree() == 0` by the saturating convention.
    pub fn from_degrees(degrees: &[u32]) -> Self {
        if degrees.is_empty() {
            return Self {
                counts: Vec::new(),
                total: 0,
            };
        }
        let max = degrees.iter().copied().max().unwrap_or(0) as usize;
        let mut counts = vec![0u64; max + 1];
        for &d in degrees {
            counts[d as usize] += 1;
        }
        Self {
            counts,
            total: degrees.len() as u64,
        }
    }

    /// Number of nodes with degree exactly `d` (0 beyond the max bin).
    pub fn count(&self, d: u32) -> u64 {
        self.counts.get(d as usize).copied().unwrap_or(0)
    }

    /// The per-degree counts, indexed by degree.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest observed degree (0 for an empty histogram).
    pub fn max_degree(&self) -> u32 {
        (self.counts.len().saturating_sub(1)) as u32
    }

    /// Mean degree (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(d, c)| d as u64 * c)
            .sum();
        sum as f64 / self.total as f64
    }

    /// The `q`-quantile of the degree distribution (`q ∈ [0, 1]`),
    /// computed by cumulative counting. Returns 0 for an empty
    /// histogram. `q = 0` is the minimum observed degree; `q = 1` the
    /// maximum observed degree (never an empty trailing bin).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` (including NaN).
    pub fn quantile(&self, q: f64) -> u32 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        if self.total == 0 {
            return 0;
        }
        // Rank of the selected observation, clamped into [1, total] so
        // q = 0 picks the minimum and float rounding near q = 1 cannot
        // push the target past the last observation.
        let target = ((q * self.total as f64).ceil().max(1.0) as u64).min(self.total);
        let mut cum = 0u64;
        for (d, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return d as u32;
            }
        }
        self.max_degree()
    }

    /// Number of observations with degree 0 (isolated nodes).
    pub fn zero_count(&self) -> u64 {
        self.count(0)
    }

    /// The complementary cumulative distribution `P[deg ≥ d]` for each
    /// `d` in `0..=max_degree`, useful for log-log power-law plots.
    pub fn ccdf(&self) -> Vec<f64> {
        if self.total == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.counts.len());
        let mut tail: u64 = self.total;
        for &c in &self.counts {
            out.push(tail as f64 / self.total as f64);
            tail -= c;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_counts() {
        let h = DegreeHistogram::from_degrees(&[0, 1, 1, 3]);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(2), 0);
        assert_eq!(h.count(3), 1);
        assert_eq!(h.count(99), 0);
        assert_eq!(h.total(), 4);
        assert_eq!(h.max_degree(), 3);
        assert_eq!(h.zero_count(), 1);
    }

    #[test]
    fn mean_matches_direct_computation() {
        let degrees = [0u32, 1, 1, 3, 5];
        let h = DegreeHistogram::from_degrees(&degrees);
        let want = degrees.iter().sum::<u32>() as f64 / degrees.len() as f64;
        assert!((h.mean() - want).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let h = DegreeHistogram::from_degrees(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(h.quantile(0.5), 5);
        assert_eq!(h.quantile(1.0), 10);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(0.91), 10);
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = DegreeHistogram::from_degrees(&[]);
        assert_eq!(h.total(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert!(h.ccdf().is_empty());
        // No spurious zero bin: the histogram genuinely has no bins.
        assert!(h.counts().is_empty());
        assert_eq!(h.max_degree(), 0);
        assert_eq!(h.count(0), 0);
        assert_eq!(h.zero_count(), 0);
        // Every quantile of an empty histogram is 0.
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 0);
    }

    #[test]
    fn quantile_extremes_hit_min_and_max_observed() {
        // Degrees with gaps and duplicates: min 2, max 9.
        let h = DegreeHistogram::from_degrees(&[9, 2, 2, 5, 9, 9]);
        assert_eq!(h.quantile(0.0), 2);
        assert_eq!(h.quantile(1.0), 9);
        // Just below/above the 2-mass boundary (2 of 6 observations ≤ 2).
        assert_eq!(h.quantile(2.0 / 6.0), 2);
        assert_eq!(h.quantile(2.0 / 6.0 + 1e-9), 5);
    }

    #[test]
    fn quantile_single_observation() {
        let h = DegreeHistogram::from_degrees(&[7]);
        for q in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 7, "q={q}");
        }
    }

    #[test]
    fn quantile_float_rounding_near_one_stays_in_support() {
        // total = 3: q slightly below 1 must not overshoot the rank.
        let h = DegreeHistogram::from_degrees(&[1, 1, 4]);
        assert_eq!(h.quantile(1.0 - 1e-12), 4);
        assert_eq!(h.quantile(0.999999), 4);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn quantile_rejects_nan() {
        DegreeHistogram::from_degrees(&[1]).quantile(f64::NAN);
    }

    #[test]
    fn ccdf_is_monotone_and_starts_at_one() {
        let h = DegreeHistogram::from_degrees(&[0, 1, 1, 2, 5]);
        let c = h.ccdf();
        assert!((c[0] - 1.0).abs() < 1e-12);
        for w in c.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        // P[deg ≥ 5] = 1/5.
        assert!((c[5] - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn quantile_rejects_out_of_range() {
        DegreeHistogram::from_degrees(&[1]).quantile(1.5);
    }

    #[test]
    fn serde_round_trip_revalidates() {
        let h = DegreeHistogram::from_degrees(&[0, 1, 1, 3]);
        let json = serde_json::to_string(&h).unwrap();
        let back: DegreeHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
        // A doctored total is refused instead of silently accepted.
        let bad = json.replace("\"total\": 4", "\"total\": 9");
        let bad = if bad == json {
            json.replace("\"total\":4", "\"total\":9")
        } else {
            bad
        };
        assert!(serde_json::from_str::<DegreeHistogram>(&bad).is_err());
        // A trailing zero bin cannot come from `from_degrees`: refused.
        assert!(serde_json::from_str::<DegreeHistogram>("{\"counts\":[1,0],\"total\":1}").is_err());
        // The empty histogram round-trips.
        let empty = DegreeHistogram::from_degrees(&[]);
        let json = serde_json::to_string(&empty).unwrap();
        assert_eq!(
            serde_json::from_str::<DegreeHistogram>(&json).unwrap(),
            empty
        );
    }
}
