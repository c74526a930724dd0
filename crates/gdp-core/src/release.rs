use serde::{Deserialize, Serialize};

use gdp_mechanisms::PrivacyBudget;

use crate::disclosure::NoiseMechanism;
use crate::error::CoreError;
use crate::queries::Query;
use crate::sensitivity::LevelSensitivity;
use crate::Result;

/// One query's noisy answer inside a level release.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryRelease {
    /// Which query this answers.
    pub query: Query,
    /// The noisy answer vector (length 1 for scalar queries).
    pub noisy_values: Vec<f64>,
    /// The noise scale used (σ for Gaussian, b for Laplace, the
    /// two-sided-geometric α for geometric noise).
    pub noise_scale: f64,
    /// The group-level sensitivity the noise was calibrated against.
    pub sensitivity: LevelSensitivity,
}

impl QueryRelease {
    /// The scalar noisy answer, if this is a length-1 vector.
    pub fn scalar(&self) -> Option<f64> {
        if self.noisy_values.len() == 1 {
            Some(self.noisy_values[0])
        } else {
            None
        }
    }
}

/// The full noisy disclosure for one hierarchy level — the paper's
/// `I_{L,i}`: every configured query answered with noise calibrated to
/// level-`i` group sensitivity, so the release satisfies `εg`-group-DP
/// with respect to level-`i` groups.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelRelease {
    /// Hierarchy level index (0 = finest / individual).
    pub level: usize,
    /// Number of groups at this level.
    pub group_count: u64,
    /// Largest group size (nodes) at this level.
    pub max_group_size: u32,
    /// The `(ε, δ)` this release individually satisfies at its level.
    pub budget: PrivacyBudget,
    /// The released queries.
    pub queries: Vec<QueryRelease>,
}

impl LevelRelease {
    /// Finds the release for a given query, if it was configured.
    pub fn query(&self, query: Query) -> Option<&QueryRelease> {
        self.queries.iter().find(|q| q.query == query)
    }

    /// Shorthand for the noisy total association count, when released.
    pub fn total_associations(&self) -> Option<f64> {
        self.query(Query::TotalAssociations)
            .and_then(QueryRelease::scalar)
    }

    /// The per-group counts release, if configured — the statistic the
    /// serving layer's subset gathers, group-mass lookups and side
    /// totals are all post-processing of.
    pub fn per_group_counts(&self) -> Option<&QueryRelease> {
        self.query(Query::PerGroupCounts)
    }

    /// The left-degree histogram release, if configured, regardless of
    /// its `max_degree` cap (queries are compared by kind here, not by
    /// exact parameter — a level carries at most one histogram).
    pub fn left_degree_histogram(&self) -> Option<&QueryRelease> {
        self.queries
            .iter()
            .find(|q| matches!(q.query, Query::LeftDegreeHistogram { .. }))
    }
}

/// The complete multi-level disclosure: one [`LevelRelease`] per
/// hierarchy level (finest first), plus the parameters shared by all of
/// them.
///
/// Each level release is intended for a different audience — see
/// [`crate::AccessPolicy`] — and *individually* satisfies
/// `εg`-group-DP at its own level; the releases are not summed by
/// sequential composition across audiences, exactly as in the paper's
/// multi-privilege model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiLevelRelease {
    mechanism: NoiseMechanism,
    epsilon_g: f64,
    delta: f64,
    levels: Vec<LevelRelease>,
}

impl MultiLevelRelease {
    /// Assembles a release bundle. Levels must be supplied finest-first
    /// with contiguous indices.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if level indices are not
    /// `0..n` in order.
    pub fn new(
        mechanism: NoiseMechanism,
        epsilon_g: f64,
        delta: f64,
        levels: Vec<LevelRelease>,
    ) -> Result<Self> {
        for (i, l) in levels.iter().enumerate() {
            if l.level != i {
                return Err(CoreError::InvalidConfig(format!(
                    "level releases out of order: index {i} holds level {}",
                    l.level
                )));
            }
        }
        Ok(Self {
            mechanism,
            epsilon_g,
            delta,
            levels,
        })
    }

    /// The noise mechanism used.
    pub fn mechanism(&self) -> NoiseMechanism {
        self.mechanism
    }

    /// The per-level `εg`.
    pub fn epsilon_g(&self) -> f64 {
        self.epsilon_g
    }

    /// The per-level `δ`.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// All level releases, finest first.
    pub fn levels(&self) -> &[LevelRelease] {
        &self.levels
    }

    /// The release for one level.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::LevelOutOfRange`] for an unknown level.
    pub fn level(&self, i: usize) -> Result<&LevelRelease> {
        self.levels.get(i).ok_or(CoreError::LevelOutOfRange {
            level: i,
            level_count: self.levels.len(),
        })
    }

    /// Serializes the total-count series as CSV
    /// (`level,group_count,sensitivity_l2,noisy_total,noise_scale`),
    /// the table `gdp disclose --csv` writes.
    pub fn total_count_csv(&self) -> String {
        let mut out = String::from("level,group_count,sensitivity_l2,noisy_total,noise_scale\n");
        for l in &self.levels {
            if let Some(q) = l.query(Query::TotalAssociations) {
                out.push_str(&format!(
                    "{},{},{},{},{}\n",
                    l.level,
                    l.group_count,
                    q.sensitivity.l2,
                    q.scalar().unwrap_or(f64::NAN),
                    q.noise_scale
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_mechanisms::{Delta, Epsilon};

    fn budget() -> PrivacyBudget {
        PrivacyBudget {
            epsilon: Epsilon::new(0.5).unwrap(),
            delta: Delta::new(1e-6).unwrap(),
        }
    }

    fn level_release(level: usize, noisy: f64) -> LevelRelease {
        LevelRelease {
            level,
            group_count: 4,
            max_group_size: 2,
            budget: budget(),
            queries: vec![QueryRelease {
                query: Query::TotalAssociations,
                noisy_values: vec![noisy],
                noise_scale: 1.5,
                sensitivity: LevelSensitivity { l1: 3.0, l2: 3.0 },
            }],
        }
    }

    #[test]
    fn lookup_by_query() {
        let l = level_release(0, 41.5);
        assert_eq!(l.total_associations(), Some(41.5));
        assert!(l.query(Query::PerGroupCounts).is_none());
    }

    #[test]
    fn bundle_validates_level_order() {
        let bad = MultiLevelRelease::new(
            NoiseMechanism::GaussianClassic,
            0.5,
            1e-6,
            vec![level_release(1, 1.0)],
        );
        assert!(matches!(bad, Err(CoreError::InvalidConfig(_))));

        let good = MultiLevelRelease::new(
            NoiseMechanism::GaussianClassic,
            0.5,
            1e-6,
            vec![level_release(0, 1.0), level_release(1, 2.0)],
        )
        .unwrap();
        assert_eq!(good.levels().len(), 2);
        assert_eq!(good.level(1).unwrap().total_associations(), Some(2.0));
        assert!(good.level(5).is_err());
    }

    #[test]
    fn csv_has_header_and_rows() {
        let bundle = MultiLevelRelease::new(
            NoiseMechanism::GaussianClassic,
            0.5,
            1e-6,
            vec![level_release(0, 10.0), level_release(1, 20.0)],
        )
        .unwrap();
        let csv = bundle.total_count_csv();
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("level,"));
        assert!(lines[1].starts_with("0,4,3,10"));
    }

    #[test]
    fn scalar_on_vector_release_is_none() {
        let q = QueryRelease {
            query: Query::PerGroupCounts,
            noisy_values: vec![1.0, 2.0],
            noise_scale: 1.0,
            sensitivity: LevelSensitivity { l1: 2.0, l2: 2.0 },
        };
        assert_eq!(q.scalar(), None);
    }
}
