use serde::{Deserialize, Serialize};

use gdp_graph::{BipartiteGraph, DegreeHistogram};

use crate::hierarchy::GroupLevel;
use crate::sensitivity::LevelSensitivity;
use crate::stats::LevelStats;

/// An aggregate query whose answer is released (noisily) at every
/// hierarchy level.
///
/// The paper's evaluation releases [`Query::TotalAssociations`]; the
/// other variants are the natural per-level statistics a real disclosure
/// service publishes, each with its exact or conservatively bounded
/// group-level sensitivity (see [`LevelSensitivity`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Query {
    /// "What is the number of associations in the dataset?" — the count
    /// query from §III of the paper. Scalar answer.
    TotalAssociations,
    /// The incident-association count of every group at the level (left
    /// groups first, then right groups). Vector answer of length
    /// `group_count`.
    PerGroupCounts,
    /// The left-side degree histogram with bins `0..=max_degree`
    /// (degrees above the cap are clamped into the last bin).
    LeftDegreeHistogram {
        /// Largest degree bin (inclusive).
        max_degree: u32,
    },
    /// The **node count of every group** at the level (left groups first,
    /// then right groups) — the structural metadata a deployment must
    /// publish alongside the hierarchy so consumers can interpret
    /// per-group counts. Removing a group zeroes its own size and touches
    /// no other entry, so `Δ₁ = Δ₂ = max group size`.
    GroupSizeCounts,
}

impl Query {
    /// Stable, human-readable query name for release metadata and CSV
    /// headers.
    pub fn name(&self) -> &'static str {
        match self {
            Query::TotalAssociations => "total_associations",
            Query::PerGroupCounts => "per_group_counts",
            Query::LeftDegreeHistogram { .. } => "left_degree_histogram",
            Query::GroupSizeCounts => "group_size_counts",
        }
    }

    /// The length of this query's answer vector at `level` — the shape
    /// sealing holds every released vector to.
    pub(crate) fn answer_len(&self, level: &GroupLevel) -> u64 {
        match self {
            Query::TotalAssociations => 1,
            Query::PerGroupCounts | Query::GroupSizeCounts => level.group_count(),
            Query::LeftDegreeHistogram { max_degree } => u64::from(*max_degree) + 1,
        }
    }

    /// Evaluates the true answer and its group-level sensitivity at
    /// `level`, scanning the graph directly.
    ///
    /// This is the per-level rescan path, kept as the equivalence
    /// baseline; disclosure uses [`Query::answer_cached`], whose output
    /// is bit-identical (pinned by property tests) but derives
    /// edge-dependent quantities from cached level statistics.
    pub fn answer(&self, graph: &BipartiteGraph, level: &GroupLevel) -> QueryAnswer {
        match self {
            Query::TotalAssociations => QueryAnswer {
                values: vec![graph.edge_count() as f64],
                sensitivity: LevelSensitivity::total_count(level, graph),
            },
            Query::PerGroupCounts => {
                let values = level
                    .incident_edges(graph)
                    .into_iter()
                    .map(|c| c as f64)
                    .collect();
                QueryAnswer {
                    values,
                    sensitivity: LevelSensitivity::per_group_counts(level, graph),
                }
            }
            Query::LeftDegreeHistogram { max_degree } => {
                let hist = DegreeHistogram::from_degrees(&graph.left_degrees());
                QueryAnswer {
                    values: clamp_histogram(&hist, *max_degree),
                    sensitivity: LevelSensitivity::left_degree_histogram(level, graph),
                }
            }
            Query::GroupSizeCounts => Self::group_size_counts(level),
        }
    }

    /// Evaluates the true answer and its sensitivity from **cached**
    /// statistics: pair-count marginals stand in for edge scans and the
    /// level-independent left-degree histogram is computed once per
    /// disclosure instead of once per level.
    pub fn answer_cached(&self, ctx: &AnswerContext<'_>) -> QueryAnswer {
        match self {
            Query::TotalAssociations => QueryAnswer {
                values: vec![ctx.stats.total() as f64],
                sensitivity: LevelSensitivity::total_count_cached(ctx.stats),
            },
            Query::PerGroupCounts => {
                let values = ctx
                    .stats
                    .incident_edges()
                    .into_iter()
                    .map(|c| c as f64)
                    .collect();
                QueryAnswer {
                    values,
                    sensitivity: LevelSensitivity::per_group_counts_cached(ctx.stats),
                }
            }
            Query::LeftDegreeHistogram { max_degree } => QueryAnswer {
                values: clamp_histogram(ctx.left_degree_hist, *max_degree),
                sensitivity: LevelSensitivity::left_degree_histogram_cached(ctx.level, ctx.stats),
            },
            Query::GroupSizeCounts => Self::group_size_counts(ctx.level),
        }
    }

    /// Group sizes depend only on the partitions, so both answer paths
    /// share this.
    fn group_size_counts(level: &GroupLevel) -> QueryAnswer {
        let values: Vec<f64> = [level.left(), level.right()]
            .into_iter()
            .flat_map(|side| side.block_sizes())
            .map(|&s| s as f64)
            .collect();
        let max = level.max_group_size() as f64;
        QueryAnswer {
            values,
            sensitivity: LevelSensitivity { l1: max, l2: max },
        }
    }
}

/// Everything [`Query::answer_cached`] needs to answer at one level
/// without rescanning the edge list: the level's cached statistics and
/// the disclosure-wide (level-independent) left-degree histogram.
#[derive(Debug, Clone, Copy)]
pub struct AnswerContext<'a> {
    /// The level being released.
    pub level: &'a GroupLevel,
    /// The level's cached pair counts and marginals.
    pub stats: &'a LevelStats,
    /// The left-side degree histogram, computed once per disclosure.
    pub left_degree_hist: &'a DegreeHistogram,
}

/// Folds a degree histogram into bins `0..=max_degree`, clamping higher
/// degrees into the last bin — shared by both answer paths so their
/// outputs are identical by construction.
fn clamp_histogram(hist: &DegreeHistogram, max_degree: u32) -> Vec<f64> {
    let cap = max_degree as usize;
    let mut values = vec![0f64; cap + 1];
    for (d, &c) in hist.counts().iter().enumerate() {
        values[d.min(cap)] += c as f64;
    }
    values
}

/// A query's true answer paired with its sensitivity at the level it was
/// evaluated for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryAnswer {
    /// The true answer vector (length 1 for scalar queries).
    pub values: Vec<f64>,
    /// Group-level sensitivity at the evaluated level.
    pub sensitivity: LevelSensitivity,
}

impl QueryAnswer {
    /// The scalar answer, if this is a length-1 vector.
    pub fn scalar(&self) -> Option<f64> {
        if self.values.len() == 1 {
            Some(self.values[0])
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_graph::{GraphBuilder, LeftId, RightId, Side, SidePartition};

    fn graph() -> BipartiteGraph {
        let mut b = GraphBuilder::new(4, 4);
        for (l, r) in [(0, 0), (0, 1), (1, 1), (2, 2), (3, 3), (3, 2)] {
            b.add_edge(LeftId::new(l), RightId::new(r)).unwrap();
        }
        b.build()
    }

    fn level() -> GroupLevel {
        GroupLevel::new(
            SidePartition::new(Side::Left, vec![0, 0, 1, 1], 2).unwrap(),
            SidePartition::new(Side::Right, vec![0, 0, 1, 1], 2).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn total_associations_scalar() {
        let a = Query::TotalAssociations.answer(&graph(), &level());
        assert_eq!(a.scalar(), Some(6.0));
        assert_eq!(a.sensitivity.l1, 3.0);
    }

    #[test]
    fn per_group_counts_vector() {
        let a = Query::PerGroupCounts.answer(&graph(), &level());
        assert_eq!(a.values, vec![3.0, 3.0, 3.0, 3.0]);
        assert_eq!(a.scalar(), None);
        // Left groups sum to edge count.
        let left_sum: f64 = a.values[..2].iter().sum();
        assert_eq!(left_sum, 6.0);
    }

    #[test]
    fn degree_histogram_clamps_to_cap() {
        let a = Query::LeftDegreeHistogram { max_degree: 1 }.answer(&graph(), &level());
        // Left degrees are [2,1,1,2]: bin0 = 0, bin1 = 2 + clamped 2 = 4.
        assert_eq!(a.values, vec![0.0, 4.0]);
        let a = Query::LeftDegreeHistogram { max_degree: 3 }.answer(&graph(), &level());
        assert_eq!(a.values, vec![0.0, 2.0, 2.0, 0.0]);
        // Histogram mass = node count regardless of cap.
        assert_eq!(a.values.iter().sum::<f64>(), 4.0);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Query::TotalAssociations.name(), "total_associations");
        assert_eq!(Query::PerGroupCounts.name(), "per_group_counts");
        assert_eq!(
            Query::LeftDegreeHistogram { max_degree: 5 }.name(),
            "left_degree_histogram"
        );
        assert_eq!(Query::GroupSizeCounts.name(), "group_size_counts");
    }

    #[test]
    fn group_size_counts_match_partitions() {
        let a = Query::GroupSizeCounts.answer(&graph(), &level());
        // 2 left blocks of 2 nodes, 2 right blocks of 2 nodes.
        assert_eq!(a.values, vec![2.0, 2.0, 2.0, 2.0]);
        assert_eq!(a.sensitivity.l1, 2.0);
        assert_eq!(a.sensitivity.l2, 2.0);
        // Sizes sum to the node counts per side.
        let left_sum: f64 = a.values[..2].iter().sum();
        assert_eq!(left_sum, 4.0);
    }
}
