use std::fmt;

use serde::{Deserialize, Serialize};

use crate::bipartite::BipartiteGraph;
use crate::histogram::DegreeHistogram;

/// Summary statistics of a bipartite association graph.
///
/// Mirrors the dataset-statistics table the paper reports for DBLP
/// (author count, paper count, association count) plus the degree-shape
/// numbers that matter for group-level sensitivity.
///
/// ```
/// use gdp_graph::{GraphBuilder, GraphStats, LeftId, RightId};
///
/// # fn main() -> Result<(), gdp_graph::GraphError> {
/// let mut b = GraphBuilder::new(2, 2);
/// b.add_edge(LeftId::new(0), RightId::new(0))?;
/// let g = b.build();
/// let stats = GraphStats::compute(&g);
/// assert_eq!(stats.edges, 1);
/// assert_eq!(stats.left_nodes, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphStats {
    /// Number of left-side nodes (e.g. authors).
    pub left_nodes: u32,
    /// Number of right-side nodes (e.g. papers).
    pub right_nodes: u32,
    /// Number of associations.
    pub edges: u64,
    /// Maximum left degree.
    pub max_left_degree: u32,
    /// Maximum right degree.
    pub max_right_degree: u32,
    /// Mean left degree.
    pub mean_left_degree: f64,
    /// Mean right degree.
    pub mean_right_degree: f64,
    /// Median left degree.
    pub median_left_degree: u32,
    /// Median right degree.
    pub median_right_degree: u32,
    /// Count of isolated (degree-0) left nodes.
    pub isolated_left: u64,
    /// Count of isolated (degree-0) right nodes.
    pub isolated_right: u64,
    /// Edge density `m / (n_left · n_right)`.
    pub density: f64,
}

impl GraphStats {
    /// Computes all statistics in two degree passes.
    pub fn compute(graph: &BipartiteGraph) -> Self {
        let ld = graph.left_degrees();
        let rd = graph.right_degrees();
        let lh = DegreeHistogram::from_degrees(&ld);
        let rh = DegreeHistogram::from_degrees(&rd);
        Self {
            left_nodes: graph.left_count(),
            right_nodes: graph.right_count(),
            edges: graph.edge_count(),
            max_left_degree: lh.max_degree(),
            max_right_degree: rh.max_degree(),
            mean_left_degree: lh.mean(),
            mean_right_degree: rh.mean(),
            median_left_degree: lh.quantile(0.5),
            median_right_degree: rh.quantile(0.5),
            isolated_left: lh.zero_count(),
            isolated_right: rh.zero_count(),
            density: graph.density(),
        }
    }

    /// The degree histograms themselves, for callers needing the full
    /// distribution rather than the summary.
    pub fn histograms(graph: &BipartiteGraph) -> (DegreeHistogram, DegreeHistogram) {
        (
            DegreeHistogram::from_degrees(&graph.left_degrees()),
            DegreeHistogram::from_degrees(&graph.right_degrees()),
        )
    }
}

impl fmt::Display for GraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "left nodes        {:>12}",
            group_thousands(self.left_nodes as u64)
        )?;
        writeln!(
            f,
            "right nodes       {:>12}",
            group_thousands(self.right_nodes as u64)
        )?;
        writeln!(f, "associations      {:>12}", group_thousands(self.edges))?;
        writeln!(
            f,
            "max degree (L/R)  {:>12}",
            format!("{}/{}", self.max_left_degree, self.max_right_degree)
        )?;
        writeln!(
            f,
            "mean degree (L/R) {:>12}",
            format!("{:.2}/{:.2}", self.mean_left_degree, self.mean_right_degree)
        )?;
        write!(f, "density           {:>12.3e}", self.density)
    }
}

/// Formats `1234567` as `1,234,567` for experiment tables.
pub(crate) fn group_thousands(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::node::{LeftId, RightId};

    fn sample() -> BipartiteGraph {
        let mut b = GraphBuilder::new(4, 3);
        for (l, r) in [(0, 0), (0, 1), (1, 0), (3, 2)] {
            b.add_edge(LeftId::new(l), RightId::new(r)).unwrap();
        }
        b.build()
    }

    #[test]
    fn stats_fields() {
        let s = GraphStats::compute(&sample());
        assert_eq!(s.left_nodes, 4);
        assert_eq!(s.right_nodes, 3);
        assert_eq!(s.edges, 4);
        assert_eq!(s.max_left_degree, 2);
        assert_eq!(s.max_right_degree, 2);
        assert_eq!(s.isolated_left, 1); // L2
        assert_eq!(s.isolated_right, 0);
        assert!((s.mean_left_degree - 1.0).abs() < 1e-12);
        assert!((s.density - 4.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn display_contains_counts() {
        let s = GraphStats::compute(&sample());
        let out = s.to_string();
        assert!(out.contains("associations"));
        assert!(out.contains('4'));
    }

    #[test]
    fn thousands_grouping() {
        assert_eq!(group_thousands(0), "0");
        assert_eq!(group_thousands(999), "999");
        assert_eq!(group_thousands(1000), "1,000");
        assert_eq!(group_thousands(6384117), "6,384,117");
    }

    #[test]
    fn histograms_match_direct() {
        let g = sample();
        let (lh, rh) = GraphStats::histograms(&g);
        assert_eq!(lh.total(), 4);
        assert_eq!(rh.total(), 3);
        assert_eq!(lh.count(2), 1);
    }
}
