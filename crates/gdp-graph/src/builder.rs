use crate::bipartite::BipartiteGraph;
use crate::error::GraphError;
use crate::node::{LeftId, RightId};
use crate::Result;

/// Incremental builder for [`BipartiteGraph`].
///
/// Edges are validated eagerly against the declared side sizes; duplicate
/// associations are merged at [`GraphBuilder::build`] time (the paper's
/// data model is a set of associations, not a multiset).
///
/// ```
/// use gdp_graph::{GraphBuilder, LeftId, RightId};
///
/// # fn main() -> Result<(), gdp_graph::GraphError> {
/// let mut b = GraphBuilder::new(2, 2);
/// b.add_edge(LeftId::new(0), RightId::new(1))?;
/// b.add_edge(LeftId::new(0), RightId::new(1))?; // duplicate, merged
/// let g = b.build();
/// assert_eq!(g.edge_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    left_count: u32,
    right_count: u32,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with fixed side sizes.
    pub fn new(left_count: u32, right_count: u32) -> Self {
        Self {
            left_count,
            right_count,
            edges: Vec::new(),
        }
    }

    /// Creates a builder with pre-allocated capacity for `edges` edges.
    ///
    /// The capacity is reserved as asked, so pass a count you trust: a
    /// file header's count is only a hint, which
    /// [`crate::io::read_edge_list`] caps at
    /// [`crate::io::MAX_RESERVED_EDGES`] first.
    pub fn with_capacity(left_count: u32, right_count: u32, edges: usize) -> Self {
        Self {
            left_count,
            right_count,
            edges: Vec::with_capacity(edges),
        }
    }

    /// Number of left-side nodes this builder was declared with.
    pub fn left_count(&self) -> u32 {
        self.left_count
    }

    /// Number of right-side nodes this builder was declared with.
    pub fn right_count(&self) -> u32 {
        self.right_count
    }

    /// Number of edges added so far (before dedup).
    pub fn pending_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds one association.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::LeftNodeOutOfRange`] /
    /// [`GraphError::RightNodeOutOfRange`] when an endpoint exceeds the
    /// declared side size.
    pub fn add_edge(&mut self, l: LeftId, r: RightId) -> Result<&mut Self> {
        if l.index() >= self.left_count {
            return Err(GraphError::LeftNodeOutOfRange {
                index: l.index(),
                left_count: self.left_count,
            });
        }
        if r.index() >= self.right_count {
            return Err(GraphError::RightNodeOutOfRange {
                index: r.index(),
                right_count: self.right_count,
            });
        }
        self.edges.push((l.index(), r.index()));
        Ok(self)
    }

    /// Adds many associations.
    ///
    /// # Errors
    ///
    /// Fails on the first out-of-range endpoint; edges added before the
    /// failure remain staged.
    pub fn add_edges<I>(&mut self, edges: I) -> Result<&mut Self>
    where
        I: IntoIterator<Item = (LeftId, RightId)>,
    {
        for (l, r) in edges {
            self.add_edge(l, r)?;
        }
        Ok(self)
    }

    /// Builds the immutable CSR graph, sorting and merging duplicates.
    pub fn build(mut self) -> BipartiteGraph {
        // Sort by (left, right) and dedup to make association a set.
        self.edges.sort_unstable();
        self.edges.dedup();

        let m = self.edges.len();
        let nl = self.left_count as usize;
        let nr = self.right_count as usize;

        let mut left_offsets = vec![0usize; nl + 1];
        for &(l, _) in &self.edges {
            left_offsets[l as usize + 1] += 1;
        }
        for i in 0..nl {
            left_offsets[i + 1] += left_offsets[i];
        }
        let mut left_neighbors = Vec::with_capacity(m);
        for &(_, r) in &self.edges {
            left_neighbors.push(RightId::new(r));
        }

        // Build the right-side CSR with a counting pass.
        let mut right_offsets = vec![0usize; nr + 1];
        for &(_, r) in &self.edges {
            right_offsets[r as usize + 1] += 1;
        }
        for i in 0..nr {
            right_offsets[i + 1] += right_offsets[i];
        }
        let mut cursor = right_offsets.clone();
        let mut right_neighbors = vec![LeftId::new(0); m];
        for &(l, r) in &self.edges {
            let slot = cursor[r as usize];
            right_neighbors[slot] = LeftId::new(l);
            cursor[r as usize] += 1;
        }
        // Edges were sorted by (l, r), so each right-side bucket received
        // its left endpoints in ascending order already.

        BipartiteGraph::from_csr(left_offsets, left_neighbors, right_offsets, right_neighbors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_range_endpoints() {
        let mut b = GraphBuilder::new(2, 3);
        assert!(matches!(
            b.add_edge(LeftId::new(2), RightId::new(0)),
            Err(GraphError::LeftNodeOutOfRange { index: 2, .. })
        ));
        assert!(matches!(
            b.add_edge(LeftId::new(0), RightId::new(3)),
            Err(GraphError::RightNodeOutOfRange { index: 3, .. })
        ));
    }

    #[test]
    fn dedup_merges_duplicates() {
        let mut b = GraphBuilder::new(2, 2);
        for _ in 0..5 {
            b.add_edge(LeftId::new(1), RightId::new(0)).unwrap();
        }
        assert_eq!(b.pending_edges(), 5);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.left_degree(LeftId::new(1)), 1);
        assert_eq!(g.right_degree(RightId::new(0)), 1);
    }

    #[test]
    fn add_edges_bulk() {
        let mut b = GraphBuilder::new(3, 3);
        b.add_edges((0..3).map(|i| (LeftId::new(i), RightId::new(i))))
            .unwrap();
        let g = b.build();
        assert_eq!(g.edge_count(), 3);
        for i in 0..3 {
            assert!(g.has_edge(LeftId::new(i), RightId::new(i)));
        }
    }

    #[test]
    fn both_csr_directions_agree() {
        let mut b = GraphBuilder::new(4, 4);
        let edges = [(0, 1), (0, 2), (1, 0), (2, 3), (3, 3), (3, 0)];
        for (l, r) in edges {
            b.add_edge(LeftId::new(l), RightId::new(r)).unwrap();
        }
        let g = b.build();
        // Every left-listed edge appears in the right CSR and vice versa.
        for (l, r) in g.edges() {
            assert!(g.neighbors_of_right(r).contains(&l));
        }
        let right_total: u32 = (0..4).map(|i| g.right_degree(RightId::new(i))).sum();
        assert_eq!(right_total as u64, g.edge_count());
    }

    #[test]
    fn right_neighbors_are_sorted() {
        let mut b = GraphBuilder::new(5, 1);
        for l in [4u32, 0, 3, 1, 2] {
            b.add_edge(LeftId::new(l), RightId::new(0)).unwrap();
        }
        let g = b.build();
        let ns = g.neighbors_of_right(RightId::new(0));
        let mut sorted = ns.to_vec();
        sorted.sort();
        assert_eq!(ns, sorted.as_slice());
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new(3, 2).build();
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.left_count(), 3);
    }

    #[test]
    fn builder_chaining_style() {
        let mut b = GraphBuilder::new(2, 2);
        b.add_edge(LeftId::new(0), RightId::new(0))
            .unwrap()
            .add_edge(LeftId::new(1), RightId::new(1))
            .unwrap();
        assert_eq!(b.build().edge_count(), 2);
    }
}
