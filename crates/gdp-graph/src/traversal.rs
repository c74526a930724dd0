use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::bipartite::BipartiteGraph;
use crate::node::{LeftId, RightId};

/// Connected-component labels for every node of a bipartite graph.
///
/// Produced by [`connected_components`]; used by dataset generators to
/// report structure and by tests as a structural invariant.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComponentLabeling {
    left_labels: Vec<u32>,
    right_labels: Vec<u32>,
    component_count: u32,
}

impl ComponentLabeling {
    /// Component id of a left node.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn left_component(&self, l: LeftId) -> u32 {
        self.left_labels[l.as_usize()]
    }

    /// Component id of a right node.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn right_component(&self, r: RightId) -> u32 {
        self.right_labels[r.as_usize()]
    }

    /// Total number of components (isolated nodes count as singleton
    /// components).
    pub fn component_count(&self) -> u32 {
        self.component_count
    }

    /// Size (node count, both sides) of each component.
    pub fn component_sizes(&self) -> Vec<u64> {
        let mut sizes = vec![0u64; self.component_count as usize];
        for &c in &self.left_labels {
            sizes[c as usize] += 1;
        }
        for &c in &self.right_labels {
            sizes[c as usize] += 1;
        }
        sizes
    }

    /// Size of the largest component (0 for an empty graph).
    pub fn giant_size(&self) -> u64 {
        self.component_sizes().into_iter().max().unwrap_or(0)
    }
}

/// Labels connected components with breadth-first search over the
/// bipartite adjacency (left and right nodes alternate along paths).
pub fn connected_components(graph: &BipartiteGraph) -> ComponentLabeling {
    const UNVISITED: u32 = u32::MAX;
    let mut left_labels = vec![UNVISITED; graph.left_count() as usize];
    let mut right_labels = vec![UNVISITED; graph.right_count() as usize];
    let mut next = 0u32;
    let mut queue: VecDeque<(bool, u32)> = VecDeque::new();

    for start in 0..graph.left_count() {
        if left_labels[start as usize] != UNVISITED {
            continue;
        }
        left_labels[start as usize] = next;
        queue.push_back((true, start));
        while let Some((is_left, idx)) = queue.pop_front() {
            if is_left {
                for &r in graph.neighbors_of_left(LeftId::new(idx)) {
                    if right_labels[r.as_usize()] == UNVISITED {
                        right_labels[r.as_usize()] = next;
                        queue.push_back((false, r.index()));
                    }
                }
            } else {
                for &l in graph.neighbors_of_right(RightId::new(idx)) {
                    if left_labels[l.as_usize()] == UNVISITED {
                        left_labels[l.as_usize()] = next;
                        queue.push_back((true, l.index()));
                    }
                }
            }
        }
        next += 1;
    }
    // Any remaining unvisited right nodes are isolated singletons.
    for label in right_labels.iter_mut() {
        if *label == UNVISITED {
            *label = next;
            next += 1;
        }
    }
    ComponentLabeling {
        left_labels,
        right_labels,
        component_count: next,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn two_components_plus_isolates() {
        // Component A: L0-R0-L1. Component B: L2-R1. Isolated: L3, R2.
        let mut b = GraphBuilder::new(4, 3);
        for (l, r) in [(0, 0), (1, 0), (2, 1)] {
            b.add_edge(LeftId::new(l), RightId::new(r)).unwrap();
        }
        let g = b.build();
        let cc = connected_components(&g);
        assert_eq!(
            cc.left_component(LeftId::new(0)),
            cc.left_component(LeftId::new(1))
        );
        assert_eq!(
            cc.left_component(LeftId::new(0)),
            cc.right_component(RightId::new(0))
        );
        assert_ne!(
            cc.left_component(LeftId::new(0)),
            cc.left_component(LeftId::new(2))
        );
        // 2 real components + 2 singletons.
        assert_eq!(cc.component_count(), 4);
        let mut sizes = cc.component_sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 1, 2, 3]);
        assert_eq!(cc.giant_size(), 3);
    }

    #[test]
    fn fully_connected_star() {
        let mut b = GraphBuilder::new(1, 5);
        for r in 0..5 {
            b.add_edge(LeftId::new(0), RightId::new(r)).unwrap();
        }
        let cc = connected_components(&b.build());
        assert_eq!(cc.component_count(), 1);
        assert_eq!(cc.giant_size(), 6);
    }

    #[test]
    fn empty_graph_components() {
        let g = BipartiteGraph::empty(2, 2);
        let cc = connected_components(&g);
        assert_eq!(cc.component_count(), 4);
        assert_eq!(cc.giant_size(), 1);
    }
}
