//! The definitional machinery of the paper — Definitions 1–4 — over
//! abstract dataset vectors.
//!
//! A dataset `D` over a universe `U` is represented as `D ∈ ℕ^{|U|}`
//! (how many copies of each record it contains). Individual adjacency is
//! `‖D₁ − D₂‖₁ = 1` (Definition 1); group-level adjacency is
//! `D₁ = D₂ ∪ Gᵢ` for one group `Gᵢ` of a fixed partition `G` of the
//! universe (Definition 3).
//!
//! These types exist so the definitions can be *executed*: the test
//! suite walks pairs of concrete dataset vectors and verifies the
//! adjacency predicates, and the empirical DP audits in `tests/` use them
//! to build group-adjacent inputs. The production pipeline works on
//! graphs directly, where adjacency is realized by node-group removal.

use serde::{Deserialize, Serialize};

/// A dataset as a multiset over a universe of `|U|` record types:
/// `counts[i]` is the multiplicity of record `i` (Definition 1's
/// `D ∈ ℕ^{|U|}` representation).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatasetVector {
    counts: Vec<u64>,
}

impl DatasetVector {
    /// Creates a dataset from record multiplicities.
    pub fn new(counts: Vec<u64>) -> Self {
        Self { counts }
    }

    /// The empty dataset over a universe of `size` records.
    pub fn empty(size: usize) -> Self {
        Self {
            counts: vec![0; size],
        }
    }

    /// Universe size.
    pub fn universe_size(&self) -> usize {
        self.counts.len()
    }

    /// Multiplicity of record `i` (0 beyond the universe).
    pub fn count(&self, i: usize) -> u64 {
        self.counts.get(i).copied().unwrap_or(0)
    }

    /// The raw multiplicities.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of records.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `‖self − other‖₁` — the Manhattan distance of Definition 1.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ in size.
    pub fn l1_distance(&self, other: &DatasetVector) -> u64 {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "universes differ in size"
        );
        self.counts
            .iter()
            .zip(&other.counts)
            .map(|(a, b)| a.abs_diff(*b))
            .sum()
    }

    /// Definition 1: individual adjacency (`l1 distance == 1`).
    pub fn is_individual_adjacent(&self, other: &DatasetVector) -> bool {
        self.l1_distance(other) == 1
    }

    /// Returns `self ∪ group`: the dataset with one copy of every record
    /// of `group` added.
    ///
    /// # Panics
    ///
    /// Panics if a group member is outside the universe.
    pub fn union_group(&self, group: &Group) -> DatasetVector {
        let mut counts = self.counts.clone();
        for &i in group.members() {
            counts[i] += 1;
        }
        DatasetVector::new(counts)
    }
}

/// One group of a [`GroupStructure`]: a set of universe indices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Group {
    members: Vec<usize>,
}

impl Group {
    /// Creates a group from member indices (sorted and deduplicated).
    pub fn new(mut members: Vec<usize>) -> Self {
        members.sort_unstable();
        members.dedup();
        Self { members }
    }

    /// The member indices, sorted.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the group is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// A partition `G = {G₁, …, Gₙ}` of the universe into non-overlapping
/// groups (the paper's `U = ∪ᵢ Gᵢ` with each record joining exactly one
/// subgroup).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupStructure {
    groups: Vec<Group>,
    universe_size: usize,
}

impl GroupStructure {
    /// Creates a group structure, validating that the groups exactly
    /// partition `0..universe_size`.
    ///
    /// Returns `None` if any record is missing, duplicated, or out of
    /// range, or if any group is empty.
    pub fn new(groups: Vec<Group>, universe_size: usize) -> Option<Self> {
        let mut seen = vec![false; universe_size];
        for g in &groups {
            if g.is_empty() {
                return None;
            }
            for &m in g.members() {
                if m >= universe_size || seen[m] {
                    return None;
                }
                seen[m] = true;
            }
        }
        if seen.iter().all(|&s| s) {
            Some(Self {
                groups,
                universe_size,
            })
        } else {
            None
        }
    }

    /// The all-singletons structure, under which group adjacency
    /// degenerates to individual adjacency.
    pub fn singletons(universe_size: usize) -> Self {
        Self {
            groups: (0..universe_size).map(|i| Group::new(vec![i])).collect(),
            universe_size,
        }
    }

    /// The groups.
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// Universe size.
    pub fn universe_size(&self) -> usize {
        self.universe_size
    }

    /// Largest group size.
    pub fn max_group_size(&self) -> usize {
        self.groups.iter().map(Group::len).max().unwrap_or(0)
    }

    /// Definition 3: `d1` and `d2` are group-level adjacent iff
    /// `d1 = d2 ∪ Gᵢ` or `d2 = d1 ∪ Gᵢ` for some group `Gᵢ` of this
    /// structure.
    pub fn are_group_adjacent(&self, d1: &DatasetVector, d2: &DatasetVector) -> bool {
        self.adjacency_witness(d1, d2).is_some()
    }

    /// Returns the index of the group witnessing adjacency, if any —
    /// exposing the intermediate result so tests can assert *which*
    /// group differs.
    pub fn adjacency_witness(&self, d1: &DatasetVector, d2: &DatasetVector) -> Option<usize> {
        if d1.universe_size() != self.universe_size || d2.universe_size() != self.universe_size {
            return None;
        }
        // Determine the direction: the larger dataset must equal the
        // smaller plus exactly one group.
        let (big, small) = if d1.total() > d2.total() {
            (d1, d2)
        } else {
            (d2, d1)
        };
        for (gi, group) in self.groups.iter().enumerate() {
            if &small.union_group(group) == big {
                return Some(gi);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe4() -> GroupStructure {
        // Groups {0,1} and {2,3}.
        GroupStructure::new(vec![Group::new(vec![0, 1]), Group::new(vec![2, 3])], 4).unwrap()
    }

    #[test]
    fn l1_distance_matches_definition() {
        // The paper's own example: D1 = {a,b,c} vs D2 = {a,c}.
        let d1 = DatasetVector::new(vec![1, 1, 1]);
        let d2 = DatasetVector::new(vec![1, 0, 1]);
        assert_eq!(d1.l1_distance(&d2), 1);
        assert!(d1.is_individual_adjacent(&d2));
        assert!(!d1.is_individual_adjacent(&d1));
    }

    #[test]
    fn group_structure_validation() {
        // Overlapping groups rejected.
        assert!(
            GroupStructure::new(vec![Group::new(vec![0, 1]), Group::new(vec![1, 2])], 3).is_none()
        );
        // Missing record rejected.
        assert!(GroupStructure::new(vec![Group::new(vec![0])], 2).is_none());
        // Out-of-range rejected.
        assert!(GroupStructure::new(vec![Group::new(vec![0, 5])], 2).is_none());
        // Empty group rejected.
        assert!(GroupStructure::new(vec![Group::new(vec![0, 1]), Group::new(vec![])], 2).is_none());
        // Valid partition accepted.
        assert!(universe4().groups().len() == 2);
    }

    #[test]
    fn group_adjacency_definition3() {
        let gs = universe4();
        let d2 = DatasetVector::new(vec![1, 1, 0, 0]);
        // d1 = d2 ∪ G2.
        let d1 = DatasetVector::new(vec![1, 1, 1, 1]);
        assert!(gs.are_group_adjacent(&d1, &d2));
        assert_eq!(gs.adjacency_witness(&d1, &d2), Some(1));
        // Symmetric.
        assert!(gs.are_group_adjacent(&d2, &d1));
        // Not adjacent: differs by half a group.
        let d3 = DatasetVector::new(vec![1, 1, 1, 0]);
        assert!(!gs.are_group_adjacent(&d3, &d2));
        // Not adjacent: differs by two groups.
        let d4 = DatasetVector::new(vec![0, 0, 0, 0]);
        assert!(!gs.are_group_adjacent(&d1, &d4));
    }

    #[test]
    fn singleton_structure_recovers_individual_adjacency() {
        let gs = GroupStructure::singletons(3);
        let d1 = DatasetVector::new(vec![1, 1, 1]);
        let d2 = DatasetVector::new(vec![1, 0, 1]);
        assert_eq!(
            gs.are_group_adjacent(&d1, &d2),
            d1.is_individual_adjacent(&d2)
        );
        assert_eq!(gs.max_group_size(), 1);
    }

    #[test]
    fn union_group_adds_one_copy_each() {
        let d = DatasetVector::empty(4);
        let g = Group::new(vec![2, 0]);
        let u = d.union_group(&g);
        assert_eq!(u.counts(), &[1, 0, 1, 0]);
        assert_eq!(u.total(), 2);
    }

    #[test]
    fn group_normalizes_members() {
        let g = Group::new(vec![3, 1, 3, 2]);
        assert_eq!(g.members(), &[1, 2, 3]);
        assert_eq!(g.len(), 3);
    }

    #[test]
    #[should_panic(expected = "universes differ")]
    fn distance_requires_same_universe() {
        DatasetVector::empty(2).l1_distance(&DatasetVector::empty(3));
    }
}
