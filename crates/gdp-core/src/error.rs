use std::error::Error;
use std::fmt;

use gdp_graph::{GraphError, Side};
use gdp_mechanisms::MechanismError;

/// Errors produced by the group-privacy pipeline.
#[derive(Debug)]
pub enum CoreError {
    /// A privacy-mechanism parameter or operation failed.
    Mechanism(MechanismError),
    /// A graph-layer operation failed.
    Graph(GraphError),
    /// A configuration was rejected at construction.
    InvalidConfig(String),
    /// A hierarchy failed validation (refinement broken, size mismatch…).
    InvalidHierarchy(String),
    /// A level index exceeded the hierarchy height.
    LevelOutOfRange {
        /// Requested level.
        level: usize,
        /// Number of levels available.
        level_count: usize,
    },
    /// An access request exceeded the caller's privilege.
    AccessDenied {
        /// The privilege rank presented.
        privilege: usize,
        /// The level that was requested.
        requested_level: usize,
        /// The finest level the privilege may read.
        finest_allowed: usize,
    },
    /// The graph is too small for the requested operation (e.g. cannot
    /// specialize an empty side).
    GraphTooSmall(String),
    /// A subset-count query referenced a node beyond the side's node
    /// count (consumer-side answering; see `answering`).
    SubsetNodeOutOfRange {
        /// Which side the subset lives on.
        side: Side,
        /// The offending node index.
        node: u32,
        /// Number of nodes on that side.
        node_count: u32,
    },
    /// A subset-count query listed the same node more than once.
    /// Duplicates are rejected rather than silently merged (or worse,
    /// double-counted): the caller's subset is malformed and the error
    /// names the first repeated node.
    DuplicateSubsetNode {
        /// Which side the subset lives on.
        side: Side,
        /// The first node that appeared twice.
        node: u32,
    },
    /// A per-group query referenced a group index beyond the level's
    /// group count on that side (consumer-side answering; see
    /// `answering`).
    GroupOutOfRange {
        /// Which side the group lives on.
        side: Side,
        /// The offending group index.
        group: u32,
        /// Number of groups on that side at the level.
        group_count: u32,
    },
    /// `publish_next` was asked to extend an epoch chain that has no
    /// published base epoch for the named dataset — publish epoch 0 with
    /// `publish`/`publish_to_dir_as` first.
    NoBaseEpoch {
        /// The dataset whose chain was asked to advance.
        dataset: String,
    },
    /// A release artifact failed sealing, validation, or carried an
    /// unsupported schema version — or, read back as a JSON export, does
    /// not hash to the content digest its manifest records.
    Artifact(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Mechanism(e) => write!(f, "mechanism error: {e}"),
            Self::Graph(e) => write!(f, "graph error: {e}"),
            Self::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Self::InvalidHierarchy(msg) => write!(f, "invalid hierarchy: {msg}"),
            Self::LevelOutOfRange { level, level_count } => {
                write!(
                    f,
                    "level {level} out of range (hierarchy has {level_count})"
                )
            }
            Self::AccessDenied {
                privilege,
                requested_level,
                finest_allowed,
            } => write!(
                f,
                "privilege {privilege} may not read level {requested_level} \
                 (finest allowed: {finest_allowed})"
            ),
            Self::GraphTooSmall(msg) => write!(f, "graph too small: {msg}"),
            Self::SubsetNodeOutOfRange {
                side,
                node,
                node_count,
            } => write!(
                f,
                "subset node {node} out of range for {side} side of {node_count} nodes"
            ),
            Self::DuplicateSubsetNode { side, node } => {
                write!(f, "subset lists {side} node {node} more than once")
            }
            Self::GroupOutOfRange {
                side,
                group,
                group_count,
            } => write!(
                f,
                "group {group} out of range for {side} side with {group_count} groups"
            ),
            Self::NoBaseEpoch { dataset } => write!(
                f,
                "dataset {dataset:?} has no published base epoch to apply a delta to"
            ),
            Self::Artifact(msg) => write!(f, "artifact error: {msg}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Mechanism(e) => Some(e),
            Self::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MechanismError> for CoreError {
    fn from(e: MechanismError) -> Self {
        Self::Mechanism(e)
    }
}

impl From<GraphError> for CoreError {
    fn from(e: GraphError) -> Self {
        Self::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::from(MechanismError::InvalidEpsilon(-1.0));
        assert!(e.to_string().contains("mechanism"));
        assert!(e.source().is_some());

        let e = CoreError::LevelOutOfRange {
            level: 9,
            level_count: 4,
        };
        assert!(e.to_string().contains('9'));
        assert!(e.source().is_none());
    }

    #[test]
    fn subset_and_artifact_errors_display() {
        let e = CoreError::SubsetNodeOutOfRange {
            side: Side::Left,
            node: 7,
            node_count: 4,
        };
        assert!(e.to_string().contains("left"));
        assert!(e.to_string().contains('7'));
        let e = CoreError::DuplicateSubsetNode {
            side: Side::Right,
            node: 3,
        };
        assert!(e.to_string().contains("more than once"));
        let e = CoreError::Artifact("schema version 9 unsupported".to_string());
        assert!(e.to_string().contains("schema version 9"));
        assert!(e.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
