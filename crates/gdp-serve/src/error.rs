use std::error::Error;
use std::fmt;

use gdp_core::CoreError;
use gdp_graph::GraphError;

/// Errors produced by the serving subsystem.
#[derive(Debug)]
pub enum ServeError {
    /// A core-pipeline error (access denial, malformed subset, level
    /// out of range, artifact validation, …).
    Core(CoreError),
    /// No artifact registered under the requested `(dataset, epoch)`.
    UnknownRelease {
        /// Requested dataset key.
        dataset: String,
        /// Requested epoch.
        epoch: u64,
    },
    /// An artifact for this `(dataset, epoch)` is already registered —
    /// published releases are immutable, so re-inserting a key is
    /// almost certainly a deployment bug rather than an update. The
    /// classic shape: one epoch published under two file names in the
    /// same directory (`dblp-e1.gda` and a renamed copy).
    DuplicateRelease {
        /// Conflicting dataset key.
        dataset: String,
        /// Conflicting epoch.
        epoch: u64,
        /// The on-disk files involved, when known: first the file
        /// already backing the registered release, then the colliding
        /// one. Empty for purely programmatic double-inserts.
        paths: Vec<String>,
    },
    /// The artifact does not carry per-group counts at this level, so
    /// subset-count, group-mass and side-total queries cannot be
    /// answered from it.
    LevelNotIndexed {
        /// The level that lacks a per-group release.
        level: usize,
    },
    /// The artifact released no such statistic at this level (e.g. a
    /// degree histogram that was never disclosed, or the right side of
    /// a left-only histogram release).
    StatisticNotReleased {
        /// The level that lacks the statistic.
        level: usize,
        /// Human-readable name of the missing statistic.
        statistic: String,
    },
    /// A directory scan found no `.gda` artifact files — almost certainly
    /// a wrong path rather than an intentionally empty store.
    EmptyDirectory {
        /// The scanned directory.
        path: String,
    },
    /// A subset-query workload file could not be parsed.
    Workload {
        /// 1-based line number of the failure.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A serving-path invariant was violated (e.g. a subset count that
    /// did not resolve to a scalar). Surfacing this as a typed error
    /// instead of panicking keeps a malformed request from ever killing
    /// a worker thread; seeing one is a bug in the serving layer, not
    /// in the request.
    Internal(
        /// What invariant broke.
        String,
    ),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Core(e) => write!(f, "{e}"),
            Self::UnknownRelease { dataset, epoch } => {
                write!(
                    f,
                    "no release registered for dataset `{dataset}` epoch {epoch}"
                )
            }
            Self::DuplicateRelease {
                dataset,
                epoch,
                paths,
            } => {
                write!(
                    f,
                    "a release for dataset `{dataset}` epoch {epoch} is already registered"
                )?;
                if !paths.is_empty() {
                    write!(f, " ({})", paths.join(" vs "))?;
                }
                Ok(())
            }
            Self::LevelNotIndexed { level } => write!(
                f,
                "level {level} released no per-group counts; subset, group-mass and \
                 side-total queries need them"
            ),
            Self::StatisticNotReleased { level, statistic } => {
                write!(f, "level {level} released no {statistic}")
            }
            Self::EmptyDirectory { path } => {
                write!(f, "directory {path} holds no artifact files (.gda)")
            }
            Self::Workload { line, message } => {
                write!(f, "workload parse error at line {line}: {message}")
            }
            Self::Internal(message) => {
                write!(f, "internal serving invariant violated: {message}")
            }
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        Self::Core(e)
    }
}

impl From<GraphError> for ServeError {
    fn from(e: GraphError) -> Self {
        Self::Core(CoreError::Graph(e))
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        Self::Core(CoreError::Graph(GraphError::Io(e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ServeError::UnknownRelease {
            dataset: "dblp".to_string(),
            epoch: 7,
        };
        assert!(e.to_string().contains("dblp"));
        assert!(e.source().is_none());

        let e = ServeError::from(CoreError::Artifact("bad".to_string()));
        assert!(e.source().is_some());

        let e = ServeError::DuplicateRelease {
            dataset: "dblp".to_string(),
            epoch: 1,
            paths: vec!["s/dblp-e1.gda".to_string(), "s/copy-e1.gda".to_string()],
        };
        let text = e.to_string();
        assert!(text.contains("dblp-e1.gda"), "{text}");
        assert!(text.contains("copy-e1.gda"), "{text}");
        let e = ServeError::DuplicateRelease {
            dataset: "dblp".to_string(),
            epoch: 1,
            paths: Vec::new(),
        };
        assert!(!e.to_string().contains('('), "no empty path list rendered");

        let e = ServeError::LevelNotIndexed { level: 3 };
        assert!(e.to_string().contains('3'));

        let e = ServeError::StatisticNotReleased {
            level: 2,
            statistic: "right degree histogram".to_string(),
        };
        assert!(e.to_string().contains("right degree histogram"));

        let e = ServeError::EmptyDirectory {
            path: "store".to_string(),
        };
        assert!(e.to_string().contains("no artifact"));

        let e = ServeError::Workload {
            line: 4,
            message: "bad side".to_string(),
        };
        assert!(e.to_string().contains("line 4"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeError>();
    }
}
