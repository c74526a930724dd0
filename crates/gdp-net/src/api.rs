//! Typed JSON request/response payloads and the HTTP error taxonomy.
//!
//! One wire type per endpoint body, all deriving the in-tree serde —
//! the same [`Query`] type the answering service consumes is embedded
//! verbatim, so the HTTP layer adds no re-interpretation step between
//! the socket and [`AnswerService::answer_typed`](gdp_serve::AnswerService::answer_typed).
//! Scalars travel as JSON floats with shortest round-trip precision,
//! which is what makes served answers bit-identical to direct calls.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use gdp_core::CoreError;
use gdp_serve::{OpenReport, Query, ServeError, TypedAnswer};

use crate::http::Response;

/// `POST /v1/answer` body: one typed query against one release level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnswerRequest {
    /// Dataset key of the published release.
    pub dataset: String,
    /// Epoch of the published release.
    pub epoch: u64,
    /// The caller's privilege (finest hierarchy level it may read).
    pub privilege: usize,
    /// The hierarchy level to answer from.
    pub level: usize,
    /// The typed query.
    pub query: Query,
}

/// `POST /v1/answer_batch` body: many queries, one envelope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchAnswerRequest {
    /// Dataset key of the published release.
    pub dataset: String,
    /// Epoch of the published release.
    pub epoch: u64,
    /// The caller's privilege (finest hierarchy level it may read).
    pub privilege: usize,
    /// The hierarchy level to answer from.
    pub level: usize,
    /// The typed queries, answered under one privilege check.
    pub queries: Vec<Query>,
}

/// A query answer on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireAnswer {
    /// A scalar statistic.
    Scalar(f64),
    /// Histogram bins `0..=max_degree`.
    Histogram(Vec<f64>),
}

impl From<&TypedAnswer> for WireAnswer {
    fn from(answer: &TypedAnswer) -> Self {
        match answer {
            TypedAnswer::Scalar(v) => WireAnswer::Scalar(*v),
            TypedAnswer::Histogram(bins) => WireAnswer::Histogram(bins.to_vec()),
        }
    }
}

impl From<WireAnswer> for TypedAnswer {
    fn from(answer: WireAnswer) -> Self {
        match answer {
            WireAnswer::Scalar(v) => TypedAnswer::Scalar(v),
            WireAnswer::Histogram(bins) => TypedAnswer::Histogram(Arc::from(bins)),
        }
    }
}

/// `POST /v1/answer` success body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnswerResponse {
    /// The answer.
    pub answer: WireAnswer,
}

/// `POST /v1/answer_batch` success body (answers in query order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchAnswerResponse {
    /// One answer per query, in order.
    pub answers: Vec<WireAnswer>,
}

/// Every non-2xx response body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Stable machine-readable error kind (see `docs/operations.md`).
    pub kind: String,
    /// Human-readable message.
    pub error: String,
}

/// One published release, as listed by `GET /v1/releases` — enough for
/// a client (or the load generator) to construct valid queries without
/// out-of-band knowledge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReleaseInfo {
    /// Dataset key.
    pub dataset: String,
    /// Epoch.
    pub epoch: u64,
    /// Number of hierarchy levels.
    pub levels: usize,
    /// Left-side node count.
    pub left_nodes: u32,
    /// Right-side node count.
    pub right_nodes: u32,
    /// Left-side group count per level (index = level).
    pub left_groups: Vec<u32>,
    /// Right-side group count per level (index = level).
    pub right_groups: Vec<u32>,
}

/// `GET /v1/releases` body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReleasesResponse {
    /// Every published release, datasets ascending, epochs ascending.
    pub releases: Vec<ReleaseInfo>,
}

/// `POST /v1/admin/reload` success body: the store re-scan's per-file
/// outcomes plus a loggable one-liner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReloadResponse {
    /// One-line scan summary (`"2 loaded, … 1 quarantined, …"`).
    pub summary: String,
    /// Every directory entry's typed outcome.
    pub report: OpenReport,
}

/// Maps a [`ServeError`] to its HTTP status and stable error kind.
///
/// The taxonomy: denial is `403`, asking for something that was never
/// published is `404`, a malformed query is `400`, and a serving-side
/// invariant failure is `500`. Backpressure (`503`) and deadline expiry
/// (`504`) never reach this function — they are produced before the
/// service is called.
pub fn error_status(err: &ServeError) -> (u16, &'static str) {
    match err {
        ServeError::Core(CoreError::AccessDenied { .. }) => (403, "access_denied"),
        ServeError::Core(CoreError::LevelOutOfRange { .. }) => (404, "level_out_of_range"),
        ServeError::UnknownRelease { .. } => (404, "unknown_release"),
        ServeError::LevelNotIndexed { .. } | ServeError::StatisticNotReleased { .. } => {
            (404, "not_released")
        }
        ServeError::Internal(_) => (500, "internal"),
        ServeError::Core(_) => (400, "bad_query"),
        // Store/scan-time errors leaking into a request are a serving
        // bug, not a client one.
        _ => (500, "internal"),
    }
}

/// Builds the error [`Response`] for a [`ServeError`].
pub fn error_body(err: &ServeError) -> Response {
    let (status, kind) = error_status(err);
    Response::json(
        status,
        &ErrorBody {
            kind: kind.to_string(),
            error: err.to_string(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_graph::Side;
    use gdp_serve::SubsetQuery;

    #[test]
    fn request_bodies_round_trip_through_json() {
        let req = AnswerRequest {
            dataset: "dblp".to_string(),
            epoch: 7,
            privilege: 1,
            level: 2,
            query: Query::SubsetCount(SubsetQuery {
                side: Side::Left,
                nodes: vec![3, 1, 4],
            }),
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: AnswerRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(req, back);

        let batch = BatchAnswerRequest {
            dataset: "dblp".to_string(),
            epoch: 7,
            privilege: 0,
            level: 0,
            queries: vec![
                Query::GroupMass {
                    side: Side::Right,
                    group: 2,
                },
                Query::DegreeHistogram { side: Side::Left },
                Query::SideTotal { side: Side::Left },
            ],
        };
        let json = serde_json::to_string(&batch).unwrap();
        let back: BatchAnswerRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(batch, back);
    }

    #[test]
    fn answers_round_trip_bit_exactly() {
        // Adversarial floats: subnormal, negative zero, many digits.
        for v in [
            0.1 + 0.2,
            -0.0,
            5e-324,
            1.7976931348623157e308,
            -123.456789012345,
        ] {
            let wire = WireAnswer::Scalar(v);
            let json = serde_json::to_string(&wire).unwrap();
            let back: WireAnswer = serde_json::from_str(&json).unwrap();
            match back {
                WireAnswer::Scalar(got) => assert_eq!(got.to_bits(), v.to_bits(), "{v:?}"),
                other => panic!("wrong shape: {other:?}"),
            }
        }
        let wire = WireAnswer::Histogram(vec![1.5, 0.0, -2.25e-10]);
        let json = serde_json::to_string(&wire).unwrap();
        let back: WireAnswer = serde_json::from_str(&json).unwrap();
        assert_eq!(back, wire);
        // Wire answers convert losslessly to typed answers and back.
        let typed: TypedAnswer = wire.clone().into();
        assert_eq!(WireAnswer::from(&typed), wire);
    }

    #[test]
    fn error_taxonomy_is_stable() {
        let (status, kind) = error_status(&ServeError::UnknownRelease {
            dataset: "x".to_string(),
            epoch: 1,
        });
        assert_eq!((status, kind), (404, "unknown_release"));
        let (status, kind) = error_status(&ServeError::Core(CoreError::AccessDenied {
            privilege: 3,
            requested_level: 1,
            finest_allowed: 3,
        }));
        assert_eq!((status, kind), (403, "access_denied"));
        let (status, kind) = error_status(&ServeError::Internal("bug".to_string()));
        assert_eq!((status, kind), (500, "internal"));
        let (status, kind) = error_status(&ServeError::LevelNotIndexed { level: 2 });
        assert_eq!((status, kind), (404, "not_released"));
        let resp = error_body(&ServeError::LevelNotIndexed { level: 2 });
        assert_eq!(resp.status, 404);
        let body: ErrorBody = serde_json::from_str(&String::from_utf8(resp.body).unwrap()).unwrap();
        assert_eq!(body.kind, "not_released");
        assert!(body.error.contains("level 2"));
    }
}
