//! Correctness checks: published artifacts re-loaded and their ledgers
//! checked, served answers compared bit for bit with the in-process
//! index, and release utility against the true counts.

use std::path::Path;

use gdp_core::{ErrorSummary, HierarchyStats, MultiLevelRelease, ReleaseArtifact};
use gdp_net::{AnswerResponse, BatchAnswerResponse, WireAnswer};
use gdp_serve::{IndexedRelease, Query, TypedAnswer};

use crate::fixture::EPSILON;

/// Re-loads the artifact at `path` with [`ReleaseArtifact::load`] (so its
/// container and content digests are verified), checks that it is the
/// artifact that was published, and that its ledger records `epochs`
/// releases costing `epochs × ε` in total.
///
/// # Errors
///
/// A description of the first mismatch.
pub fn check_artifact(path: &Path, published: &ReleaseArtifact, epochs: u64) -> Result<(), String> {
    let loaded = ReleaseArtifact::load(path)
        .map_err(|e| format!("{}: reload failed: {e}", path.display()))?;
    if &loaded != published {
        return Err(format!(
            "{}: reloaded artifact differs from the published one",
            path.display()
        ));
    }
    let ledger = loaded
        .manifest()
        .ledger
        .as_ref()
        .ok_or_else(|| format!("{}: manifest carries no ledger", path.display()))?;
    let expected = epochs as f64 * EPSILON;
    if ledger.cumulative_epsilon != expected || ledger.releases != epochs {
        return Err(format!(
            "{}: ledger says {} releases / cumulative ε {}, expected {epochs} / {expected}",
            path.display(),
            ledger.releases,
            ledger.cumulative_epsilon
        ));
    }
    Ok(())
}

/// Whether two releases are bit-identical: equal structure and every
/// noisy value equal as bits (so `-0.0` and `0.0`, or two NaNs, are
/// told apart).
pub fn releases_bit_identical(a: &MultiLevelRelease, b: &MultiLevelRelease) -> bool {
    a == b
        && a.levels().iter().zip(b.levels()).all(|(la, lb)| {
            la.queries.iter().zip(&lb.queries).all(|(qa, qb)| {
                qa.noisy_values.len() == qb.noisy_values.len()
                    && qa
                        .noisy_values
                        .iter()
                        .zip(&qb.noisy_values)
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            })
        })
}

/// Whether a served answer equals the reference answer bit for bit.
pub fn answer_matches(served: &WireAnswer, reference: &TypedAnswer) -> bool {
    match (served, reference) {
        (WireAnswer::Scalar(s), TypedAnswer::Scalar(r)) => s.to_bits() == r.to_bits(),
        (WireAnswer::Histogram(s), TypedAnswer::Histogram(r)) => {
            s.len() == r.len()
                && s.iter()
                    .zip(r.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        }
        _ => false,
    }
}

/// Checks a served `POST /v1/answer` body against the reference answer.
///
/// # Errors
///
/// When the body does not parse or its answer differs from `reference`.
pub fn served_answer(body: &[u8], reference: &TypedAnswer) -> Result<(), String> {
    let json = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let served: AnswerResponse = serde_json::from_str(json).map_err(|e| e.to_string())?;
    if answer_matches(&served.answer, reference) {
        Ok(())
    } else {
        Err(format!(
            "served {:?}, reference {reference:?}",
            served.answer
        ))
    }
}

/// Checks a served `POST /v1/answer_batch` body against
/// [`IndexedRelease::answer`] for every query, at `level`.
///
/// # Errors
///
/// When the body does not parse, holds the wrong number of answers, or
/// any answer differs from the reference.
pub fn served_batch(
    body: &[u8],
    queries: &[Query],
    release: &IndexedRelease,
    level: usize,
) -> Result<(), String> {
    let json = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let served: BatchAnswerResponse = serde_json::from_str(json).map_err(|e| e.to_string())?;
    if served.answers.len() != queries.len() {
        return Err(format!(
            "{} answers for {} queries",
            served.answers.len(),
            queries.len()
        ));
    }
    for (i, (answer, query)) in served.answers.iter().zip(queries).enumerate() {
        let reference = release.answer(level, query).map_err(|e| e.to_string())?;
        if !answer_matches(answer, &reference) {
            return Err(format!(
                "query {i}: served {answer:?}, reference {reference:?}"
            ));
        }
    }
    Ok(())
}

/// Median relative error of every level's noisy per-group counts
/// against the true counts in `stats` (`gdp_core::ErrorSummary`).
///
/// # Errors
///
/// When a level lacks per-group counts or its shape disagrees with
/// `stats`.
pub fn release_rel_error(
    release: &MultiLevelRelease,
    stats: &HierarchyStats,
) -> Result<f64, String> {
    let mut pairs = Vec::new();
    for (i, level) in release.levels().iter().enumerate() {
        let noisy = level
            .per_group_counts()
            .ok_or_else(|| format!("level {i} released no per-group counts"))?;
        let truth = stats
            .level(i)
            .map_err(|e| format!("level {i}: {e}"))?
            .incident_edges();
        if truth.len() != noisy.noisy_values.len() {
            return Err(format!(
                "level {i}: {} noisy counts for {} groups",
                noisy.noisy_values.len(),
                truth.len()
            ));
        }
        pairs.extend(
            noisy
                .noisy_values
                .iter()
                .zip(&truth)
                .map(|(&p, &t)| (p, t as f64)),
        );
    }
    ErrorSummary::from_pairs(pairs)
        .map(|s| s.median)
        .ok_or_else(|| "the release has no per-group counts".to_string())
}
