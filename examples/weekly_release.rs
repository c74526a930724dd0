//! A deployment-shaped scenario beyond the paper: the same audience
//! receives a **fresh disclosure every week** over a graph that keeps
//! churning, so epochs must be published *incrementally* (epoch N+1
//! from epoch N plus an edge delta, not a full recompute), the
//! cumulative privacy loss must be governed, and consumers can
//! **fuse** everything they have received so far at zero extra
//! privacy cost.
//!
//! Demonstrates [`DisclosureSession::publish`] /
//! [`DisclosureSession::publish_next`] (the epoch-incremental path
//! with the cross-epoch ledger stamped into every manifest — see
//! `docs/epochs.md`), [`EdgeDelta`] churn batches, and
//! [`group_dp::core::postprocess::fuse_total_estimates`].
//!
//! ```text
//! cargo run --release --example weekly_release
//! ```
//!
//! **Expected output:** a week-by-week table — the chain's cumulative
//! ε from each sealed manifest's ledger, then the relative error of
//! that week's fused total and of the average over every week so far
//! (fusion shrinks error as releases accumulate) — and the ledger
//! refusing week 9 *before* that week's churn touches the graph:
//!
//! ```text
//! week  ledger_eps  week_rer  fused_rer
//!    1       0.250   0.00373    0.00361
//!    2       0.500   0.00224    0.00056
//!    3       0.750   0.01433    0.00511
//!    4       1.000   0.00249    0.00441
//!    5       1.250   0.00366    0.00429
//!    6       1.500   0.00601    0.00261
//!    7       1.750   0.01016    0.00369
//!    8       2.000   0.01046    0.00191
//!
//! week 9: refused — mechanism error: privacy budget exhausted: charge would spend ε=2.25 of 2, δ=0.0000009 of 0.00001
//!
//! 8 releases fit the yearly budget; each sealed manifest records the
//! chain's cumulative spend.
//! ```

use group_dp::core::postprocess::fuse_total_estimates;
use group_dp::core::{
    relative_error, DisclosureConfig, DisclosureSession, SpecializationConfig, Specializer,
};
use group_dp::datagen::{DblpConfig, DblpGenerator};
use group_dp::graph::{BipartiteGraph, EdgeDelta};
use group_dp::mechanisms::PrivacyBudget;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic ~1% weekly churn batch against the current graph:
/// every `stride`-th existing edge is dropped (offset by the week so
/// weeks differ) and the same number of absent pairs are inserted.
fn weekly_churn(graph: &BipartiteGraph, week: u64) -> EdgeDelta {
    let churn = (graph.edge_count() as usize / 100).max(1);
    let stride = (graph.edge_count() as usize / churn).max(1);
    let deletes: Vec<_> = graph
        .edges()
        .skip(week as usize % stride)
        .step_by(stride)
        .take(churn)
        .collect();
    let mut inserts = Vec::with_capacity(churn);
    let (lc, rc) = (graph.left_count() as u64, graph.right_count() as u64);
    let mut probe = week * 9_973;
    while inserts.len() < churn {
        let pair = ((probe * 31 % lc) as u32, (probe * 17 % rc) as u32);
        probe += 1;
        let pair = (pair.0.into(), pair.1.into());
        if !graph.has_edge(pair.0, pair.1) && !inserts.contains(&pair) {
            inserts.push(pair);
        }
    }
    EdgeDelta::new(inserts, deletes)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(7_2024);
    let graph = DblpGenerator::new(DblpConfig::laptop_scale()).generate(&mut rng);
    let hierarchy =
        Specializer::new(SpecializationConfig::paper_default(6)?).specialize(&graph, &mut rng)?;

    // The data owner authorizes a yearly total; each weekly bundle spends
    // a slice of it.
    let yearly = PrivacyBudget::new(2.0, 1e-5)?;
    let weekly = DisclosureConfig::count_only(0.25, 1e-7)?;
    let mut session = DisclosureSession::new(graph, hierarchy, yearly);

    println!("weekly group-private releases (eps_g = 0.25 each, yearly cap eps = 2.0)\n");
    println!("week  ledger_eps  week_rer  fused_rer");
    let mut weekly_totals: Vec<f64> = Vec::new();
    let mut week: u64 = 0;
    loop {
        week += 1;
        // Week 1 publishes the base epoch in full; every later week
        // advances the chain incrementally from a churn delta — the
        // dirty-row statistics update, not a fresh edge sweep — and
        // the refusal (week 9) happens *before* the delta is applied.
        let artifact = if week == 1 {
            session.publish(&weekly, "weekly", 0, &mut rng)
        } else {
            let delta = weekly_churn(session.graph(), week);
            session.publish_next(&weekly, "weekly", &delta, &mut rng)
        };
        let artifact = match artifact {
            Ok(a) => a,
            Err(e) => {
                println!("\nweek {week}: refused — {e}");
                break;
            }
        };
        let truth = session.graph().edge_count() as f64;
        let release = artifact.release();
        let ledger = artifact.manifest().ledger.as_ref().expect("ledger stamped");
        // The consumer reads the finest level each week…
        let this_week = release.level(0)?.total_associations().expect("released");
        weekly_totals.push(this_week);
        // …and fuses this week's levels, then averages across weeks
        // (all estimates are independent and unbiased; the graph only
        // drifts ~1% per week, so the cross-week average stays close).
        let (fused_week, _) =
            fuse_total_estimates(release, &(0..release.levels().len()).collect::<Vec<_>>())?;
        let fused_all: f64 = weekly_totals.iter().sum::<f64>() / weekly_totals.len() as f64;
        println!(
            "{week:>4}  {:>10.3}  {:>8.5}  {:>9.5}",
            ledger.cumulative_epsilon,
            relative_error(fused_week, truth),
            relative_error(fused_all, truth),
        );
    }
    println!(
        "\n{} releases fit the yearly budget; each sealed manifest records the\n\
         chain's cumulative spend.",
        session.releases_made()
    );
    Ok(())
}
