//! The movie-rating scenario from the paper's introduction: viewers ×
//! movies, where genre-level aggregates (how much a community watches a
//! stigmatized genre) are the group-sensitive statistics.
//!
//! Compares three disclosure mechanisms on the same genre-partitioned
//! release, showing the classic-vs-analytic Gaussian gap and the Laplace
//! alternative.
//!
//! ```text
//! cargo run --example movie_ratings
//! ```
//!
//! **Expected output:** a genre-by-mechanism table of noisy view counts
//! (classic Gaussian, analytic Gaussian, Laplace) against the exact
//! counts, the measured percentage by which the analytic calibration
//! beats the classic `σ` rule (~20–25% here), and the RER at which the
//! stigmatized genre's aggregate is released while hiding any single
//! community's contribution.

use group_dp::core::{
    relative_error, DisclosureConfig, GroupHierarchy, GroupLevel, MultiLevelDiscloser,
    NoiseMechanism, Query,
};
use group_dp::datagen::movies::{self, Genre, MovieConfig};
use group_dp::graph::{Side, SidePartition};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(1234);
    let data = movies::generate(&mut rng, &MovieConfig::default());
    println!(
        "movie dataset: {} viewers, {} movies, {} ratings",
        data.graph.left_count(),
        data.graph.right_count(),
        data.graph.edge_count()
    );
    for genre in Genre::all() {
        println!(
            "  {genre:?}: {} ratings, {} distinct viewers",
            data.genre_ratings(genre),
            data.viewers_of_genre(genre)
        );
    }

    // Groups: all viewers as one audience (coarse), movies by genre.
    let genre_of = |g: Genre| Genre::all().iter().position(|&x| x == g).unwrap() as u32;
    let genre_partition = SidePartition::new(
        Side::Right,
        data.genres.iter().map(|&g| genre_of(g)).collect(),
        Genre::all().len() as u32,
    )?;
    let genre_level = GroupLevel::new(
        SidePartition::whole(Side::Left, data.graph.left_count()).expect("viewers exist"),
        genre_partition,
    )?;
    let whole = GroupLevel::new(
        SidePartition::whole(Side::Left, data.graph.left_count()).expect("viewers exist"),
        SidePartition::whole(Side::Right, data.graph.right_count()).expect("movies exist"),
    )?;
    let hierarchy = GroupHierarchy::new(vec![genre_level, whole])?;

    println!("\nnoisy ratings-per-genre under three mechanisms (εg = 0.6, δ = 1e-6):");
    println!(
        "{:<22}{:>12}{:>12}{:>12}",
        "genre", "classic", "analytic", "laplace"
    );
    let mut releases = Vec::new();
    for mech in [
        NoiseMechanism::GaussianClassic,
        NoiseMechanism::GaussianAnalytic,
        NoiseMechanism::Laplace,
    ] {
        let config = DisclosureConfig::count_only(0.6, 1e-6)?
            .with_mechanism(mech)
            .with_queries(vec![Query::PerGroupCounts]);
        releases.push(MultiLevelDiscloser::new(config).disclose(
            &data.graph,
            &hierarchy,
            &mut rng,
        )?);
    }
    for genre in Genre::all() {
        // Per-group vector = [viewer group] ++ genre groups.
        let idx = 1 + genre_of(genre) as usize;
        let row: Vec<f64> = releases
            .iter()
            .map(|r| r.level(0).expect("level 0").queries[0].noisy_values[idx])
            .collect();
        println!(
            "{:<22}{:>12.0}{:>12.0}{:>12.0}   (exact {})",
            format!("{genre:?}"),
            row[0],
            row[1],
            row[2],
            data.genre_ratings(genre)
        );
    }

    let sigma_classic = releases[0].level(0)?.queries[0].noise_scale;
    let sigma_analytic = releases[1].level(0)?.queries[0].noise_scale;
    println!(
        "\nanalytic Gaussian needs {:.1}% less noise than the classic rule here",
        100.0 * (1.0 - sigma_analytic / sigma_classic)
    );
    let adult = data.genre_ratings(Genre::Adult) as f64;
    let noisy_adult =
        releases[1].level(0)?.queries[0].noisy_values[1 + genre_of(Genre::Adult) as usize];
    println!(
        "adult-genre aggregate is released with RER {:.3} while hiding any\n\
         single genre-community's full contribution",
        relative_error(noisy_adult, adult)
    );
    Ok(())
}
