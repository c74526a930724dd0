//! Implementation of the `gdp` subcommands.

use std::collections::HashMap;
use std::fs::File;
use std::io::BufReader;

use rand::rngs::StdRng;
use rand::SeedableRng;

use gdp_core::{
    ArtifactFormat, DisclosureConfig, DisclosureSession, MultiLevelDiscloser, NoiseMechanism,
    Privilege, Query, ReleaseArtifact, SpecializationConfig, Specializer, SplitStrategy,
};
use gdp_datagen::engine::GraphModel;
use gdp_datagen::{DblpConfig, DblpGenerator};
use gdp_graph::{io as graph_io, EdgeDelta, GraphStats};
use gdp_mechanisms::PrivacyBudget;
use gdp_serve::{
    workload, AnswerService, IndexedRelease, Query as ServeQuery, ReleaseStore, RetentionPolicy,
    TypedAnswer,
};

/// Top-level usage text.
pub const USAGE: &str = "\
gdp — group differential privacy for association graphs

commands:
  generate --out FILE [--model dblp|erdos-renyi|zipf|blocks] [--seed N]
           [--scale tiny|laptop|paper]            (dblp)
           [--left N] [--right N]                 (all streaming models)
           [--edges N]                            (erdos-renyi)
           [--per-right N] [--exponent S]         (zipf)
           [--blocks N] [--per-left N] [--intra P] (blocks)
      generate an association graph and write it as an edge list; the
      default dblp model is the serial DBLP-like generator, the other
      three run through the streaming engine
  stats --in FILE
      print dataset statistics for an edge-list graph
  disclose --in FILE [--rounds N] [--eps E] [--delta D]
           [--strategy exponential|median|random]
           [--mechanism gaussian|analytic|laplace|geometric]
           [--seed N] [--csv FILE]
      run the two-phase group-private disclosure pipeline and print the
      per-level noisy association counts
  publish --in FILE --out FILE.gda [--dataset NAME]
          [--epoch N] [--rounds N] [--eps E] [--delta D]
          [--budget-eps E] [--budget-delta D]
          [--deltas D1.txt[,D2.txt...] --out-dir DIR]
          [--strategy exponential|median|random]
          [--mechanism gaussian|analytic|laplace|geometric] [--seed N]
          [--hist-max D]
      run the pipeline inside a budget-enforced session and write the
      sealed release artifact (manifest + hierarchy + noisy levels) —
      the long-lived product consumers answer from — as a `.gda`
      binary container, the one format stores load and serve. --out
      must end in .gda (for a human-readable copy, run `gdp convert`
      on the result). The write is crash-safe (staged
      sibling, fsync, atomic rename): a kill mid-publish leaves
      debris, never a torn artifact. Releases the total, per-group
      counts and the left-degree histogram (bins 0..=--hist-max,
      default 64) at every level. With --deltas, publishes an epoch
      CHAIN instead: the base epoch from --in, then one epoch per
      plain-text delta file (docs/epochs.md) via the incremental
      publish_next path, all into --out-dir under canonical names;
      each manifest carries the chain's cumulative ledger, and an
      over-budget epoch stops the chain with a typed refusal
  convert --in FILE.gda --out FILE.json
      export a published `.gda` artifact as pretty-printed JSON for
      people to read and diff. The manifest — content digest included —
      is written verbatim. The export is one-way: no command loads
      JSON, so answer and serve from the `.gda`. The write is
      crash-safe (staged, fsync, rename)
  answer (--artifact FILE | --artifact-dir DIR) --queries FILE
         [--privilege P] [--level L] [--dataset NAME] [--epoch N]
         [--query-type subset|mass|hist|total|all]
      load one published `.gda` artifact — or scan a directory of
      them into a store (other files, JSON exports included, are
      skipped) — and answer a typed-query
      workload file (subset lines `L 0 1 2` / `R 5 7`, plus `mass L 3`,
      `hist L`, `total R`, `#` comments) through the privilege-gated
      serving path, one query after another in file order.
      --level defaults to the finest level the privilege may read;
      with --artifact-dir, --dataset defaults to the only scanned
      dataset and --epoch to its latest; --query-type filters the
      workload to one variant. Pure post-processing: no budget is spent
  serve (--artifact FILE | --artifact-dir DIR) [--addr HOST:PORT]
        [--workers N] [--queue N] [--deadline-ms N] [--io-timeout-ms N]
        [--drain-ms N] [--retry-after S] [--cache-capacity N]
        [--port-file FILE] [--reload-interval-ms N]
      expose the answering service over HTTP (see docs/operations.md
      for the endpoints and error taxonomy). The request queue is
      bounded (--queue; overflow answers 503 + Retry-After), every
      request carries a deadline (--deadline-ms; expiry answers 504),
      sockets time out against slow peers (--io-timeout-ms), and
      worker panics are supervised and respawned. With --artifact-dir
      the open is degraded-tolerant: damaged files are quarantined
      (reported, never fatal), POST /v1/admin/reload re-scans the
      directory live, and --reload-interval-ms N > 0 starts a
      supervised watcher that re-scans every N ms. SIGINT/SIGTERM or
      POST /shutdown drains gracefully within --drain-ms and prints a
      JSON drain report; a dirty drain exits nonzero. --addr defaults
      to 127.0.0.1:7878 (:0 picks a free port; --port-file records the
      bound address)
  gc --artifact-dir DIR (--keep-last N | --ttl-epochs T | both)
     [--dataset NAME] [--dry-run]
      apply a retention policy to a published artifact directory:
      epochs beyond the N newest (--keep-last) or more than T epoch
      numbers older than the newest (--ttl-epochs) are unregistered
      and their files durably deleted (the newest epoch of a dataset
      is never evicted). --dataset limits the pass to one dataset;
      --dry-run prints the eviction plan without deleting. Prints the
      JSON GC report on stdout; failed deletions exit nonzero
  help
      show this message
";

type CmdResult = Result<(), String>;

/// Parses `--key value` pairs (and bare `--flag` as `"true"`). A flag
/// outside `accepted` is an error that names it and lists the accepted
/// flags, so a typo is refused before any file is read or written.
fn parse_flags(args: &[String], accepted: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got `{arg}`"))?;
        if !accepted.contains(&key) {
            return Err(format!(
                "unknown flag --{key} (accepted: {})",
                flag_list(accepted)
            ));
        }
        let value = if iter.peek().is_some_and(|next| !next.starts_with("--")) {
            // peek() just confirmed the pair's value is present; the
            // fallback keeps this arm panic-free regardless.
            iter.next().cloned().unwrap_or_else(|| "true".to_string())
        } else {
            "true".to_string()
        };
        map.insert(key.to_string(), value);
    }
    Ok(map)
}

/// `--a --b ...`, for error messages.
fn flag_list(names: &[&str]) -> String {
    names
        .iter()
        .map(|k| format!("--{k}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn get_num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} expects a number, got `{v}`")),
    }
}

fn scale_config(flags: &HashMap<String, String>) -> Result<DblpConfig, String> {
    match flags.get("scale").map(String::as_str).unwrap_or("laptop") {
        "tiny" => Ok(DblpConfig::tiny()),
        "laptop" => Ok(DblpConfig::laptop_scale()),
        "paper" => Ok(DblpConfig::paper_scale()),
        other => Err(format!("unknown scale `{other}` (tiny|laptop|paper)")),
    }
}

/// Builds the streaming-model description selected by `--model` flags,
/// validating ranges up front so bad flags surface as clean CLI errors
/// rather than panics from the model constructors.
fn streaming_model(name: &str, flags: &HashMap<String, String>) -> Result<GraphModel, String> {
    let positive = |key: &str, v: u32| -> Result<u32, String> {
        if v == 0 {
            return Err(format!("--{key} must be positive"));
        }
        Ok(v)
    };
    let left = positive("left", get_num(flags, "left", 10_000)?)?;
    let right = positive("right", get_num(flags, "right", 10_000)?)?;
    match name {
        "erdos-renyi" => Ok(GraphModel::ErdosRenyi {
            left,
            right,
            edges: get_num(flags, "edges", 100_000)?,
        }),
        "zipf" => {
            let exponent: f64 = get_num(flags, "exponent", 1.15)?;
            if !exponent.is_finite() || exponent <= 0.0 {
                return Err(format!(
                    "--exponent must be finite and positive, got {exponent}"
                ));
            }
            Ok(GraphModel::ZipfAttachment {
                left,
                right,
                per_right: positive("per-right", get_num(flags, "per-right", 3)?)?,
                exponent,
            })
        }
        "blocks" => {
            let blocks = positive("blocks", get_num(flags, "blocks", 16)?)?;
            if blocks > left || blocks > right {
                return Err(format!("--blocks {blocks} exceeds a side ({left}×{right})"));
            }
            let intra_prob: f64 = get_num(flags, "intra", 0.8)?;
            if !(0.0..=1.0).contains(&intra_prob) {
                return Err(format!("--intra must be within [0, 1], got {intra_prob}"));
            }
            Ok(GraphModel::PlantedBlocks {
                left,
                right,
                blocks,
                per_left: positive("per-left", get_num(flags, "per-left", 10)?)?,
                intra_prob,
            })
        }
        other => Err(format!(
            "unknown model `{other}` (dblp|erdos-renyi|zipf|blocks)"
        )),
    }
}

/// Rejects flags that do not apply to the selected generate model, so a
/// typo or a size flag from another model cannot be silently dropped.
fn check_generate_flags(model: &str, flags: &HashMap<String, String>) -> Result<(), String> {
    let allowed: &[&str] = match model {
        "dblp" => &["out", "model", "seed", "scale"],
        "erdos-renyi" => &["out", "model", "seed", "left", "right", "edges"],
        "zipf" => &[
            "out",
            "model",
            "seed",
            "left",
            "right",
            "per-right",
            "exponent",
        ],
        "blocks" => &[
            "out", "model", "seed", "left", "right", "blocks", "per-left", "intra",
        ],
        // Unknown model names error later with the full list.
        _ => return Ok(()),
    };
    for key in flags.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(format!(
                "--{key} does not apply to model `{model}` (accepted: {})",
                flag_list(allowed)
            ));
        }
    }
    Ok(())
}

/// `gdp generate`.
pub fn generate(args: &[String]) -> CmdResult {
    // Every model's flags; `check_generate_flags` narrows them to the
    // selected model's.
    let flags = parse_flags(
        args,
        &[
            "out",
            "model",
            "seed",
            "scale",
            "left",
            "right",
            "edges",
            "per-right",
            "exponent",
            "blocks",
            "per-left",
            "intra",
        ],
    )?;
    let out = flags.get("out").ok_or("generate requires --out FILE")?;
    let seed: u64 = get_num(&flags, "seed", 42)?;
    let model_name = flags.get("model").map(String::as_str).unwrap_or("dblp");
    check_generate_flags(model_name, &flags)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = match model_name {
        "dblp" => {
            let config = scale_config(&flags)?;
            eprintln!(
                "generating {} authors × {} papers (seed {seed})...",
                config.authors, config.papers
            );
            DblpGenerator::new(config).generate(&mut rng)
        }
        name => {
            let model = streaming_model(name, &flags)?;
            eprintln!(
                "generating {} (~{} edge draws, seed {seed}, streaming engine)...",
                model.name(),
                model.expected_edges()
            );
            model.generate(&mut rng)
        }
    };
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    graph_io::write_edge_list(&graph, file).map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("wrote {} edges to {out}", graph.edge_count());
    Ok(())
}

/// `gdp stats`.
pub fn stats(args: &[String]) -> CmdResult {
    let flags = parse_flags(args, &["in"])?;
    let input = flags.get("in").ok_or("stats requires --in FILE")?;
    let file = File::open(input).map_err(|e| format!("cannot open {input}: {e}"))?;
    let graph = graph_io::read_edge_list(file).map_err(|e| format!("{input}: {e}"))?;
    println!("{}", GraphStats::compute(&graph));
    Ok(())
}

fn parse_strategy(flags: &HashMap<String, String>) -> Result<SplitStrategy, String> {
    match flags
        .get("strategy")
        .map(String::as_str)
        .unwrap_or("exponential")
    {
        "exponential" => Ok(SplitStrategy::Exponential),
        "median" => Ok(SplitStrategy::Median),
        "random" => Ok(SplitStrategy::Random),
        other => Err(format!("unknown strategy `{other}`")),
    }
}

fn parse_mechanism(flags: &HashMap<String, String>) -> Result<NoiseMechanism, String> {
    match flags
        .get("mechanism")
        .map(String::as_str)
        .unwrap_or("gaussian")
    {
        "gaussian" => Ok(NoiseMechanism::GaussianClassic),
        "analytic" => Ok(NoiseMechanism::GaussianAnalytic),
        "laplace" => Ok(NoiseMechanism::Laplace),
        "geometric" => Ok(NoiseMechanism::Geometric),
        other => Err(format!("unknown mechanism `{other}`")),
    }
}

/// `gdp disclose`.
pub fn disclose(args: &[String]) -> CmdResult {
    let flags = parse_flags(
        args,
        &[
            "in",
            "rounds",
            "eps",
            "delta",
            "strategy",
            "mechanism",
            "seed",
            "csv",
        ],
    )?;
    let input = flags.get("in").ok_or("disclose requires --in FILE")?;
    let rounds: u32 = get_num(&flags, "rounds", 8)?;
    let eps: f64 = get_num(&flags, "eps", 0.5)?;
    let delta: f64 = get_num(&flags, "delta", 1e-6)?;
    let seed: u64 = get_num(&flags, "seed", 42)?;
    let strategy = parse_strategy(&flags)?;
    let mechanism = parse_mechanism(&flags)?;

    let file = File::open(input).map_err(|e| format!("cannot open {input}: {e}"))?;
    let graph = graph_io::read_edge_list(file).map_err(|e| format!("{input}: {e}"))?;
    let mut rng = StdRng::seed_from_u64(seed);

    let mut spec_config = SpecializationConfig::paper_default(rounds).map_err(|e| e.to_string())?;
    spec_config.strategy = strategy;
    eprintln!("phase 1: specializing {rounds} rounds ({strategy:?})...");
    let hierarchy = Specializer::new(spec_config)
        .specialize(&graph, &mut rng)
        .map_err(|e| e.to_string())?;

    eprintln!(
        "phase 2: disclosing {} levels ({mechanism:?})...",
        hierarchy.level_count()
    );
    let disclosure = DisclosureConfig::count_only(eps, delta)
        .map_err(|e| e.to_string())?
        .with_mechanism(mechanism)
        .with_queries(vec![Query::TotalAssociations]);
    let release = MultiLevelDiscloser::new(disclosure)
        .disclose(&graph, &hierarchy, &mut rng)
        .map_err(|e| e.to_string())?;

    let true_total = graph.edge_count() as f64;
    println!("level  groups      sensitivity  noisy_total      rer");
    for level in release.levels() {
        let q = &level.queries[0];
        let noisy = q.scalar().unwrap_or(f64::NAN);
        println!(
            "{:>5}  {:>10}  {:>11}  {:>11.1}  {:>7.4}",
            level.level,
            level.group_count,
            q.sensitivity.l2,
            noisy,
            gdp_core::relative_error(noisy, true_total)
        );
    }

    if let Some(csv_path) = flags.get("csv") {
        std::fs::write(csv_path, release.total_count_csv())
            .map_err(|e| format!("cannot write {csv_path}: {e}"))?;
        eprintln!("wrote {csv_path}");
    }
    Ok(())
}

/// Refuses an output path a store would not serve: artifacts are
/// published as `.gda` only, and JSON is an export `gdp convert` makes.
fn check_gda_out(out: &str) -> CmdResult {
    match ArtifactFormat::from_path(std::path::Path::new(out)) {
        Some(_) => Ok(()),
        None => Err(format!(
            "--out {out}: artifacts are published as .gda only; publish to a .gda \
             file, then run `gdp convert --in FILE.gda --out FILE.json` for a JSON export"
        )),
    }
}

/// Reads and parses every file of a comma-separated `--deltas` list,
/// in order; the first missing or malformed file refuses the list.
fn read_deltas(list: &str) -> Result<Vec<(&str, EdgeDelta)>, String> {
    list.split(',')
        .filter(|s| !s.is_empty())
        .map(|path| {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let delta = EdgeDelta::from_text(&text).map_err(|e| format!("{path}: {e}"))?;
            Ok((path, delta))
        })
        .collect()
}

/// `gdp publish` — the serving-side pipeline: run a budget-enforced
/// disclosure session over an edge-list graph and write the sealed
/// [`ReleaseArtifact`] consumers answer from.
pub fn publish(args: &[String]) -> CmdResult {
    let flags = parse_flags(
        args,
        &[
            "in",
            "out",
            "dataset",
            "epoch",
            "rounds",
            "eps",
            "delta",
            "budget-eps",
            "budget-delta",
            "deltas",
            "out-dir",
            "strategy",
            "mechanism",
            "seed",
            "hist-max",
        ],
    )?;
    let input = flags.get("in").ok_or("publish requires --in FILE")?;
    let dataset = flags
        .get("dataset")
        .cloned()
        .unwrap_or_else(|| "default".to_string());
    let epoch: u64 = get_num(&flags, "epoch", 1)?;
    let rounds: u32 = get_num(&flags, "rounds", 8)?;
    let eps: f64 = get_num(&flags, "eps", 0.5)?;
    let delta: f64 = get_num(&flags, "delta", 1e-6)?;
    // The authorized total defaults to exactly one release's charge.
    let budget_eps: f64 = get_num(&flags, "budget-eps", eps)?;
    let budget_delta: f64 = get_num(&flags, "budget-delta", delta)?;
    let seed: u64 = get_num(&flags, "seed", 42)?;
    let strategy = parse_strategy(&flags)?;
    let mechanism = parse_mechanism(&flags)?;
    // Refused before any pipeline work runs: a bad --out, and a missing
    // or malformed delta file, so a refused chain writes and charges
    // nothing.
    if let Some(out) = flags.get("out") {
        check_gda_out(out)?;
    }
    let chain = match flags.get("deltas") {
        Some(list) => {
            let dir = flags
                .get("out-dir")
                .ok_or("publish --deltas requires --out-dir DIR")?;
            Some((dir, read_deltas(list)?))
        }
        None => None,
    };

    let file = File::open(input).map_err(|e| format!("cannot open {input}: {e}"))?;
    let graph = graph_io::read_edge_list(file).map_err(|e| format!("{input}: {e}"))?;
    let mut rng = StdRng::seed_from_u64(seed);

    let mut spec_config = SpecializationConfig::paper_default(rounds).map_err(|e| e.to_string())?;
    spec_config.strategy = strategy;
    eprintln!("phase 1: specializing {rounds} rounds ({strategy:?})...");
    let hierarchy = Specializer::new(spec_config)
        .specialize(&graph, &mut rng)
        .map_err(|e| e.to_string())?;

    let hist_max: u32 = get_num(&flags, "hist-max", 64)?;
    let total = PrivacyBudget::new(budget_eps, budget_delta).map_err(|e| e.to_string())?;
    let config = DisclosureConfig::count_only(eps, delta)
        .map_err(|e| e.to_string())?
        .with_mechanism(mechanism)
        .with_queries(vec![
            Query::TotalAssociations,
            Query::PerGroupCounts,
            Query::LeftDegreeHistogram {
                max_degree: hist_max,
            },
        ]);
    eprintln!(
        "phase 2: publishing dataset `{dataset}` epoch {epoch} ({mechanism:?}, eps_g {eps})..."
    );
    let mut session = DisclosureSession::new(graph, hierarchy, total);

    if let Some((dir, deltas)) = chain {
        // Epoch-chain mode: publish the base epoch, then one further
        // epoch per delta file via the incremental `publish_next` path
        // (dirty-row statistics update, cumulative ledger enforced),
        // all into --out-dir under canonical file names. The chain
        // stops with the typed refusal the moment an epoch's charge
        // does not fit the authorized total — already-published
        // artifacts stay on disk.
        let format = ArtifactFormat::Binary; // the one format there is
        let (artifact, path) = session
            .publish_to_dir_as(&config, &dataset, epoch, dir, format, &mut rng)
            .map_err(|e| e.to_string())?;
        eprintln!("epoch {epoch}: wrote {}", path.display());
        print_ledger(artifact.manifest());
        for (delta_path, edge_delta) in deltas {
            let (artifact, path) = session
                .publish_next_to_dir_as(&config, &dataset, &edge_delta, dir, format, &mut rng)
                .map_err(|e| format!("epoch chain refused at {delta_path}: {e}"))?;
            eprintln!(
                "epoch {}: applied {delta_path} (+{} -{} edges) and wrote {}",
                artifact.epoch(),
                edge_delta.insert_count(),
                edge_delta.delete_count(),
                path.display(),
            );
            print_ledger(artifact.manifest());
        }
        return Ok(());
    }

    let out = flags.get("out").ok_or("publish requires --out FILE.gda")?;
    let artifact = session
        .publish(&config, &dataset, epoch, &mut rng)
        .map_err(|e| e.to_string())?;

    // Atomic write: stage, fsync, rename — a crash mid-publish leaves
    // `*.tmp` debris for the store to quarantine, never a torn artifact.
    artifact
        .save_atomic(out)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    let m = artifact.manifest();
    eprintln!(
        "wrote {out}: schema v{}, {} levels, {} groups at the finest level, \
         spent eps {:.3} of {:.3}",
        m.schema_version,
        m.level_count,
        m.group_counts.first().copied().unwrap_or(0),
        session.accountant().spent_epsilon(),
        budget_eps,
    );
    print_ledger(m);
    Ok(())
}

/// Prints a manifest's cross-epoch ledger block to stderr.
fn print_ledger(m: &gdp_core::ArtifactManifest) {
    if let Some(ledger) = &m.ledger {
        eprintln!(
            "ledger: epoch charge eps {:.3}, chain cumulative eps {:.3} of {:.3} \
             across {} release(s), remaining eps {:.3}{}",
            ledger.epoch_epsilon,
            ledger.cumulative_epsilon,
            ledger.total_epsilon,
            ledger.releases,
            ledger.remaining_epsilon(),
            if ledger.exhausted() {
                " (budget exhausted)"
            } else {
                ""
            },
        );
    }
}

/// `gdp convert` — export a published `.gda` artifact as JSON for
/// people to read. One-way: the manifest (content digest included) is
/// written verbatim, and no command loads the export back.
pub fn convert(args: &[String]) -> CmdResult {
    let flags = parse_flags(args, &["in", "out"])?;
    let input = flags.get("in").ok_or("convert requires --in FILE.gda")?;
    let out = flags.get("out").ok_or("convert requires --out FILE.json")?;
    if !out.ends_with(".json") {
        return Err(format!(
            "--out {out}: convert writes a JSON export, so name it .json"
        ));
    }
    let artifact = ReleaseArtifact::load(input).map_err(|e| format!("{input}: {e}"))?;
    graph_io::atomic_write_json(&artifact, out).map_err(|e| format!("cannot write {out}: {e}"))?;
    let m = artifact.manifest();
    eprintln!(
        "exported {input} -> {out}: dataset `{}` epoch {}, \
         digest {:#018x}",
        m.dataset, m.epoch, m.content_digest,
    );
    Ok(())
}

/// Parses the `--query-type` filter into a predicate over typed
/// queries (`None` keeps every variant).
fn query_type_filter(flags: &HashMap<String, String>) -> Result<Option<&'static str>, String> {
    match flags.get("query-type").map(String::as_str).unwrap_or("all") {
        "all" => Ok(None),
        "subset" => Ok(Some("subset_count")),
        "mass" => Ok(Some("group_mass")),
        "hist" => Ok(Some("degree_histogram")),
        "total" => Ok(Some("side_total")),
        other => Err(format!(
            "unknown query type `{other}` (subset|mass|hist|total|all)"
        )),
    }
}

/// A short human-readable parameter column for the answer table.
fn query_detail(query: &ServeQuery) -> String {
    match query {
        ServeQuery::SubsetCount(q) => format!("|S|={}", q.nodes.len()),
        ServeQuery::GroupMass { group, .. } => format!("g={group}"),
        ServeQuery::DegreeHistogram { .. } | ServeQuery::SideTotal { .. } => "-".to_string(),
    }
}

/// Opens the release store selected by `--artifact FILE` (one parsed
/// artifact) or `--artifact-dir DIR` (a scanned directory) — the shared
/// source for `answer` and `serve`. `who` names the subcommand in
/// usage errors.
fn open_store(flags: &HashMap<String, String>, who: &str) -> Result<ReleaseStore, String> {
    match (flags.get("artifact"), flags.get("artifact-dir")) {
        (Some(_), Some(_)) => {
            Err("--artifact and --artifact-dir are mutually exclusive".to_string())
        }
        (None, None) => Err(format!(
            "{who} requires --artifact FILE or --artifact-dir DIR"
        )),
        (Some(artifact_path), None) => {
            // `.gda` only: a JSON export fails at the container magic.
            let artifact = ReleaseArtifact::load(artifact_path)
                .map_err(|e| format!("{artifact_path}: {e}"))?;
            let store = ReleaseStore::new();
            store
                .insert(IndexedRelease::new(artifact).map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?;
            Ok(store)
        }
        (None, Some(dir)) => {
            let store = ReleaseStore::open_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
            eprintln!(
                "scanned {dir}: {} artifacts across {:?}",
                store.len(),
                store.datasets()
            );
            Ok(store)
        }
    }
}

/// `gdp answer` — load a published artifact (or scan a directory of
/// them) and answer a typed-query workload under a privilege through
/// the serving path.
pub fn answer(args: &[String]) -> CmdResult {
    let flags = parse_flags(
        args,
        &[
            "artifact",
            "artifact-dir",
            "queries",
            "privilege",
            "level",
            "dataset",
            "epoch",
            "query-type",
        ],
    )?;
    let queries_path = flags
        .get("queries")
        .ok_or("answer requires --queries FILE")?;
    let privilege = Privilege::new(get_num(&flags, "privilege", 0)?);
    let type_filter = query_type_filter(&flags)?;
    let store = open_store(&flags, "answer")?;

    let dataset = match flags.get("dataset") {
        Some(name) => name.clone(),
        None => {
            let datasets = store.datasets();
            match datasets.as_slice() {
                [only] => only.clone(),
                many => return Err(format!("--dataset required: the store holds {many:?}")),
            }
        }
    };
    let epoch = match flags.get("epoch") {
        Some(_) => get_num(&flags, "epoch", 0)?,
        None => *store
            .epochs(&dataset)
            .last()
            .ok_or_else(|| format!("no artifacts for dataset `{dataset}`"))?,
    };
    let artifact_levels = store
        .get(&dataset, epoch)
        .map_err(|e| e.to_string())?
        .level_count();
    let service = AnswerService::new(store);

    let file = File::open(queries_path).map_err(|e| format!("cannot open {queries_path}: {e}"))?;
    let mut queries = workload::read_query_file(BufReader::new(file))
        .map_err(|e| format!("{queries_path}: {e}"))?;
    if let Some(name) = type_filter {
        let before = queries.len();
        queries.retain(|q| q.name() == name);
        eprintln!("--query-type kept {} of {before} queries", queries.len());
    }

    let level = match flags.get("level") {
        Some(_) => get_num(&flags, "level", 0)?,
        None => service
            .finest_allowed(&dataset, epoch, privilege)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| {
                format!(
                    "privilege {} maps to no level (the artifact has {} levels)",
                    privilege.finest_level(),
                    artifact_levels,
                )
            })?,
    };
    eprintln!(
        "answering {} queries from `{dataset}` epoch {epoch} at level {level} \
         (privilege {})...",
        queries.len(),
        privilege.finest_level()
    );
    let answers = service
        .answer_typed_batch(&dataset, epoch, privilege, level, &queries)
        .map_err(|e| e.to_string())?;

    println!("query  type              side  param    answer");
    for (i, (query, answer)) in queries.iter().zip(&answers).enumerate() {
        let rendered = match answer {
            TypedAnswer::Scalar(v) => format!("{v:.2}"),
            TypedAnswer::Histogram(bins) => format!(
                "histogram[{} bins, mass {:.1}]",
                bins.len(),
                bins.iter().sum::<f64>()
            ),
        };
        println!(
            "{i:>5}  {:<16}  {:>4}  {:<7}  {rendered}",
            query.name(),
            query.side().to_string(),
            query_detail(query),
        );
    }
    let stats = service.cache_stats();
    eprintln!(
        "answered {} queries ({} memo hits) — pure post-processing, no budget spent",
        answers.len(),
        stats.hits
    );
    Ok(())
}

/// `gdp serve` — expose the answering service over HTTP until a
/// `SIGINT`/`SIGTERM` or a `POST /shutdown` triggers a graceful drain.
///
/// A `--artifact-dir` store opens in degraded mode (damage quarantined
/// and reported, never fatal) and stays reloadable: `POST
/// /v1/admin/reload` re-scans on demand, `--reload-interval-ms` adds a
/// supervised watcher that re-scans continuously.
pub fn serve(args: &[String]) -> CmdResult {
    let flags = parse_flags(
        args,
        &[
            "artifact",
            "artifact-dir",
            "addr",
            "workers",
            "queue",
            "deadline-ms",
            "io-timeout-ms",
            "drain-ms",
            "retry-after",
            "cache-capacity",
            "port-file",
            "reload-interval-ms",
        ],
    )?;
    // The serving path opens directories in degraded mode: a single
    // damaged file is quarantined with a note, not a refusal to start.
    let (store, reload) = match (flags.get("artifact"), flags.get("artifact-dir")) {
        (Some(_), Some(_)) => {
            return Err("--artifact and --artifact-dir are mutually exclusive".to_string())
        }
        (None, None) => {
            return Err("serve requires --artifact FILE or --artifact-dir DIR".to_string())
        }
        (Some(_), None) => (
            open_store(&flags, "serve")?,
            gdp_net::ReloadConfig::default(),
        ),
        (None, Some(dir)) => {
            let (store, report) =
                ReleaseStore::open_dir_report(dir).map_err(|e| format!("{dir}: {e}"))?;
            eprintln!("scanned {dir}: {}", report.summary());
            for outcome in &report.outcomes {
                if let gdp_serve::FileOutcome::Quarantined {
                    path,
                    moved_to,
                    reason,
                } = outcome
                {
                    eprintln!("quarantined {path} -> {moved_to}: {reason}");
                }
            }
            let interval_ms: u64 = get_num(&flags, "reload-interval-ms", 0)?;
            let reload = gdp_net::ReloadConfig {
                dir: Some(dir.into()),
                interval: (interval_ms > 0).then(|| std::time::Duration::from_millis(interval_ms)),
                initial_quarantined: report.quarantined() as u64,
            };
            (store, reload)
        }
    };
    if store.is_empty() {
        return Err("the store holds no artifacts; publish one first".to_string());
    }
    let cache_capacity: usize = get_num(&flags, "cache-capacity", AnswerService::CACHE_CAPACITY)?;
    let service = std::sync::Arc::new(AnswerService::with_cache_capacity(store, cache_capacity));

    let config = gdp_net::ServerConfig {
        addr: flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:7878".to_string()),
        workers: get_num(&flags, "workers", 4)?,
        queue_capacity: get_num(&flags, "queue", 128)?,
        request_deadline: std::time::Duration::from_millis(get_num(&flags, "deadline-ms", 2_000)?),
        io_timeout: std::time::Duration::from_millis(get_num(&flags, "io-timeout-ms", 10_000)?),
        drain_deadline: std::time::Duration::from_millis(get_num(&flags, "drain-ms", 10_000)?),
        retry_after_secs: get_num(&flags, "retry-after", 1)?,
        reload,
        ..gdp_net::ServerConfig::default()
    };

    // The signal hook must be in place before the first connection so a
    // supervisor can stop the server at any point of its lifetime.
    gdp_net::signal::install();
    let handle = gdp_net::Server::start(service, config, gdp_net::FaultPlan::none())
        .map_err(|e| format!("cannot bind: {e}"))?;
    let addr = handle.addr();
    // Machine-readable on stdout (scripts capture the bound port, which
    // matters with `--addr 127.0.0.1:0`); prose on stderr.
    println!("listening on http://{addr}");
    if let Some(port_file) = flags.get("port-file") {
        std::fs::write(port_file, format!("{addr}\n"))
            .map_err(|e| format!("cannot write {port_file}: {e}"))?;
    }
    eprintln!("serving; stop with SIGINT/SIGTERM or POST /shutdown");

    while !gdp_net::signal::shutdown_requested() && !handle.is_draining() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!("draining...");
    let report = handle.join();
    println!(
        "{}",
        serde_json::to_string(&report).map_err(|e| e.to_string())?
    );
    if report.clean {
        Ok(())
    } else {
        Err(format!(
            "drain was not clean: {} workers and {} queued connections abandoned",
            report.abandoned_workers, report.abandoned_queue
        ))
    }
}

/// `gdp gc` — apply a retention policy to a published artifact
/// directory: superseded epochs are unregistered and their files
/// durably deleted (unlink + directory fsync). The newest epoch of a
/// dataset is never evicted, so a served dataset cannot be emptied.
pub fn gc(args: &[String]) -> CmdResult {
    let flags = parse_flags(
        args,
        &[
            "artifact-dir",
            "keep-last",
            "ttl-epochs",
            "dataset",
            "dry-run",
        ],
    )?;
    let dir = flags
        .get("artifact-dir")
        .ok_or("gc requires --artifact-dir DIR")?;
    let keep_last = match flags.get("keep-last") {
        None => None,
        Some(_) => Some(get_num::<usize>(&flags, "keep-last", 1)?),
    };
    let ttl = match flags.get("ttl-epochs") {
        None => None,
        Some(_) => Some(get_num::<u64>(&flags, "ttl-epochs", 0)?),
    };
    if keep_last.is_none() && ttl.is_none() {
        return Err("gc requires --keep-last N and/or --ttl-epochs T".to_string());
    }
    let policy = RetentionPolicy {
        keep_last: keep_last.map(|n| n.max(1)),
        max_epoch_age: ttl,
    };
    let dataset = flags.get("dataset").cloned();
    let dry_run = flags.contains_key("dry-run");

    // Degraded open: GC must work on exactly the directories that need
    // it most — ones holding crash debris next to committed epochs.
    let (store, report) = ReleaseStore::open_dir_report(dir).map_err(|e| format!("{dir}: {e}"))?;
    eprintln!("scanned {dir}: {}", report.summary());
    if let Some(name) = &dataset {
        if !store.datasets().contains(name) {
            return Err(format!(
                "dataset `{name}` not found in {dir} (holds {:?})",
                store.datasets()
            ));
        }
    }

    if dry_run {
        let datasets = match &dataset {
            Some(name) => vec![name.clone()],
            None => store.datasets(),
        };
        for name in datasets {
            let plan = policy.evict_plan(&store.epochs(&name));
            eprintln!(
                "dataset `{name}`: would evict {} of {} epochs: {plan:?}",
                plan.len(),
                store.epochs(&name).len()
            );
        }
        eprintln!("dry run: nothing deleted");
        return Ok(());
    }

    let gc_report = store.gc(&policy, dataset.as_deref());
    for eviction in &gc_report.evictions {
        match (&eviction.path, eviction.deleted) {
            (Some(path), true) => {
                eprintln!(
                    "evicted {}/e{}: deleted {path}",
                    eviction.dataset, eviction.epoch
                )
            }
            (Some(path), false) => eprintln!(
                "evicted {}/e{}: FAILED to delete {path}: {}",
                eviction.dataset,
                eviction.epoch,
                eviction.error.as_deref().unwrap_or("unknown error")
            ),
            (None, _) => eprintln!(
                "evicted {}/e{} (memory-only entry)",
                eviction.dataset, eviction.epoch
            ),
        }
    }
    eprintln!("gc: {}", gc_report.summary());
    println!(
        "{}",
        serde_json::to_string(&gc_report).map_err(|e| e.to_string())?
    );
    if gc_report.failed_deletions() > 0 {
        return Err(format!(
            "{} backing files could not be deleted",
            gc_report.failed_deletions()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `args`, accepting every flag they name.
    fn flags(args: &[&str]) -> HashMap<String, String> {
        let accepted: Vec<&str> = args.iter().filter_map(|a| a.strip_prefix("--")).collect();
        parse_flags(
            &args.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            &accepted,
        )
        .unwrap()
    }

    #[test]
    fn parse_flag_pairs_and_bare_flags() {
        let f = flags(&["--out", "x.txt", "--paper", "--seed", "7"]);
        assert_eq!(f.get("out").unwrap(), "x.txt");
        assert_eq!(f.get("paper").unwrap(), "true");
        assert_eq!(f.get("seed").unwrap(), "7");
    }

    #[test]
    fn reject_positional_arguments() {
        let args = vec!["positional".to_string()];
        assert!(parse_flags(&args, &[]).is_err());
    }

    #[test]
    fn reject_unknown_flags_naming_the_accepted_ones() {
        let args: Vec<String> = ["--in", "g.txt", "--sed", "9"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = parse_flags(&args, &["in", "seed"]).unwrap_err();
        assert_eq!(err, "unknown flag --sed (accepted: --in --seed)");
        assert!(parse_flags(&args[..2], &["in", "seed"]).is_ok());
    }

    #[test]
    fn numeric_defaults_and_errors() {
        let f = flags(&["--eps", "0.7"]);
        assert_eq!(get_num(&f, "eps", 0.5).unwrap(), 0.7);
        assert_eq!(get_num(&f, "delta", 1e-6).unwrap(), 1e-6);
        let f = flags(&["--eps", "abc"]);
        assert!(get_num::<f64>(&f, "eps", 0.5).is_err());
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(scale_config(&flags(&[])).unwrap().authors, 12_951);
        assert_eq!(
            scale_config(&flags(&["--scale", "tiny"])).unwrap().authors,
            120
        );
        assert!(scale_config(&flags(&["--scale", "galaxy"])).is_err());
    }

    #[test]
    fn streaming_model_parsing() {
        let m =
            streaming_model("erdos-renyi", &flags(&["--edges", "500", "--left", "50"])).unwrap();
        assert_eq!(
            m,
            GraphModel::ErdosRenyi {
                left: 50,
                right: 10_000,
                edges: 500
            }
        );
        assert_eq!(
            streaming_model("zipf", &flags(&[])).unwrap().name(),
            "zipf_attachment"
        );
        assert_eq!(
            streaming_model("blocks", &flags(&["--intra", "0.5"]))
                .unwrap()
                .name(),
            "planted_blocks"
        );
        assert!(streaming_model("galaxy", &flags(&[])).is_err());
    }

    #[test]
    fn generate_rejects_inapplicable_flags() {
        assert!(check_generate_flags("zipf", &flags(&["--out", "g", "--edges", "5"])).is_err());
        assert!(check_generate_flags("dblp", &flags(&["--out", "g", "--left", "5"])).is_err());
        assert!(check_generate_flags("erdos-renyi", &flags(&["--per-rigth", "5"])).is_err());
        assert!(check_generate_flags("zipf", &flags(&["--out", "g", "--per-right", "5"])).is_ok());
        assert!(check_generate_flags("dblp", &flags(&["--out", "g", "--scale", "tiny"])).is_ok());
    }

    #[test]
    fn streaming_model_rejects_degenerate_parameters() {
        assert!(streaming_model("erdos-renyi", &flags(&["--left", "0"])).is_err());
        assert!(streaming_model("zipf", &flags(&["--exponent", "0"])).is_err());
        assert!(streaming_model("zipf", &flags(&["--per-right", "0"])).is_err());
        assert!(streaming_model("blocks", &flags(&["--intra", "1.5"])).is_err());
        assert!(streaming_model("blocks", &flags(&["--blocks", "0"])).is_err());
        assert!(streaming_model("blocks", &flags(&["--left", "4", "--blocks", "8"])).is_err());
    }

    #[test]
    fn generate_streaming_model_end_to_end() {
        let dir = std::env::temp_dir().join(format!("gdp-cli-model-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("er.txt");
        let path_s = path.to_str().unwrap().to_string();
        generate(&[
            "--out".into(),
            path_s.clone(),
            "--model".into(),
            "erdos-renyi".into(),
            "--left".into(),
            "100".into(),
            "--right".into(),
            "100".into(),
            "--edges".into(),
            "400".into(),
        ])
        .unwrap();
        stats(&["--in".into(), path_s]).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_publish_answer() {
        let dir = std::env::temp_dir().join(format!("gdp-cli-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("g.txt").to_str().unwrap().to_string();
        let artifact_path = dir.join("a.gda").to_str().unwrap().to_string();
        let queries_path = dir.join("q.txt").to_str().unwrap().to_string();
        generate(&[
            "--out".into(),
            graph_path.clone(),
            "--model".into(),
            "erdos-renyi".into(),
            "--left".into(),
            "200".into(),
            "--right".into(),
            "200".into(),
            "--edges".into(),
            "1000".into(),
        ])
        .unwrap();
        publish(&[
            "--in".into(),
            graph_path,
            "--out".into(),
            artifact_path.clone(),
            "--dataset".into(),
            "cli-test".into(),
            "--epoch".into(),
            "3".into(),
            "--rounds".into(),
            "4".into(),
        ])
        .unwrap();
        std::fs::write(
            &queries_path,
            "# workload\nL 0 1 2\nR 10 11\nmass L 0\nhist L\ntotal R\n",
        )
        .unwrap();
        // Default level (finest allowed by the privilege), every variant.
        answer(&[
            "--artifact".into(),
            artifact_path.clone(),
            "--queries".into(),
            queries_path.clone(),
            "--privilege".into(),
            "2".into(),
        ])
        .unwrap();
        // The --query-type filter narrows the workload to one variant.
        answer(&[
            "--artifact".into(),
            artifact_path.clone(),
            "--queries".into(),
            queries_path.clone(),
            "--privilege".into(),
            "2".into(),
            "--query-type".into(),
            "hist".into(),
        ])
        .unwrap();
        assert!(answer(&[
            "--artifact".into(),
            artifact_path.clone(),
            "--queries".into(),
            queries_path.clone(),
            "--query-type".into(),
            "galaxy".into(),
        ])
        .is_err());
        // An explicit level finer than the privilege is refused.
        let err = answer(&[
            "--artifact".into(),
            artifact_path,
            "--queries".into(),
            queries_path,
            "--privilege".into(),
            "2".into(),
            "--level".into(),
            "0".into(),
        ])
        .unwrap_err();
        assert!(err.contains("may not read"), "unexpected error: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn publish_binary_convert_round_trip() {
        let dir = std::env::temp_dir().join(format!("gdp-cli-convert-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("g.txt").to_str().unwrap().to_string();
        let gda_path = dir.join("a.gda").to_str().unwrap().to_string();
        let json_path = dir.join("a.json").to_str().unwrap().to_string();
        let queries_path = dir.join("q.txt").to_str().unwrap().to_string();
        generate(&[
            "--out".into(),
            graph_path.clone(),
            "--model".into(),
            "erdos-renyi".into(),
            "--left".into(),
            "200".into(),
            "--right".into(),
            "200".into(),
            "--edges".into(),
            "1000".into(),
        ])
        .unwrap();
        // Publishing to anything but a `.gda` is refused up front,
        // before any pipeline work runs, pointing at `gdp convert`.
        let err = publish(&[
            "--in".into(),
            graph_path.clone(),
            "--out".into(),
            json_path.clone(),
        ])
        .unwrap_err();
        assert!(err.contains("gdp convert"), "unexpected error: {err}");
        assert!(!std::path::Path::new(&json_path).exists());
        publish(&[
            "--in".into(),
            graph_path,
            "--out".into(),
            gda_path.clone(),
            "--dataset".into(),
            "cli-bin".into(),
            "--rounds".into(),
            "4".into(),
        ])
        .unwrap();
        // The export holds the same artifact: its oracle read gives back
        // an equal artifact and manifest.
        convert(&[
            "--in".into(),
            gda_path.clone(),
            "--out".into(),
            json_path.clone(),
        ])
        .unwrap();
        let published = ReleaseArtifact::load(&gda_path).unwrap();
        let exported =
            ReleaseArtifact::read_json(std::fs::File::open(&json_path).unwrap()).unwrap();
        assert_eq!(exported, published);
        assert_eq!(exported.manifest(), published.manifest());
        // The export is one-way: no command answers from it, and
        // convert writes only JSON.
        std::fs::write(&queries_path, "L 0 1 2\nmass L 0\ntotal R\n").unwrap();
        let answer_from = |artifact: &str| {
            answer(&[
                "--artifact".into(),
                artifact.to_string(),
                "--queries".into(),
                queries_path.clone(),
                "--privilege".into(),
                "2".into(),
            ])
        };
        answer_from(&gda_path).unwrap();
        let err = answer_from(&json_path).unwrap_err();
        assert!(err.contains("bad magic"), "unexpected error: {err}");
        let err = convert(&[
            "--in".into(),
            gda_path,
            "--out".into(),
            dir.join("b.gda").to_str().unwrap().to_string(),
        ])
        .unwrap_err();
        assert!(err.contains(".json"), "unexpected error: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_answer_from_scanned_directory() {
        let dir = std::env::temp_dir().join(format!("gdp-cli-dir-{}", std::process::id()));
        let store_dir = dir.join("store");
        std::fs::create_dir_all(&store_dir).unwrap();
        let graph_path = dir.join("g.txt").to_str().unwrap().to_string();
        let queries_path = dir.join("q.txt").to_str().unwrap().to_string();
        generate(&[
            "--out".into(),
            graph_path.clone(),
            "--model".into(),
            "erdos-renyi".into(),
            "--left".into(),
            "200".into(),
            "--right".into(),
            "200".into(),
            "--edges".into(),
            "1000".into(),
        ])
        .unwrap();
        for epoch in ["1", "2"] {
            publish(&[
                "--in".into(),
                graph_path.clone(),
                "--out".into(),
                store_dir
                    .join(format!("e{epoch}.gda"))
                    .to_str()
                    .unwrap()
                    .to_string(),
                "--dataset".into(),
                "cli-dir".into(),
                "--epoch".into(),
                epoch.into(),
                "--rounds".into(),
                "4".into(),
                "--seed".into(),
                epoch.into(),
            ])
            .unwrap();
        }
        std::fs::write(&queries_path, "L 0 1 2\nmass R 0\nhist L\ntotal L\n").unwrap();
        let store_dir_s = store_dir.to_str().unwrap().to_string();
        // Scanned store, dataset inferred (only one), epoch defaults to
        // the latest.
        answer(&[
            "--artifact-dir".into(),
            store_dir_s.clone(),
            "--queries".into(),
            queries_path.clone(),
            "--privilege".into(),
            "1".into(),
        ])
        .unwrap();
        // An explicit epoch is honored too.
        answer(&[
            "--artifact-dir".into(),
            store_dir_s.clone(),
            "--queries".into(),
            queries_path.clone(),
            "--epoch".into(),
            "1".into(),
        ])
        .unwrap();
        // Both sources at once is a usage error, as is an empty dir.
        assert!(answer(&[
            "--artifact-dir".into(),
            store_dir_s,
            "--artifact".into(),
            "x.json".into(),
            "--queries".into(),
            queries_path.clone(),
        ])
        .is_err());
        let empty = dir.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        let err = answer(&[
            "--artifact-dir".into(),
            empty.to_str().unwrap().to_string(),
            "--queries".into(),
            queries_path,
        ])
        .unwrap_err();
        assert!(err.contains("no artifact"), "unexpected error: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_publish_gc_retention() {
        let dir = std::env::temp_dir().join(format!("gdp-cli-gc-{}", std::process::id()));
        let store_dir = dir.join("store");
        std::fs::create_dir_all(&store_dir).unwrap();
        let graph_path = dir.join("g.txt").to_str().unwrap().to_string();
        generate(&[
            "--out".into(),
            graph_path.clone(),
            "--model".into(),
            "erdos-renyi".into(),
            "--left".into(),
            "200".into(),
            "--right".into(),
            "200".into(),
            "--edges".into(),
            "1000".into(),
        ])
        .unwrap();
        let epoch_file = |epoch: &str| {
            store_dir
                .join(format!("e{epoch}.gda"))
                .to_str()
                .unwrap()
                .to_string()
        };
        for epoch in ["1", "2", "3"] {
            publish(&[
                "--in".into(),
                graph_path.clone(),
                "--out".into(),
                epoch_file(epoch),
                "--dataset".into(),
                "cli-gc".into(),
                "--epoch".into(),
                epoch.into(),
                "--rounds".into(),
                "4".into(),
                "--seed".into(),
                epoch.into(),
            ])
            .unwrap();
        }
        let store_dir_s = store_dir.to_str().unwrap().to_string();
        // A policy is mandatory, and an unknown dataset is refused.
        assert!(gc(&["--artifact-dir".into(), store_dir_s.clone()]).is_err());
        assert!(gc(&[
            "--artifact-dir".into(),
            store_dir_s.clone(),
            "--keep-last".into(),
            "2".into(),
            "--dataset".into(),
            "galaxy".into(),
        ])
        .is_err());
        // Dry run plans but deletes nothing.
        gc(&[
            "--artifact-dir".into(),
            store_dir_s.clone(),
            "--keep-last".into(),
            "2".into(),
            "--dry-run".into(),
        ])
        .unwrap();
        for epoch in ["1", "2", "3"] {
            assert!(std::path::Path::new(&epoch_file(epoch)).exists());
        }
        // The real pass durably deletes only the superseded epoch.
        gc(&[
            "--artifact-dir".into(),
            store_dir_s.clone(),
            "--keep-last".into(),
            "2".into(),
        ])
        .unwrap();
        assert!(!std::path::Path::new(&epoch_file("1")).exists());
        assert!(std::path::Path::new(&epoch_file("2")).exists());
        assert!(std::path::Path::new(&epoch_file("3")).exists());
        // Crash debris next to committed epochs does not stop GC.
        std::fs::write(store_dir.join("torn.gda.tmp"), "{ torn").unwrap();
        gc(&[
            "--artifact-dir".into(),
            store_dir_s,
            "--keep-last".into(),
            "1".into(),
        ])
        .unwrap();
        assert!(!std::path::Path::new(&epoch_file("2")).exists());
        assert!(
            std::path::Path::new(&epoch_file("3")).exists(),
            "newest survives"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_generate_stats_disclose() {
        let dir = std::env::temp_dir().join(format!("gdp-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        let path_s = path.to_str().unwrap().to_string();
        generate(&[
            "--out".into(),
            path_s.clone(),
            "--scale".into(),
            "tiny".into(),
        ])
        .unwrap();
        stats(&["--in".into(), path_s.clone()]).unwrap();
        disclose(&[
            "--in".into(),
            path_s,
            "--rounds".into(),
            "3".into(),
            "--strategy".into(),
            "median".into(),
        ])
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
