//! `gdp` — command-line driver for the group-dp workspace.
//!
//! ```text
//! gdp generate --out graph.txt [--model dblp|erdos-renyi|zipf|blocks]
//!              [--scale tiny|laptop|paper] [--seed N]
//!              [--left N] [--right N] [--edges N] [--per-right N]
//!              [--exponent S] [--blocks N] [--per-left N] [--intra P]
//! gdp stats    --in graph.txt
//! gdp disclose --in graph.txt [--rounds N] [--eps E] [--delta D]
//!              [--strategy exponential|median|random]
//!              [--mechanism gaussian|analytic|laplace|geometric]
//!              [--seed N] [--csv out.csv]
//! gdp publish  --in graph.txt --out artifact.gda
//!              [--dataset NAME] [--epoch N] [--rounds N] [--eps E]
//!              [--delta D] [--budget-eps E] [--budget-delta D] [--seed N]
//!              [--deltas d1.txt[,d2.txt...] --out-dir DIR]
//! gdp convert  --in artifact.gda --out artifact.json
//! gdp answer   --artifact artifact.gda --queries queries.txt
//!              [--privilege P] [--level L]
//! gdp serve    --artifact-dir DIR [--addr HOST:PORT] [--workers N]
//!              [--queue N] [--deadline-ms N] [--io-timeout-ms N]
//!              [--drain-ms N] [--cache-capacity N] [--port-file FILE]
//!              [--reload-interval-ms N]
//! gdp gc       --artifact-dir DIR (--keep-last N | --ttl-epochs T)
//!              [--dataset NAME] [--dry-run]
//! ```
//!
//! The default `dblp` model runs the serial DBLP-like generator; the
//! other three go through `gdp_datagen`'s streaming engine.
//! `publish`/`answer` are the serving pair: one writes the sealed
//! release artifact as a `.gda` binary container, the one format that
//! is published and served, and the other loads it and answers
//! subset-query workloads under a privilege via `gdp_serve`
//! (budget-free post-processing). `convert` exports an artifact as
//! JSON for people to read; the export is one-way, and no command
//! loads it. `serve` keeps the same answering path up behind
//! `gdp_net`'s hardened HTTP frontend — bounded queue, deadlines,
//! supervised workers, graceful drain on `SIGINT`/`SIGTERM` — with
//! degraded directory opens, live hot-reload (`POST /v1/admin/reload`
//! or the `--reload-interval-ms` watcher) and quarantine for damaged
//! artifacts. `gc` applies a retention policy to the directory,
//! durably deleting superseded epochs.

mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let command = match args.next() {
        Some(c) => c,
        None => {
            eprint!("{}", commands::USAGE);
            return ExitCode::from(2);
        }
    };
    let rest: Vec<String> = args.collect();
    let result = match command.as_str() {
        "generate" => commands::generate(&rest),
        "stats" => commands::stats(&rest),
        "disclose" => commands::disclose(&rest),
        "publish" => commands::publish(&rest),
        "convert" => commands::convert(&rest),
        "answer" => commands::answer(&rest),
        "serve" => commands::serve(&rest),
        "gc" => commands::gc(&rest),
        "help" | "--help" | "-h" => {
            print!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(format!("unknown command `{other}`; try `gdp help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
