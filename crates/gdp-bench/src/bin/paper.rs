//! Reproduces the paper's evaluation — the dataset table, Figure 1
//! ("Impact of εg") and the baselines — and writes it as
//! `BENCH_paper.json` (see `docs/paper.md`):
//!
//! ```text
//! cargo run --release -p gdp-bench --bin paper -- --out BENCH_paper.json [--paper-scale]
//! ```
//!
//! The output is a pure function of the code, so CI regenerates it and
//! requires it to equal the committed file byte for byte.

use std::process::ExitCode;

const USAGE: &str = "usage: paper --out FILE [--paper-scale]";

fn main() -> ExitCode {
    let mut out = None;
    let mut paper_scale = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next(),
            "--paper-scale" => paper_scale = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag {other}; {USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(out) = out else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };

    let report = gdp_bench::paper::build(paper_scale);
    let mut json = serde_json::to_string_pretty(&report).expect("measurements are finite");
    json.push('\n');
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out}");
    ExitCode::SUCCESS
}
