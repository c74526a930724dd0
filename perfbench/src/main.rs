//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//!  --work DIR [--gdp PATH] [--commit ID] [--nproc N]`
//!
//! Prints context lines, one line per metric (`name = value unit`), and
//! as its last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 1 when any output was wrong, 2 on bad
//! arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{fixture, Opts, WORKLOADS};

/// Timings of the calibration loop before and after the run.
const CALIBRATION_REPS: usize = 9;

fn usage(message: &str) -> ExitCode {
    eprintln!(
        "{message}\nusage: perfbench --workload {} --seed N --seconds S --trace 0|1 \
         --work DIR [--gdp PATH] [--commit ID] [--nproc N]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work = None;
    let mut gdp = None;
    let mut commit = "unknown".to_string();
    let mut nproc = fixture::nproc();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--work" => work = Some(PathBuf::from(value)),
            "--gdp" => gdp = Some(PathBuf::from(value)),
            "--commit" => commit = value,
            "--nproc" => match value.parse::<usize>() {
                Ok(n) if n > 0 => nproc = n,
                _ => return usage(&format!("bad --nproc `{value}`")),
            },
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace), Some(work)) =
        (workload, seed, seconds, trace, work)
    else {
        return usage("--workload, --seed, --seconds, --trace and --work are required");
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload `{workload}`"));
    }
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("{}: {e}", work.display());
        return ExitCode::from(2);
    }
    let opts = Opts {
        workload,
        seed,
        seconds,
        trace,
        work,
        gdp,
        nproc,
    };

    // At most one busy thread per core this process may run on (`run.py`
    // pins it to one): the in-tree rayon pool reads this on every call,
    // and the serve workloads pass it on to `gdp serve`.
    let rayon_threads = fixture::nproc();
    std::env::set_var("RAYON_NUM_THREADS", rayon_threads.to_string());
    let calibration_before = fixture::calibration_ms(CALIBRATION_REPS);
    let mut report = perfbench::run(&opts);
    let calibration_after = fixture::calibration_ms(CALIBRATION_REPS);
    let context = [
        ("workload", opts.workload.clone()),
        (
            "mode",
            if trace {
                "traced (per-layer)"
            } else {
                "untraced (end-to-end)"
            }
            .to_string(),
        ),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("nproc", nproc.to_string()),
        ("rayon threads", rayon_threads.to_string()),
        ("cpus this process may run on", fixture::cpus_allowed()),
        (
            "host calibration",
            format!(
                "fixed CPU loop {calibration_before:.3} ms before the run, \
                 {calibration_after:.3} ms after (median of {CALIBRATION_REPS})"
            ),
        ),
        ("commit", commit),
    ];
    for (i, (key, value)) in context.into_iter().enumerate() {
        report.notes.insert(i, (key.to_string(), value));
    }
    print!("{}", report.render_text());
    println!("{}", report.render_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
