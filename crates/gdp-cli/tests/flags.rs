//! `gdp` refuses what it cannot honour without writing a release: a flag
//! a command does not accept is refused before any file is read or
//! written (a typo must not publish, and must not spend budget), and a
//! noise calibration that would add no real noise fails the publish.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn gdp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gdp"))
        .args(args)
        .output()
        .expect("gdp runs")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdp-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path_str(p: &Path) -> &str {
    p.to_str().unwrap()
}

#[test]
fn typo_in_publish_exits_nonzero_and_writes_nothing() {
    let dir = scratch_dir("typo");
    let graph = dir.join("g.txt");
    let out = dir.join("e1.gda");
    let generated = gdp(&[
        "generate",
        "--out",
        path_str(&graph),
        "--model",
        "erdos-renyi",
        "--left",
        "100",
        "--right",
        "100",
        "--edges",
        "400",
    ]);
    assert!(generated.status.success(), "{generated:?}");

    let typo = gdp(&[
        "publish",
        "--in",
        path_str(&graph),
        "--out",
        path_str(&out),
        "--sed",
        "9",
    ]);
    assert_eq!(typo.status.code(), Some(1), "{typo:?}");
    let stderr = String::from_utf8_lossy(&typo.stderr);
    assert!(stderr.contains("unknown flag --sed"), "stderr: {stderr}");
    assert!(
        stderr.contains("--seed"),
        "stderr lists no --seed: {stderr}"
    );
    assert!(!out.exists(), "a refused publish wrote {}", out.display());
    assert!(
        std::fs::read_dir(&dir).unwrap().count() == 1,
        "a refused publish left files behind"
    );

    // The same command without the typo publishes.
    let ok = gdp(&[
        "publish",
        "--in",
        path_str(&graph),
        "--out",
        path_str(&out),
        "--rounds",
        "3",
        "--seed",
        "9",
    ]);
    assert!(ok.status.success(), "{ok:?}");
    assert!(out.exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_accepts_the_flags_scripts_pass() {
    // The serve line the benchmark and the docs use, against a missing
    // directory: the parser lets every flag through, and the command
    // fails only at the directory.
    let dir = scratch_dir("serve-flags");
    let missing = dir.join("no-such-store");
    let run = gdp(&[
        "serve",
        "--artifact-dir",
        path_str(&missing),
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "1",
        "--port-file",
        path_str(&dir.join("addr")),
    ]);
    assert!(!run.status.success());
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(!stderr.contains("unknown flag"), "stderr: {stderr}");
    assert!(stderr.contains("no-such-store"), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn geometric_publish_refuses_a_decay_that_rounds_to_one() {
    // At ε = 1e-13 the coarse levels' Δ₁ (in the thousands) put ε/Δ₁
    // below 5.6e-17, where exp(−ε/Δ₁) is exactly 1.0 and every geometric
    // draw would be ±1: near-exact counts under the strictest request.
    let dir = scratch_dir("geometric");
    let graph = dir.join("g.txt");
    let out = dir.join("e1.gda");
    let generated = gdp(&[
        "generate",
        "--out",
        path_str(&graph),
        "--model",
        "erdos-renyi",
        "--left",
        "200",
        "--right",
        "200",
        "--edges",
        "3000",
        "--seed",
        "5",
    ]);
    assert!(generated.status.success(), "{generated:?}");

    let refused = gdp(&[
        "publish",
        "--in",
        path_str(&graph),
        "--out",
        path_str(&out),
        "--mechanism",
        "geometric",
        "--eps",
        "1e-13",
        "--budget-eps",
        "1",
        "--seed",
        "3",
    ]);
    assert!(!refused.status.success(), "{refused:?}");
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(stderr.contains("geometric mechanism"), "stderr: {stderr}");
    assert!(stderr.contains("rounds to 1"), "stderr: {stderr}");
    assert!(!out.exists(), "a refused publish wrote {}", out.display());
    assert!(
        std::fs::read_dir(&dir).unwrap().count() == 1,
        "a refused publish left files behind"
    );
    std::fs::remove_dir_all(&dir).ok();
}
