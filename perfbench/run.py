#!/usr/bin/env python3
"""Build the `gdp` binary and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Build products go to $CARGO_TARGET_DIR
(default `.bench_build`), run files to `.bench_work`, both at the root.
The last line of standard output is the benchmark's JSON result; the exit
code is the benchmark's (1 when any output was wrong, 2 when it could not
run at all).
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("publish_full", "publish_epochs", "serve_point", "serve_batch")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, _, fs in os.walk(path)
            for f in fs
            if f.endswith((".rs", ".toml", ".lock", ".py"))
        )
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "not a git checkout; source sha256 " + digest.hexdigest()[:16]


def cargo_build(args, env):
    # Cargo's own output goes to stderr so the result stays the last line
    # of standard output.
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if done.returncode != 0:
        fail(f"cargo build {' '.join(args)} failed")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "gdp-cli")
    ):
        fail("the group-dp workspace is not here; run from a full checkout")

    env = os.environ.copy()
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    env["CARGO_TARGET_DIR"] = target
    cpus = sorted(os.sched_getaffinity(0))

    cargo_build(["-p", "gdp-cli", "--bin", "gdp"], env)
    cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], env)

    exe = ".exe" if os.name == "nt" else ""
    command = [
        os.path.join(target, "release", "perfbench" + exe),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--work", os.path.join(ROOT, ".bench_work"),
        "--gdp", os.path.join(target, "release", "gdp" + exe),
        "--commit", source_id(),
        "--nproc", str(len(cpus)),
    ]
    # Every workload runs on one core, and the server a serve workload
    # spawns inherits it. The serve loop has one request in flight, so
    # each hand-off between client and server is a switch on that core,
    # not a wake-up of an idle one, whose cost on a virtual machine
    # follows the other tenants' load; and a publish never waits at a
    # join for the slower of two cores.
    pin = lambda: os.sched_setaffinity(0, {cpus[0]})
    # One busy thread on that core, in the benchmark and the server alike,
    # whatever the caller's environment says.
    env["RAYON_NUM_THREADS"] = "1"
    sys.stdout.flush()
    sys.exit(subprocess.run(command, cwd=ROOT, env=env, preexec_fn=pin).returncode)


if __name__ == "__main__":
    main()
