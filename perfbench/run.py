#!/usr/bin/env python3
"""Builds the benchmark and the binaries it drives, then runs it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload profile-cold --seed 1 --seconds 15 --trace 0

Two release builds run first, both into $CARGO_TARGET_DIR (default
`.bench_build`): the repository's `leakage-server` and
`leakage-job-worker` binaries, and the `perfbench` package itself. Build
output goes to stderr, so the last line of stdout is the benchmark's
JSON result. The process then becomes the `perfbench` binary, which
writes its run files under `.bench_run/`.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(args):
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: cargo build {' '.join(args)}")


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    build(["--manifest-path", os.path.join(ROOT, "Cargo.toml"),
           "-p", "leakage-server", "--bin", "leakage-server",
           "-p", "leakage-jobs", "--bin", "leakage-job-worker"])
    build(["--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")])
    release = os.path.join(target, "release")
    binary = os.path.join(release, "perfbench")
    sys.stdout.flush()
    os.execv(binary, [binary, "--bin-dir", release,
                      "--run-dir", os.path.join(ROOT, ".bench_run"), *sys.argv[1:]])


if __name__ == "__main__":
    main()
