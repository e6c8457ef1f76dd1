#!/usr/bin/env python3
"""Build and run the DataSpread end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 10 --trace 0

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), then runs it. Build output goes to stderr, so
the benchmark's last stdout line is its JSON result. Exits non-zero,
without a result, if the build fails or a correctness gate fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

# The benchmark's own wall-clock limit per run; the build is not counted.
RUN_TIMEOUT_S = 175


def probe(cmd, root):
    """First line of a command's output, or "unknown"."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["interactive", "recalc"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    root = Path.cwd()
    manifest = root / "perfbench" / "Cargo.toml"
    if not manifest.is_file() or not (root / "crates").is_dir():
        print("perfbench: run from the repository root (perfbench/ and crates/ needed)", file=sys.stderr)
        return 2

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--work", ".perfbench_work",
        "--rustc", probe(["rustc", "--version"], root),
        "--git-rev", probe(["git", "rev-parse", "--short", "HEAD"], root),
    ]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
