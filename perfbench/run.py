#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <node-eng|replay-lt4|ingest-eng> \
        --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; it works in the checkout that holds it. The benchmark
package is built in release mode into $CARGO_TARGET_DIR (default
.bench_build at the checkout root), then run from the checkout root. The
last line of standard output is the JSON result; the line before it
records the host and build the numbers were measured on. See
perfbench/README.md for the workloads and metrics.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
# What the benchmark binary is built from, for the source digest.
SOURCES = ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"]
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def command_output(args):
    try:
        done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def source_digest():
    digest = hashlib.sha256()
    for top in SOURCES:
        path = ROOT / top
        files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
        for file in files:
            if file.suffix in (".rs", ".toml", ".lock", ".py"):
                digest.update(str(file.relative_to(ROOT)).encode())
                digest.update(file.read_bytes())
    return digest.hexdigest()


def build_info():
    return {
        "rustc": command_output(["rustc", "--version"]),
        "git_rev": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
    }


def main():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_BUILD"] = json.dumps(build_info())
    binary = target / "release" / "perfbench"
    try:
        ran = subprocess.run([str(binary), *sys.argv[1:]], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
