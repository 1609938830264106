#!/usr/bin/env python3
"""Serve admission benchmark entry point.

Builds the harness package (servebench/harness) from source with cargo,
then runs one measurement:

    python3 servebench/run.py --workload pd-busy --seed 1 --seconds 10 --trace 0

Run it from the repository root. Build output goes to $CARGO_TARGET_DIR,
or to .bench_build/ under the root when that is unset. The harness runs
single-threaded (MUERP_THREADS=1) with MUERP_OBS unset, so the engine
runs at the program's default obs level. The last line of stdout is the
result JSON; build output and the human-readable summary go to stderr.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def rustc_version(env):
    try:
        out = subprocess.run(
            ["rustc", "--version"], env=env, capture_output=True, text=True, timeout=60
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "harness", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("servebench: build failed", file=sys.stderr)
        return 2
    env["MUERP_THREADS"] = "1"
    env.pop("MUERP_OBS", None)
    env["SERVEBENCH_RUSTC"] = rustc_version(env)
    binary = os.path.join(target, "release", "servebench")
    return subprocess.run([binary] + sys.argv[1:], env=env, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
