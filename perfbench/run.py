#!/usr/bin/env python3
"""Builds the benchmark binary from source, then runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Cargo writes to $CARGO_TARGET_DIR, or to .bench_build in the current
directory when that is unset. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. A failed build exits
with cargo's code and prints no result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    binary = os.path.join(target, "release", "protest-perfbench")
    sys.exit(subprocess.run([binary] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
