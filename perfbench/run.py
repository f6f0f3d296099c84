#!/usr/bin/env python3
"""Builds the whole-study benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: tube_seq, tube_tcp_zip, many_groups, ingest_replay.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The build goes to
`$CARGO_TARGET_DIR` (default `.bench_build`); checkpoints and span files
go to `.bench_work`.  Exits non-zero, printing no result, when the build
fails; exits 1 when an output check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release", "melissa-perfbench")
    try:
        run = subprocess.run([exe, *sys.argv[1:]], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
