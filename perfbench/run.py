#!/usr/bin/env python3
"""Builds unicon and the benchmark harness from source, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <serve_stream|horizon|construct>
                             --seed <n> --seconds <s> --trace <0|1>

Both builds go to $CARGO_TARGET_DIR (default: .bench_build), so the harness
finds the `unicon` daemon binary next to its own executable. Build output
goes to stderr; the harness's report (last line: one JSON object) goes to
stdout. Any build or run failure exits nonzero.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
        env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "unicon"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    harness = os.path.join(target, "release", "perfbench")
    return subprocess.run([harness] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
