#!/usr/bin/env python3
"""Builds the perfbench harness from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet-steady --seed 2012 --seconds 10 --trace 0

Every argument is passed through to the harness binary (see
perfbench/src/main.rs). The build goes to $CARGO_TARGET_DIR, or to
.bench_build at the repository root when that is unset. Cargo's output
goes to standard error, so the last line of standard output is the
harness's JSON result. A failed build exits non-zero without a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    env["PERFBENCH_OUT"] = os.path.join(target, "perfbench-out")
    # Keep freed heap memory in the process (glibc tunables): an episode
    # then reuses the pages the previous one faulted in, instead of paying
    # fresh page faults whose cost swings widely on a shared virtual host.
    # Memory use is measured on its own (peak_rss_mb).
    env.setdefault("MALLOC_MMAP_THRESHOLD_", str(32 << 20))
    env.setdefault("MALLOC_TRIM_THRESHOLD_", str(1 << 40))
    env.setdefault("MALLOC_TOP_PAD_", str(64 << 20))
    return subprocess.run([binary, *sys.argv[1:]], cwd=ROOT, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
