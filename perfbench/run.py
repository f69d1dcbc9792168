#!/usr/bin/env python3
"""Build the GeckoFTL benchmark from source and run one workload.

    python3 perfbench/run.py --workload <uniform_gc|zipf_read|trim_tenants> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The benchmark is a Cargo project of its
own (perfbench/Cargo.toml) that builds against the repository's crates by
path, offline. Build output goes to $CARGO_TARGET_DIR (default
.bench_build) and to standard error; the last line of standard output is
the benchmark's JSON result. The exit code is the benchmark's: non-zero if
the build fails, an argument is wrong, or any operation or check failed.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    # Keep Cargo's own caches inside the checkout too.
    env["CARGO_HOME"] = os.path.join(target, "cargo-home")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(ROOT, "perfbench", "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    try:
        return subprocess.run(
            [binary] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S
        ).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
