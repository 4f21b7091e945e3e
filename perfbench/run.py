#!/usr/bin/env python3
"""Build and run the gde-server benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload hot_wire --seed 1 --seconds 20 --trace 0

Builds the `gde-server` binary and the `perfbench` load generator in
release mode (into $CARGO_TARGET_DIR, default `.bench_build`), then runs
the load generator, which starts and stops its own server processes.
Build output goes to standard error; the last line of standard output is
the result object. Exits non-zero when the checkout holds no sources to
build.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    for required in ("Cargo.toml", os.path.join("crates", "server", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail(f"run from the root of a source checkout ({required} is missing)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "gde-server", "--bin", "gde-server"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    out_dir = os.path.join(target, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--server-bin", os.path.join(target, "release", "gde-server"),
        "--out-dir", out_dir,
    ] + sys.argv[1:]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
