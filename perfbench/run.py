#!/usr/bin/env python3
"""Build the daemon and the benchmark from source, then run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload s3ca_mc --seed 1 --seconds 20 --trace 0

Builds `osn-serve` from the repository's workspace and the `perfbench`
package beside this file (both offline, into $CARGO_TARGET_DIR, default
`.bench_build`), then runs `perfbench` with the same arguments. Build
output goes to stderr; the last line of stdout is the benchmark's JSON
result. Exits nonzero, without a result, when the checkout cannot be built.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def cargo_build(args):
    """Run one offline release build; build chatter goes to stderr."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    try:
        result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        die("cargo is not installed")
    if result.returncode != 0:
        die(f"build failed: {' '.join(cmd)}")


def main():
    for needed in ("Cargo.toml", os.path.join("crates", "serve", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            die(f"not a checkout of the repository: {needed} is missing")
    env_target = os.environ.get("CARGO_TARGET_DIR")
    target = os.path.join(ROOT, env_target or ".bench_build")
    os.environ["CARGO_TARGET_DIR"] = target

    cargo_build(["-p", "s3crm-serve", "--bin", "osn-serve"])
    cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")])

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--serve-bin",
        os.path.join(release, "osn-serve"),
    ]
    sys.stdout.flush()
    # The benchmark manages (and reaps) the daemon itself; its exit code is
    # the run's exit code.
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
