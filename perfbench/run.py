#!/usr/bin/env python3
"""Build and run the DeX benchmark.

Usage (from the root of a source tree):

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 20 --trace 0

The benchmark is the Go program in this directory (see main.go). This script
builds it from the surrounding source tree into .bench_build/, keeping the
Go build cache and temporary files there too, then runs it with the given
arguments. It exits non-zero without printing a result when the tree holds
no DeX sources to build.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no DeX sources next to %s (go.mod missing)" % HERE, file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(OUT, "gocache"),
        GOMODCACHE=os.path.join(OUT, "gomod"),
        GOTMPDIR=os.path.join(OUT, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    exe = os.path.join(OUT, "perfbench")
    build = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    try:
        return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
