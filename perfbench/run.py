#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cxl-stream --seed 1 --seconds 20 --trace 0

The Go program (a module of its own beside this file that imports the
repository's packages) is built into .bench_build/perfbench, with the Go
build cache and the compiler's temporary files kept there too, so a run
reads and writes only inside the checkout.  Arguments pass through to the program; its exit code is ours.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build", "perfbench")
    gohome = os.path.join(out, "go")
    env = dict(os.environ)
    tmp = os.path.join(gohome, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        GOTMPDIR=tmp,
        GOCACHE=os.path.join(gohome, "cache"),
        GOMODCACHE=os.path.join(gohome, "mod"),
        GOPATH=os.path.join(gohome, "path"),
        XDG_CONFIG_HOME=os.path.join(gohome, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOENV="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
