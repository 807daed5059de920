#!/usr/bin/env python3
"""Build and run the eventnet end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload forward --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the library sources under
src/ plus the benchmark) as Release into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls rebuild
only what changed. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. Exits nonzero, without a result, when the
checkout has no library sources, the build fails, or the benchmark fails.
"""

import json
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root):
    here = os.path.join(root, "perfbench")
    if not os.path.isdir(os.path.join(root, "src")):
        fail("no library sources under src/ in " + root)
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench")
    out = os.path.join(root, out) if not os.path.isabs(out) else out
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    cmds = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", here, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"] + gen)
    cmds.append(["cmake", "--build", out, "--parallel", jobs])
    for cmd in cmds:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def main():
    root = os.getcwd()
    binary = build(root)
    try:
        r = subprocess.run([binary] + sys.argv[1:], stdout=subprocess.PIPE,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    if r.returncode != 0:
        fail(f"benchmark exited with code {r.returncode}")
    if "--selftest" in sys.argv:
        return
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result: " + lines[-1])


if __name__ == "__main__":
    main()
