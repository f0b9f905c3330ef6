#!/usr/bin/env python3
"""Build and run the repository benchmark from the repository root.

    python3 perfbench/run.py --workload design-cold|churn-remap|serve-mixed \
        --seed N --seconds S --trace 0|1

Builds perfbench/main.exe and bin/nocmap.exe with dune (build output goes
to stderr), then runs the benchmark, whose last stdout line is the JSON
result.  Exits non-zero without a result when the build or the run fails.
See perfbench/README.md for the workloads and metrics.
"""

import os
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def stop_group(proc):
    """Kill whatever is left of the run's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isfile("perfbench/dune")):
        print("run.py: not a repository root (needs dune-project, lib/ and perfbench/)", file=sys.stderr)
        return 2
    build = ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe", "./bin/nocmap.exe"]
    try:
        built = subprocess.run(build, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    cmd = ["_build/default/perfbench/main.exe", *sys.argv[1:], "--nocmap", "_build/default/bin/nocmap.exe"]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        code = 3
    finally:
        stop_group(proc)
        proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
