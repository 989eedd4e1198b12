#!/usr/bin/env python3
"""Build springdtw_serve and the perfbench program from source, then run one
benchmark measurement.

    python3 perfbench/run.py --workload kernel_bound --seed 1 --seconds 12 \
        --trace 0

Run from the repository root. Builds into .bench_build/ (CMake, Release),
then runs the perfbench program (perfbench/perfbench.cc), whose last stdout
line is the result JSON. Exits non-zero without a result when the build
fails (for example when the repository sources are missing) or the run does.
perfbench/README.md describes the workloads and metrics.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "--target", "perfbench",
                  "springdtw_serve", "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as out:
        for step in steps:
            if subprocess.call(step, cwd=ROOT, stdout=out,
                               stderr=subprocess.STDOUT) != 0:
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-30:]))
                log("build failed: " + " ".join(step))
                return False
    return True


def stop_group(child):
    """SIGKILLs the perfbench process group and waits until it is gone."""
    os.killpg(child.pid, signal.SIGKILL)
    child.wait()
    for _ in range(100):
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 2
    work_dir = os.path.join(BUILD, "work",
                            "%s-%d" % (args.workload, os.getpid()))
    command = [
        os.path.join(CMAKE_DIR, "perfbench"),
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%s" % args.seconds,
        "--trace=%d" % args.trace,
        "--serve=" + os.path.join(CMAKE_DIR, "springdtw", "tools",
                                  "springdtw_serve"),
        "--work_dir=" + work_dir,
    ]
    # Own process group, so stopping it also reaches the daemons it spawned.
    child = subprocess.Popen(command, cwd=ROOT, start_new_session=True)

    def on_signal(signum, _frame):
        stop_group(child)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s; stopping it" % RUN_TIMEOUT_S)
        stop_group(child)
        return 3


if __name__ == "__main__":
    sys.exit(main())
