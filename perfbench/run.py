#!/usr/bin/env python3
"""Build perfbench from the checkout's sources and run it.

    python3 perfbench/run.py --workload ram_hot|kv_async|twitter_sync \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The benchmark is built (incrementally) into .bench_build/perfbench under the
checkout root; a traced run also writes its kept spans there as a
chrome://tracing file. The benchmark's stdout is passed through, so its last
line is the result JSON. --selftest builds and runs the benchmark's own tests.
Exits non-zero if the build, the run or a test fails.
"""
import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# A run is killed if it outlives its measured seconds by this much.
SETUP_ALLOWANCE_S = 120


def run_child(command, timeout=None, **kwargs):
    """Runs `command` to completion and returns its exit code. The child runs
    in its own process group, which is killed and reaped if the child outlives
    `timeout` or this script is told to stop, so no process outlives it."""
    child = subprocess.Popen(command, start_new_session=True, **kwargs)

    def kill():
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()

    def stop(signum, _frame):
        kill()
        sys.exit(128 + signum)

    previous = {sig: signal.signal(sig, stop) for sig in (signal.SIGTERM, signal.SIGINT)}
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill()
        print(f"perfbench: {command[0]} exceeded {timeout} s", file=sys.stderr)
        return 1
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if run_child(configure, stdout=sys.stderr) != 0:
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        return run_child(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    try:
        built = build()
    except OSError as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    if not built:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    if args.selftest:
        command = ["ctest", "--test-dir", BUILD, "--output-on-failure"]
    else:
        command = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.trace:
            command += ["--trace-out", os.path.join(BUILD, f"trace_{args.workload}.json")]
    sys.stdout.flush()
    return run_child(command, timeout=args.seconds + SETUP_ALLOWANCE_S)


if __name__ == "__main__":
    sys.exit(main())
