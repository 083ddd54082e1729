#!/usr/bin/env python3
"""Layered HyperStream benchmark.

Builds the repository's libraries, hsi-served and the layerbench binary from
source (Release, into $CARGO_TARGET_DIR or .bench_build), runs one workload
and prints its result as the last line of standard output:

  python3 layerbench/run.py --workload scene-512 --seed 1 --seconds 25 --trace 0
  python3 layerbench/run.py --self-test    # the benchmark's own unit tests

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones;
BENCHMARK.json lists both sets. See layerbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scene-512", "sensor-stream", "fleet-tiny")
# A run must end within 180 s (a first run, which builds from scratch, has
# longer); leave room for the build check and teardown.
RUN_BUDGET_S = 170


def fail(message):
    print("layerbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out, targets):
    """Builds `targets`; returns True when the build directory was new."""
    jobs = str(max(1, os.cpu_count() or 1))
    fresh = not os.path.exists(os.path.join(out, "CMakeCache.txt"))
    if fresh:
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", out, "-j", jobs, "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return fresh


def stop_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def expected_metrics(trace):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return None
    with open(spec_path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    started = time.monotonic()
    out = build_dir()
    if args.self_test:
        build(out, ["layerbench_tests"])
        sys.exit(subprocess.run([os.path.join(out, "layerbench_tests")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    fresh = build(out, ["layerbench", "hsi-served"])

    cmd = [os.path.join(out, "layerbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--served", os.path.join(out, "hsi-served"),
           "--out", os.path.join(out, "runs", "%s-%d-%d" % (args.workload, args.seed, args.trace))]
    # Own process group, so shard workers are stopped with layerbench even
    # when it has to be killed.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    budget = RUN_BUDGET_S if fresh else max(30.0, RUN_BUDGET_S - (time.monotonic() - started))
    try:
        stdout, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        fail("%s did not finish within %.0f s" % (args.workload, budget))
    stop_group(proc)

    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        fail("no output from layerbench (exit code %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line is not JSON: " + lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result keys: %s" % sorted(result))
    want = expected_metrics(args.trace == 1)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want is not None and got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    print("\n".join(lines))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
