#!/usr/bin/env python3
"""End-to-end benchmark for ca2a: builds ca2a_perfbench, runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload islands|table1|faults \
        --seed N --seconds S --trace 0|1

The benchmark program (perfbench/src) is compiled together with the
repository's src/ tree into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). Its output is passed through; the last line is
one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics; a per-layer metric that does not
apply to the workload reads 0 and is named on the "not_applicable" line.
The exit code is nonzero when any output was wrong, when the build
failed, or when the run was refused.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("islands", "table1", "faults")
# A run must end within 180 s; the workload gets what the build left.
DEADLINE_S = 170.0


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build step, sending its output to stderr. Returns success."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        log("command failed: " + " ".join(cmd))
    return proc.returncode == 0


def build(build_dir):
    """Configures once, then builds incrementally. Returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no ca2a source tree next to perfbench/; nothing to build")
        return None
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", build_dir]):
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_quiet(["cmake", "--build", build_dir, "-j", jobs]):
        return None
    return os.path.join(build_dir, "ca2a_perfbench")


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def fill_metrics(result, declared):
    """Restricts result["metrics"] to the declared metrics, in their units.

    Returns the names that were missing (filled with 0)."""
    measured = result["metrics"]
    out, missing = {}, []
    for m in declared:
        got = measured.get(m["name"])
        if got is None:
            missing.append(m["name"])
            out[m["name"]] = {"value": 0, "unit": m["unit"]}
            continue
        if got["unit"] != m["unit"]:
            raise ValueError("metric %s has unit %s, BENCHMARK.json says %s"
                             % (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    result["metrics"] = out
    return missing


def main():
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_root = target if os.path.isabs(target) else os.path.join(ROOT, target)
    binary = build(os.path.join(build_root, "perfbench"))
    if binary is None:
        return 1
    built_at = time.monotonic()
    # Counters are diffed against earlier runs of this very binary only.
    workdir = os.path.join(build_root, "perfbench-work", file_digest(binary))

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir,
           "--record-file", os.path.join(HERE, "record.txt")]
    # A first run that had to compile may use the rest of its longer allowance.
    budget = DEADLINE_S if built_at - start < 5.0 else 600.0
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("workload did not finish within %.0f s" % budget)
        return 1

    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(stdout)
        log("ca2a_perfbench exited with %d and printed no result"
            % proc.returncode)
        return proc.returncode or 1

    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = fill_metrics(result, declared)
    if missing and not args.trace:
        log("end-to-end metrics not measured: " + ", ".join(missing))
        return 1
    for line in lines[:-1]:
        print(line)
    if missing:
        print("not_applicable " + " ".join(missing))
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
