#!/usr/bin/env python3
"""Repository benchmark: builds the driver, runs one workload, checks it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The workloads and metrics are declared in BENCHMARK.json. The driver
(perfbench/driver.cpp) is built from the checkout's sources, inside the
repository's own CMake build (perfbench/attach.cmake), under .bench_build/.
With --trace 0 the result carries every end-to-end metric, with --trace 1
every per-layer metric. The last line of stdout is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Everything else (build log, machine descriptor, the metrics by name) goes
before it or to stderr. Exit status: 0 when every output check passed, 1
when a check failed, 2 when the benchmark could not run at all.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
PINS_PATH = os.path.join(BENCH_DIR, "pins.json")
DRIVER_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the driver; output goes to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die(f"no repository sources at {ROOT}: nothing to build")
    cmake = shutil.which("cmake")
    if cmake is None:
        die("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = [cmake, "-S", ROOT, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                   "-DASYNCGOSSIP_BUILD_TESTS=OFF",
                   "-DASYNCGOSSIP_BUILD_BENCH=OFF",
                   "-DASYNCGOSSIP_BUILD_EXAMPLES=OFF",
                   "-DASYNCGOSSIP_SANITIZE=",
                   "-DCMAKE_PROJECT_INCLUDE="
                   + os.path.join(BENCH_DIR, "attach.cmake")]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            run_build_step(cmd)
        run_build_step([cmake, "--build", BUILD_DIR, "--target",
                        "perfbench_driver", "-j", str(hardware_threads())])


def run_build_step(cmd):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False)
    if proc.returncode != 0:
        die(f"build step failed ({proc.returncode}): {' '.join(cmd)}")


def hardware_threads():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_commit():
    if shutil.which("git") is None:
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    """sha256 over src/ (paths and contents): names the code measured even
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def run_driver(args):
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        die(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die(f"driver printed nothing (exit {proc.returncode})")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        die(f"driver output is not JSON: {lines[-1][:200]}")


def pin_failures(raw, pins):
    """Compares the run's exact counts with the values pinned for the
    default seed. A pin entry with a "requests" key applies only to a run
    of that many requests (the paced request count follows --seconds)."""
    if raw["seed"] != pins["seed"]:
        return []
    failures = []
    counts = raw["counts"]
    for entry in pins["workloads"].get(raw["workload"], []):
        if "requests" in entry and entry["requests"] != counts.get("requests"):
            continue
        for key, want in entry.items():
            if counts.get(key) != want:
                failures.append(f"{key}: pinned {want}, got {counts.get(key)}")
    return failures


def select_metrics(declared, printed):
    """Takes the declared metrics from the driver's output. Returns them
    and a problem for each declared name the driver did not print in its
    declared unit (the driver prints 0 itself for a layer the workload
    does not exercise)."""
    metrics, problems = {}, []
    for m in declared:
        got = printed.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} missing or in the wrong unit")
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        die("BENCHMARK.json not found next to perfbench/")
    spec = load_json(spec_path)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload!r}")
    pins = load_json(PINS_PATH)

    build()
    raw = run_driver(args)

    machine = dict(raw["machine"])
    machine.update(nproc=hardware_threads(), git_commit=git_commit(),
                   source_digest=source_digest())
    print("machine " + json.dumps(machine, sort_keys=True))
    problems = [f"check failed: {name}"
                for name, ok in raw["checks"].items() if not ok]
    problems += pin_failures(raw, pins)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, missing = select_metrics(declared, raw["metrics"])
    problems += missing
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    for name, n in raw["samples"].items():
        print(f"samples.{name:20s} {n}")
    for name, value in raw["counts"].items():
        print(f"count.{name:22s} {value}")
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)

    attempted = max(1, raw["attempted"])
    failed = raw["failed"]
    if problems and failed == 0:
        failed = attempted  # a failed check leaves no op trusted
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
