#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Builds the driver like run.py does, then runs every workload briefly.
"""

import contextlib
import copy
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = ("ears-n600", "tears-n2000", "kv-paced", "kv-burst")
SPEC = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))


def driver(workload, trace=0, seed=1, seconds=1, extra=()):
    proc = subprocess.run(
        [run.DRIVER, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        capture_output=True, text=True, check=False)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def bench(*args):
    proc = subprocess.run([sys.executable, run.__file__, *args],
                          capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


class Names(unittest.TestCase):
    def test_declared_names_and_units(self):
        names = [w["name"] for w in SPEC["workloads"]]
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["unit"], UNIT)
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual(sorted(WORKLOADS), sorted(n for n in names
                                                  if n in WORKLOADS))

    def test_printed_metrics_are_declared(self):
        declared = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                    1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
        for workload in ("kv-burst", "tears-n2000"):
            for trace in (0, 1):
                _, out = driver(workload, trace)
                for name, m in out["metrics"].items():
                    self.assertTrue(NAME.fullmatch(name), name)
                    self.assertEqual(declared[trace].get(name), m["unit"],
                                     name)
                self.assertEqual(set(out["metrics"]), set(declared[trace]),
                                 (workload, trace))

    def test_missing_metric_is_reported(self):
        declared = SPEC["per_layer"][:2]
        printed = {declared[0]["name"]: {"value": 1.0,
                                         "unit": declared[0]["unit"]}}
        metrics, problems = run.select_metrics(declared, printed)
        self.assertEqual(list(metrics), [declared[0]["name"]])
        self.assertEqual(len(problems), 1)
        self.assertIn(declared[1]["name"], problems[0])


class Determinism(unittest.TestCase):
    def test_counts_repeat_for_one_seed(self):
        for workload in WORKLOADS:
            code1, first = driver(workload, seed=7)
            code2, second = driver(workload, seed=7)
            self.assertEqual((code1, code2), (0, 0), workload)
            self.assertTrue(first["counts"], workload)
            self.assertEqual(first["counts"], second["counts"], workload)

    def test_seed_changes_the_inputs(self):
        _, a = driver("kv-burst", seed=1)
        _, b = driver("kv-burst", seed=2)
        self.assertNotEqual(a["counts"]["log_hash"], b["counts"]["log_hash"])


class LayerSplit(unittest.TestCase):
    def test_layer_times_within_traced_run(self):
        for workload in WORKLOADS:
            code, out = driver(workload, trace=1, seconds=2)
            self.assertEqual(code, 0, workload)
            m = {k: v["value"] for k, v in out["metrics"].items()}
            total = m["trace.run_s"]
            self.assertGreater(total, 0, workload)
            self.assertEqual(m["trace.dropped"], 0, workload)
            if workload in ("ears-n600", "tears-n2000"):
                self.assertLessEqual(m["sim.kway_merge_s"], m["sim.drain_s"])
                self.assertLessEqual(m["gossip.step_s"] + m["sim.drain_s"],
                                     total)
                self.assertGreaterEqual(m["sim.other_s"], 0)
            else:
                self.assertLessEqual(m["consensus.busy_s"], total, workload)
                self.assertGreaterEqual(m["svc.self_s"], 0, workload)


class Tamper(unittest.TestCase):
    def test_tampered_pinned_hash_fails(self):
        pins = run.load_json(run.PINS_PATH)
        tampered = copy.deepcopy(pins)
        entry = tampered["workloads"]["tears-n2000"][0]
        entry["trace_hash"] = str(int(entry["trace_hash"]) ^ 1)
        _, raw = driver("tears-n2000", seed=pins["seed"])
        self.assertEqual(run.pin_failures(raw, pins), [])
        self.assertTrue(run.pin_failures(raw, tampered))

        # The whole command, in process, against the tampered pins.
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            json.dump(tampered, f)
        argv = ["run.py", "--workload", "tears-n2000", "--seed",
                str(pins["seed"]), "--seconds", "1", "--trace", "0"]
        out = io.StringIO()
        try:
            with mock.patch.object(run, "PINS_PATH", f.name), \
                    mock.patch.object(sys, "argv", argv), \
                    contextlib.redirect_stdout(out):
                code = run.main()
        finally:
            os.unlink(f.name)
        res = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertEqual(code, 1)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)

    def test_untampered_pins_pass(self):
        code, res = bench("--workload", "kv-burst", "--seed", "1",
                          "--seconds", "1", "--trace", "0")
        self.assertEqual(code, 0)
        self.assertTrue(res["correct"])

    def test_tampered_log_entry_fails(self):
        for workload in ("kv-paced", "kv-burst"):
            code, out = driver(workload, extra=("--tamper-log",))
            self.assertEqual(code, 1, workload)
            self.assertEqual(out["failed"], out["attempted"], workload)
            self.assertFalse(
                out["checks"]["every_request_acked_and_history_clean"])


class Hermetic(unittest.TestCase):
    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(run.BENCH_DIR, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "kv-burst",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
                check=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")

    def test_engine_jobs_env_does_not_leak(self):
        # The driver sets engine_jobs = 1 explicitly. Were AG_ENGINE_JOBS
        # read instead, it would start shard workers, which the driver's
        # one_thread check counts.
        env = dict(os.environ, AG_ENGINE_JOBS="4", AG_BENCH_JOBS="4")
        proc = subprocess.run(
            [run.DRIVER, "--workload", "tears-n2000", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, env=env, check=False)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(proc.returncode, 0)
        self.assertTrue(out["checks"]["one_thread"])

    def test_kv_threads_share_one_cpu(self):
        # Generator and commit thread are pinned to one CPU, so the paced
        # latency never includes waking an idle CPU.
        code, out = driver("kv-paced")
        self.assertEqual(code, 0)
        self.assertTrue(out["checks"]["one_cpu"])
        self.assertTrue(out["checks"]["two_threads"])


if __name__ == "__main__":
    run.build()
    unittest.main()
