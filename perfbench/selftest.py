"""The benchmark's own tests.

    python3 perfbench/selftest.py

A tiny-size run of every workload, plain and traced, must emit every
named metric with its unit; corrupted results must fail the
correctness checks; the traced self times must add up to the wall.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402 - after the path set-up
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from traced import PER_LAYER  # noqa: E402

run.prepare()


def bench_run(*args):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, timeout=600, cwd=wl.ROOT,
    )
    return done.returncode, done.stdout.decode(), done.stderr.decode()


class TestDeclaration(unittest.TestCase):
    def test_benchmark_json_lists_what_the_runs_emit(self):
        with open(os.path.join(wl.ROOT, "BENCHMARK.json")) as handle:
            declared = json.load(handle)
        self.assertEqual(
            {m["name"]: m["unit"] for m in declared["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in declared["per_layer"]}, PER_LAYER
        )
        self.assertEqual([w["name"] for w in declared["workloads"]], list(wl.WORKLOADS))
        self.assertEqual(declared["paths"], [os.path.basename(HERE)])


class TestSmoke(unittest.TestCase):
    def check_run(self, workload, trace):
        code, out, err = bench_run(
            "--workload", workload, "--size", "tiny", "--seconds", "2",
            "--seed", "5", "--trace", str(trace),
        )
        self.assertEqual(code, 0, out + err)
        result = json.loads(out.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = PER_LAYER if trace else run.END_TO_END
        emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
        self.assertEqual(emitted, expected)
        for name, entry in result["metrics"].items():
            self.assertIsInstance(entry["value"], (int, float), name)
            self.assertIn(f" {name} ", out)  # printed by name with its unit
            if not trace:
                self.assertGreater(entry["value"], 0, name)
        if trace:
            metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
            layers = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS + ("other",))
            self.assertAlmostEqual(layers, metrics["trace.wall_s"], places=6)
        else:
            for name in run.PRINTED_ONLY:
                self.assertIn(f" {name} ", out)
        stamp = json.loads(out.strip().splitlines()[-2])["run"]
        self.assertEqual(stamp["seed"], 5)
        self.assertIn("native_probe", stamp["host"])

    def test_tpg(self):
        self.check_run("tpg", 0)

    def test_grade(self):
        self.check_run("grade", 0)

    def test_serve(self):
        self.check_run("serve", 0)

    def test_tpg_traced(self):
        self.check_run("tpg", 1)

    def test_grade_traced(self):
        self.check_run("grade", 1)

    def test_serve_traced(self):
        self.check_run("serve", 1)

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory(dir=os.path.join(wl.WORK, "tmp")) as bare:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(wl.ROOT, "BENCHMARK.json"), bare)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "tpg", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                capture_output=True, timeout=120, cwd=bare,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, b"")


class TestChecksCatchCorruption(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tpg = wl.CONFIGS["tiny"]["tpg"]
        cls.session, cls.faults = wl.tpg_open(cls.tpg)
        cls.report = wl.tpg_pass(cls.session, cls.faults, cls.tpg)

    def test_tpg_result_passes(self):
        self.assertEqual(wl.check_tpg(self.session.circuit, self.faults, self.report), [])

    def test_tpg_dropped_pattern_fails(self):
        corrupted = copy.copy(self.report)
        corrupted.patterns = list(self.report.patterns[1:])
        self.assertNotEqual(wl.check_tpg(self.session.circuit, self.faults, corrupted), [])

    def test_tpg_changed_statuses_differ(self):
        from repro.core.results import FaultStatus

        corrupted = copy.copy(self.report)
        corrupted.statuses = dict(self.report.statuses)
        index = next(i for i, s in corrupted.statuses.items() if s is FaultStatus.REDUNDANT)
        corrupted.statuses[index] = FaultStatus.SIMULATED
        self.assertNotEqual(wl.tpg_signature(corrupted), wl.tpg_signature(self.report))
        self.assertNotEqual(wl.check_tpg(self.session.circuit, self.faults, corrupted), [])

    def test_grade_flipped_flag_fails(self):
        cfg = wl.CONFIGS["tiny"]["grade"]
        session, faults = wl.grade_open(cfg)
        patterns = wl.random_patterns(len(session.circuit.inputs), cfg.patterns, 5, 1)
        report = session.grade(patterns, faults, test_class=cfg.test_class)
        flags = list(report["detected_flags"])
        self.assertEqual(wl.check_grade_oracle(session, patterns, faults, flags, cfg.test_class), [])
        flags[3] = not flags[3]
        self.assertNotEqual(
            wl.check_grade_oracle(session, patterns, faults, flags, cfg.test_class), []
        )
        report["detected_flags"] = flags
        self.assertNotEqual(wl.check_grade_report(report, cfg.patterns, len(faults)), [])

    def test_serve_flipped_flag_fails(self):
        expected = [False, True, False]
        reply = {"ok": True, "result": {"detected_flags": list(expected)}}
        self.assertIsNone(wl.check_reply(reply, expected))
        reply["result"]["detected_flags"][0] = True
        self.assertIsNotNone(wl.check_reply(reply, expected))
        self.assertIsNotNone(wl.check_reply({"ok": False, "result": {}}, expected))


class TestAccounting(unittest.TestCase):
    def test_self_times_and_other_add_up_to_wall(self):
        spans = [
            (1, "api.grade", 0.0, 10.0, 0, "r"),
            (2, "sim.detect", 1.0, 7.0, 1, "r"),
            (3, "kernel.pack", 1.5, 2.5, 2, "r"),
            (4, "bench.inputs", 11.0, 12.0, 0, "r"),
        ]
        layers = tracing.attributed(spans, wall=15.0)
        self.assertAlmostEqual(layers["api"], 4.0)
        self.assertAlmostEqual(layers["sim"], 5.0)
        self.assertAlmostEqual(layers["kernel"], 1.0)
        self.assertAlmostEqual(layers["bench"], 1.0)
        self.assertAlmostEqual(layers["other"], 4.0)
        self.assertAlmostEqual(sum(layers.values()), 15.0)

    def test_wrappers_are_removed(self):
        from repro.sim.delay_sim import DelayFaultSimulator

        before = DelayFaultSimulator.__dict__["detection_masks"]
        uninstall = tracing.install(tracing.Tracer("t"))
        self.assertIsNot(DelayFaultSimulator.__dict__["detection_masks"], before)
        uninstall()
        self.assertIs(DelayFaultSimulator.__dict__["detection_masks"], before)


if __name__ == "__main__":
    unittest.main()
