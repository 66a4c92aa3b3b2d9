"""Self-test of the benchmark, stdlib unittest only.

    python3 perfbench/selftest.py

Smoke-runs every workload untraced and traced at tiny size, with and
without PYTHONPATH=src, checks that every metric named in BENCHMARK.json is
emitted with its unit, that the tracer restores every binding, and that the
benchmark refuses to run where the porstore sources are missing.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(args: list[str], env_pythonpath: str | None, cwd: str = common.ROOT) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if env_pythonpath is not None:
        env["PYTHONPATH"] = env_pythonpath
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


class BenchmarkFile(unittest.TestCase):
    def test_contract_shape(self):
        bench = load_benchmark()
        self.assertEqual(set(bench), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertEqual(bench["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(bench["paths"], ["perfbench"])
        self.assertTrue(1 <= bench["run_seconds"] <= 60)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(common.WORKLOADS))
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for w in bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in bench["end_to_end"]))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         [(name, unit) for name, unit, _ in common.PER_LAYER])


class TinySmoke(unittest.TestCase):
    """Every workload, untraced and traced, at tiny size."""

    def check_run(self, workload: str, trace: int, pythonpath: str | None) -> None:
        proc = run([RUN, "--workload", workload, "--seed", str(common.DEFAULT_SEED), "--seconds", "1",
                    "--trace", str(trace), "--size", "tiny"], pythonpath)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in load_benchmark()["per_layer" if trace else "end_to_end"]}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertEqual(metric["unit"], expected[name], name)
            self.assertIsInstance(metric["value"], (int, float))
        provenance = next(json.loads(line[len("provenance "):]) for line in proc.stdout.splitlines()
                          if line.startswith("provenance "))
        self.assertEqual(provenance["porstore"], os.path.join("src", "porstore", "__init__.py"))
        for key in ("nproc", "python", "commit", "seed", "shape", "samples"):
            self.assertIn(key, provenance)

    def test_all_workloads(self):
        for workload in common.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace, pythonpath=None)

    def test_pythonpath_src(self):
        self.check_run("sim-pos", 0, pythonpath="src")


class Refusal(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = os.path.join(common.OUT_DIR, "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), bare)
        try:
            proc = run(["perfbench/run.py", "--workload", "sim-pos", "--seed", "1", "--seconds", "1", "--trace", "0"],
                       None, cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


class TracerHygiene(unittest.TestCase):
    def test_wraps_every_binding_and_restores(self):
        common.import_porstore()
        import porstore.pos
        import porstore.sim
        from tracer import Tracer

        originals = {m: dict(vars(m)) for m in (porstore, porstore.pos, porstore.sim)}
        original_epoch = porstore.sim.SimWorld.run_audit_epoch
        tracer = Tracer("selftest")
        tracer.install()
        try:
            self.assertIsNot(porstore.sim.verify_sampling, originals[porstore.sim]["verify_sampling"])
            self.assertIsNot(porstore.verify_sampling, originals[porstore]["verify_sampling"])
            self.assertIs(porstore.sim.verify_sampling, porstore.pos.verify_sampling)
            import sim_workloads

            shape = sim_workloads.SHAPES["sim-pos"]["tiny"]
            porstore.sim.run_experiment(sim_workloads.make_config("sim-pos", shape, 1, 0))
        finally:
            leaked = tracer.restore()
        self.assertEqual(leaked, [])
        for module, before in originals.items():
            for attr, obj in before.items():
                self.assertIs(vars(module)[attr], obj, f"{module.__name__}.{attr}")
        self.assertIs(porstore.sim.SimWorld.run_audit_epoch, original_epoch)
        self.assertEqual(tracer.aggregates["pos.verify_sampling"].calls, 4 * shape["trials"])
        self.assertEqual(tracer.aggregates["sim.epoch"].calls, shape["trials"])
        self.assertGreater(tracer.aggregates["merkle.hash_bytes"].calls, 0)
        spans = {s[0]: s for s in tracer.spans}
        for span_id, name, start, end, parent, run_id in tracer.spans:
            self.assertLessEqual(start, end)
            if parent is not None and parent in spans:
                self.assertLessEqual(spans[parent][2], start)
                self.assertLessEqual(end, spans[parent][3])


class Golden(unittest.TestCase):
    def test_tiny_default_seed_reports(self):
        common.import_porstore()
        import porstore.sim
        import sim_workloads

        with open(sim_workloads.GOLDEN_PATH) as fh:
            golden = json.load(fh)
        for workload, sizes in sim_workloads.SHAPES.items():
            config = sim_workloads.make_config(workload, sizes["tiny"], common.DEFAULT_SEED, 0)
            self.assertEqual(sim_workloads.digests(porstore.sim.run_experiment(config)), golden[workload]["tiny"])


if __name__ == "__main__":
    unittest.main()
