"""Self-tests for the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench -q

They cover the module-to-layer map, the output checks (a corrupted
result must be counted as a failed operation) and the metric names and
units the entry point prints.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
for path in (SRC, HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import run as entry  # noqa: E402
from checks import Tally, digest_problems, result_problems  # noqa: E402
from layers import (  # noqa: E402
    LAYERS,
    EntryTimers,
    LayerMapError,
    LayerProfile,
    entry_wrappers,
    layer_of,
    module_of,
    profile_call,
)
from workloads import WORKLOADS, work_counts  # noqa: E402

from repro.core.experiment import run_experiment  # noqa: E402
from repro.core.goldens import result_digest  # noqa: E402
from repro.core.results import RunHealth  # noqa: E402
from repro.core.scenarios import core_scale, edge_scale  # noqa: E402

_TINY = edge_scale(flows=3, cca="bbr", duration=1.0, warmup=0.3, seed=5)
_LOSSY = core_scale(flows=1000, cca="newreno", scale=100, duration=1.5, warmup=0.5, seed=5)


class LayerMapTest(unittest.TestCase):
    def test_module_of(self) -> None:
        self.assertEqual(module_of(os.path.join(SRC, "repro", "sim", "engine.py"), SRC), "repro.sim.engine")
        self.assertEqual(module_of(os.path.join(SRC, "repro", "obs", "__init__.py"), SRC), "repro.obs")
        self.assertEqual(module_of("~", SRC), "")
        self.assertEqual(module_of("/usr/lib/python3/heapq.py", SRC), "")

    def test_named_layers(self) -> None:
        self.assertEqual(layer_of("repro.tcp.rangeset"), "rangeset")
        self.assertEqual(layer_of("repro.tcp.cca.bbr"), "cca")
        self.assertEqual(layer_of("repro.instrumentation.queuemon"), "obs")
        self.assertEqual(layer_of("repro.sim.topology"), "experiment")
        self.assertEqual(layer_of("repro.runstore.store"), "runstore")
        self.assertEqual(layer_of(""), "builtins")

    def test_unmapped_module_fails_loudly(self) -> None:
        with self.assertRaises(LayerMapError):
            layer_of("repro.newthing")
        fake = os.path.join(SRC, "repro", "newthing.py")
        stats = {(fake, 1, "f"): (1, 1, 0.1, 0.1, {})}
        with self.assertRaises(LayerMapError):
            LayerProfile.from_stats(stats, SRC)

    def test_traced_runs_cover_every_module_and_repeat_exactly(self) -> None:
        profiles = []
        for _ in range(2):
            timers = EntryTimers()
            with entry_wrappers(timers):
                result, profile, _ = profile_call(lambda: run_experiment(_TINY), SRC)
            profiles.append(profile)
            self.assertEqual(len(timers.dumbbells), 1)
            self.assertGreater(work_counts(timers.dumbbells)["connection.acks"], 0)
        self.assertEqual(profiles[0].calls, profiles[1].calls)
        self.assertEqual(set(profiles[0].calls), set(LAYERS))
        for layer in ("engine", "connection", "cca", "link", "queue", "obs"):
            self.assertGreater(profiles[0].calls[layer], 0, layer)
        self.assertGreater(profiles[0].bbr_calls, 0)
        self.assertEqual(profiles[0].calls["runstore"], 0)

    def test_wrappers_are_removed(self) -> None:
        from repro.core import experiment
        from repro.runstore.store import RunStore

        before = (experiment.build_dumbbell, RunStore.put, RunStore.fetch)
        with self.assertRaises(RuntimeError):
            with entry_wrappers(EntryTimers()):
                raise RuntimeError("boom")
        self.assertEqual(before, (experiment.build_dumbbell, RunStore.put, RunStore.fetch))


class OutputCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.result = run_experiment(_LOSSY)

    def test_healthy_result_passes(self) -> None:
        self.assertGreater(self.result.queue_drops, 0)
        self.assertEqual(result_problems(self.result), [])

    def _corrupted(self, mutate) -> list:
        bad = copy.deepcopy(self.result)
        mutate(bad)
        tally = Tally()
        tally.record(result_problems(bad))
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        self.assertEqual(tally.error_rate, 1.0)
        return tally.problems

    def test_drops_above_arrivals_is_counted(self) -> None:
        def mutate(r):
            r.queue_drops = r.queue_arrivals + 1
        self.assertTrue(any("drops" in p for p in self._corrupted(mutate)))

    def test_delivered_above_sent_is_counted(self) -> None:
        def mutate(r):
            r.flows[0].delivered_packets = r.flows[0].packets_sent + 1
        self.assertTrue(any("delivered" in p for p in self._corrupted(mutate)))

    def test_goodput_above_capacity_is_counted(self) -> None:
        def mutate(r):
            r.queue_arrivals *= 3
            r.flows[0].queue_arrivals += r.queue_arrivals - sum(f.queue_arrivals for f in r.flows)
        self.assertTrue(any("bottleneck" in p for p in self._corrupted(mutate)))

    def test_unhealthy_run_is_counted(self) -> None:
        def mutate(r):
            r.health = RunHealth(ok=False, reason="stall", truncated_at=1.0)
        self.assertTrue(any("unhealthy" in p for p in self._corrupted(mutate)))

    def test_digest_drift_is_counted(self) -> None:
        digest = result_digest(self.result)
        self.assertEqual(digest_problems(digest, digest, "x"), [])
        self.assertEqual(digest_problems(digest, None, "x"), [])
        self.assertEqual(len(digest_problems(digest, "0" * 64, "x")), 1)


class MetricPrintoutTest(unittest.TestCase):
    spec = entry.load_spec()

    def test_spec_shape(self) -> None:
        self.assertEqual(
            set(self.spec),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(WORKLOADS))
        names = [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        for m in self.spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
            self.assertLessEqual(m["bound"], setup[0]["bound"])
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})

    def test_every_declared_metric_is_printed_with_its_unit(self) -> None:
        for trace in (False, True):
            declared = entry.declared(self.spec, trace)
            metrics = {m["name"]: 1.5 for m in declared}
            line = entry.result_line(self.spec, trace, metrics, attempted=4, failed=0)
            self.assertTrue(line["correct"])
            self.assertEqual(
                line["metrics"], {m["name"]: {"value": 1.5, "unit": m["unit"]} for m in declared}
            )
            json.dumps(line)

    def test_missing_or_extra_metric_raises(self) -> None:
        declared = entry.declared(self.spec, False)
        metrics = {m["name"]: 1.0 for m in declared}
        with self.assertRaises(KeyError):
            entry.result_line(self.spec, False, dict(metrics, bogus=1.0), 1, 0)
        metrics.pop(declared[0]["name"])
        with self.assertRaises(KeyError):
            entry.result_line(self.spec, False, metrics, 1, 0)

    def test_failures_make_the_run_incorrect(self) -> None:
        metrics = {m["name"]: 1.0 for m in entry.declared(self.spec, False)}
        self.assertFalse(entry.result_line(self.spec, False, metrics, 3, 1)["correct"])

    def test_refuses_to_run_without_the_package(self) -> None:
        bare = tempfile.mkdtemp()
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "core-loss", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
