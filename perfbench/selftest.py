"""Self-test of the benchmark: its gates trip on bad output, every metric
named in BENCHMARK.json is emitted, and the solved counts repeat exactly.

    python3 perfbench/selftest.py

Runs each workload at a tiny size in this process; takes about a minute.
"""

from __future__ import annotations

import dataclasses
import io
import json
import sys
import tempfile
import unittest
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import counts  # noqa: E402
import run  # noqa: E402

run.import_spanrel()

import spanrel.cli  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402
from spanrel.decode import DecodedStructure, ScoredInstance  # noqa: E402
from spanrel.representation import TypeInventory  # noqa: E402
from spantrace import per_layer_names  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "cli-short": workloads.CliShort(count=6, lo=5, hi=25),
    "library-long": workloads.LibraryLong(count=4, lo=40, hi=80, batches=2),
    "exact-mid": workloads.ExactMid(count=6, lo=10, hi=39, batches=2),
}


def run_tiny(name: str, trace: bool = False, seed: int = 7) -> dict:
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as workdir:
        if trace:
            return run.run_traced(TINY[name], seed, 0, workdir, Path(workdir) / "spans.jsonl")
        return run.run_untraced(TINY[name], seed, 0, 0.0, workdir)


@contextmanager
def patched(module, attr: str, replacement):
    original = getattr(module, attr)
    setattr(module, attr, replacement(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def all_typed(decode):
    """A decoder whose entity_first output types every span, overlaps included."""

    def wrapper(inst, algorithm, *args):
        st = decode(inst, algorithm, *args)
        if algorithm != "entity_first":
            return st
        return DecodedStructure((1,) * len(inst.spans), st.relation_labels, st.score)

    return wrapper


def joint_lowered(decode):
    """A decoder whose joint objective falls far below every other decoder's."""

    def wrapper(inst, algorithm, *args):
        st = decode(inst, algorithm, *args)
        return dataclasses.replace(st, score=st.score - 1e6) if algorithm == "joint" else st

    return wrapper


class GateTrips(unittest.TestCase):
    def test_overlapping_typed_spans(self):
        inv = TypeInventory.from_names(["Peop"], ["Kill"])
        inst = ScoredInstance(
            length=3,
            spans=((0, 1), (1, 2)),
            entity_logits=np.zeros((2, 2)),
            pairs=((0, 1),),
            relation_logits=np.zeros((1, 2)),
            inventory=inv,
        )
        cons = workloads.decode_mod.ConstraintSet(inv)
        errors = workloads.structure_gate(DecodedStructure((1, 1), (0,), 0.0), cons, inst, "s")
        self.assertEqual(len(errors), 1)
        self.assertIn("non-overlap", errors[0])
        self.assertEqual(workloads.structure_gate(DecodedStructure((1, 0), (0,), 0.0), cons, inst, "s"), [])

    def test_joint_objective_below_entity_first(self):
        gate = workloads.objective_gate
        self.assertTrue(gate({"entity_first": 2.0, "joint": 1.5, "relation_first": None}, "s"))
        self.assertTrue(gate({"entity_first": 1.0, "joint": 1.5, "relation_first": 1.6}, "s"))
        self.assertFalse(gate({"entity_first": 2.0, "joint": 2.0 - 1e-10, "relation_first": 2.0}, "s"))
        self.assertFalse(gate({"entity_first": 9.0, "joint": None, "relation_first": 9.0}, "s"))

    def test_changed_output_bytes(self):
        a = workloads.PassResult([], attempted=1, digest="a")
        b = workloads.PassResult([], attempted=1, digest="b")
        self.assertTrue(run._check_passes([a, b]))
        self.assertFalse(run._check_passes([a, a]))

    def test_library_run_fails_on_overlap(self):
        with patched(workloads.decode_mod, "decode", all_typed):
            result = run_tiny("library-long")
        self.assertFalse(result["correct"])
        self.assertIn("non-overlap", " ".join(result["errors"]))

    def test_cli_run_fails_when_verify_finds_violations(self):
        with patched(spanrel.cli, "decode", all_typed):
            result = run_tiny("cli-short")
        self.assertFalse(result["correct"])
        self.assertIn("cli verify exited 1", " ".join(result["errors"]))

    def test_exact_run_fails_on_lowered_joint(self):
        with patched(workloads.decode_mod, "decode", joint_lowered):
            result = run_tiny("exact-mid")
        self.assertFalse(result["correct"])
        self.assertIn("joint objective", " ".join(result["errors"]))


class SolvedCounts(unittest.TestCase):
    BASE = {"decode.attempted.len30-39": 40, "decode.joint.solved.len30-39": 7}

    def test_lower_solved_count_is_a_regression(self):
        worse, better = counts.compare(self.BASE, {**self.BASE, "decode.joint.solved.len30-39": 6})
        self.assertEqual(len(worse), 1)
        self.assertFalse(better)

    def test_higher_solved_count_is_a_gain(self):
        worse, better = counts.compare(self.BASE, {**self.BASE, "decode.joint.solved.len30-39": 8})
        self.assertFalse(worse)
        self.assertEqual(len(better), 1)

    def test_changed_attempted_count_is_a_regression(self):
        worse, _ = counts.compare(self.BASE, {**self.BASE, "decode.attempted.len30-39": 41})
        self.assertEqual(len(worse), 1)


class Metrics(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in BENCH["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual([(m["name"], m["unit"]) for m in BENCH["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in BENCH["per_layer"]], per_layer_names())

    def test_every_metric_emitted(self):
        end_to_end = [m["name"] for m in BENCH["end_to_end"]]
        per_layer = [m["name"] for m in BENCH["per_layer"]]
        for name in TINY:
            with self.subTest(workload=name):
                plain = run_tiny(name)
                self.assertTrue(plain["correct"], plain.get("errors"))
                self.assertEqual(list(plain["metrics"]), end_to_end)
                self.assertTrue(all(m["value"] > 0 for m in plain["metrics"].values()))
                traced = run_tiny(name, trace=True)
                self.assertTrue(traced["correct"], traced.get("errors"))
                self.assertEqual(list(traced["metrics"]), per_layer)

    def test_throughputs_scale_with_the_yardstick(self):
        """A host that runs the yardstick twice as slow as the reference
        doubles every reported throughput over its unscaled median."""
        out = io.StringIO()

        def slow(_original):
            return lambda: 2 * yardstick.REFERENCE_S

        with patched(workloads, "yardstick", slow), redirect_stdout(out):
            result = run_tiny("library-long")
        line = out.getvalue().splitlines()[-1]
        unscaled = dict(item.split("=") for item in line.split()[1:])
        self.assertEqual(unscaled["host_scale"], "2.0000")
        for name in ("pipeline_sent_per_s", "score_sent_per_s", "decode_sent_per_s"):
            self.assertAlmostEqual(
                result["metrics"][name]["value"] / (2 * float(unscaled[name])), 1.0, places=5
            )

    def test_solved_counts_repeat(self):
        first, second = run_tiny("exact-mid", trace=True), run_tiny("exact-mid", trace=True)
        counts = [k for k in first["metrics"] if ".solved." in k or ".attempted." in k]
        self.assertEqual(len(counts), 9)
        for key in counts:
            self.assertEqual(first["metrics"][key], second["metrics"][key], key)


if __name__ == "__main__":
    unittest.main()
