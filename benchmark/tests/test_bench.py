"""The benchmark's own tests: generators, the `sched` checker, the output
schema and the repeatability of count metrics. They never check timings.

Run them under the pinned interpreter with
`python3 benchmark/run.py --self-test`.
"""

from __future__ import annotations

import itertools
import json
import random
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from girkit.core import NameSupply, initial_store  # noqa: E402
from girkit.schedule import (  # noqa: E402
    Block, Leaf, SGraph, SNode, schedule,
)
from girkit.typecheck import infer_direct  # noqa: E402

from benchmark import gen, worker, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def typechecks(text: str):
    store = initial_store()
    infer_direct(store.typing(), workloads.parse(text, store))


class GeneratorTest(unittest.TestCase):
    def test_chain_programs_typecheck_and_match_their_tracked_value(self):
        rng = random.Random(7)
        for ret_cell in (False, True):
            for cells in range(4, 9):
                prog = gen.chain_program(rng, 40, cells, ret_cell)
                typechecks(prog.text)
                value, _ = workloads.evaluate(prog.text)
                self.assertEqual(value, prog.expected, prog.text)
                self.assertGreaterEqual(prog.lets, 40)

    def test_opt_programs_typecheck_and_match_their_tracked_value(self):
        rng = random.Random(8)
        for index in range(5):
            prog = gen.opt_program(rng, index)
            typechecks(prog.text)
            value, _ = workloads.evaluate(prog.text)
            self.assertEqual(value, prog.expected, prog.text)

    def test_sched_graphs_are_deterministic_and_mostly_reachable(self):
        a = gen.sched_graph(random.Random(3), 2000)
        b = gen.sched_graph(random.Random(3), 2000)
        self.assertEqual(list(a.nodes.values()), list(b.nodes.values()))
        leaves, operations = workloads.count_output(
            schedule(a, freq=True, compact=True, matchers=("gemm",)))
        self.assertGreater(leaves, 0)
        self.assertGreater(operations, len(a.nodes) // 2)


def small_schedule() -> tuple:
    """A chain of generic ops: every leaf uses the leaf before it."""
    s = NameSupply(1)
    names = [s.var("n") for _ in range(5)]
    nodes = {names[0]: SNode(names[0], "cst", lit=1)}
    for prev, n in zip(names, names[1:]):
        nodes[n] = SNode(n, "op:gen", (prev,))
    sg = SGraph(nodes, names[-1])
    return sg, schedule(sg)


class SchedCheckerTest(unittest.TestCase):
    def test_accepts_a_schedule(self):
        sg, block = small_schedule()
        self.assertEqual(workloads.check_schedule(sg, block), [])

    def test_rejects_a_leaf_moved_before_its_operand(self):
        sg, block = small_schedule()
        trees = list(block.trees)
        trees[1], trees[2] = trees[2], trees[1]
        errors = workloads.check_schedule(sg, Block(trees, block.tail))
        self.assertTrue(errors)
        self.assertIn(trees[2].name.pretty(), errors[0])

    def test_rejects_a_node_emitted_twice(self):
        sg, block = small_schedule()
        trees = list(block.trees) + [block.trees[0]]
        errors = workloads.check_schedule(sg, Block(trees, block.tail))
        self.assertTrue(any("twice" in e for e in errors))

    def test_rejects_an_operand_hidden_inside_a_compacted_tree(self):
        sg, block = small_schedule()
        leaf = block.trees[0]
        ghost = NameSupply(100).var("ghost")
        bad = Leaf(leaf.name, workloads.Exp("op:gen", (
            workloads.Exp("op:gen", (ghost,)),)))
        errors = workloads.check_schedule(
            sg, Block([bad] + list(block.trees[1:]), block.tail))
        self.assertTrue(any("ghost" in e for e in errors))


class SchemaTest(unittest.TestCase):
    def test_benchmark_json_follows_the_contract(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end",
                                     "per_layer"})
        self.assertEqual(SPEC["paths"], ["benchmark"])
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         ["chain", "opt", "fuzz", "sched"])
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = SPEC["end_to_end"][0]
        self.assertEqual((setup["name"], setup["unit"], setup["better"]),
                         ("setup_s", "s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))

    def run_bench(self, workload: str, trace: int) -> dict:
        p = subprocess.run(
            [sys.executable, "benchmark/run.py", "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=190)
        self.assertEqual(p.returncode, 0, p.stderr)
        return json.loads(p.stdout.strip().splitlines()[-1])

    def test_result_line_is_pinned_and_correct(self):
        for workload, trace in itertools.product(
                [w["name"] for w in SPEC["workloads"]], (0, 1)):
            res = self.run_bench(workload, trace)
            key = ("end_to_end", "per_layer")[trace]
            self.assertEqual(set(res), {"correct", "attempted", "failed",
                                        "metrics"})
            self.assertIs(res["correct"], True, f"{workload} {trace}")
            self.assertGreaterEqual(res["attempted"], 1)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            self.assertEqual(got, want)
            for v in res["metrics"].values():
                self.assertIsInstance(v["value"], (int, float))


class RepeatTest(unittest.TestCase):
    """Count metrics repeat exactly between two runs of the same seed, and
    a run sees one output per input, traced or not."""

    def measure_twice(self, workload: str, keep: int, traced: bool):
        results = []
        for _ in range(2):
            with tempfile.TemporaryDirectory() as d:
                ops = workloads.make_ops(workload, 5, Path(d))[:keep]
                res = worker.measure(
                    ops, 0, traced, workloads.sized_verdicts(workload,
                                                             Path(d)))
                self.assertTrue(res["consistent"],
                                f"{workload} traced={traced}")
                results.append(res["metrics"])
        return results

    def test_end_to_end_counts_repeat(self):
        for workload, keep in (("chain", 4), ("fuzz", 8)):
            a, b = self.measure_twice(workload, keep, traced=False)
            for name in ("out_size_ratio", "out_steps", "ok_frac"):
                self.assertEqual(a[name], b[name], f"{workload} {name}")
            self.assertGreater(a["out_steps"][0], 0, workload)

    def test_layer_counts_repeat(self):
        counts = (("chain", 4, ("mnf.bindings", "graphir.hard_edges",
                                "graphir.soft_edges",
                                "schedule.leaves_out")),
                  ("opt", 6, tuple(f"optimize.{r}.fired"
                                   for r in gen.OPT_PASSES)
                   + ("optimize.fuel_exhausted", "optimize.failed")),
                  ("fuzz", 8, ("mnf.bindings", "interp.steps")),
                  ("sched", 1, ("schedule.nodes_in",
                                "schedule.leaves_out")))
        for workload, keep, names in counts:
            a, b = self.measure_twice(workload, keep, traced=True)
            for name in names:
                self.assertEqual(a[name], b[name], f"{workload} {name}")
            self.assertGreater(a[names[0]][0], 0, workload)

if __name__ == "__main__":
    unittest.main()
