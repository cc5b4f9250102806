"""Self-test of the benchmark: the trace attributes time to the right layer,
corpora regenerate from their seed, and wrong outputs fail the gate.

Run from the root of a checkout:  python3 perfbench/selftest.py
It takes about ten seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import lqnash  # noqa: E402
import lqnash.solver  # noqa: E402

import corpus  # noqa: E402
import ops  # noqa: E402
import bench  # noqa: E402
import tracing  # noqa: E402

with open(HERE / "golden.json", encoding="utf-8") as fh:
    GOLDEN = json.load(fh)

DELAY_NS = 1_000_000


def traced_run(workload: str = "solve_float", seed: int = 7) -> bench.Run:
    """The shortest traced run: one traced and one untraced block."""
    result = bench.Run(workload)
    bench.run_games(result, seed, 0.0, True, GOLDEN)
    return result


def value(result: bench.Run, name: str) -> float:
    return result.metrics[name][0]


class TraceAttribution(unittest.TestCase):
    def test_delay_in_build_g_moves_only_build_g(self):
        plain = traced_run()
        original = lqnash.solver.build_g

        def slow_build_g(norm):
            until = time.perf_counter_ns() + DELAY_NS
            while time.perf_counter_ns() < until:
                pass
            return original(norm)

        lqnash.solver.build_g = slow_build_g
        try:
            slowed = traced_run()
        finally:
            lqnash.solver.build_g = original
        # metrics are scaled to nominal machine speed, so the added 1 ms may
        # read as somewhat more or less
        added = value(slowed, "solver.build_g_ms") - value(plain, "solver.build_g_ms")
        self.assertGreater(added, 0.5 * DELAY_NS / 1e6)
        self.assertLess(added, 2.0 * DELAY_NS / 1e6)
        moved = abs(value(slowed, "exactalg.refine_ms") - value(plain, "exactalg.refine_ms"))
        self.assertLess(moved, 0.3 * DELAY_NS / 1e6)
        self.assertLess(abs(value(slowed, "solver.self_ms") - value(plain, "solver.self_ms")),
                        0.3 * DELAY_NS / 1e6)
        # exact counters repeat exactly for one seed, delay or not
        for name in ("exactalg.g2_coeff_bits_mean", "exactalg.g2_coeff_bits_max",
                     "exactalg.roots_in_window_mean", "exactalg.multiple_root_frac",
                     "exactalg.isolation_width_bits_mean", "oracle.br_converged_frac",
                     "groebner.basis_size_mean"):
            self.assertEqual(value(plain, name), value(slowed, name), name)

    def test_stage_spans_and_self_time_cover_the_solve_span(self):
        original = lqnash.solver.build_g
        tracer = tracing.Tracer()
        tracer.install()
        self.assertIsNot(lqnash.solver.build_g, original)
        try:
            for op in corpus.gate_ops("solve_exact", 32):
                tracer.wrap("solver.solve", lqnash.solve)(op.params)
        finally:
            tracer.remove()
        inclusive, self_ns = tracing.layer_times(tracer.spans, {-1: 1.0})
        stages = sum(ns for layer, ns in self_ns.items() if layer != "solver.solve")
        self.assertEqual(stages + self_ns["solver.solve"], inclusive["solver.solve"])
        self.assertIs(lqnash.solver.build_g, original)

    def test_missing_target_is_reported_absent(self):
        tracer = tracing.Tracer(tracing.TARGETS + (("lqnash.solver", "no_such_stage", "x"),))
        tracer.install()
        tracer.remove()
        self.assertEqual(tracer.absent, ["lqnash.solver.no_such_stage"])


class Corpora(unittest.TestCase):
    def test_streams_regenerate_from_their_seed(self):
        for name in ("solve_float", "solve_exact", "verify_oracles"):
            take = lambda seed: [op for op, _ in zip(corpus.stream(name, seed), range(300))]  # noqa: E731
            first = take(3)
            self.assertEqual(first, take(3), name)
            self.assertNotEqual(first, take(4), name)
            keys = {corpus.op_key(op.params) for op in first + corpus.gate_ops(name)}
            self.assertEqual(len(keys), 300 + corpus.GATE_SIZE.get(name, 0), name)
        base = corpus.figure_config(bench.ROOT)
        take = lambda seed: [c for c, _ in zip(corpus.sweep_configs(base, seed), range(5))]  # noqa: E731
        self.assertEqual(take(3), take(3))
        self.assertEqual(take(3)[0], base)
        self.assertNotEqual(take(3)[1:], take(4)[1:])

    def test_rational_games_keep_a_within_the_bound(self):
        for name in ("solve_exact", "verify_oracles"):
            games = [op for op, _ in zip(corpus.stream(name, 3), range(500)) if op.kind == "rational"]
            games += [op for op in corpus.gate_ops(name) if op.kind == "rational"]
            self.assertTrue(all(0 < op.params.a <= corpus.A_MAX for op in games), name)
        large = corpus.large_a_games()
        self.assertEqual(large, corpus.large_a_games())
        self.assertEqual(len(large), corpus.LARGE_A_COUNT)
        self.assertTrue(all(op.params.a > corpus.A_MAX for op in large))

    def test_exact_stream_mixes_multiple_root_games(self):
        kinds = [op.kind for op, _ in zip(corpus.stream("solve_exact", 5), range(64))]
        self.assertEqual(kinds.count("fold"), 2)
        self.assertEqual(kinds.count("pitchfork"), 2)


class Gate(unittest.TestCase):
    def test_golden_gate_passes_at_this_commit(self):
        for workload, entries in GOLDEN.items():
            if workload == "sweep_figure":
                continue
            for op, want in zip(corpus.gate_ops(workload), entries, strict=True):
                report = lqnash.solve(op.params)
                self.assertEqual(ops.check_solve(op, report), [])
                self.assertEqual(ops.check_golden(ops.summarize(report), want), [])

    def test_perturbed_outputs_fail(self):
        ops_ = corpus.gate_ops("solve_exact", 32)
        fold = next(op for op in ops_ if op.kind == "fold")
        want = GOLDEN["solve_exact"][ops_.index(fold)]
        report = lqnash.solve(fold.params)
        eq = report.equilibria[0]
        for bad in (
            dataclasses.replace(report, equilibria=(dataclasses.replace(eq, k2=eq.k2 * (1 + 1e-6)),)
                                + report.equilibria[1:]),
            dataclasses.replace(report, equilibria=tuple(
                dataclasses.replace(e, root_multiplicity=1) for e in report.equilibria)),
            dataclasses.replace(report, delta_sign=1),
            dataclasses.replace(report, real_roots_total=report.real_roots_total + 1),
        ):
            self.assertTrue(ops.check_solve(fold, bad) or
                            ops.check_golden(ops.summarize(bad), want))
        self.assertTrue(ops.check_verify([(0, "VERDICT: FAIL (x)"), (0, "PASS: ok")]))
        self.assertTrue(ops.check_sweep_rows(["1,1,1,-1,3,3,1,1,1,1,1,1,1,1,1,1,1,1"], 1))

    def test_wrong_solver_makes_a_run_incorrect(self):
        original = lqnash.solve

        def skewed(params):
            report = original(params)
            eq = report.equilibria[0]
            return dataclasses.replace(
                report, equilibria=(dataclasses.replace(eq, k1=eq.k1 * 1.001),)
                + report.equilibria[1:])

        lqnash.solve = skewed
        try:
            result = bench.Run("solve_float")
            bench.run_games(result, 9, 0.0, False, GOLDEN)
        finally:
            lqnash.solve = original
        self.assertTrue(result.problems)
        self.assertEqual(result.failed, result.attempted)

    def test_benchmark_alone_exits_nonzero_without_a_result(self):
        bench.SCRATCH.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=bench.SCRATCH) as tmp:
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "solve_float",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
