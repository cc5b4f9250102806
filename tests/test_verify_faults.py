"""Every way `verify` and `groebner-check` report a wrong answer: each oracle
is replaced in `lqnash.cli` by one that errs, and the command must exit 4
with the oracle's `DISAGREE` (or `FAIL`) line and a verdict naming it.

The all-ones game has one equilibrium, k1 = k2 = 0.355415727 (to nine
digits), and the game at a = 3.8 has three.
"""

import dataclasses
import math

import pytest

import lqnash.cli as cli
from lqnash.cli import main
from lqnash.exactalg import UniPoly
from lqnash.groebner import EliminationError
from lqnash.solver import build_g

ALL_ONES = "--a 1 --q1 1 --q2 1 --r1 1 --r2 1".split()
THREE_EQUILIBRIA = "--a 3.8 --q1 0.5 --q2 1 --r1 1 --r2 1".split()
PAIR = "(0.355415727, 0.355415727)"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def wrap(monkeypatch, name, change):
    """Replace `cli.<name>` by the original followed by `change` of its result."""
    original = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args, **kwargs: change(original(*args, **kwargs)))


def assert_disagreement(capsys, argv, label, detail, oracle=None):
    code, out, _ = run(capsys, ["verify", *argv])
    assert code == 4
    assert f"{label}: DISAGREE: {detail}" in out
    assert out[-1] == f"VERDICT: FAIL ({oracle or label}: {detail})"
    return out


class TestGridScan:
    def test_an_extra_pair(self, capsys, monkeypatch):
        wrap(monkeypatch, "grid_scan", lambda pairs: pairs + [(0.0, 0.0)])
        assert_disagreement(capsys, ALL_ONES, "grid_scan(n=512)", "2 pairs vs 1", "grid_scan")

    def test_a_missing_pair(self, capsys, monkeypatch):
        wrap(monkeypatch, "grid_scan", lambda pairs: pairs[1:])
        assert_disagreement(capsys, THREE_EQUILIBRIA, "grid_scan(n=512)", "2 pairs vs 3", "grid_scan")

    def test_a_pair_shifted_past_the_tolerance(self, capsys, monkeypatch):
        wrap(monkeypatch, "grid_scan", lambda pairs: [(k1 + 1e-5, k2) for k1, k2 in pairs])
        assert_disagreement(capsys, ALL_ONES, "grid_scan(n=512)",
                            "pair (0.355425727, 0.355415727) unmatched (deviation 1e-05)",
                            "grid_scan")

    def test_a_nan_coordinate_never_matches(self, capsys, monkeypatch):
        wrap(monkeypatch, "grid_scan", lambda pairs: [(k1, math.nan) for k1, _ in pairs])
        assert_disagreement(capsys, ALL_ONES, "grid_scan(n=512)",
                            "pair (0.355415727, nan) unmatched (deviation inf)", "grid_scan")

    @pytest.mark.parametrize("scanned", [
        [(0.7e-6, 0.0), (-0.2e-6, 0.0)],
        [(-0.2e-6, 0.0), (0.7e-6, 0.0)],
    ])
    def test_pairs_are_matched_one_to_one_in_any_order(self, scanned):
        # matching the first scanned pair to its nearest solved pair, (1.5e-6, 0),
        # would leave (-2e-7, 0) 1.7e-6 from the other
        solved = [(0.0, 0.0), (1.5e-6, 0.0)]
        assert cli._match_pairs(scanned, solved) == ("agree (2 pairs, max deviation 8e-07)", None)

    def test_the_worst_pair_of_the_best_assignment_is_named(self):
        scanned = [(0.0, 0.0), (1.0, 0.0), (2.0 + 3e-6, 0.0)]
        solved = [(2.0, 0.0), (0.0, 0.0), (1.0, 0.0)]
        assert cli._match_pairs(scanned, solved) == (
            None, "pair (2.000003, 0) unmatched (deviation 3e-06)")


class TestBestResponse:
    def test_a_fixed_point_away_from_every_solved_pair(self, capsys, monkeypatch):
        wrap(monkeypatch, "br_iteration",
             lambda res: dataclasses.replace(res, converged=True, k1=0.5, k2=0.25))
        assert_disagreement(capsys, ALL_ONES, "br_iteration",
                            "fixed point (0.5, 0.25) not among solved pairs")


class TestResultant:
    @pytest.mark.parametrize("degree", range(6))
    def test_one_coefficient_perturbed(self, capsys, monkeypatch, degree):
        monkeypatch.setattr(cli, "resultant_elimination",
                            lambda norm: UniPoly([c + (i == degree) for i, c in
                                                  enumerate(build_g(norm).coeffs)]))
        assert_disagreement(capsys, ALL_ONES, "resultant_elimination",
                            "the resultant is not the solver's quintic")


class TestSimulatedCost:
    @pytest.mark.parametrize("field", ["partial_cost_1", "partial_cost_2"])
    def test_a_wrong_partial_cost(self, capsys, monkeypatch, field):
        wrap(monkeypatch, "simulate_cost",
             lambda sample: sample._replace(**{field: getattr(sample, field) + 1e-3}))
        assert_disagreement(capsys, ALL_ONES, "simulate_cost(T=200)",
                            f"simulated cost off by 0.001 at pair {PAIR}", "simulate_cost")


def test_the_verdict_names_the_first_failing_oracle(capsys, monkeypatch):
    wrap(monkeypatch, "br_iteration",
         lambda res: dataclasses.replace(res, converged=True, k1=0.5, k2=0.25))
    wrap(monkeypatch, "simulate_cost",
         lambda sample: sample._replace(partial_cost_1=sample.partial_cost_1 + 1e-3))
    out = assert_disagreement(capsys, ALL_ONES, "br_iteration",
                              "fixed point (0.5, 0.25) not among solved pairs")
    assert f"simulate_cost(T=200): DISAGREE: simulated cost off by 0.001 at pair {PAIR}" in out
    assert sum("DISAGREE" in line for line in out) == 2


class TestGroebnerCheck:
    def test_another_polynomial(self, capsys, monkeypatch):
        wrap(monkeypatch, "elimination_polynomial",
             lambda p: UniPoly([c + (i == 0) for i, c in enumerate(p.coeffs)]))
        code, out, _ = run(capsys, ["groebner-check", *ALL_ONES])
        assert code == 4
        assert out == ["direct quintic:     k2^5 - 3/2*k2^4 - k2^2 - k2 + 1/2",
                       "buchberger version: k2^5 - 3/2*k2^4 - k2^2 - k2 + 3/2",
                       "FAIL: polynomials differ"]

    def test_elimination_failure(self, capsys, monkeypatch):
        def fail(system):
            raise EliminationError("basis has no univariate member in k2")

        monkeypatch.setattr(cli, "buchberger", fail)
        code, out, err = run(capsys, ["groebner-check", *ALL_ONES])
        assert code == 4
        assert out == []
        assert err == "elimination failed: basis has no univariate member in k2\n"
