"""Every way `verify` and `groebner-check` report a wrong answer: each oracle
is replaced in `lqnash.cli` by one that errs, or `solve` by one whose pairs
the exact count must refuse, and the command must exit 4 with the oracle's
`DISAGREE` (or `FAIL`) line and a verdict naming it.  An oracle that can
compare nothing prints `inconclusive` and does not fail the verdict.

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
from lqnash.oracle import TarskiQueries
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


def wrap_solved(monkeypatch, change):
    """`solve` in `lqnash.cli` returning its report with `change` applied to
    the tuple of equilibria."""
    wrap(monkeypatch, "solve",
         lambda report: dataclasses.replace(report, equilibria=change(report.equilibria)))


def shifted(**fields):
    """A change of the equilibria adding to each of their named fields."""
    return lambda eqs: tuple(dataclasses.replace(e, **{name: getattr(e, name) + delta
                                                       for name, delta in fields.items()})
                             for e in eqs)


class VanishingCondition(TarskiQueries):
    """The queries with c1 replaced by 0, which vanishes at every root of g."""

    def __init__(self, norm):
        super().__init__(norm)
        self.conditions[0] = []
        self.sequences[0] = self._query([])


class TestTarskiCount:
    def test_a_dropped_solved_pair(self, capsys, monkeypatch):
        wrap_solved(monkeypatch, lambda eqs: eqs[1:])
        assert_disagreement(capsys, THREE_EQUILIBRIA, "tarski_count", "3 equilibria vs 2 solved pairs")

    def test_one_pair_given_twice(self, capsys, monkeypatch):
        # each pair's interval reaches at most a third of the way to the
        # next solved k2, so two copies of one pair cannot share its root
        wrap_solved(monkeypatch, lambda eqs: (eqs[0], eqs[0], eqs[2]))
        assert_disagreement(capsys, THREE_EQUILIBRIA, "tarski_count",
                            "pair (3.19282257, 0.331335573): no root of the quintic within 0 of k2")

    @pytest.mark.parametrize("delta, k1", [(1e-5, "0.355425727"), (-1e-5, "0.355405727")])
    def test_a_k1_shifted_past_the_tolerance(self, capsys, monkeypatch, delta, k1):
        # one sign of player 1's quadratic bounds k1 from below, the other from above
        wrap_solved(monkeypatch, shifted(k1=delta))
        assert_disagreement(capsys, ALL_ONES, "tarski_count",
                            f"pair ({k1}, 0.355415727): k1 not within 1e-06 of the equilibrium's k1")

    def test_a_k2_shifted_past_the_tolerance(self, capsys, monkeypatch):
        wrap_solved(monkeypatch, shifted(k2=1e-5))
        assert_disagreement(capsys, ALL_ONES, "tarski_count",
                            "pair (0.355415727, 0.355425727): no root of the quintic within 1e-06 of k2")

    def test_a_root_of_the_quintic_that_is_no_equilibrium(self, capsys, monkeypatch):
        # the all-ones quintic's real root above a = 1, to within an ulp
        wrap_solved(monkeypatch, lambda eqs: (dataclasses.replace(eqs[0], k2=1.8892285591291944),))
        assert_disagreement(capsys, ALL_ONES, "tarski_count",
                            "pair (0.355415727, 1.88922856): the quintic's root near k2 is not an equilibrium")

    def test_a_nan_coordinate(self, capsys, monkeypatch):
        wrap_solved(monkeypatch, lambda eqs: (dataclasses.replace(eqs[0], k2=math.nan),))
        assert_disagreement(capsys, ALL_ONES, "tarski_count", "pair (0.355415727, nan) is not finite")

    def test_a_condition_vanishing_at_a_root_is_inconclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "TarskiQueries", VanishingCondition)
        code, out, _ = run(capsys, ["verify", *ALL_ONES])
        assert code == 0
        assert "tarski_count: inconclusive (a stabilizing condition vanishes at a real root)" in out
        assert out[-1] == "VERDICT: PASS"


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

    def test_costs_past_the_double_range_are_compared_from_x0_1(self, capsys):
        # at x0 = 1e160 both costs are inf: compared there, they would agree
        # with no error while comparing nothing
        code, out, _ = run(capsys, ["verify", *ALL_ONES, "--x0", "1e160"])
        assert code == 0
        assert "simulate_cost(T=200): agree (max error 2.22e-16)" in out

    @pytest.mark.parametrize("field", ["j1", "j2"])
    def test_a_cost_that_is_not_finite_is_inconclusive(self, capsys, monkeypatch, field):
        wrap(monkeypatch, "cost", lambda closed: dataclasses.replace(closed, **{field: math.inf}))
        code, out, _ = run(capsys, ["verify", *ALL_ONES])
        assert code == 0
        assert f"simulate_cost(T=200): inconclusive (a cost is not finite at pair {PAIR})" in out
        assert out[-1] == "VERDICT: PASS"

    def test_a_cost_that_is_not_finite_hides_no_wrong_one(self, capsys, monkeypatch):
        wrap(monkeypatch, "cost", lambda closed: dataclasses.replace(closed, j1=math.inf))
        wrap(monkeypatch, "simulate_cost",
             lambda sample: sample._replace(partial_cost_2=sample.partial_cost_2 + 1e-3))
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
