"""Solver pipeline: exact quintic assembly, discriminant classification,
certified candidate roots, and the verified end-to-end report."""

import dataclasses
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import lqnash.solver as solver
from lqnash.exactalg import (
    SturmSequence,
    UniPoly,
    isolate_roots_in_interval,
    sturm_count,
)
from lqnash.game import (
    GameParams,
    InvalidGameError,
    TrivialGame,
    best_gain,
    float_game,
    normalize,
    residuals,
)
from lqnash.solver import (
    REFINE_WIDTH,
    ConsistencyError,
    build_g,
    classify_discriminant,
    find_candidate_roots,
    fold_game,
    pitchfork_game,
    recover_k1,
    solve,
)
from reference_algebra import poly_eval, scale
from test_exactalg import _reference_refine, sylvester_discriminant

ALL_ONES = GameParams(a=1, q1=1, q2=1, r1=1, r2=1)
SYMMETRIC_K = 0.3554157267758450


def random_rational_game(rng) -> GameParams:
    def r(lo=1, hi=400, den=100):
        return Fraction(rng.randint(lo, hi), rng.randint(1, den))

    return GameParams(a=r(1, 400), q1=r(), q2=r(), r1=r(), r2=r())


def random_float_game(rng) -> GameParams:
    return GameParams(
        a=rng.uniform(1e-4, 4),
        q1=10 ** rng.uniform(-2, 2), q2=10 ** rng.uniform(-2, 2),
        r1=10 ** rng.uniform(-2, 2), r2=10 ** rng.uniform(-2, 2),
    )


class TestBuildG:
    def test_all_ones_coefficients(self):
        g2 = build_g(normalize(ALL_ONES))
        assert g2 == UniPoly([1, -2, -2, 0, -3, 2])

    def test_endpoint_values_exact(self):
        rng = random.Random(42)
        for _ in range(50):
            params = random_rational_game(rng)
            norm = normalize(params)
            a, q1, q2 = norm.a, norm.q1, norm.q2
            r1, r2 = norm.r1, norm.r2
            g = scale(build_g(norm), Fraction(1, 2))
            assert poly_eval(g, 0) == a * a * q2 * q2 * r1 * r1 / 2
            expected_at_a = -(q1 * q1 * r2 * r2 / 2 + q1 * r1 * r2 * r2 + r1 * r1 * r2 * r2 / 2) * a * a
            assert poly_eval(g, a) == expected_at_a
            assert poly_eval(g, 0) > 0 > poly_eval(g, a)


class TestClassify:
    def test_positive_scaling_preserves_sign_and_scales_by_eighth_power(self):
        g2 = build_g(normalize(ALL_ONES))
        delta, sign = classify_discriminant(SturmSequence(g2))
        scaled_delta, scaled_sign = classify_discriminant(SturmSequence(scale(g2, 3)))
        assert scaled_sign == sign
        assert scaled_delta == delta * 3**8

    def test_all_ones_value_and_sign(self):
        delta, sign = classify_discriminant(SturmSequence(build_g(normalize(ALL_ONES))))
        assert delta == -5056
        assert sign == -1
        assert solve(ALL_ONES).n_nash == 1

    def test_fold_game_discriminant_is_exactly_zero(self):
        params, _ = fold_game(Fraction(1, 2), Fraction(1, 2))
        delta, sign = classify_discriminant(SturmSequence(build_g(normalize(params))))
        assert delta == 0 and sign == 0

    def test_rejects_wrong_degree(self):
        with pytest.raises(ConsistencyError, match="degree-5"):
            classify_discriminant(SturmSequence(UniPoly([1, 2, 3])))

    def test_prebuilt_sequence_gives_the_same_classification(self):
        # as the Sylvester-determinant route, rescaled from g2 to g = g2 / 2
        rng = random.Random(8)
        for _ in range(40):
            g2 = build_g(normalize(random_rational_game(rng)))
            delta, sign = classify_discriminant(SturmSequence(g2))
            assert delta == sylvester_discriminant(g2) / 2**8
            assert sign == (delta > 0) - (delta < 0)


class TestCandidateRoots:
    def test_all_ones_single_root(self):
        norm = normalize(ALL_ONES)
        roots = find_candidate_roots(SturmSequence(build_g(norm)), Fraction(norm.a))
        assert len(roots) == 1
        value, multiplicity = roots[0]
        assert multiplicity == 1
        assert abs(float(value) - SYMMETRIC_K) < 1e-12

    def test_at_most_three_inside_and_two_outside(self):
        rng = random.Random(500)
        for _ in range(150):
            params = random_float_game(rng)
            norm = normalize(params)
            seq = SturmSequence(build_g(norm))
            inside = find_candidate_roots(seq, Fraction(norm.a))
            assert len(inside) <= 3
            total = sturm_count(seq, -math.inf, math.inf)
            assert total - len(inside) >= 2

    @pytest.mark.parametrize(
        "params",
        [
            # a = 19/5 has an odd denominator
            GameParams(a=Fraction(19, 5), q1=Fraction(1, 2), q2=1, r1=1, r2=1),
            fold_game(Fraction(1, 2), Fraction(1, 2))[0],
            # the triple root refines on the square-free part
            pitchfork_game(Fraction(3, 4))[0],
        ],
        ids=["odd-denominator", "fold", "pitchfork"],
    )
    def test_roots_equal_fraction_bisection(self, params):
        ex = normalize(params)
        a = Fraction(ex.a)
        seq = SturmSequence(build_g(ex))
        expected = [
            (_reference_refine(seq, iv, REFINE_WIDTH), iv.multiplicity)
            for iv in isolate_roots_in_interval(seq, Fraction(0), a)
        ]
        assert find_candidate_roots(seq, a) == expected


class TestRecoverK1:
    def test_symmetric_fixed_point(self):
        assert abs(recover_k1(float_game(normalize(ALL_ONES)), SYMMETRIC_K) - SYMMETRIC_K) < 1e-12

    def test_limit_toward_a(self):
        norm = float_game(normalize(GameParams(a=2.5, q1=1, q2=1, r1=1, r2=1)))
        assert recover_k1(norm, 2.5) == 0
        assert 0 < recover_k1(norm, 2.5 - 1e-9) < 1e-8

    def test_lemma_bounds_hold(self):
        rng = random.Random(9)
        for _ in range(300):
            norm = float_game(normalize(random_float_game(rng)))
            a = norm.a
            k2 = rng.uniform(1e-6, a * (1 - 1e-9))
            k1 = recover_k1(norm, k2)
            assert math.copysign(1, k1) == math.copysign(1, a - k2)
            assert abs(k1) < abs(a - k2)


class TestSolve:
    def test_all_ones_end_to_end(self):
        report = solve(ALL_ONES)
        assert report.n_nash == 1
        eq = report.equilibria[0]
        assert abs(eq.k1 - SYMMETRIC_K) < 1e-9
        assert abs(eq.k2 - SYMMETRIC_K) < 1e-9
        assert abs(eq.a_cl - 0.2891685464483099) < 1e-9
        assert abs(eq.j1 - 1.229095387936243) < 1e-9
        assert eq.residual_norm <= 1e-8
        assert report.real_roots_total == 3
        assert report.roots_below_zero == 1 and report.roots_above_a == 1

    def test_sweep_family_small_a(self):
        report = solve(GameParams(a=0.0001, q1=0.5, q2=1, r1=1, r2=1))
        assert report.n_nash == 1 and report.delta_sign == 1

    def test_sweep_family_negative_band(self):
        report = solve(GameParams(a=1.0, q1=0.5, q2=1, r1=1, r2=1))
        assert report.delta_sign == -1 and report.n_nash == 1

    def test_sweep_family_three_equilibria(self):
        report = solve(GameParams(a=3.8, q1=0.5, q2=1, r1=1, r2=1))
        assert report.n_nash == 3 and report.delta_sign == 1

    def test_trivial_game_signal(self):
        with pytest.raises(TrivialGame):
            solve(GameParams(a=0, q1=1, q2=1, r1=1, r2=1))

    def test_fold_game_two_equilibria_one_double(self):
        params, (k1, k2) = fold_game(Fraction(1, 2), Fraction(1, 2))
        report = solve(params)
        assert report.delta_sign == 0
        assert report.n_nash == 2
        double = [e for e in report.equilibria if e.root_multiplicity == 2]
        assert len(double) == 1
        assert abs(double[0].k1 - float(k1)) < 1e-12
        assert abs(double[0].k2 - float(k2)) < 1e-12

    def test_pitchfork_game_single_triple_equilibrium(self):
        params, s = pitchfork_game(Fraction(3, 4))
        report = solve(params)
        assert report.delta_sign == 0
        assert report.n_nash == 1
        assert report.equilibria[0].root_multiplicity == 3
        assert abs(report.equilibria[0].k2 - float(s)) < 1e-12

    def test_sign_flip_and_gain_folding(self):
        report = solve(GameParams(a=-1, q1=1, q2=1, r1=1, r2=1))
        eq = report.equilibria[0]
        assert abs(eq.k1 + SYMMETRIC_K) < 1e-9 and abs(eq.k2 + SYMMETRIC_K) < 1e-9
        report = solve(GameParams(a=1, q1=1, q2=1, r1=4, r2=1, b1=2))
        assert abs(report.equilibria[0].k1 - SYMMETRIC_K / 2) < 1e-9

    @pytest.mark.parametrize("b1", [3, 3.0, Fraction(3)], ids=["int", "float", "fraction"])
    def test_gain_folding_is_exact_for_every_number_type(self, b1):
        # r1 / b1^2 = 1/9 has no double; folded in floats, the discriminant
        # had an 869-bit denominator
        report = solve(GameParams(a=1, q1=1, q2=1, r1=1, r2=1, b1=b1))
        assert report.delta == Fraction(-46444158400, 1853020188851841)

    @pytest.mark.parametrize(
        "game",
        [dict(a=1, q1=1, q2=1, r1=1, r2=1, b1=3.0),
         dict(a=0.5, q1=0.1, q2=0.2, r1=0.3, r2=0.7, b1=3.0)],
        ids=["all-ones-b1=3.0", "float-weights-b1=3.0"],
    )
    def test_float_game_solves_as_its_fraction_copy(self, game):
        report = solve(GameParams(**game))
        copy = solve(GameParams(**{name: Fraction(v) for name, v in game.items()}))
        assert report.delta == copy.delta and report.g2 == copy.g2

    def test_stability_margin_and_fixed_point(self):
        rng = random.Random(321)
        for _ in range(200):
            params = random_float_game(rng)
            report = solve(params)
            norm = normalize(params)
            for eq in report.equilibria:
                assert 0 < eq.a_cl < 1
                # composed best responses fix the pair
                k2 = best_gain(float(norm.a) - eq.k1 * float(params.b1),
                               float(norm.q2), float(norm.r2))
                assert abs(k2 - eq.k2 * float(params.b2)) <= 1e-7

    def test_residual_characterization_breaks_under_perturbation(self):
        rng = random.Random(11)
        for _ in range(50):
            params = random_float_game(rng)
            norm = normalize(params)
            report = solve(params)
            for eq in report.equilibria:
                k1, k2 = eq.k1 * float(params.b1), eq.k2 * float(params.b2)
                base = max(abs(r) for r in residuals(norm, k1, k2))
                assert base <= 1e-8
                for dk1, dk2 in ((1e-3, 0), (-1e-3, 0), (0, 1e-3), (0, -1e-3)):
                    bumped = max(abs(r) for r in residuals(norm, k1 + dk1, k2 + dk2))
                    assert bumped > 1e-8

    def test_root_parity_when_discriminant_negative(self):
        rng = random.Random(64)
        seen = 0
        while seen < 60:
            params = random_float_game(rng)
            report = solve(params)
            if report.delta_sign == -1:
                assert report.real_roots_total == 3
                seen += 1

    @pytest.mark.parametrize("params", [
        GameParams(a=1, q1=1e308, q2=1e308, r1=1, r2=1),
        GameParams(a=2, q1=Fraction(10**300), q2=1, r1=1, r2=1),
    ], ids=["q_1e308", "q1_1e300"])
    def test_a_nan_residual_fails_the_residual_gate(self, params):
        # float overflow makes the residual NaN, which no comparison with
        # the tolerance passes; the closed-loop check that caught it before
        # named the wrong stage
        with pytest.raises(ConsistencyError, match=r"failed residual verification \(nan\)$"):
            solve(params)

    def test_multiplicity_two_reported_once(self):
        for c, k1 in ((Fraction(1, 2), Fraction(5, 8)), (Fraction(1, 3), Fraction(1))):
            params, _ = fold_game(c, k1)
            report = solve(params)
            assert report.n_nash <= 2
            assert sum(e.root_multiplicity for e in report.equilibria) <= 3


class TestReport:
    @pytest.mark.parametrize("sign, n", [(-1, 1), (0, 1), (0, 2), (1, 1), (1, 2), (1, 3)])
    def test_reports_within_the_discriminant_law_are_built(self, sign, n):
        report = solve(ALL_ONES)
        eq = report.equilibria[0]
        dataclasses.replace(report, delta_sign=sign, equilibria=(eq,) * n)

    @pytest.mark.parametrize("sign, n", [
        (1, 0), (0, 0), (-1, 0),  # no equilibrium
        (1, 4),                   # more than three
        (-1, 2), (-1, 3),         # a negative discriminant has exactly one
        (0, 3),                   # a zero discriminant has at most two
    ])
    def test_reports_breaking_the_discriminant_law_are_refused(self, sign, n):
        report = solve(ALL_ONES)
        eq = report.equilibria[0]
        with pytest.raises(ConsistencyError, match=rf"^solve violates the discriminant law "
                                                   rf"\(sign {sign}, {n} equilibria\)$"):
            dataclasses.replace(report, delta_sign=sign, equilibria=(eq,) * n)

    @pytest.mark.parametrize("side", ["roots_below_zero", "roots_above_a"])
    def test_reports_missing_a_root_outside_the_window_are_refused(self, side):
        with pytest.raises(ConsistencyError, match="expected roots outside"):
            dataclasses.replace(solve(ALL_ONES), **{side: 0})

    @pytest.mark.parametrize("game, multiplicity, message", [
        (ALL_ONES, 0, r"^root multiplicities \[0\] impossible with discriminant sign -1$"),
        # a multiple root makes the discriminant zero
        (ALL_ONES, 2, r"^root multiplicities \[2\] impossible with discriminant sign -1$"),
        # the pitchfork's triple root and one real root on each side fill the degree
        (pitchfork_game(Fraction(3, 4))[0], 4,
         r"^6 real roots with multiplicity exceed the quintic's degree 5$"),
    ], ids=["zero", "double_at_nonzero_delta", "past_the_degree"])
    def test_reports_with_impossible_multiplicities_are_refused(self, game, multiplicity, message):
        report = solve(game)
        (eq,) = report.equilibria
        with pytest.raises(ConsistencyError, match=message):
            dataclasses.replace(report, equilibria=(dataclasses.replace(eq, root_multiplicity=multiplicity),))

    def test_carries_the_exact_game_it_solved(self):
        params = GameParams(a=-1.5, q1=1, q2=Fraction(1, 3), r1=2, r2=1, b1=3)
        assert solve(params).game == normalize(params)

    @pytest.mark.parametrize("values, name", [
        ({"x0": Fraction(10**400)}, "x0"), ({"b1": Fraction(1, 10**400)}, "r1 / b1^2"),
        ({"q1": 10**400}, "q1"),
    ])
    def test_game_past_the_double_range_fails_before_the_exact_work(
            self, monkeypatch, values, name):
        monkeypatch.setattr(solver, "build_g", None)  # a TypeError if it were reached
        params = dataclasses.replace(ALL_ONES, **values)
        with pytest.raises(InvalidGameError) as info:
            solve(params)
        assert str(info.value) == f"{name} is too large for a double"

    @pytest.mark.parametrize("values, name", [
        ({"a": Fraction(1, 10**400)}, "a"), ({"q1": Fraction(1, 10**400)}, "q1"),
        ({"r1": Fraction(1, 10**400)}, "r1 / b1^2"),
    ])
    def test_game_whose_double_would_be_zero_fails_before_the_exact_work(
            self, monkeypatch, values, name):
        # the float image would be another game: a = 0.0 is the trivial one
        monkeypatch.setattr(solver, "build_g", None)
        params = dataclasses.replace(ALL_ONES, **values)
        with pytest.raises(InvalidGameError) as info:
            solve(params)
        assert str(info.value) == f"{name} is too small for a double"

    def test_delta_float_clamps_overflow(self):
        report = solve(ALL_ONES)
        assert report.delta_float == float(report.delta) == -5056.0
        assert dataclasses.replace(report, delta=Fraction(10**400)).delta_float == math.inf
        assert dataclasses.replace(report, delta=Fraction(-(10**400))).delta_float == -math.inf
        tiny = Fraction(3, 10**400)
        assert dataclasses.replace(report, delta=tiny).delta_float == float(tiny)


def test_import_lqnash_does_not_load_numpy():
    code = "import sys, lqnash; assert 'numpy' not in sys.modules, 'numpy imported'"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_solve_does_not_load_numpy():
    # lqnash uses no numpy anywhere; see also the test that blocks its import
    code = (
        "import sys, lqnash.cli; "
        "assert lqnash.cli.main(['solve', '--a', '1', '--q1', '1', '--q2', '1', '--r1', '1', "
        "'--r2', '1']) == 0; "
        "assert 'numpy' not in sys.modules, 'numpy imported'"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_oracles_run_where_numpy_cannot_be_imported():
    # None in sys.modules makes every `import numpy` raise ImportError
    code = """
import sys
sys.modules["numpy"] = None
import contextlib, io
from fractions import Fraction
from lqnash.cli import main
from lqnash.game import GameParams, normalize
from lqnash.oracle import grid_scan
from lqnash.solver import fold_game
fold = fold_game(Fraction(1, 2), Fraction(1, 2))[0]
for game in (GameParams(a=1, q1=1, q2=1, r1=1, r2=1), fold):
    flags = [arg for name in ("a", "q1", "q2", "r1", "r2")
             for arg in ("--" + name, str(getattr(game, name)))]
    for command, verdict in (("verify", "VERDICT: PASS"), ("groebner-check", "PASS:")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([command, *flags]) == 0, (command, game)
        assert verdict in out.getvalue(), (command, game, out.getvalue())
    assert grid_scan(normalize(game), 16)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_solve_does_not_load_the_process_pool():
    # only a sweep with more than one worker needs it
    code = (
        "import sys, lqnash.cli; "
        "assert lqnash.cli.main(['solve', '--a', '1', '--q1', '1', '--q2', '1', '--r1', '1', "
        "'--r2', '1']) == 0; "
        "assert 'concurrent.futures.process' not in sys.modules, 'process pool imported'"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
