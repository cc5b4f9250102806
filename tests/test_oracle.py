"""Brute-force oracles: fixed-point iteration, grid scan, direct resultant,
and trajectory simulation, each checked against the certified solver."""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqnash.groebner as groebner
import lqnash.oracle as oracle
from lqnash.cli import VERIFY_TOL, _check_tarski, main
from lqnash.exactalg import SturmSequence, UniPoly, sturm_count
from lqnash.game import (
    GameParams,
    best_gain,
    cost,
    exact_game,
    float_game,
    normalize,
    renormalize_equilibrium,
    residuals,
)
from lqnash.oracle import (
    GRID_DEFAULT,
    NEWTON_MAX_ITER,
    TarskiQueries,
    _flagged_cells,
    _jacobian,
    _newton_polish,
    br_iteration,
    grid_scan,
    resultant_elimination,
    scaled_stationarity_system,
    simulate_cost,
    stationarity_system,
)
from lqnash.solver import (
    ConsistencyError,
    build_g,
    fold_game,
    pitchfork_game,
    solve,
)
from reference_algebra import br_iteration as record_br_iteration
from reference_algebra import (
    h_eval,
    near_locus_bases,
    near_locus_games,
    poly_eval,
    poly_gcd,
    resultant,
    stationarity_cubics,
    stationarity_scale,
    trajectory,
)

ALL_ONES = GameParams(a=1, q1=1, q2=1, r1=1, r2=1)
SYMMETRIC_K = 0.3554157267758450


def random_float_game(rng) -> GameParams:
    return GameParams(
        a=rng.uniform(1e-3, 4),
        q1=10 ** rng.uniform(-1.5, 1.5), q2=10 ** rng.uniform(-1.5, 1.5),
        r1=10 ** rng.uniform(-1.5, 1.5), r2=10 ** rng.uniform(-1.5, 1.5),
    )


def random_rational_game(rng) -> GameParams:
    def r(lo=1, hi=60, den=10):
        return Fraction(rng.randint(lo, hi), rng.randint(1, den))

    return GameParams(a=r(1, 40), q1=r(), q2=r(), r1=r(), r2=r())


def small_rational_games(seed, count, a_max=20):
    rng = random.Random(seed)
    games = []
    while len(games) < count:
        params = random_rational_game(rng)
        if params.a <= a_max:
            games.append(params)
    return games


# Rational games whose grid scan once took seconds, when Newton polish mixed
# Fraction parameters with float gains.
SLOW_RATIONAL_GAMES = [
    GameParams(a=Fraction(33, 2), q1=Fraction(157), q2=Fraction(120, 11),
               r1=Fraction(133, 29), r2=Fraction(247, 25)),
    GameParams(a=Fraction(171, 22), q1=Fraction(207, 4), q2=Fraction(14),
               r1=Fraction(377, 6), r2=Fraction(129, 70)),
]


def grid_nodes(fnorm, n):
    """The nodes of grid_scan's n x n cell grid, as grid_scan computes them."""
    return [fnorm.a * i / n for i in range(n + 1)]


def assert_scan_matches_solve(params, n=512):
    pts = grid_scan(normalize(params), n)
    expected = sorted((e.k1, e.k2) for e in solve(params).equilibria)
    assert len(pts) == len(expected), (params, pts, expected)
    for got, want in zip(sorted(pts), expected):
        assert abs(got[0] - want[0]) < 1e-6 and abs(got[1] - want[1]) < 1e-6, params


class TestHMap:
    def test_sign_pattern_for_every_valid_game(self):
        rng = random.Random(1)
        for _ in range(300):
            norm = normalize(random_float_game(rng))
            assert h_eval(norm, 0.0) > 0
            assert h_eval(norm, float(norm.a)) < 0

    def test_zero_at_equilibrium(self):
        assert abs(h_eval(normalize(ALL_ONES), SYMMETRIC_K)) < 1e-12

    def test_sign_change_locates_an_equilibrium(self):
        rng = random.Random(2)
        for _ in range(50):
            params = random_float_game(rng)
            norm = normalize(params)
            k1s = [e.k1 for e in solve(params).equilibria]
            # h > 0 at 0 and h < 0 at a, so bisection lands on a zero of h,
            # which must be an equilibrium k1 coordinate
            lo, hi = 0.0, float(norm.a)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if h_eval(norm, mid) > 0:
                    lo = mid
                else:
                    hi = mid
            zero = 0.5 * (lo + hi)
            assert min(abs(zero - k1) for k1 in k1s) < 1e-9 * max(1.0, float(norm.a))


class TestBrIteration:
    def test_all_ones_from_zero(self):
        res = br_iteration(normalize(ALL_ONES), 0.0)
        assert res.converged
        assert abs(res.k1 - SYMMETRIC_K) < 1e-9
        assert abs(res.k2 - SYMMETRIC_K) < 1e-9

    def test_start_at_a_passes_through_zero_response(self):
        norm = normalize(GameParams(a=2.2, q1=1, q2=3, r1=0.5, r2=1))
        assert best_gain(float(norm.a) - 2.2, float(norm.q2), float(norm.r2)) == 0
        res = br_iteration(norm, 2.2)
        assert res.iterations >= 1

    def test_converged_points_satisfy_residuals(self):
        rng = random.Random(3)
        tol = 1e-10
        for _ in range(100):
            norm = normalize(random_float_game(rng))
            res = br_iteration(norm, rng.uniform(0, float(norm.a)), max_iter=400, tol=tol)
            if res.converged:
                rho1, rho2 = residuals(norm, res.k1, res.k2)
                scale = max(1.0, float(norm.q1), float(norm.q2),
                            float(norm.r1), float(norm.r2)) * max(1.0, float(norm.a)) ** 3
                assert max(abs(rho1), abs(rho2)) <= 10 * tol * scale

    def test_fraction_input_runs_on_its_float_image(self):
        # the oracle converts an exact game with float_game and never
        # computes in Fractions (a Fraction result would compare equal too)
        for params in small_rational_games(21, 10) + SLOW_RATIONAL_GAMES:
            norm = normalize(params)
            a = float(norm.a)
            for start in (0.0, 0.3 * a, 0.7 * a, a):
                res = br_iteration(norm, start)
                assert res == br_iteration(float_game(norm), start)
                assert type(res.k1) is float and type(res.k2) is float

    def test_same_bits_as_a_loop_of_best_response_calls(self):
        rng = random.Random(25)
        games = [random_float_game(rng) for _ in range(40)] + small_rational_games(26, 20)
        for params in games + near_locus_bases():
            norm = normalize(params)
            fnorm = float_game(norm)
            a = fnorm.a
            for start in (0.0, rng.uniform(0, a), a):
                for max_iter, tol in ((200, 1e-12), (500, 1e-8), (3, 1e-12)):
                    expected = record_br_iteration(norm, start, max_iter, tol)
                    assert br_iteration(fnorm, start, max_iter, tol) == expected, params
                    assert br_iteration(norm, start, max_iter, tol) == expected, params

    def test_best_responses_take_both_radical_branches(self):
        # best_gain branches on m = (alpha^2 - 1) r + q: the
        # first game has alpha = a - k < 1/2 and q = 1/100, so m < 0; the
        # second starts at alpha = a = 3, so m > 0
        for params in (GameParams(a=Fraction(1, 2), q1=Fraction(1, 100), q2=Fraction(1, 100),
                                  r1=1, r2=1),
                       GameParams(a=3, q1=2, q2=5, r1=1, r2=Fraction(1, 3))):
            norm = normalize(params)
            for start in (0.0, 0.25, float(norm.a)):
                assert (br_iteration(float_game(norm), start)
                        == record_br_iteration(norm, start, 200, 1e-12))

    def test_converged_starts_lie_at_solved_pairs_next_to_the_locus(self):
        # verify's starts and tolerances; where the composed map's slope is
        # near 1, a step below tol once stopped the iteration up to 4e-5 from
        # every equilibrium
        for params in near_locus_games():
            fnorm = float_game(normalize(params))
            solved = [(e.k1, e.k2) for e in solve(params).equilibria]
            for i in range(1, 9):
                res = br_iteration(fnorm, fnorm.a * i / 9.0, max_iter=500, tol=VERIFY_TOL / 100.0)
                if res.converged:
                    distance = min(max(abs(res.k1 - k1), abs(res.k2 - k2)) for k1, k2 in solved)
                    assert distance <= 10 * VERIFY_TOL, (params, i)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            br_iteration(normalize(ALL_ONES), 0.0, max_iter=0)
        with pytest.raises(ValueError):
            br_iteration(normalize(ALL_ONES), 0.0, tol=0.0)


class TestGridScan:
    def test_all_ones_single_pair(self):
        pts = grid_scan(normalize(ALL_ONES), 256)
        assert len(pts) == 1
        assert abs(pts[0][0] - SYMMETRIC_K) < 1e-9
        assert abs(pts[0][1] - SYMMETRIC_K) < 1e-9

    def test_three_equilibria_regime(self):
        params = GameParams(a=3.8, q1=0.5, q2=1, r1=1, r2=1)
        pts = grid_scan(normalize(params), 512)
        expected = sorted((e.k1, e.k2) for e in solve(params).equilibria)
        assert len(pts) == 3
        for (k1, k2), (e1, e2) in zip(sorted(pts), expected):
            assert abs(k1 - e1) < 1e-6 and abs(k2 - e2) < 1e-6

    def test_output_matches_solve_on_random_games(self):
        rng = random.Random(14)
        for _ in range(25):
            params = random_float_game(rng)
            pts = grid_scan(normalize(params), 256)
            expected = sorted((e.k1 * float(params.b1), e.k2 * float(params.b2))
                              for e in solve(params).equilibria)
            assert len(pts) == len(expected)
            for got, want in zip(sorted(pts), expected):
                assert abs(got[0] - want[0]) < 1e-6 and abs(got[1] - want[1]) < 1e-6

    def test_output_matches_solve_on_small_rational_games(self):
        for params in small_rational_games(22, 20):
            assert_scan_matches_solve(params)

    @pytest.mark.parametrize("params", SLOW_RATIONAL_GAMES)
    def test_output_matches_solve_on_formerly_slow_games(self, params):
        assert_scan_matches_solve(params)

    # two pitchfork games and one 2^-32 from a pitchfork, where a
    # line-searched polish once left 5, 7 and 2 pairs along the flat valley
    # of the triple root
    @pytest.mark.parametrize("params", [
        GameParams(a=Fraction(5, 2), q1=Fraction(21, 16), q2=Fraction(21, 16),
                   r1=Fraction(25, 21), r2=Fraction(25, 21)),
        GameParams(a=3, q1=Fraction(800, 27), q2=Fraction(800, 27), r1=Fraction(50, 3), r2=Fraction(50, 3)),
        GameParams(a=2, q1=Fraction(9, 16), q2=Fraction(9, 16), r1=1, r2=Fraction(2**32 + 1, 2**32)),
    ])
    def test_output_matches_solve_at_a_pitchfork(self, params):
        assert_scan_matches_solve(params)

    def test_polish_evaluates_residuals_once_per_step(self, monkeypatch):
        # the a = 33/2 game flags hundreds of cells, most of whose polishes fail
        fnorm = float_game(normalize(SLOW_RATIONAL_GAMES[0]))
        nodes = grid_nodes(fnorm, GRID_DEFAULT)
        calls = []
        monkeypatch.setattr(oracle, "residuals", lambda *args: calls.append(1) or residuals(*args))
        for i, j in _flagged_cells(fnorm, nodes):
            calls.clear()
            _newton_polish(fnorm, 0.5 * (nodes[i] + nodes[i + 1]), 0.5 * (nodes[j] + nodes[j + 1]))
            assert len(calls) <= NEWTON_MAX_ITER + 1, (i, j)

    def test_fraction_input_runs_on_its_float_image(self):
        for params in small_rational_games(23, 5) + SLOW_RATIONAL_GAMES:
            norm = normalize(params)
            pts = grid_scan(norm)
            assert pts == grid_scan(float_game(norm))
            assert all(type(v) is float for pair in pts for v in pair)

    def test_ordered_by_k2(self):
        pts = grid_scan(normalize(GameParams(a=3.8, q1=0.5, q2=1, r1=1, r2=1)), 128)
        assert pts == sorted(pts, key=lambda p: (p[1], p[0]))

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            grid_scan(normalize(ALL_ONES), 8)


weights = st.floats(-3, 3).map(lambda e: 10**e)
rationals = st.fractions(min_value=Fraction(1, 100), max_value=400, max_denominator=100)


# Both residual surfaces of this game reach 1e308, the top of the float range.
HUGE_RESIDUAL_GAME = GameParams(a=1, q1=1e308, q2=1e308, r1=1, r2=1)


class TestFlaggedCells:
    """`_flagged_cells` flags exactly the cells whose four corners straddle
    zero on both surfaces, and evaluates each node once."""

    def test_cell_flagged_unless_all_corners_share_a_strict_sign(self, monkeypatch):
        # residuals read from two tables of -1, 0, 1 and NaN, indexed by node
        rng = random.Random(24)
        size = 40
        values = [-1.0, 0.0, 1.0, math.nan]
        tables = [[[rng.choice(values) for _ in range(size)] for _ in range(size)] for _ in range(2)]
        monkeypatch.setattr(oracle, "residuals",
                            lambda fnorm, k1, k2: (tables[0][int(k1)][int(k2)], tables[1][int(k1)][int(k2)]))

        def straddles(t, i, j):
            corners = (t[i][j], t[i + 1][j], t[i][j + 1], t[i + 1][j + 1])
            return not (all(v > 0 for v in corners) or all(v < 0 for v in corners))

        expected = [(i, j) for i in range(size - 1) for j in range(size - 1)
                    if straddles(tables[0], i, j) and straddles(tables[1], i, j)]
        assert 0 < len(expected) < (size - 1) ** 2
        assert _flagged_cells(None, [float(i) for i in range(size)]) == expected

        # one cell: a zero or NaN corner straddles; both surfaces must straddle
        for t1, t2, flagged in (
            ([[0.0, 1.0], [1.0, 1.0]], [[-1.0, 1.0], [1.0, 1.0]], True),
            ([[1.0, 1.0], [1.0, math.nan]], [[-1.0, -1.0], [0.0, -1.0]], True),
            ([[1.0, -1.0], [1.0, 1.0]], [[-1.0, -1.0], [-1.0, -1.0]], False),
            ([[1.0, 1.0], [1.0, 1.0]], [[-1.0, 1.0], [1.0, 1.0]], False),
        ):
            tables = [t1, t2]
            assert _flagged_cells(None, [0.0, 1.0]) == ([(0, 0)] if flagged else []), (t1, t2)

    @pytest.mark.parametrize("n", [16, 100, 512, 700])
    def test_swapping_the_players_transposes_the_flags(self, n):
        # k1 indexes the rows and k2 the columns; swapping the players swaps
        # both the surfaces and the axes, bit for bit
        rng = random.Random(27)
        games = small_rational_games(28, 1) + [random_float_game(rng), HUGE_RESIDUAL_GAME,
                                               GameParams(a=3.8, q1=0.5, q2=1, r1=1, r2=1)]
        for params in games:
            swapped = GameParams(a=params.a, q1=params.q2, q2=params.q1, r1=params.r2, r2=params.r1)
            fnorm, fswap = float_game(normalize(params)), float_game(normalize(swapped))
            nodes = grid_nodes(fnorm, n)
            flagged = _flagged_cells(fnorm, nodes)
            assert flagged, params
            assert _flagged_cells(fswap, nodes) == sorted((j, i) for i, j in flagged), params

    def test_each_node_evaluated_once(self, monkeypatch):
        calls, values = [], []

        def record(*args):
            calls.append(args[1:])
            values.extend(residuals(*args))
            return residuals(*args)

        monkeypatch.setattr(oracle, "residuals", record)
        for params in (GameParams(a=3.8, q1=0.5, q2=1, r1=1, r2=1), HUGE_RESIDUAL_GAME):
            fnorm = float_game(normalize(params))
            nodes = grid_nodes(fnorm, 100)
            calls.clear()
            values.clear()
            _flagged_cells(fnorm, nodes)
            assert sorted(calls) == [(k1, k2) for k1 in nodes for k2 in nodes]
        assert max(map(abs, values)) == 1e308


signed_rationals = st.fractions(min_value=-400, max_value=400, max_denominator=100).filter(bool)
input_gains = st.one_of(st.just(Fraction(1)),
                        st.fractions(min_value=-20, max_value=20, max_denominator=20).filter(bool))


@st.composite
def fold_games(draw):
    """fold_game on a grid of valid (c, k1): with cap = (1 - c^2) / c, the
    tangency partner k2 stays in (0, cap) exactly when k1 lies strictly
    between cap / (3 + c^2) and cap."""
    c = Fraction(draw(st.integers(1, 39)), 40)
    cap = (1 - c * c) / c
    low = cap / (3 + c * c)
    k1 = low + Fraction(draw(st.integers(1, 63)), 64) * (cap - low)
    return fold_game(c, k1, draw(rationals))[0]


@st.composite
def pitchfork_games(draw):
    """pitchfork_game at s = (m^2 - n^2) / (2 m n), where 1 + s^2 is a square."""
    m = draw(st.integers(2, 40))
    n = draw(st.integers(1, m - 1))
    return pitchfork_game(Fraction(m * m - n * n, 2 * m * n), draw(rationals))[0]


IDENTITY_GAMES = {
    "small_rational": st.builds(GameParams, a=signed_rationals, q1=rationals, q2=rationals,
                                r1=rationals, r2=rationals, b1=input_gains, b2=input_gains),
    "float": st.builds(GameParams, a=st.floats(-50, 50, exclude_min=True, exclude_max=True).filter(bool),
                       q1=weights, q2=weights, r1=weights, r2=weights),
    "fold": fold_games(),
    "pitchfork": pitchfork_games(),
}


class TestResultantElimination:
    @pytest.mark.parametrize("kind", IDENTITY_GAMES)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_equals_the_solvers_quintic(self, kind, data):
        # the identity `verify` checks: the resultant in k1 of the
        # stationarity system is build_g's quintic, coefficient for coefficient
        norm = normalize(data.draw(IDENTITY_GAMES[kind]))
        assert resultant_elimination(norm) == build_g(norm)

    def test_degree_at_most_nine(self):
        rng = random.Random(15)
        for _ in range(20):
            res = resultant_elimination(normalize(random_float_game(rng)))
            assert 1 <= res.degree <= 9

    def test_all_ones_equilibrium_is_a_root(self):
        res = resultant_elimination(normalize(ALL_ONES))
        value = sum(float(c) * SYMMETRIC_K**i for i, c in enumerate(res.coeffs))
        assert abs(value) < 1e-12

    def test_quintic_roots_contained_exactly(self):
        rng = random.Random(16)
        for _ in range(20):
            norm = normalize(random_rational_game(rng))
            res = resultant_elimination(norm)
            g2 = build_g(norm)
            shared = poly_gcd(res, g2)
            a = Fraction(norm.a)
            assert (sturm_count(SturmSequence(shared), Fraction(0), a)
                    == sturm_count(SturmSequence(g2), Fraction(0), a))

    def test_matches_sylvester_route_at_rational_k2(self):
        # at k2 not in {0, a} both residuals are quadratics in k1 of degree two
        def in_k1(p, k2):
            coeffs = [Fraction(0)] * 3
            for (i, j), c in p.items():
                coeffs[i] += c * k2**j
            return UniPoly(coeffs)

        rng = random.Random(18)
        for _ in range(30):
            norm = normalize(random_rational_game(rng))
            res = resultant_elimination(norm)
            p1, p2 = stationarity_cubics(norm)
            for _ in range(10):
                k2 = Fraction(rng.randint(-80, 80), rng.randint(1, 12))
                if k2 in (0, norm.a):
                    continue
                A, B = in_k1(p1, k2), in_k1(p2, k2)
                assert A.degree == B.degree == 2
                assert poly_eval(res, k2) == resultant(A, B)


SMALL_RATIONAL_GAMES = st.builds(
    GameParams, a=st.fractions(min_value=-20, max_value=20, max_denominator=100).filter(bool),
    q1=rationals, q2=rationals, r1=rationals, r2=rationals, b1=input_gains, b2=input_gains)
TARSKI_GAMES = {"small_rational": SMALL_RATIONAL_GAMES, "fold": fold_games(), "pitchfork": pitchfork_games()}


class TestTarskiQueries:
    @pytest.mark.parametrize("kind", TARSKI_GAMES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_the_exact_count_is_the_solvers(self, kind, data):
        # fold and pitchfork quintics have a double or a triple root, where
        # each condition's vanishing is decided by the query of its square
        params = data.draw(TARSKI_GAMES[kind])
        try:
            report = solve(params)
        except ConsistencyError:
            # solve's float residual gate refuses some valid games with a
            # large a (ROADMAP item 7); every root of the quintic in (0, a)
            # is an equilibrium, so count those exactly instead
            norm = normalize(params)
            assert TarskiQueries(norm).count()[0] == sturm_count(SturmSequence(build_g(norm)), 0, norm.a)
            return
        assert TarskiQueries(report.game).count() == (report.n_nash, report.real_roots_total)
        fnorm = float_game(report.game)
        solved = [renormalize_equilibrium(fnorm, (e.k1, e.k2)) for e in report.equilibria]
        assert _check_tarski(report, solved)[1] is None

    def test_a_wide_interval_is_halved_until_it_holds_one_root(self):
        # (k - 2, k + 2) holds all three real roots of the all-ones quintic
        queries = TarskiQueries(normalize(ALL_ONES))
        assert queries.locate(SYMMETRIC_K, SYMMETRIC_K, 2.0, VERIFY_TOL) is None

    def test_halving_past_every_root_finds_none(self):
        # midway between the roots 0.355... and 1.889...: the half-width 1
        # holds both, and 1/2 neither
        queries = TarskiQueries(normalize(ALL_ONES))
        assert (queries.locate(SYMMETRIC_K, 1.1223221429525197, 1.0, VERIFY_TOL)
                == "no root of the quintic within 1 of k2")

    def test_verify_passes_next_to_the_locus(self, capsys):
        # the grid scan failed 120 of these games; on the locus itself the
        # roots are rational, where bisection can land on a root exactly
        for params in near_locus_games() + near_locus_bases():
            argv = [f"--{name}={getattr(params, name)}" for name in ("a", "q1", "q2", "r1", "r2")]
            assert main(["verify", *argv]) == 0, argv
        capsys.readouterr()


def _terms(p, k1, k2):
    """The values of p's monomials at (k1, k2), exactly for rational inputs."""
    return [c * k1**i * k2**j for (i, j), c in p.items()]


def _partial(p, var):
    """Exact partial derivative of a bivariate polynomial in k1 (var 0) or k2 (var 1)."""
    return {
        (i - (var == 0), j - (var == 1)): c * (i, j)[var]
        for (i, j), c in p.items() if (i, j)[var]
    }


class TestStationarityEncodings:
    """`residuals`, `stationarity_system` and the Newton Jacobian of the grid
    scan encode the same two equations."""

    @pytest.mark.parametrize("kind", IDENTITY_GAMES)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_system_is_the_reference_cubics_times_their_scales(self, kind, data):
        norm = normalize(data.draw(IDENTITY_GAMES[kind]))
        scales = (stationarity_scale(norm, 1), stationarity_scale(norm, 2))
        system, got_scales = scaled_stationarity_system(norm)
        assert got_scales == scales
        assert stationarity_system(norm) == system
        for p, ref, d in zip(system, stationarity_cubics(norm), scales):
            assert all(type(c) is int for c in p.values())
            assert p == {m: d * c for m, c in ref.items()}

    def test_residuals_equal_the_polynomial_system_exactly(self):
        rng = random.Random(19)
        for _ in range(100):
            ex = normalize(random_rational_game(rng))
            p1, p2 = stationarity_system(ex)
            d1, d2 = stationarity_scale(ex, 1), stationarity_scale(ex, 2)
            for _ in range(5):
                k1 = Fraction(rng.randint(-80, 80), rng.randint(1, 12))
                k2 = Fraction(rng.randint(-80, 80), rng.randint(1, 12))
                rho1, rho2 = residuals(ex, k1, k2)
                assert (d1 * rho1, d2 * rho2) == (sum(_terms(p1, k1, k2)), sum(_terms(p2, k1, k2)))

    def test_jacobian_matches_exact_partial_derivatives(self):
        # the polynomials of the game's double image, read back exactly and
        # differentiated exactly; the float Jacobian must agree to 1e-12 of
        # the size of the terms
        rng = random.Random(20)
        for _ in range(100):
            fnorm = float_game(normalize(random_float_game(rng)))
            image = exact_game(fnorm)
            p1, p2 = stationarity_system(image)
            d1, d2 = stationarity_scale(image, 1), stationarity_scale(image, 2)
            partials = [(_partial(p, var), d) for p, d in ((p1, d1), (p2, d2)) for var in (0, 1)]
            for _ in range(5):
                k1, k2 = rng.uniform(0, fnorm.a), rng.uniform(0, fnorm.a)
                for got, (dp, d) in zip(_jacobian(fnorm, k1, k2), partials):
                    terms = [Fraction(t, d) for t in _terms(dp, Fraction(k1), Fraction(k2))]
                    assert abs(Fraction(got) - sum(terms)) <= Fraction(1e-12) * sum(map(abs, terms))


@pytest.mark.parametrize("module", [oracle, groebner], ids=["oracle", "groebner"])
def test_oracles_import_nothing_from_the_solver(module):
    # the oracles cross-check the solver, so they build their own
    # stationarity system and share no code with the solve path's encoding
    imported = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["lqnash" if node.level else None, node.module]))
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    assert not any(name == "lqnash.solver" or name.startswith("lqnash.solver.") for name in imported)
    if module is oracle:
        # TarskiQueries builds its own remainder sequences: a fault in the
        # solver's chain must not also hide in the oracle that counts
        assert {name for name in imported if name.startswith("lqnash.exactalg")} == {
            "lqnash.exactalg", "lqnash.exactalg.UniPoly"}


class TestSimulateCost:
    def test_deadbeat_constant_after_first_step(self):
        norm = normalize(GameParams(a=2, q1=1, q2=1, r1=1, r2=1))
        first = simulate_cost(norm, 0.75, 1.25, 0)
        assert first.partial_cost_1 == simulate_cost(norm, 0.75, 1.25, 10).partial_cost_1
        assert simulate_cost(norm, 0.75, 1.25, 1).x == 0

    def test_matches_closed_form_at_equilibrium(self):
        norm = normalize(ALL_ONES)
        final = simulate_cost(norm, SYMMETRIC_K, SYMMETRIC_K, 200)
        closed = cost(norm, SYMMETRIC_K, SYMMETRIC_K)
        assert abs(final.partial_cost_1 - closed.j1) < 1e-10
        assert abs(final.partial_cost_2 - closed.j2) < 1e-10

    def test_final_sample_is_the_last_step_of_the_roll_out(self):
        # the same float operations in the same order, so the same bits
        rng = random.Random(21)
        for _ in range(100):
            norm = normalize(random_float_game(rng))
            a = float(norm.a)
            k1, k2 = rng.uniform(0, a), rng.uniform(0, a)
            horizon = rng.choice([0, 1, 2, 37, 200])
            expected = trajectory(norm, k1, k2, horizon)[-1]
            assert simulate_cost(float_game(norm), k1, k2, horizon) == expected
            assert simulate_cost(norm, k1, k2, horizon) == expected

    def test_fraction_input_runs_on_its_float_image(self):
        for params in small_rational_games(29, 5) + [ALL_ONES]:
            norm = normalize(params)
            for e in solve(params).equilibria:
                sample = simulate_cost(norm, e.k1, e.k2, 50)
                assert sample == simulate_cost(float_game(norm), e.k1, e.k2, 50)
                assert all(type(v) is float for v in sample[1:])

    def test_rejects_negative_horizon(self):
        with pytest.raises(ValueError):
            simulate_cost(normalize(ALL_ONES), 0.3, 0.3, -1)

    def test_geometric_convergence_on_random_stabilizing_pairs(self):
        rng = random.Random(17)
        checked = 0
        while checked < 100:
            norm = normalize(random_float_game(rng))
            a = float(norm.a)
            k1, k2 = rng.uniform(0, a), rng.uniform(0, a)
            closed = cost(norm, k1, k2)
            if not closed.stabilizing or abs(closed.a_cl) > 0.98:
                continue
            T = 120
            final = simulate_cost(norm, k1, k2, T)
            w1 = float(norm.q1) + float(norm.r1) * k1 * k1
            bound = w1 * closed.a_cl ** (2 * (T + 1)) / (1 - closed.a_cl**2)
            err = abs(final.partial_cost_1 - closed.j1)
            assert err <= bound * 1.01 + 1e-9 * (1 + closed.j1)
            checked += 1

    def test_unstable_pair_diverges_monotonically(self):
        norm = normalize(GameParams(a=3, q1=1, q2=1, r1=1, r2=1))
        # a_cl = 2
        partials = [simulate_cost(norm, 0.5, 0.5, t).partial_cost_1 for t in range(41)]
        assert all(b > a for a, b in zip(partials, partials[1:]))

    def test_trajectory_recursion(self):
        norm = normalize(GameParams(a=1.5, q1=1, q2=2, r1=1, r2=1, x0=2))
        k1, k2 = 0.25, 0.5
        samples = [simulate_cost(norm, k1, k2, t) for t in range(21)]
        a_cl = 1.5 - k1 - k2
        for prev, cur in zip(samples, samples[1:]):
            assert math.isclose(cur.x, a_cl * prev.x, rel_tol=0, abs_tol=1e-15)
            assert math.isclose(prev.u1, -k1 * prev.x)
            assert math.isclose(prev.u2, -k2 * prev.x)
            assert cur.partial_cost_1 >= prev.partial_cost_1
            assert cur.partial_cost_2 >= prev.partial_cost_2
