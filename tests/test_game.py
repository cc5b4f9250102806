"""Game normalization, costs, best responses, and stationarity residuals."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqnash.game import (
    GameParams,
    InvalidGameError,
    NormalizedGame,
    TrivialGame,
    best_gain,
    closed_loop,
    cost,
    denormalize_equilibrium,
    float_game,
    normalize,
    renormalize_equilibrium,
    residuals,
)

ALL_ONES = GameParams(a=1, q1=1, q2=1, r1=1, r2=1)
SYMMETRIC_K = 0.3554157267758450
FIELDS = ("a", "q1", "q2", "r1", "r2", "b1", "b2", "x0")
DYADIC = st.builds(Fraction, st.integers(1, 2**40), st.sampled_from([2**k for k in range(13)]))
SIGNED_DYADIC = st.builds(lambda v, sign: sign * v, DYADIC, st.sampled_from([1, -1]))
# input gains: +-1, which normalize does not fold, as often as any other value
GAIN = st.one_of(st.sampled_from([Fraction(1), Fraction(-1)]), SIGNED_DYADIC)


def _spellings(value: Fraction):
    """The exact ways to write a dyadic value: a Fraction, a float and, when
    it is whole, an int."""
    kinds = [value, float(value)] + ([int(value)] if value.denominator == 1 else [])
    return st.sampled_from(kinds)


def weights(norm, i):
    """Player i's (q, r) as floats, the weights `best_gain` takes."""
    return (float(norm.q1), float(norm.r1)) if i == 1 else (float(norm.q2), float(norm.r2))


def random_norm(rng, a_hi=4.0, w_lo=-2.0, w_hi=2.0):
    return normalize(
        GameParams(
            a=rng.uniform(1e-3, a_hi),
            q1=10 ** rng.uniform(w_lo, w_hi),
            q2=10 ** rng.uniform(w_lo, w_hi),
            r1=10 ** rng.uniform(w_lo, w_hi),
            r2=10 ** rng.uniform(w_lo, w_hi),
        )
    )


class TestNormalize:
    def test_identity_on_canonical(self):
        norm = normalize(GameParams(a=2, q1=1, q2=1, r1=1, r2=1))
        assert (norm.a, norm.r1, norm.r2) == (2, 1, 1)
        assert not norm.sign_flipped

    def test_sign_flip(self):
        norm = normalize(GameParams(a=-2, q1=1, q2=1, r1=1, r2=1))
        assert norm.a == 2 and norm.sign_flipped
        assert denormalize_equilibrium(norm, (0.3, 0.4)) == (-0.3, -0.4)

    def test_gain_folding(self):
        norm = normalize(GameParams(a=2, q1=1, q2=1, r1=4, r2=1, b1=2, b2=1))
        assert norm.r1 == 1 and norm.r2 == 1
        k1, k2 = denormalize_equilibrium(norm, (0.5, 0.4))
        assert (k1, k2) == (0.25, 0.4)

    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(100):
            params = GameParams(
                a=rng.choice([-1, 1]) * rng.uniform(0.1, 4),
                q1=rng.uniform(0.1, 10), q2=rng.uniform(0.1, 10),
                r1=rng.uniform(0.1, 10), r2=rng.uniform(0.1, 10),
                b1=rng.choice([2, 1, 0.5, -2, -1, -0.5]),
                b2=rng.choice([2, 1, 0.5, -2, -1, -0.5]),
            )
            norm = normalize(params)
            pair = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            back = renormalize_equilibrium(norm, denormalize_equilibrium(norm, pair))
            assert math.isclose(back[0], pair[0]) and math.isclose(back[1], pair[1])

    def test_trivial_game_signal(self):
        with pytest.raises(TrivialGame) as info:
            normalize(GameParams(a=0, q1=1, q2=1, r1=1, r2=1))
        assert info.value.equilibrium == (0.0, 0.0)

    def test_validation_names_the_invariant(self):
        with pytest.raises(InvalidGameError, match="q1 must be > 0"):
            normalize(GameParams(a=1, q1=-1, q2=1, r1=1, r2=1))
        with pytest.raises(InvalidGameError, match="b2 must be nonzero"):
            normalize(GameParams(a=1, q1=1, q2=1, r1=1, r2=1, b2=0))

    def test_exactness_preserved(self):
        norm = normalize(GameParams(a=Fraction(-3, 2), q1=Fraction(1), q2=Fraction(1),
                                    r1=Fraction(4), r2=Fraction(1), b1=Fraction(2)))
        assert norm.a == Fraction(3, 2) and isinstance(norm.a, Fraction)
        assert norm.r1 == 1 and isinstance(norm.r1, Fraction)

    def test_unit_input_gain_keeps_the_fractions_given(self):
        q1, r1, r2 = Fraction(2, 9), Fraction(7, 3), Fraction(5, 11)
        norm = normalize(GameParams(a=Fraction(5, 2), q1=q1, q2=1, r1=r1, r2=r2,
                                    b1=-1, b2=Fraction(1)))
        assert norm.q1 is q1 and norm.r1 is r1 and norm.r2 is r2
        assert norm.b_scale == (-1, 1) and all(type(b) is Fraction for b in norm.b_scale)
        folded = normalize(GameParams(a=Fraction(5, 2), q1=q1, q2=1, r1=r1, r2=r2, b1=-2))
        assert folded.r1 == r1 / 4 and folded.r2 is r2

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_number_type_normalizes_to_the_same_exact_game(self, data):
        # each field drawn as a dyadic rational, which an int (when whole), a
        # float and a Fraction all hold exactly; b_i also takes non-powers of
        # two, whose square no double division folds exactly
        values = {name: data.draw(GAIN if name in ("b1", "b2") else
                                  SIGNED_DYADIC if name in ("a", "x0") else DYADIC)
                  for name in FIELDS}
        exact = normalize(GameParams(**values))
        written = {name: data.draw(_spellings(v)) for name, v in values.items()}
        norm = normalize(GameParams(**written))
        assert norm == exact
        assert norm.r1 == values["r1"] / values["b1"] ** 2
        assert norm.r2 == values["r2"] / values["b2"] ** 2
        fields = (norm.a, norm.q1, norm.q2, norm.r1, norm.r2, *norm.b_scale, norm.x0)
        assert all(type(v) is Fraction for v in fields)

    def test_float_image_rounds_each_parameter_once(self):
        norm = normalize(GameParams(a=Fraction(-1, 3), q1=Fraction(2, 7), q2=3,
                                    r1=Fraction(5, 9), r2=Fraction(1, 10), b1=Fraction(2), x0=2))
        image = float_game(norm)
        for name in ("a", "q1", "q2", "r1", "r2", "x0"):
            value = getattr(image, name)
            assert type(value) is float and value == float(getattr(norm, name))
        assert image.b_scale == (2.0, 1.0) and image.sign_flipped
        assert float_game(image) is image  # an image is not converted again

    def test_partly_exact_game_is_converted_whole(self):
        mixed = NormalizedGame(a=1.5, q1=1, q2=Fraction(1, 3), r1=1.0, r2=2.0, x0=2)
        image = float_game(mixed)
        fields = (image.a, image.q1, image.q2, image.r1, image.r2, image.x0, *image.b_scale)
        assert all(type(v) is float for v in fields)

    @pytest.mark.parametrize("values, message", [
        ({"x0": 10**400}, "x0 is too large for a double"),
        ({"q2": Fraction(10**400, 3)}, "q2 is too large for a double"),
        ({"b1": Fraction(1, 10**200)}, r"r1 / b1\^2 is too large for a double"),
        ({"b2": Fraction(1, 10**400), "r2": Fraction(1, 10**800)}, "b2 is too small for a double"),
        ({"a": Fraction(1, 10**400)}, "a is too small for a double"),
        ({"q1": Fraction(1, 10**400)}, "q1 is too small for a double"),
        ({"q2": Fraction(1, 10**400)}, "q2 is too small for a double"),
        ({"r1": Fraction(1, 10**400)}, r"r1 / b1\^2 is too small for a double"),
        ({"r2": 1, "b2": 10**200}, r"r2 / b2\^2 is too small for a double"),
    ])
    def test_float_image_refuses_numbers_past_the_double_range(self, values, message):
        norm = normalize(GameParams(**{"a": 1, "q1": 1, "q2": 1, "r1": 1, "r2": 1, **values}))
        with pytest.raises(InvalidGameError, match=f"^{message}$"):
            float_game(norm)

    def test_float_image_keeps_an_initial_state_that_rounds_to_zero(self):
        # x0 only scales the costs, and x0^2 underflows long before x0 does
        norm = normalize(GameParams(a=1, q1=1, q2=1, r1=1, r2=1, x0=Fraction(1, 10**400)))
        assert float_game(norm).x0 == 0.0


class TestClosedLoopAndCost:
    def test_open_loop(self):
        assert closed_loop(1, 0, 0) == 1

    def test_symmetric_equilibrium(self):
        assert abs(closed_loop(1, 0.35542, 0.35542) - 0.28916) < 1e-9

    def test_deadbeat(self):
        assert closed_loop(1.75, 0.5, 1.25) == 0

    def test_boundary_cost_is_infinite(self):
        c = cost(normalize(ALL_ONES), 0.0, 0.0)
        assert math.isinf(c.j1) and math.isinf(c.j2) and not c.stabilizing

    def test_equilibrium_cost(self):
        c = cost(normalize(ALL_ONES), SYMMETRIC_K, SYMMETRIC_K)
        assert abs(c.j1 - 1.229095387936243) < 1e-12
        assert abs(c.j2 - c.j1) < 1e-15

    def test_deadbeat_cost_collapses(self):
        norm = normalize(GameParams(a=2, q1=3, q2=0.5, r1=2, r2=1, x0=1.5))
        c = cost(norm, 0.75, 1.25)
        assert math.isclose(c.j1, (3 + 2 * 0.75**2) * 1.5**2)
        assert math.isclose(c.j2, (0.5 + 1 * 1.25**2) * 1.5**2)


class TestBestResponse:
    def test_zero_at_opponent_a(self):
        norm = normalize(GameParams(a=1.7, q1=2, q2=1, r1=0.3, r2=1))
        assert best_gain(float(norm.a) - 1.7, *weights(norm, 1)) == 0

    def test_interior_of_interval(self):
        rng = random.Random(12)
        for _ in range(200):
            norm = random_norm(rng)
            k_best = best_gain(float(norm.a) - 0.0, *weights(norm, rng.choice([1, 2])))
            assert 0 < k_best < float(norm.a)

    def test_fixed_point_at_symmetric_equilibrium(self):
        norm = normalize(ALL_ONES)
        k_best = best_gain(float(norm.a) - SYMMETRIC_K, *weights(norm, 1))
        assert abs(k_best - SYMMETRIC_K) < 1e-12

    def test_sign_property_10k(self):
        rng = random.Random(88)
        for _ in range(10_000):
            norm = random_norm(rng)
            k_other = rng.uniform(-2 * float(norm.a), 2 * float(norm.a))
            gap = float(norm.a) - k_other
            k_best = best_gain(gap, *weights(norm, rng.choice([1, 2])))
            assert type(k_best) is float
            if gap != 0:
                assert math.copysign(1, k_best) == math.copysign(1, gap)

    def test_magnitude_contraction(self):
        rng = random.Random(21)
        for _ in range(5_000):
            norm = random_norm(rng)
            k_other = rng.uniform(-2 * float(norm.a), 2 * float(norm.a))
            gap = float(norm.a) - k_other
            k_best = best_gain(gap, *weights(norm, rng.choice([1, 2])))
            if k_other == float(norm.a):
                assert k_best == 0
            else:
                assert abs(k_best) < abs(gap)

    def test_riccati_identity(self):
        rng = random.Random(77)
        for _ in range(5_000):
            norm = random_norm(rng)
            i = rng.choice([1, 2])
            k_other = rng.uniform(-2 * float(norm.a), 2 * float(norm.a))
            q, r = weights(norm, i)
            alpha = float(norm.a) - k_other
            if alpha == 0:
                continue
            k_best = best_gain(alpha, q, r)
            # the gain is k = alpha p / (r + p) for the Riccati solution p
            p = r * k_best / (alpha - k_best)
            assert p > 0
            # p solves the fixed-point form of the one-agent Riccati equation
            ricc = p - (q + alpha * alpha * p * r / (r + p))
            assert abs(ricc) <= 1e-10 * max(1.0, p)


class TestResiduals:
    def test_origin_never_stationary(self):
        rng = random.Random(6)
        for _ in range(100):
            norm = random_norm(rng)
            rho1, rho2 = residuals(norm, 0.0, 0.0)
            assert math.isclose(rho1, -float(norm.a) * float(norm.q1))
            assert math.isclose(rho2, -float(norm.a) * float(norm.q2))

    def test_near_zero_at_equilibrium(self):
        rho1, rho2 = residuals(normalize(ALL_ONES), 0.35542, 0.35542)
        assert abs(rho1) < 1e-4 and abs(rho2) < 1e-4

    def test_degenerate_leading_coefficient(self):
        norm = normalize(GameParams(a=1.3, q1=2, q2=3, r1=0.7, r2=1.1))
        k1 = 0.42
        rho1, _ = residuals(norm, k1, float(norm.a))  # k2 = a
        assert math.isclose(rho1, (0.7 + 2) * k1)

    def test_exact_for_rational_inputs(self):
        norm = normalize(GameParams(a=Fraction(3, 2), q1=Fraction(1, 2), q2=Fraction(2),
                                    r1=Fraction(1), r2=Fraction(5, 4)))
        rho1, rho2 = residuals(norm, Fraction(1, 3), Fraction(1, 4))
        assert isinstance(rho1, Fraction) and isinstance(rho2, Fraction)


class TestGradientLink:
    def test_cost_derivative_vanishes_exactly_at_best_response(self):
        rng = random.Random(13)
        checked = 0
        while checked < 100:
            norm = random_norm(rng, w_lo=-0.5, w_hi=0.8)
            a = float(norm.a)
            k2 = rng.uniform(0.05 * a, 0.95 * a)
            k1 = best_gain(a - k2, *weights(norm, 1))
            if abs(a - k1 - k2) > 0.95:
                continue
            h = 1e-6
            deriv = (cost(norm, k1 + h, k2).j1 - cost(norm, k1 - h, k2).j1) / (2 * h)
            assert abs(deriv) < 1e-4
            off = (cost(norm, k1 + 0.01 + h, k2).j1 - cost(norm, k1 + 0.01 - h, k2).j1) / (2 * h)
            if math.isfinite(off):
                assert abs(off) > 1e-3
            checked += 1
