"""Game data, canonical form, costs, best responses, and stationarity residuals.

The canonical form has a > 0 and both input gains folded away (b_i = 1); every
other module works on `NormalizedGame` and maps results back through
`denormalize_equilibrium`.  `normalize` reads every parameter as an exact
rational, so the canonical game holds only Fractions, whatever number types
the parameters came in; `float_game` is its one float image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real


class InvalidGameError(ValueError):
    """A game parameter violates its domain invariant."""


class TrivialGame(Exception):
    """Signal for a = 0: the unique equilibrium is (0, 0) and no solving is needed."""

    def __init__(self):
        super().__init__("a = 0: the unique Nash equilibrium is (0, 0)")
        self.equilibrium = (0.0, 0.0)


_FIELDS = ("a", "q1", "q2", "r1", "r2", "b1", "b2", "x0")


@dataclass(frozen=True)
class GameParams:
    """Raw description: dynamics gain a, input gains b_i, weights q_i, r_i > 0."""

    a: Real
    q1: Real
    q2: Real
    r1: Real
    r2: Real
    b1: Real = 1
    b2: Real = 1
    x0: Real = 1

    def validate(self) -> None:
        # finiteness first, so that NaN is named as such and not as "<= 0"
        for name in _FIELDS:
            v = getattr(self, name)
            if isinstance(v, float) and not math.isfinite(v):
                raise InvalidGameError(f"{name} must be finite")
        for name in ("q1", "q2", "r1", "r2"):
            if not getattr(self, name) > 0:
                raise InvalidGameError(f"{name} must be > 0")
        for name in ("b1", "b2"):
            if getattr(self, name) == 0:
                raise InvalidGameError(f"{name} must be nonzero")


def parse_rational(text: str) -> Fraction:
    """Exact rational from an integer, fraction 'p/q', or decimal string."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


@dataclass(frozen=True)
class NormalizedGame:
    """Canonical game: a > 0, unit input gains, adjusted control weights.

    `normalize` fills it with Fractions and `float_game` with floats.
    """

    a: Real
    q1: Real
    q2: Real
    r1: Real
    r2: Real
    sign_flipped: bool = False
    b_scale: tuple[Real, Real] = (1, 1)
    x0: Real = 1


def normalize(params: GameParams) -> NormalizedGame:
    """Read every parameter as an exact rational, fold b_i into the controls
    (r_i -> r_i / b_i^2) and make a positive.

    Raises TrivialGame for a = 0.  Every field of the result is a Fraction:
    the same game given as ints, floats or Fractions normalizes to the same
    canonical game, with no rounding.
    """
    params.validate()
    a, q1, q2, r1, r2, b1, b2, x0 = (_exact(getattr(params, name)) for name in _FIELDS)
    if a == 0:
        raise TrivialGame()
    # a unit input gain folds nothing: r / (b b) is r itself
    if b1 * b1 != 1:
        r1 = r1 / (b1 * b1)
    if b2 * b2 != 1:
        r2 = r2 / (b2 * b2)
    return NormalizedGame(a=abs(a), q1=q1, q2=q2, r1=r1, r2=r2,
                          sign_flipped=a < 0, b_scale=(b1, b2), x0=x0)


def _exact(v: Real) -> Fraction:
    """v as a Fraction; a Fraction is kept as it is."""
    return v if type(v) is Fraction else Fraction(v)


def denormalize_equilibrium(norm: NormalizedGame, pair: tuple[float, float]) -> tuple[float, float]:
    """Map a canonical-game policy pair back to raw-game coordinates."""
    sigma = -1 if norm.sign_flipped else 1
    return (sigma * pair[0] / norm.b_scale[0], sigma * pair[1] / norm.b_scale[1])


def renormalize_equilibrium(norm: NormalizedGame, pair: tuple[float, float]) -> tuple[float, float]:
    """Inverse of denormalize_equilibrium: raw coordinates to canonical ones."""
    sigma = -1 if norm.sign_flipped else 1
    return (sigma * pair[0] * norm.b_scale[0], sigma * pair[1] * norm.b_scale[1])


def exact_game(norm: NormalizedGame) -> NormalizedGame:
    """The same game with every parameter read back as an exact rational:
    the inverse of `float_game` on its image.  `normalize` already returns
    an exact game."""
    return NormalizedGame(
        Fraction(norm.a), Fraction(norm.q1), Fraction(norm.q2), Fraction(norm.r1),
        Fraction(norm.r2), norm.sign_flipped,
        (Fraction(norm.b_scale[0]), Fraction(norm.b_scale[1])), Fraction(norm.x0),
    )


# the canonical game's numbers, named by the raw parameters they come from
_CANONICAL_NAMES = ("a", "q1", "q2", "r1 / b1^2", "r2 / b2^2", "b1", "b2", "x0")


def float_game(norm: NormalizedGame) -> NormalizedGame:
    """The game's one float image: every parameter rounded once to a double.

    All float code (recovery, residuals, costs, the float oracles) runs on
    this image, so it does plain float arithmetic; on the exact game each
    mixed operation would take the slow Fraction path.  A game that already
    is a float image is returned as it is, so converting again costs nothing.
    Raises InvalidGameError naming a number too large for a double, or a
    nonzero a, q_i, r_i or b_i that rounds to 0.0, which would make the image
    another game (and b_i = 0.0 one that the image divides by).  x0 may
    round to 0.0: it only scales the costs, whose x0^2 underflows anyway.
    """
    values = (norm.a, norm.q1, norm.q2, norm.r1, norm.r2, *norm.b_scale, norm.x0)
    if all(type(v) is float for v in values):
        return norm
    doubles = []
    for name, v in zip(_CANONICAL_NAMES, values):
        try:
            d = float(v)
        except OverflowError:
            raise InvalidGameError(f"{name} is too large for a double") from None
        if d == 0 and v != 0 and name != "x0":
            raise InvalidGameError(f"{name} is too small for a double")
        doubles.append(d)
    a, q1, q2, r1, r2, b1, b2, x0 = doubles
    return NormalizedGame(a, q1, q2, r1, r2, norm.sign_flipped, (b1, b2), x0)


def closed_loop(a, k1, k2):
    """Closed-loop coefficient a - k1 - k2 of the canonical dynamics."""
    return a - k1 - k2


@dataclass(frozen=True)
class CostReport:
    j1: float
    j2: float
    a_cl: float

    @property
    def stabilizing(self) -> bool:
        return math.isfinite(self.j1)


def cost(norm: NormalizedGame, k1: float, k2: float) -> CostReport:
    """Infinite-horizon costs of both players; infinite outside |a_cl| < 1.

    The infinite case is a value, not an error, so grid scans can compare
    unstable cells.
    """
    a_cl = closed_loop(norm.a, k1, k2)
    if abs(a_cl) >= 1:
        return CostReport(math.inf, math.inf, float(a_cl))
    x0sq = norm.x0 * norm.x0
    denom = 1 - a_cl * a_cl
    j1 = (norm.q1 + norm.r1 * k1 * k1) / denom * x0sq
    j2 = (norm.q2 + norm.r2 * k2 * k2) / denom * x0sq
    return CostReport(float(j1), float(j2), float(a_cl))


def best_gain(alpha: float, q: float, r: float) -> float:
    """The optimal gain alpha p / (r + p) of a player with weights q, r
    facing the open-loop gain alpha = a - k_other, where p > 0 solves the
    player's Riccati equation; computed as alpha m+ / (m+ + 2 r) with
    m+ = 2 p = m + sqrt(s), m = (alpha^2 - 1) r + q and s = m^2 + 4 q r.
    The gain has the sign of alpha and is smaller in magnitude, unless
    alpha = 0, where it is zero.
    """
    m = (alpha * alpha - 1.0) * r + q
    s = m * m + 4.0 * q * r
    root = math.sqrt(s)
    if m >= 0:
        plus = m + root
    else:
        # root - |m| suffers cancellation; use (s - m^2) / (root + |m|)
        plus = (s - m * m) / (root - m)
    return alpha * plus / (plus + 2.0 * r)


def residuals(norm: NormalizedGame, k1, k2):
    """Stationarity residuals of both players; exact when all inputs are rational."""
    a, q1, q2, r1, r2 = norm.a, norm.q1, norm.q2, norm.r1, norm.r2
    beta1 = a - k2
    beta2 = a - k1
    rho1 = beta1 * r1 * k1 * k1 + (r1 + q1 - beta1 * beta1 * r1) * k1 - beta1 * q1
    rho2 = beta2 * r2 * k2 * k2 + (r2 + q2 - beta2 * beta2 * r2) * k2 - beta2 * q2
    return rho1, rho2
