"""Game data, canonical form, costs, best responses, and stationarity residuals.

The canonical form has a > 0 and both input gains folded away (b_i = 1); every
other module works on `NormalizedGame` and maps results back through
`denormalize_equilibrium`.
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
        for name in ("a", "q1", "q2", "r1", "r2", "b1", "b2", "x0"):
            v = getattr(self, name)
            if isinstance(v, float) and not math.isfinite(v):
                raise InvalidGameError(f"{name} must be finite")
        for name in ("q1", "q2", "r1", "r2"):
            if not getattr(self, name) > 0:
                raise InvalidGameError(f"{name} must be > 0")
        for name in ("b1", "b2"):
            if getattr(self, name) == 0:
                raise InvalidGameError(f"{name} must be nonzero")


@dataclass(frozen=True)
class NormalizedGame:
    """Canonical game: a > 0, unit input gains, adjusted control weights."""

    a: Real
    q1: Real
    q2: Real
    r1: Real
    r2: Real
    sign_flipped: bool = False
    b_scale: tuple[Real, Real] = (1, 1)
    x0: Real = 1


def normalize(params: GameParams) -> NormalizedGame:
    """Fold bi into the controls (r_i -> r_i / b_i^2) and make a positive.

    Raises TrivialGame for a = 0.  Exact inputs stay exact: Fractions in give
    Fractions out.
    """
    params.validate()
    if params.a == 0:
        raise TrivialGame()
    flip = params.a < 0
    r1 = params.r1 / params.b1**2
    r2 = params.r2 / params.b2**2
    return NormalizedGame(
        a=-params.a if flip else params.a,
        q1=params.q1,
        q2=params.q2,
        r1=r1,
        r2=r2,
        sign_flipped=flip,
        b_scale=(params.b1, params.b2),
        x0=params.x0,
    )


def denormalize_equilibrium(norm: NormalizedGame, pair: tuple[float, float]) -> tuple[float, float]:
    """Map a canonical-game policy pair back to raw-game coordinates."""
    sigma = -1 if norm.sign_flipped else 1
    return (sigma * pair[0] / norm.b_scale[0], sigma * pair[1] / norm.b_scale[1])


def renormalize_equilibrium(norm: NormalizedGame, pair: tuple[float, float]) -> tuple[float, float]:
    """Inverse of denormalize_equilibrium: raw coordinates to canonical ones."""
    sigma = -1 if norm.sign_flipped else 1
    return (sigma * pair[0] * norm.b_scale[0], sigma * pair[1] * norm.b_scale[1])


def exact_game(norm: NormalizedGame) -> NormalizedGame:
    """The same game with every parameter coerced to an exact rational."""
    return NormalizedGame(
        a=Fraction(norm.a),
        q1=Fraction(norm.q1),
        q2=Fraction(norm.q2),
        r1=Fraction(norm.r1),
        r2=Fraction(norm.r2),
        sign_flipped=norm.sign_flipped,
        b_scale=norm.b_scale,
        x0=norm.x0,
    )


def float_game(norm: NormalizedGame) -> NormalizedGame:
    """The same game with every parameter rounded once to a double.

    Float code run on this image does plain float arithmetic; run on a
    Fraction game, each mixed operation would take the slow Fraction path.
    """
    return NormalizedGame(
        a=float(norm.a),
        q1=float(norm.q1),
        q2=float(norm.q2),
        r1=float(norm.r1),
        r2=float(norm.r2),
        sign_flipped=norm.sign_flipped,
        b_scale=(float(norm.b_scale[0]), float(norm.b_scale[1])),
        x0=float(norm.x0),
    )


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


def _radical_sum(m: float, s: float) -> float:
    """m + sqrt(s) computed stably when m < 0 (s = m^2 + positive term)."""
    root = math.sqrt(s)
    if m >= 0:
        return m + root
    # root - |m| suffers cancellation; use (s - m^2) / (root + |m|)
    return (s - m * m) / (root - m)


def best_gain(alpha: float, q: float, r: float) -> tuple[float, float, float]:
    """(k_best, s, m + sqrt(s)): the optimal gain of a player with weights q, r
    facing the open-loop gain alpha = a - k_other, and its Riccati certificate
    p = (m + sqrt(s)) / 2.  k_best has the sign of alpha and is smaller in
    magnitude, unless alpha = 0, where it is zero.
    """
    m = (alpha * alpha - 1.0) * r + q
    s = m * m + 4.0 * q * r
    plus = _radical_sum(m, s)  # m + sqrt(s) > 0
    return alpha * plus / (plus + 2.0 * r), s, plus


def residuals(norm: NormalizedGame, k1, k2):
    """Stationarity residuals of both players; exact when all inputs are rational."""
    a, q1, q2, r1, r2 = norm.a, norm.q1, norm.q2, norm.r1, norm.r2
    beta1 = a - k2
    beta2 = a - k1
    rho1 = beta1 * r1 * k1 * k1 + (r1 + q1 - beta1 * beta1 * r1) * k1 - beta1 * q1
    rho2 = beta2 * r2 * k2 * k2 + (r2 + q2 - beta2 * beta2 * r2) * k2 - beta2 * q2
    return rho1, rho2
