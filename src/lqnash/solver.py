"""Main pipeline: exact elimination quintic, discriminant classification,
certified root isolation in (0, a), equilibrium recovery and verification.

All classification decisions (discriminant sign, root counts, interval
membership) are made in exact rational arithmetic; floating point enters only
when refined roots are converted for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactalg import (
    SturmSequence,
    UniPoly,
    _sign_at,
    isolate_roots_in_interval,
    refine_root,
    sturm_count,
)
from .game import (
    GameParams,
    NormalizedGame,
    best_gain,
    cost,
    denormalize_equilibrium,
    float_game,
    normalize,
    residuals,
)
# not called here: perfbench/tracing.py still wraps this name in this module
from .game import exact_game  # noqa: F401

# Absolute width of a root's certified isolating interval before float
# conversion.  Roots lie in (0, a) and a is unbounded (rational games reach
# a = 400), so nothing caps their size; the width is at most one
# double-precision ulp for roots >= 2^-8, and smaller roots keep fewer
# significant bits, because the width is not relative to the root.
REFINE_WIDTH = Fraction(1, 2**60)

# Reporting tolerance on residuals at the floating pair.  Existence of the
# root is certified exactly; this only governs presentation precision.
TOL_VERIFY = 1e-8

# The stored quintic is twice the elimination polynomial, which clears the
# half-integer terms; the reported discriminant is rescaled accordingly.
G_SCALE = 2


class ConsistencyError(Exception):
    """A certified-by-construction property failed: an implementation bug."""


def build_g(norm: NormalizedGame) -> UniPoly:
    """Twice the elimination quintic in k2, assembled exactly.

    Coefficients are closed-form polynomials in (a, q1, q2, r1, r2), read
    from the exact game that `normalize` returns.
    """
    a, q1, q2, r1, r2 = norm.a, norm.q1, norm.q2, norm.r1, norm.r2
    r1r1, r2r2 = r1 * r1, r2 * r2
    rr = r1r1 * r2r2
    c0 = a * a * q2 * q2 * r1r1
    c1 = -2 * a * q2 * q2 * r1r1
    c2 = (
        -(a**4) * rr
        + 2 * a * a * q2 * r1r1 * r2
        - 2 * a * a * q1 * r1 * r2r2
        + 2 * a * a * rr
        + q2 * q2 * r1r1
        - q1 * q1 * r2r2
        - 2 * q1 * r1 * r2r2
        - rr
    )
    c3 = 4 * a**3 * rr - 4 * a * q2 * r1r1 * r2 + 4 * a * q1 * r1 * r2r2 - 4 * a * rr
    c4 = -5 * a * a * rr + 2 * q2 * r1r1 * r2 - 2 * q1 * r1 * r2r2 + 2 * rr
    c5 = 2 * a * rr
    return UniPoly([c0, c1, c2, c3, c4, c5])


def classify_discriminant(seq: SturmSequence) -> tuple[Fraction, int]:
    """Exact discriminant of the unscaled quintic and its sign.

    `seq` is the Sturm sequence of twice the quintic, whose remainder
    sequence already carries the discriminant.  Rejects degree != 5 loudly:
    the positivity invariants make a degenerate leading coefficient
    impossible, so reaching it means corrupted input.
    """
    degree = seq.degree
    if degree != 5:
        raise ConsistencyError(f"expected a degree-5 polynomial, got degree {degree}")
    # g = g2 / G_SCALE scales the degree-5 discriminant by G_SCALE^-(2*5-2)
    delta = seq.discriminant / Fraction(G_SCALE) ** 8
    sign = 0 if delta == 0 else (1 if delta > 0 else -1)
    return delta, sign


def find_candidate_roots(seq: SturmSequence, a: Fraction) -> list[tuple[Fraction, int]]:
    """Distinct real roots of the quintic strictly inside (0, a), refined.

    The endpoints are excluded for free: the quintic is exactly positive at 0
    and exactly negative at a for every valid game.
    """
    return [
        (refine_root(seq, iv, REFINE_WIDTH), iv.multiplicity)
        for iv in isolate_roots_in_interval(seq, Fraction(0), a)
    ]


def recover_k1(fnorm: NormalizedGame, k2: float) -> float:
    """The admissible stationary gain of player 1 against k2 on the game's
    float image: its `best_gain`, whose branch is the one that satisfies the
    stability constraint."""
    return best_gain(fnorm.a - k2, fnorm.q1, fnorm.r1)


@dataclass(frozen=True)
class NashEquilibrium:
    """Verified equilibrium in raw-game coordinates."""

    k1: float
    k2: float
    a_cl: float
    j1: float
    j2: float
    residual_norm: float
    root_multiplicity: int


@dataclass(frozen=True)
class SolveReport:
    """Full account of one solved game.

    Construction raises ConsistencyError unless the report obeys the
    discriminant law (one to three equilibria, exactly one when the
    discriminant is negative, at most two when it is zero), the quintic
    has real roots below 0 and above a, and its multiplicities can be the
    quintic's: each is at least 1, one above 1 needs a zero discriminant,
    and the equilibria's multiplicities and the roots outside (0, a) number
    at most the degree.
    """

    g2: UniPoly
    delta: Fraction
    delta_sign: int
    real_roots_total: int
    roots_below_zero: int
    roots_above_a: int
    equilibria: tuple[NashEquilibrium, ...]
    game: NormalizedGame  # the exact canonical game that was solved

    def __post_init__(self) -> None:
        n, sign = len(self.equilibria), self.delta_sign
        if not (1 <= n <= 3 and (sign >= 0 or n == 1) and (sign != 0 or n <= 2)):
            raise ConsistencyError(
                f"solve violates the discriminant law (sign {sign}, {n} equilibria)")
        if self.roots_below_zero < 1 or self.roots_above_a < 1:
            raise ConsistencyError("expected roots outside [0, a] on both sides")
        multiplicities = [e.root_multiplicity for e in self.equilibria]
        if min(multiplicities) < 1 or (self.delta != 0 and max(multiplicities) > 1):
            raise ConsistencyError(
                f"root multiplicities {multiplicities} impossible with discriminant sign {sign}")
        counted = sum(multiplicities) + self.roots_below_zero + self.roots_above_a
        if counted > self.g2.degree:
            raise ConsistencyError(
                f"{counted} real roots with multiplicity exceed the quintic's degree {self.g2.degree}")

    @property
    def n_nash(self) -> int:
        return len(self.equilibria)

    @property
    def delta_float(self) -> float:
        """The discriminant as a float, clamped to +-inf where it overflows."""
        try:
            return float(self.delta)
        except OverflowError:
            return math.inf if self.delta > 0 else -math.inf


def solve(params: GameParams) -> SolveReport:
    """Compute, verify and report every Nash equilibrium of the game.

    Raises TrivialGame for a = 0, InvalidGameError on domain violations and
    on numbers past the double range, and ConsistencyError if any certified
    property fails downstream (which would be an implementation bug, not a
    property of the game).
    """
    norm = normalize(params)
    # built before the exact work, so a game without a float image fails fast
    fnorm = float_game(norm)
    a = norm.a
    g2 = build_g(norm)
    seq = SturmSequence(g2)
    delta, delta_sign = classify_discriminant(seq)

    if not (_sign_at(seq.ints, 0, 1) > 0 and _sign_at(seq.ints, a.numerator, a.denominator) < 0):
        raise ConsistencyError("endpoint signs of the quintic violated")

    roots_below = sturm_count(seq, -math.inf, 0)
    roots_above = sturm_count(seq, a, math.inf)
    candidates = find_candidate_roots(seq, a)
    real_roots_total = roots_below + len(candidates) + roots_above

    equilibria = []
    for approx, multiplicity in candidates:
        k2f = float(approx)
        k1f = recover_k1(fnorm, k2f)
        rho1, rho2 = residuals(fnorm, k1f, k2f)
        residual_norm = max(abs(rho1), abs(rho2))
        a_cl = fnorm.a - k1f - k2f
        # written so that a NaN residual fails it
        if not residual_norm <= TOL_VERIFY:
            raise ConsistencyError(
                f"candidate root {k2f} failed residual verification ({residual_norm:.3e})"
            )
        if not (0.0 < a_cl < 1.0):
            raise ConsistencyError(f"candidate root {k2f} gives closed loop {a_cl} outside (0, 1)")
        if not (0.0 < k1f and 0.0 < k2f):
            raise ConsistencyError(f"candidate pair ({k1f}, {k2f}) violates positivity bounds")
        c = cost(fnorm, k1f, k2f)
        raw_k1, raw_k2 = denormalize_equilibrium(fnorm, (k1f, k2f))
        equilibria.append(
            NashEquilibrium(
                k1=raw_k1,
                k2=raw_k2,
                a_cl=a_cl,
                j1=c.j1,
                j2=c.j2,
                residual_norm=residual_norm,
                root_multiplicity=multiplicity,
            )
        )

    return SolveReport(
        g2=g2,
        delta=delta,
        delta_sign=delta_sign,
        real_roots_total=real_roots_total,
        roots_below_zero=roots_below,
        roots_above_a=roots_above,
        equilibria=tuple(equilibria),
        game=norm,
    )


# ---------------------------------------------------------------------------
# Exact constructions on the multiple-root locus
# ---------------------------------------------------------------------------
#
# Games whose quintic has a multiple root form a hypersurface in parameter
# space; rational points on it cannot be reached by varying one parameter of
# a generic family (the critical value is algebraic of high degree).  The two
# constructors below parametrize rational points directly.
#
# At a point (k1, k2) where both stationarity residuals vanish, the weights
# are forced: q_i = r_i k_i (1 - c^2 - c k_i) / c with c = a - k1 - k2.  The
# residual surfaces are tangent there exactly when
#
#     (1 - c^2)^2 (k1 + k2 + c) = 4 c k1 k2,
#
# which is linear in k2, so rational (c, k1) give rational tangency games.


def fold_game(c: Fraction, k1: Fraction, r1: Fraction = Fraction(1)) -> tuple[GameParams, tuple[Fraction, Fraction]]:
    """Rational game whose quintic has a double root at a known equilibrium.

    `c` is the closed-loop value at the double point and `k1` the first
    player's gain there; the second player's weights are scaled so q2 = 1.
    Returns the game and the exact double point (k1, k2).
    """
    c, k1, r1 = Fraction(c), Fraction(k1), Fraction(r1)
    if not 0 < c < 1:
        raise ValueError("closed loop c must lie in (0, 1)")
    w = (1 - c * c) ** 2
    den = 4 * c * k1 - w
    if den <= 0:
        raise ValueError("k1 too small: tangency partner is not positive")
    k2 = w * (k1 + c) / den
    cap = (1 - c * c) / c
    if not (0 < k1 < cap and 0 < k2 < cap):
        raise ValueError("tangency point leaves the positive-weight region")
    a = c + k1 + k2
    q1 = r1 * k1 * (1 - c * c - c * k1) / c
    r2 = c / (k2 * (1 - c * c - c * k2))
    return GameParams(a=a, q1=q1, q2=Fraction(1), r1=r1, r2=r2), (k1, k2)


def pitchfork_game(s: Fraction, r: Fraction = Fraction(1)) -> tuple[GameParams, Fraction]:
    """Symmetric rational game whose quintic has a triple root at s.

    Requires 1 + s^2 to be the square of a rational (Pythagorean choices such
    as s = 3/4 or s = 5/12).  Returns the game and the triple root.
    """
    s, r = Fraction(s), Fraction(r)
    if s <= 0:
        raise ValueError("s must be positive")
    h2 = 1 + s * s
    num = math.isqrt(h2.numerator)
    den = math.isqrt(h2.denominator)
    if num * num != h2.numerator or den * den != h2.denominator:
        raise ValueError("1 + s^2 must be a rational square")
    h = Fraction(num, den)
    a = s + h
    q = r * s * s
    return GameParams(a=a, q1=q, q2=q, r1=r, r2=r), s
