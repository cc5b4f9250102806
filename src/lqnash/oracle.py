"""Brute-force verification paths: best-response iteration, residual grid
scanning with plain Newton polish, direct resultant elimination, an exact
count and location of the equilibria by Tarski queries, and trajectory cost
simulation; and the integer stationarity system that the exact oracles (the
resultant, the Tarski queries and the Buchberger engine) start from.  This
module imports nothing from the solver, and its remainder sequences are its
own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .exactalg import UniPoly
from .game import (
    NormalizedGame,
    best_gain,
    closed_loop,
    float_game,
    residuals,
)

GRID_DEFAULT = 512
NEWTON_MAX_ITER = 50
# TarskiQueries.locate bisects a k2 interval at most this many times to
# certify k1
K1_BISECTIONS = 64


@dataclass(frozen=True)
class BrIterationResult:
    converged: bool
    k1: float
    k2: float
    iterations: int


def br_iteration(
    fnorm: NormalizedGame, k_start: float, max_iter: int = 200, tol: float = 1e-12
) -> BrIterationResult:
    """Fixed-point iteration x <- br1(br2(x)) from a starting gain, on the
    game's float image (an exact game is converted by `float_game` first).

    Each best response is `best_gain`'s gain.  A step below `tol` converges
    only when g(x) = br1(br2(x)) - x changes sign across [x - 100 tol,
    x + 100 tol]: where the composed map's slope is near 1, small steps say
    nothing of the distance to a fixed point.  Non-convergence is a
    legitimate outcome, reported rather than raised: the composed map need
    not contract near every equilibrium.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be > 0")
    fnorm = float_game(fnorm)
    a, q1, r1, q2, r2 = fnorm.a, fnorm.q1, fnorm.r1, fnorm.q2, fnorm.r2

    def step(x):
        return best_gain(a - best_gain(a - x, q2, r2), q1, r1)

    x = float(k_start)
    for it in range(1, max_iter + 1):
        nxt = step(x)
        if abs(nxt - x) < tol:
            below, above = nxt - 100.0 * tol, nxt + 100.0 * tol
            lo, hi = step(below) - below, step(above) - above
            return BrIterationResult(lo <= 0.0 <= hi or hi <= 0.0 <= lo, nxt, best_gain(a - nxt, q2, r2), it)
        x = nxt
    return BrIterationResult(False, x, best_gain(a - x, q2, r2), max_iter)


def _residual_scale(fnorm: NormalizedGame) -> float:
    """Magnitude of the residuals' terms, to make convergence tests scale-free."""
    return max(1.0, fnorm.q1, fnorm.q2) * max(1.0, fnorm.a) ** 3 * max(1.0, fnorm.r1, fnorm.r2)


def _jacobian(fnorm: NormalizedGame, k1: float, k2: float):
    a, q1, q2, r1, r2 = fnorm.a, fnorm.q1, fnorm.q2, fnorm.r1, fnorm.r2
    b1 = a - k2
    b2 = a - k1
    j11 = 2 * b1 * r1 * k1 + r1 + q1 - b1 * b1 * r1
    j12 = -r1 * k1 * k1 + 2 * b1 * r1 * k1 + q1
    j21 = -r2 * k2 * k2 + 2 * b2 * r2 * k2 + q2
    j22 = 2 * b2 * r2 * k2 + r2 + q2 - b2 * b2 * r2
    return j11, j12, j21, j22


def _newton_polish(fnorm: NormalizedGame, k1: float, k2: float) -> tuple[float, float] | None:
    """Plain two-dimensional Newton on the residual pair: from a cell's
    centre it converges within a few steps or fails, so no step is damped."""
    scale = _residual_scale(fnorm)
    rho1, rho2 = residuals(fnorm, k1, k2)
    for _ in range(NEWTON_MAX_ITER):
        if math.hypot(rho1, rho2) <= 1e-14 * scale:
            return k1, k2
        j11, j12, j21, j22 = _jacobian(fnorm, k1, k2)
        det = j11 * j22 - j12 * j21
        if det == 0 or not math.isfinite(det):
            return None
        k1 += (-rho1 * j22 + rho2 * j12) / det
        k2 += (-rho2 * j11 + rho1 * j21) / det
        rho1, rho2 = residuals(fnorm, k1, k2)
    return (k1, k2) if math.hypot(rho1, rho2) <= 1e-10 * scale else None


def grid_scan(fnorm: NormalizedGame, n: int = GRID_DEFAULT) -> list[tuple[float, float]]:
    """Equilibrium approximations from sign changes of both residual surfaces.

    Scans the n x n cell grid covering (0, a)^2 (nodes include the boundary,
    where no equilibrium can sit, so edge-hugging roots are still bracketed),
    polishes every flagged cell with plain Newton, deduplicates, and keeps
    stabilizing pairs.  Output is deterministic, ordered by ascending k2
    then k1.  All of it runs on the game's float image (an exact game is
    converted by `float_game` first).
    """
    if n < 16:
        raise ValueError("grid resolution must be at least 16")
    fnorm = float_game(fnorm)
    a = fnorm.a
    nodes = [a * i / n for i in range(n + 1)]
    candidates: list[tuple[float, float]] = []
    for i, j in _flagged_cells(fnorm, nodes):
        c1 = 0.5 * (nodes[i] + nodes[i + 1])
        c2 = 0.5 * (nodes[j] + nodes[j + 1])
        polished = _newton_polish(fnorm, c1, c2)
        if polished is None:
            continue
        k1, k2 = polished
        if not (0.0 < k1 < a and 0.0 < k2 < a):
            continue
        if abs(closed_loop(a, k1, k2)) >= 1.0:
            continue
        candidates.append((k1, k2))
    return _dedup(fnorm, candidates)


def _flagged_cells(fnorm: NormalizedGame, nodes: list[float]) -> list[tuple[int, int]]:
    """Row-major (i, j) of the cells of the node grid nodes x nodes (k1 down
    the rows, k2 across the columns) where both residual surfaces, evaluated
    by `residuals` at every node, straddle zero: their four corners are not
    all > 0 or all < 0.  A zero or NaN corner straddles."""
    # one table of signs per surface; a NaN's sign reads 0
    surfaces = ([], [])
    for k1 in nodes:
        rho = [residuals(fnorm, k1, k2) for k2 in nodes]
        for m, surface in enumerate(surfaces):
            surface.append([(v[m] > 0) - (v[m] < 0) for v in rho])

    def straddles(s: list[list[int]], i: int, j: int) -> bool:
        return not s[i][j] == s[i + 1][j] == s[i][j + 1] == s[i + 1][j + 1] != 0

    n = len(nodes) - 1
    return [(i, j) for i in range(n) for j in range(n)
            if straddles(surfaces[0], i, j) and straddles(surfaces[1], i, j)]


def _residual_norm(fnorm: NormalizedGame, k1: float, k2: float) -> float:
    return math.hypot(*residuals(fnorm, k1, k2))


def _dedup(fnorm: NormalizedGame, candidates: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Collapse duplicates, including clusters spread along flat valleys.

    At a multiple root the residual surface is flat to second or third order,
    so independent Newton runs land on nearby but unequal points; two points
    are merged when they are close and the residual at their midpoint is as
    small as at a converged point, keeping the better of the two.
    """
    flat_tol = 1e-10 * _residual_scale(fnorm)
    wide = max(1e-4, 1e-4 * fnorm.a)
    kept: list[tuple[float, float]] = []
    for p in sorted(candidates, key=lambda c: (c[1], c[0])):
        for i, q in enumerate(kept):
            if (abs(p[0] - q[0]) < wide and abs(p[1] - q[1]) < wide
                    and _residual_norm(fnorm, 0.5 * (p[0] + q[0]), 0.5 * (p[1] + q[1])) <= flat_tol):
                if _residual_norm(fnorm, *p) < _residual_norm(fnorm, *q):
                    kept[i] = p
                break
        else:
            kept.append(p)
    kept.sort(key=lambda c: (c[1], c[0]))
    return kept


def stationarity_system(norm: NormalizedGame):
    """Both players' stationarity cubics as dicts {(k1 exponent, k2
    exponent): int}; the first half of `scaled_stationarity_system`."""
    return scaled_stationarity_system(norm)[0]


def scaled_stationarity_system(norm: NormalizedGame):
    """Both stationarity cubics on integers, and the factors (D_1, D_2) that
    scale them.

    Player i's residual

        r_i k_i^2 (a - k_j) + (r_i + q_i - r_i (a - k_j)^2) k_i - q_i (a - k_j)

    is multiplied by the positive integer D_i = den(a)^2 den(q_i) den(r_i),
    which clears every denominator and moves no root.  These are the inputs
    the Buchberger engine triangularizes and the direct resultant eliminates
    k1 from; their common stabilizing roots are exactly the Nash equilibria.
    Assembled from the exact parameters' numerators and denominators,
    independently of `solver.build_g`; a coefficient may be zero.
    """
    d1, own1 = _scaled_cubic(norm.a, norm.q1, norm.r1)
    d2, own2 = _scaled_cubic(norm.a, norm.q2, norm.r2)
    return [own1, {(j, i): c for (i, j), c in own2.items()}], (d1, d2)


def _scaled_cubic(a: Fraction, q: Fraction, r: Fraction):
    """D = den(a)^2 den(q) den(r) and D times one player's residual, as
    {(own exponent, other exponent): coefficient}."""
    an, ad, qn, qd = a.numerator, a.denominator, q.numerator, q.denominator
    rn, rd = r.numerator, r.denominator
    d = ad * ad * qd * rd
    r_d = rn * (d // rd)  # r D
    ar_d = an * rn * (d // (ad * rd))  # a r D
    q_d = qn * (d // qd)  # q D
    return d, {
        (2, 1): -r_d, (2, 0): ar_d, (1, 2): -r_d, (1, 1): 2 * ar_d,
        (1, 0): r_d + q_d - an * an * rn * (d // (ad * ad * rd)),  # (r + q - a^2 r) D
        (0, 1): q_d,
        (0, 0): -an * qn * (d // (ad * qd)),  # -a q D
    }


def resultant_elimination(norm: NormalizedGame) -> UniPoly:
    """Eliminate k1 from the two residual cubics by a direct resultant.

    The result is a polynomial in k2 whose roots include every equilibrium
    k2, computed exactly from the same stationarity system the Buchberger
    engine triangularizes; it is the solver's quintic `build_g` itself.
    `scaled_stationarity_system` gives each cubic on integers, scaled by
    D_i; the determinant is homogeneous of degree two in each cubic, so one
    exact division by (D1 D2)^2 undoes the scaling.
    """
    system, (d1, d2) = scaled_stationarity_system(norm)
    # the 4x4 Sylvester determinant of two quadratics in k1, in closed form
    e, d, f = _eliminants(system)
    res = _det2(e, d, f, e)
    scale = (d1 * d2) ** 2
    return UniPoly(Fraction(v, scale) for v in res)


def _eliminants(system):
    """E, D and F of the two integer residual cubics of `system` as
    quadratics in k1: with A2 k1^2 + A1 k1 + A0 and B2 k1^2 + B1 k1 + B0,
    E = A2 B0 - A0 B2, D = A2 B1 - A1 B2 and F = A1 B0 - A0 B1, each a list
    of integer coefficients in ascending powers of k2.  Their resultant in
    k1 is E^2 - D F, and where D != 0 a common root has D k1 + E = 0."""
    p1, p2 = system
    a2, a1, a0 = _k1_coefficients(p1)
    b2, b1, b0 = _k1_coefficients(p2)
    return _det2(a2, a0, b2, b0), _det2(a2, a1, b2, b1), _det2(a1, a0, b1, b0)


def _k1_coefficients(p) -> list[list[int]]:
    """The coefficients of k1^2, k1 and 1 in the integer polynomial p, as
    lists in ascending powers of k2 (both residuals are quadratic in each
    gain; exponent pairs are (k1, k2))."""
    by_power = [[0] * 3 for _ in range(3)]
    for (i, j), c in p.items():
        by_power[i][j] = c
    return by_power[::-1]


def _det2(x: list[int], y: list[int], u: list[int], v: list[int]) -> list[int]:
    """x v - y u for integer polynomials in k2, with len(x) == len(y) and
    len(u) == len(v)."""
    out = [0] * (len(x) + len(v) - 1)
    for i in range(len(x)):
        for j in range(len(v)):
            out[i + j] += x[i] * v[j] - y[i] * u[j]
    return out


class TarskiQueries:
    """The equilibria counted and located exactly, by sign conditions at the
    real roots of the resultant g = E^2 - D F of the integer stationarity
    system (`_eliminants`), on integers only and with no part of the solver.

    Where D != 0 at a root of g, the common root has k1 = -E/D.  It is an
    equilibrium exactly when each gain is its player's stabilizing root: the
    two roots of a player's quadratic have product -q/r < 0, and the
    stabilizing one has the sign of the open-loop gain it faces.  So the
    conditions are c1 = k1 (a - k2) > 0 and c2 = k2 (a - k1) > 0, which
    times den(a) D^2 > 0 are the polynomials -E D (a - k2) and
    k2 (a D + E) D in k2.  The Tarski query TaQ(c) = sum of sign c(x) over
    the real roots x of g is the Cauchy index of g' c / g, the sign
    variations from -inf to +inf of the signed remainder sequence of
    (g, g' c mod g) (Sturm-Tarski; Basu, Pollack & Roy, *Algorithms in Real
    Algebraic Geometry*, ch. 2 and 10); between two points that are not
    roots of g it sums over the roots in between.  Each element here is a
    positive multiple of the classical one, so every variation is the same.

    Player 1's best response to k2 is the positive root k+(alpha) of
    Q(k; alpha) = r alpha k^2 + (r + q - r alpha^2) k - q alpha, for
    alpha = a - k2 > 0, and k+ increases with alpha: dQ/dalpha =
    r k (k - 2 alpha) - q < 0 and dQ/dk > 0 at 0 < k+ < alpha (Q(0) < 0 <
    Q(alpha) = r alpha), so dk+/dalpha = -(dQ/dalpha) / (dQ/dk) > 0.
    """

    def __init__(self, norm: NormalizedGame):
        e, d, f = _eliminants(stationarity_system(norm))
        g = _primitive(_det2(e, d, f, e))
        self.g = g if g[-1] > 0 else [-c for c in g]
        self.dg = [i * c for i, c in enumerate(self.g)][1:]
        an, ad = norm.a.numerator, norm.a.denominator
        # c1 and c2, each reduced to a positive multiple of itself mod g
        self.conditions = [_rem(c, self.g) for c in (
            _mul(_mul(e, d), [-an, ad]),
            _mul([0, 1], _mul([an * x + ad * y for x, y in zip(d, e)], d)))]
        self.roots = _remainder_sequence(self.g, self.dg)
        self.sequences = [self._query(c) for c in self.conditions]
        self.norm = norm

    def _query(self, c: list[int]) -> list[list[int]]:
        """The sequence whose variations give the Tarski query of c."""
        return _remainder_sequence(self.g, _rem(_mul(self.dg, c), self.g))

    def count(self) -> tuple[int, int] | None:
        """(equilibria, distinct real roots of g), or None when c1 or c2
        vanishes at a real root of g, where the sign conditions do not
        decide.  The count is [TaQ(1) + TaQ(c1) + TaQ(c2) + TaQ(c1 c2)] / 4,
        which counts each root where both conditions are positive once.
        """
        roots = _query_value(self.roots)
        for c, seq in zip(self.conditions, self.sequences):
            # a constant last element is gcd(g, g' c) = 1: c vanishes at no root of g
            if len(seq[-1]) > 1 and _query_value(self._query(_mul(c, c))) != roots:
                return None
        both = self._query(_rem(_mul(*self.conditions), self.g))
        total = roots + sum(map(_query_value, self.sequences)) + _query_value(both)
        return total // 4, roots

    def locate(self, k1: float, k2: float, half_width: float, tol: float) -> str | None:
        """None when an equilibrium lies within `half_width` of k2 and `tol`
        of k1, otherwise what fails; call it only once `count` has decided.

        The interval of that half-width around k2 is halved until it holds
        exactly one root of g, with g nonzero at both ends.  The sequences of
        c1 and c2 read off the signs at that root, which must be +1.  Then
        Q(k1 - tol; a - hi) < 0 and Q(k1 + tol; a - lo) > 0 put the root's
        k+(a - k2) strictly within tol of k1; while they do not hold, the
        interval is bisected with the sequence of g.
        """
        # points of k2 are numerators over the power of two `den`
        x, den = k2.as_integer_ratio()
        w, w_den = half_width.as_integer_ratio()
        x, w, den = _common_denominator(x, den, w, w_den)
        while True:
            lo, hi = x - w, x + w
            at_lo, at_hi = _signs(self.roots, lo, den), _signs(self.roots, hi, den)
            # the variations count the roots between ends that are not roots
            if at_lo[0] and at_hi[0]:
                n = _variations(at_lo) - _variations(at_hi)
                if n == 0:
                    return f"no root of the quintic within {half_width:.3g} of k2"
                if n == 1:
                    break
            x, den = 2 * x, 2 * den
        if any(_variations(_signs(seq, lo, den)) - _variations(_signs(seq, hi, den)) != 1
               for seq in self.sequences):
            return "the quintic's root near k2 is not an equilibrium"
        k, k_den = k1.as_integer_ratio()
        t, t_den = tol.as_integer_ratio()
        k, t, k_den = _common_denominator(k, k_den, t, t_den)
        an, ad = self.norm.a.numerator, self.norm.a.denominator
        for _ in range(K1_BISECTIONS):
            # alpha = a - k2 at each end, over ad den
            alpha_lo, alpha_hi = an * den - ad * lo, an * den - ad * hi
            if (alpha_hi > 0 and k + t > 0
                    and self._quadratic_sign(k - t, k_den, alpha_hi, ad * den) < 0
                    and self._quadratic_sign(k + t, k_den, alpha_lo, ad * den) > 0):
                return None
            if lo == hi:
                break
            lo, hi, mid, den = 2 * lo, 2 * hi, lo + hi, 2 * den
            at_mid = _signs(self.roots, mid, den)
            if not at_mid[0]:
                lo = hi = mid
            elif _variations(at_lo) - _variations(at_mid) == 1:
                hi = mid
            else:
                lo, at_lo = mid, at_mid
        return f"k1 not within {tol:.3g} of the equilibrium's k1"

    def _quadratic_sign(self, k: int, k_den: int, alpha: int, alpha_den: int) -> int:
        """The sign of player 1's Q(k / k_den; alpha / alpha_den), on integers:
        Q times den(q1) den(r1) alpha_den^2 k_den^2 > 0."""
        q, r = self.norm.q1, self.norm.r1
        rq, qr = r.numerator * q.denominator, q.numerator * r.denominator
        sq = alpha_den * alpha_den
        v = (rq * alpha * alpha_den * k * k + ((rq + qr) * sq - rq * alpha * alpha) * k * k_den
             - qr * alpha * alpha_den * k_den * k_den)
        return (v > 0) - (v < 0)


def _common_denominator(x: int, x_den: int, y: int, y_den: int) -> tuple[int, int, int]:
    """x / x_den and y / y_den as numerators over one power of two, for
    denominators that are powers of two."""
    den = max(x_den, y_den)
    return x * (den // x_den), y * (den // y_den), den


def _mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _primitive(p: list[int]) -> list[int]:
    """p without trailing zeros, divided by the positive gcd of its coefficients."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    content = math.gcd(*p)
    return [c // content for c in p] if content > 1 else p


def _rem(p: list[int], b: list[int]) -> list[int]:
    """A positive multiple of p mod b, primitive: each pseudo-division step
    multiplies by |lc(b)| > 0."""
    db, lb = len(b) - 1, b[-1]
    scale, sign = abs(lb), (1 if lb > 0 else -1)
    r = list(p)
    for i in range(len(r) - 1 - db, -1, -1):
        lead = sign * r[i + db]
        if lead:
            if scale != 1:
                r = [c * scale for c in r]
            for j, c in enumerate(b):
                r[i + j] -= lead * c
    return _primitive(r)


def _remainder_sequence(g: list[int], r: list[int]) -> list[list[int]]:
    """The signed remainder sequence g, r, -(g mod r), ..., each element a
    positive multiple of the classical one; r may be zero."""
    seq = [g]
    while r:
        seq.append(r)
        r = [-c for c in _rem(seq[-2], r)]
    return seq


def _signs(seq: list[list[int]], num: int, den: int) -> list[int]:
    """Signs of the sequence's elements at num / den (den > 0), exactly:
    each is evaluated times den^degree, on integers."""
    out = []
    for p in seq:
        acc, power = 0, 1
        for c in reversed(p):
            acc = acc * num + c * power
            power *= den
        out.append((acc > 0) - (acc < 0))
    return out


def _variations(signs: list[int]) -> int:
    nonzero = [s for s in signs if s]
    return sum(s != t for s, t in zip(nonzero, nonzero[1:]))


def _query_value(seq: list[list[int]]) -> int:
    """The Tarski query the sequence gives: its variations at -inf less those at +inf."""
    at_plus = [(p[-1] > 0) - (p[-1] < 0) for p in seq]
    at_minus = [s if len(p) % 2 else -s for s, p in zip(at_plus, seq)]
    return _variations(at_minus) - _variations(at_plus)


class TrajectorySample(NamedTuple):
    """The step t of `simulate_cost`: state, both controls and both partial costs."""

    t: int
    x: float
    u1: float
    u2: float
    partial_cost_1: float
    partial_cost_2: float


def simulate_cost(fnorm: NormalizedGame, k1: float, k2: float, horizon: int) -> TrajectorySample:
    """Roll the closed loop forward, accumulating both players' stage costs
    over the steps t = 0, ..., horizon; returns the sample at t = horizon.
    Runs on the game's float image (an exact game is converted by
    `float_game` first).

    For a stabilizing pair the partial sums approach the closed-form costs
    with a geometric tail; otherwise they diverge, which is also informative.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    fnorm = float_game(fnorm)
    a_cl = float(closed_loop(fnorm.a, k1, k2))
    x = fnorm.x0
    w1 = fnorm.q1 + fnorm.r1 * k1 * k1
    w2 = fnorm.q2 + fnorm.r2 * k2 * k2
    total1 = total2 = 0.0
    for _ in range(horizon):
        total1 += w1 * x * x
        total2 += w2 * x * x
        x = a_cl * x
    total1 += w1 * x * x
    total2 += w2 * x * x
    return TrajectorySample(horizon, x, -k1 * x, -k2 * x, total1, total2)
