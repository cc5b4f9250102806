"""Brute-force verification paths: best-response iteration, residual grid
scanning with plain Newton polish, direct resultant elimination, and trajectory
cost simulation.
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
from .solver import scaled_stationarity_system

GRID_DEFAULT = 512
# _flagged_cells splits a box of cells until neither side is longer than
# this, then reads the flags of its cells off the residuals at its nodes.
GRID_LEAF = 3
# _box_sign's allowance for rounding: 16u relative (u = 2^-53) to the terms'
# magnitude, plus an absolute floor, scaled per game, for underflow.
_RELATIVE_SLACK = 2.0**-49
_UNDERFLOW_SLACK = 2.0**-1060
# A surface is bounded only while the magnitude `big` of _underflow_floor is
# at most this, so that no value four times `big` can overflow; otherwise
# that surface never drops a box.
_HEADROOM = 2.0**1020
NEWTON_MAX_ITER = 50


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

    Each best response is `best_gain`'s gain, computed inline with the same
    float operations in the same order, so the iterates are its bits.
    A step below `tol` converges only when g(x) = br1(br2(x)) - x, by
    `best_gain`, changes sign across [x - 100 tol, x + 100 tol]: where the
    composed map's slope is near 1, small steps say nothing of the distance
    to a fixed point.  Non-convergence is a legitimate outcome, reported rather than
    raised: the composed map need not contract near every equilibrium.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be > 0")
    fnorm = float_game(fnorm)
    a, q1, r1, q2, r2 = fnorm.a, fnorm.q1, fnorm.r1, fnorm.q2, fnorm.r2
    # best_gain's per-call constants 4 q r and 2 r
    qr1, qr2 = 4.0 * q1 * r1, 4.0 * q2 * r2
    two_r1, two_r2 = 2.0 * r1, 2.0 * r2
    sqrt = math.sqrt

    def g(x):
        return best_gain(a - best_gain(a - x, q2, r2)[0], q1, r1)[0] - x

    x = float(k_start)
    for it in range(1, max_iter + 1):
        alpha = a - x
        m = (alpha * alpha - 1.0) * r2 + q2
        s = m * m + qr2
        root = sqrt(s)
        plus = m + root if m >= 0 else (s - m * m) / (root - m)
        k2 = alpha * plus / (plus + two_r2)
        alpha = a - k2
        m = (alpha * alpha - 1.0) * r1 + q1
        s = m * m + qr1
        root = sqrt(s)
        plus = m + root if m >= 0 else (s - m * m) / (root - m)
        nxt = alpha * plus / (plus + two_r1)
        if abs(nxt - x) < tol:
            lo, hi = g(nxt - 100.0 * tol), g(nxt + 100.0 * tol)
            return BrIterationResult(lo <= 0.0 <= hi or hi <= 0.0 <= lo, nxt, best_gain(a - nxt, q2, r2)[0], it)
        x = nxt
    return BrIterationResult(False, x, best_gain(a - x, q2, r2)[0], max_iter)


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
    as `residuals` evaluates them, straddle zero: their four corners are not
    all > 0 or all < 0.

    Descends from the whole grid by halving the longer side of a box of
    cells.  A box is dropped when `_box_sign` proves that one surface has
    the same strict sign at all of its nodes, so that none of its cells can
    be flagged; boxes of at most GRID_LEAF cells a side are decided node by
    node, surface 2 only where surface 1 straddles.  A surface whose bounds
    could come near overflow never drops a box.  The flags are those of
    evaluating both surfaces at every node, bit for bit.
    """
    a, q1, q2, r1, r2 = fnorm.a, fnorm.q1, fnorm.q2, fnorm.r1, fnorm.r2
    s1, s2 = r1 + q1, r2 + q2
    n = len(nodes) - 1
    betas = [a - k for k in nodes]
    floor1 = _underflow_floor(a, r1, q1, s1, nodes[n])
    floor2 = _underflow_floor(a, r2, q2, s2, nodes[n])
    flagged = []
    boxes = [(0, n, 0, n)]
    while boxes:
        i0, i1, j0, j1 = boxes.pop()
        if floor1 is not None and _box_sign(r1, q1, s1, floor1, nodes[i0], nodes[i1], betas[j1], betas[j0]):
            continue
        if floor2 is not None and _box_sign(r2, q2, s2, floor2, nodes[j0], nodes[j1], betas[i1], betas[i0]):
            continue
        if i1 - i0 > GRID_LEAF or j1 - j0 > GRID_LEAF:
            if i1 - i0 >= j1 - j0:
                mid = (i0 + i1) // 2
                boxes += ((i0, mid, j0, j1), (mid, i1, j0, j1))
            else:
                mid = (j0 + j1) // 2
                boxes += ((i0, i1, j0, mid), (i0, i1, mid, j1))
            continue
        # rho1 has k1 = nodes[i] and beta1 = betas[j]: sign1[j][i]
        sign1 = _node_signs(nodes[i0:i1 + 1], betas[j0:j1 + 1], r1, q1, s1)
        sign2 = None
        for i in range(i1 - i0):
            for j in range(j1 - j0):
                if _same_strict_sign(sign1[j], sign1[j + 1], i):
                    continue
                if sign2 is None:
                    # rho2 has beta2 = betas[i] and k2 = nodes[j]: sign2[i][j]
                    sign2 = _node_signs(nodes[j0:j1 + 1], betas[i0:i1 + 1], r2, q2, s2)
                if not _same_strict_sign(sign2[i], sign2[i + 1], j):
                    flagged.append((i0 + i, j0 + j))
    flagged.sort()
    return flagged


def _node_signs(ks: list[float], bs: list[float], r: float, q: float, s: float) -> list[list[int]]:
    """Signs (+1, -1, or 0 for zero and NaN) of one residual with s = r + q,
    (b r) k k + (s - b b r) k - b q evaluated and rounded as `residuals`
    does, one row per beta b in bs, one column per k in ks."""
    out = []
    for b in bs:
        b_r, s_b, b_q = b * r, s - b * b * r, b * q
        out.append([(v > 0) - (v < 0) for v in [b_r * k * k + s_b * k - b_q for k in ks]])
    return out


def _same_strict_sign(row: list[int], next_row: list[int], m: int) -> bool:
    """Whether the cell with corners row[m:m + 2] and next_row[m:m + 2] has
    all four corners > 0 or all < 0."""
    c = row[m]
    return c != 0 and c == row[m + 1] == next_row[m] == next_row[m + 1]


def _underflow_floor(a: float, r: float, q: float, s: float, top: float) -> float | None:
    """The absolute allowance `floor` of `_box_sign` for one residual surface
    of the grid whose last node is `top`, or None when that surface's values
    or bounds could overflow.

    With kmax = max(1, a, top), every value that `residuals` or `_box_sign`
    computes on this grid is at most 4 big in size (big below), so none
    overflows while big <= _HEADROOM.  A product that underflows errs by up
    to 2^-1075 absolutely, and later factors scale that by at most
    2 kmax^2 max(1, r); the twenty or so such errors in one decision stay
    below 2^-1069 kmax^2 max(1, r), far under the floor returned.
    """
    kmax = max(1.0, a, top)
    big = r * a * kmax * kmax + s * kmax + r * a * a * kmax + q * a + a * kmax
    if not big <= _HEADROOM:
        return None
    return _UNDERFLOW_SLACK * (kmax * kmax * max(1.0, r))


def _box_sign(r: float, q: float, s: float, floor: float, kl: float, kh: float, bl: float, bh: float) -> int:
    """+1 (-1) when the float residual r b k^2 + (s - b^2 r) k - b q, as
    `residuals` evaluates it, is > 0 (< 0) at every node of a box; 0 when
    that is not proved.

    The box's nodes have k in [kl, kh] and b in [bl, bh], where b =
    fl(a - k') is the beta of the other gain k' and s = fl(r + q), with
    kl >= 0 and r, q > 0.  Read the residual as exact arithmetic on these
    doubles: rho = r b k (k - b) + s k - q b.  When bl >= 0, r b k lies in
    [r bl kl, r bh kh], a range of nonnegative numbers, and k - b in
    [kl - bh, kh - bl], so interval products and sums of corner values give
    L <= rho <= H at every node.  At every node the terms of
    r b k^2 + s k - r b^2 k - q b sum in size to at most
    M = r bh kh (kh + bh) + s kh + q bh, and so do the terms of L and of H.
    `residuals` rounds each of its terms at most six times, and so does the
    computation of L, H and M here; each is therefore within gamma_6 M
    (about 6u M, u = 2^-53) of its exact value.  Hence L > 16 u M proves
    that every node's float residual is > 0, and H < -16 u M that it is
    < 0.  `floor` (see `_underflow_floor`) adds the absolute error of
    products that underflow.  On the grid of `grid_scan` only the last node
    can exceed a, by a rounding; a box with bl < 0 is never decided.
    """
    if not bl >= 0.0:
        return 0
    p_lo = bl * r * kl
    p_hi = bh * r * kh
    d_lo = kl - bh
    d_hi = kh - bl
    lo = (p_hi * d_lo if d_lo < 0.0 else p_lo * d_lo) + s * kl - bh * q
    hi = (p_hi * d_hi if d_hi > 0.0 else p_lo * d_hi) + s * kh - bl * q
    allow = _RELATIVE_SLACK * (p_hi * (kh + bh) + s * kh + bh * q) + floor
    if lo > allow:
        return 1
    if hi < -allow:
        return -1
    return 0


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


def resultant_elimination(norm: NormalizedGame) -> UniPoly:
    """Eliminate k1 from the two residual cubics by a direct resultant.

    The result is a polynomial in k2 whose roots include every equilibrium
    k2, computed exactly from the same stationarity system the Buchberger
    engine triangularizes; it is the solver's quintic `build_g` itself.
    `scaled_stationarity_system` gives each cubic on integers, scaled by
    D_i; the determinant is homogeneous of degree two in each cubic, so one
    exact division by (D1 D2)^2 undoes the scaling.
    """
    (p1, p2), (d1, d2) = scaled_stationarity_system(norm)
    a2, a1, a0 = _k1_coefficients(p1)
    b2, b1, b0 = _k1_coefficients(p2)
    # the 4x4 Sylvester determinant of two quadratics in k1, in closed form:
    # (a2 b0 - a0 b2)^2 - (a2 b1 - a1 b2)(a1 b0 - a0 b1)
    c = _det2(a2, a0, b2, b0)
    res = _det2(c, _det2(a2, a1, b2, b1), _det2(a1, a0, b1, b0), c)
    scale = (d1 * d2) ** 2
    return UniPoly(Fraction(v, scale) for v in res)


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
