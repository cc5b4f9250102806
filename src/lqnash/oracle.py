"""Brute-force verification paths that never touch the elimination quintic:
best-response iteration, residual grid scanning with Newton polish, direct
resultant elimination, and trajectory cost simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactalg import UniPoly
from .game import (
    NormalizedGame,
    best_gain,
    closed_loop,
    float_game,
    residuals,
)
from .solver import stationarity_system

GRID_DEFAULT = 512
# grid_scan evaluates the residual surfaces this many cell rows at a time:
# each float temporary of a block then holds 65 x 513 doubles, about 260 KB,
# which stays in cache, where whole 513 x 513 surfaces would spill about ten
# 2 MB temporaries to memory.  Every cell's flag is the same bit either way.
GRID_BLOCK_ROWS = 64
NEWTON_MAX_ITER = 50
DEDUP_TOL = 1e-6


class SharedComponentError(Exception):
    """The two residual cubics share a component (resultant identically zero)."""


@dataclass(frozen=True)
class BrIterationResult:
    converged: bool
    k1: float
    k2: float
    iterations: int


def br_iteration(
    norm: NormalizedGame, k_start: float, max_iter: int = 200, tol: float = 1e-12
) -> BrIterationResult:
    """Fixed-point iteration x <- br1(br2(x)) from a starting gain.

    Non-convergence is a legitimate outcome, reported rather than raised: the
    composed map need not contract near every equilibrium.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be > 0")
    fnorm = float_game(norm)
    a, q1, r1, q2, r2 = fnorm.a, fnorm.q1, fnorm.r1, fnorm.q2, fnorm.r2
    x = float(k_start)
    for it in range(1, max_iter + 1):
        nxt = best_gain(a - best_gain(a - x, q2, r2)[0], q1, r1)[0]
        if abs(nxt - x) < tol:
            return BrIterationResult(True, nxt, best_gain(a - nxt, q2, r2)[0], it)
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
    """Damped two-dimensional Newton on the residual pair."""
    scale = _residual_scale(fnorm)
    rho1, rho2 = residuals(fnorm, k1, k2)
    norm_prev = math.hypot(rho1, rho2)
    for _ in range(NEWTON_MAX_ITER):
        if norm_prev <= 1e-14 * scale:
            return k1, k2
        j11, j12, j21, j22 = _jacobian(fnorm, k1, k2)
        det = j11 * j22 - j12 * j21
        if det == 0 or not math.isfinite(det):
            return None
        dk1 = (-rho1 * j22 + rho2 * j12) / det
        dk2 = (-rho2 * j11 + rho1 * j21) / det
        step = 1.0
        while True:
            t1, t2 = k1 + step * dk1, k2 + step * dk2
            rho1, rho2 = residuals(fnorm, t1, t2)
            norm_new = math.hypot(rho1, rho2)
            if norm_new < norm_prev or step < 1e-8:
                break
            step *= 0.5  # damping on residual increase
        k1, k2, norm_prev = t1, t2, norm_new
    return (k1, k2) if norm_prev <= 1e-10 * scale else None


def grid_scan(norm: NormalizedGame, n: int = GRID_DEFAULT) -> list[tuple[float, float]]:
    """Equilibrium approximations from sign changes of both residual surfaces.

    Scans the n x n cell grid covering (0, a)^2 (nodes include the boundary,
    where no equilibrium can sit, so edge-hugging roots are still bracketed),
    polishes every flagged cell with damped Newton, deduplicates, and keeps
    stabilizing pairs.  Output is deterministic, ordered by ascending k2
    then k1.  All of it runs on the game rounded once to doubles.
    """
    # numpy is imported here, its only use, so that `solve` and `sweep`
    # through the CLI never load it
    import numpy as np

    if n < 16:
        raise ValueError("grid resolution must be at least 16")
    fnorm = float_game(norm)
    a = fnorm.a
    xs = a * np.arange(0, n + 1) / n
    nodes = xs.tolist()
    candidates: list[tuple[float, float]] = []
    for i, j in _flagged_cells(fnorm, xs):
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


def _flagged_cells(fnorm: NormalizedGame, xs) -> list[tuple[int, int]]:
    """Row-major (i, j) of the cells of the node grid xs x xs where both
    residual surfaces straddle zero, evaluated GRID_BLOCK_ROWS cell rows at
    a time."""
    flagged = []
    for top in range(0, len(xs) - 1, GRID_BLOCK_ROWS):
        # cell rows top .. top + GRID_BLOCK_ROWS - 1 span one more node row
        R1, R2 = residuals(fnorm, xs[top:top + GRID_BLOCK_ROWS + 1, None], xs[None, :])
        rows, cols = (_straddles_zero(R1) & _straddles_zero(R2)).nonzero()
        flagged.extend(zip((rows + top).tolist(), cols.tolist()))
    return flagged


def _straddles_zero(R):
    """Cells of the node grid R whose four corners are not all > 0 or all < 0."""
    pos, neg = R > 0, R < 0
    pos = pos[:-1] & pos[1:]
    neg = neg[:-1] & neg[1:]
    return ~((pos[:, :-1] & pos[:, 1:]) | (neg[:, :-1] & neg[:, 1:]))


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
        merged = False
        for i, q in enumerate(kept):
            near = abs(p[0] - q[0]) < DEDUP_TOL and abs(p[1] - q[1]) < DEDUP_TOL
            if not near and abs(p[0] - q[0]) < wide and abs(p[1] - q[1]) < wide:
                mid = (0.5 * (p[0] + q[0]), 0.5 * (p[1] + q[1]))
                near = _residual_norm(fnorm, *mid) <= flat_tol
            if near:
                if _residual_norm(fnorm, *p) < _residual_norm(fnorm, *q):
                    kept[i] = p
                merged = True
                break
        if not merged:
            kept.append(p)
    kept.sort(key=lambda c: (c[1], c[0]))
    return kept


def resultant_elimination(norm: NormalizedGame) -> UniPoly:
    """Eliminate k1 from the two residual cubics by a direct resultant.

    The result is a univariate polynomial in k2 of degree at most nine whose
    roots include every equilibrium k2; computed exactly over rationals from
    the same stationarity system the Buchberger engine triangularizes.
    """
    p1, p2 = stationarity_system(norm)
    a2, a1, a0 = _k1_coefficients(p1)
    b2, b1, b0 = _k1_coefficients(p2)
    # the 4x4 Sylvester determinant of two quadratics in k1, in closed form
    c = a2 * b0 - a0 * b2
    res = c * c - (a2 * b1 - a1 * b2) * (a1 * b0 - a0 * b1)
    if res.is_zero:
        raise SharedComponentError("residual cubics share a component")
    return res


def _k1_coefficients(p) -> tuple[UniPoly, UniPoly, UniPoly]:
    """The coefficients of k1^2, k1 and 1 in p, each a polynomial in k2.

    Both residuals are quadratic in each gain, so three by three slots hold
    every term of the MultiPoly (exponent pairs are (k1, k2)).
    """
    by_power = [[Fraction(0)] * 3 for _ in range(3)]
    for (i, j), c in p.terms.items():
        by_power[i][j] = c
    return UniPoly(by_power[2]), UniPoly(by_power[1]), UniPoly(by_power[0])


@dataclass(frozen=True)
class TrajectorySample:
    t: int
    x: float
    u1: float
    u2: float
    partial_cost_1: float
    partial_cost_2: float


def simulate_cost(norm: NormalizedGame, k1: float, k2: float, horizon: int) -> list[TrajectorySample]:
    """Roll the closed loop forward, accumulating both players' stage costs.

    For a stabilizing pair the partial sums approach the closed-form costs
    with a geometric tail; otherwise they diverge, which is also informative.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    norm = float_game(norm)
    a_cl = float(closed_loop(norm.a, k1, k2))
    x = norm.x0
    w1 = norm.q1 + norm.r1 * k1 * k1
    w2 = norm.q2 + norm.r2 * k2 * k2
    total1 = total2 = 0.0
    out = []
    for t in range(horizon + 1):
        total1 += w1 * x * x
        total2 += w2 * x * x
        out.append(
            TrajectorySample(
                t=t, x=x, u1=-k1 * x, u2=-k2 * x, partial_cost_1=total1, partial_cost_2=total2
            )
        )
        x = a_cl * x
    return out
