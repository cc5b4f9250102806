"""Textbook routes the tests check lqnash against; none of them runs in lqnash."""

import dataclasses
import math
from fractions import Fraction

from lqnash.exactalg import RationalLike, SturmSequence, UniPoly
from lqnash.game import GameParams, NormalizedGame, best_gain, closed_loop, float_game, residuals
from lqnash.groebner import (
    Monomial,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)
from lqnash.oracle import BrIterationResult, TrajectorySample
from lqnash.solver import fold_game, pitchfork_game


def poly_mul(p: UniPoly, q: UniPoly) -> UniPoly:
    out = [0] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return UniPoly(out)


def from_roots(roots: list[RationalLike]) -> UniPoly:
    p = UniPoly((1,))
    for r in roots:
        p = poly_mul(p, UniPoly((-Fraction(r), 1)))
    return p


def scale(p: UniPoly, c: RationalLike) -> UniPoly:
    return UniPoly(Fraction(c) * x for x in p.coeffs)


def poly_eval(p: UniPoly, x: RationalLike) -> Fraction:
    """Exact Horner evaluation of p at a rational point."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def poly_derivative(p: UniPoly) -> UniPoly:
    """Formal derivative; drops the degree by one for nonconstant input."""
    return UniPoly(i * c for i, c in enumerate(p.coeffs) if i > 0)


def poly_divmod(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Quotient and remainder of exact division in Q[x]."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    db, lb = b.degree, b.coeffs[-1]
    if a.degree < db:
        return UniPoly(), a
    quot = [Fraction(0)] * (a.degree - db + 1)
    for i in range(a.degree - db, -1, -1):
        c = rem[i + db] / lb
        if c != 0:
            quot[i] = c
            for j, bc in enumerate(b.coeffs):
                rem[i + j] -= c * bc
        rem[i + db] = Fraction(0)
    return UniPoly(quot), UniPoly(rem)


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic greatest common divisor in Q[x] (constant 1 when coprime)."""
    while not b.is_zero:
        a, b = b, poly_divmod(a, b)[1]
    if a.is_zero:
        return a
    return a.monic()


def square_free_part(p: UniPoly) -> UniPoly:
    """p divided by gcd(p, p'): same roots, all multiplicities one."""
    if p.degree <= 0:
        return p
    g = poly_gcd(p, poly_derivative(p))
    if g.degree == 0:
        return p
    return poly_divmod(p, g)[0]


def sylvester_matrix(A: UniPoly, B: UniPoly) -> list[list[Fraction]]:
    """(m+n) x (m+n) Sylvester matrix: n shifted rows of A, then m rows of B."""
    if A.is_zero or B.is_zero:
        raise ValueError("sylvester_matrix requires nonzero polynomials")
    m, n = A.degree, B.degree
    if m < 1 or n < 1:
        raise ValueError("sylvester_matrix requires degree >= 1 on both sides")
    size = m + n
    rows = []
    ac = list(reversed(A.coeffs))
    bc = list(reversed(B.coeffs))
    for i in range(n):
        rows.append([Fraction(0)] * i + ac + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + bc + [Fraction(0)] * (size - n - 1 - i))
    return rows


def _bareiss_det_int(m: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def matrix_determinant(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant of a rational matrix via row-scaled Bareiss elimination."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    int_rows = []
    for row in rows:
        den = math.lcm(*(Fraction(c).denominator for c in row)) if row else 1
        scale /= den
        int_rows.append([int(Fraction(c) * den) for c in row])
    return Fraction(_bareiss_det_int(int_rows)) * scale


def resultant(A: UniPoly, B: UniPoly) -> Fraction:
    """Resultant as the exact Sylvester determinant."""
    return matrix_determinant(sylvester_matrix(A, B))


def discriminant(p: UniPoly) -> Fraction:
    """(-1)^(n(n-1)/2) * Res(p, p') / lc(p), exact; requires degree >= 2."""
    if p.degree < 2:
        raise ValueError("discriminant requires degree >= 2")
    return SturmSequence(p).discriminant


def h_eval(norm: NormalizedGame, x: float) -> float:
    """br1(br2(x)) - x: positive at 0 and negative at a, so it has a zero, an equilibrium k1."""
    a, q1, q2, r1, r2 = (float(v) for v in (norm.a, norm.q1, norm.q2, norm.r1, norm.r2))
    return best_gain(a - best_gain(a - x, q2, r2), q1, r1) - x


def lex_compare(m1: tuple[int, int], m2: tuple[int, int]) -> int:
    """-1, 0 or +1 comparing exponent pairs lexicographically, k1 before k2."""
    if m1 == m2:
        return 0
    return 1 if m1 > m2 else -1


# The stationarity system as lqnash built it over Fractions, before it
# assembled integer multiples of the two cubics from numerators and
# denominators.  Bivariate polynomials are {(k1 exponent, k2 exponent):
# coefficient} dicts, as in lqnash.groebner.


def stationarity_cubics(norm: NormalizedGame) -> list[dict[Monomial, Fraction]]:
    """Both players' stationarity cubics with exact rational coefficients,
    one of which may be zero."""
    a = Fraction(norm.a)
    q1, q2 = Fraction(norm.q1), Fraction(norm.q2)
    r1, r2 = Fraction(norm.r1), Fraction(norm.r2)
    p1 = {
        (2, 1): -r1, (2, 0): a * r1, (1, 2): -r1, (1, 1): 2 * a * r1,
        (1, 0): r1 + q1 - a * a * r1, (0, 1): q1, (0, 0): -a * q1,
    }
    p2 = {
        (1, 2): -r2, (0, 2): a * r2, (2, 1): -r2, (1, 1): 2 * a * r2,
        (0, 1): r2 + q2 - a * a * r2, (1, 0): q2, (0, 0): -a * q2,
    }
    return [p1, p2]


def stationarity_scale(norm: NormalizedGame, player: int) -> int:
    """D_i = den(a)^2 den(q_i) den(r_i) of player i's cubic."""
    q, r = (norm.q1, norm.r1) if player == 1 else (norm.q2, norm.r2)
    return Fraction(norm.a).denominator ** 2 * Fraction(q).denominator * Fraction(r).denominator


# The Buchberger engine as lqnash ran it over Fractions: the textbook
# division and S-polynomial, each normalizing to monic as it goes.  The
# leading monomial of a polynomial without zero terms is max(f).


def _monic(f: dict) -> dict:
    lc = f[max(f)]
    return {m: Fraction(c, lc) for m, c in f.items()}


def s_polynomial(f: dict, g: dict) -> dict:
    """Leading-term cancelling combination (L/lt(f)) f - (L/lt(g)) g."""
    if not f or not g:
        raise ValueError("s_polynomial requires nonzero polynomials")
    lcm = monomial_lcm(max(f), max(g))
    out: dict[Monomial, Fraction] = {}
    for p, sign in ((_monic(f), 1), (_monic(g), -1)):
        shift = monomial_div(lcm, max(p))
        for m, c in p.items():
            t = monomial_mul(m, shift)
            out[t] = out.get(t, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def reduce(f: dict, basis: list[dict]) -> dict:
    """Multivariate division remainder of f by the basis.

    No term of the result is divisible by any basis leading monomial, and the
    difference f - result lies in the ideal generated by the basis.
    """
    if not all(basis):
        raise ValueError("reduce requires nonzero basis members")
    lead = [(max(g), g) for g in basis]
    rem: dict[Monomial, Fraction] = {}
    work = dict(f)
    while work:
        m = max(work)
        c = work.pop(m)
        if c == 0:
            continue
        for lm, g in lead:
            if monomial_divides(lm, m):
                factor = Fraction(c, g[lm])
                shift = monomial_div(m, lm)
                for gm, gc in g.items():
                    if gm == lm:
                        continue
                    t = monomial_mul(gm, shift)
                    v = work.get(t, Fraction(0)) - factor * gc
                    if v == 0:
                        work.pop(t, None)
                    else:
                        work[t] = v
                break
        else:
            rem[m] = rem.get(m, Fraction(0)) + c
    return rem


def _pair_key(lmi: Monomial, lmj: Monomial) -> tuple:
    lcm = monomial_lcm(lmi, lmj)
    return (lcm[0] + lcm[1], lcm)


def buchberger(system: list[dict]) -> list[dict]:
    """Reduced Groebner basis of the input system (lex, k1 > k2).

    Pairs are processed in normal (lowest lcm degree) order and pruned with
    the product and chain criteria; the output is autoreduced with monic
    leading coefficients and sorted by ascending leading monomial.  Zero
    terms of the input are dropped first.
    """
    basis = [_monic(f) for f in ({m: c for m, c in f.items() if c} for f in system) if f]
    if not basis:
        raise ValueError("buchberger requires a nonempty system of nonzero polynomials")
    pending: set[tuple[int, int]] = set()
    for i in range(len(basis)):
        for j in range(i):
            pending.add((j, i))

    def chain_criterion(i: int, j: int) -> bool:
        lcm = monomial_lcm(max(basis[i]), max(basis[j]))
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if not monomial_divides(max(basis[k]), lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pending and b not in pending:
                return True
        return False

    while pending:
        i, j = min(pending, key=lambda p: _pair_key(max(basis[p[0]]), max(basis[p[1]])))
        pending.discard((i, j))
        lmi, lmj = max(basis[i]), max(basis[j])
        if monomial_lcm(lmi, lmj) == monomial_mul(lmi, lmj):
            continue  # product criterion: coprime leading monomials
        if chain_criterion(i, j):
            continue
        r = reduce(s_polynomial(basis[i], basis[j]), basis)
        if not r:
            continue
        basis.append(_monic(r))
        new = len(basis) - 1
        for k in range(new):
            pending.add((k, new))

    return _autoreduce(basis)


def _autoreduce(basis: list[dict]) -> list[dict]:
    lms = [max(g) for g in basis]
    minimal = []
    for i, g in enumerate(basis):
        if any(
            j != i and monomial_divides(lms[j], lms[i])
            and (lms[j] != lms[i] or j < i)
            for j in range(len(basis))
        ):
            continue
        minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = reduce(g, others) if others else g
        if r:
            reduced.append(_monic(r))
    reduced.sort(key=max)
    return reduced


def flagged_cells(fnorm: NormalizedGame, nodes: list[float]) -> list[tuple[int, int]]:
    """The grid scan's flagged cells by their definition, cell by cell: both
    residual surfaces, evaluated by `residuals` at every node, have four
    corners that are not all > 0 or all < 0 (a NaN corner is neither)."""
    surfaces = ([], [])
    for k1 in nodes:
        rho = [residuals(fnorm, k1, k2) for k2 in nodes]
        for m, surface in enumerate(surfaces):
            surface.append([(v[m] > 0) - (v[m] < 0) for v in rho])

    def straddles(surface, i, j):
        corners = {surface[i][j], surface[i + 1][j], surface[i][j + 1], surface[i + 1][j + 1]}
        return corners != {1} and corners != {-1}

    n = len(nodes) - 1
    return [(i, j) for i in range(n) for j in range(n)
            if straddles(surfaces[0], i, j) and straddles(surfaces[1], i, j)]


# Best-response iteration as lqnash once ran it, restated with one
# `br(i, k_other)` per player, whose iterates and sign-change certificate the
# library's iteration must reproduce bit for bit.


def br_iteration(norm: NormalizedGame, k_start: float, max_iter: int, tol: float) -> BrIterationResult:
    norm = float_game(norm)

    def br(i, k_other):
        q, r = (norm.q1, norm.r1) if i == 1 else (norm.q2, norm.r2)
        return best_gain(norm.a - k_other, q, r)

    x = float(k_start)
    for it in range(1, max_iter + 1):
        nxt = br(1, br(2, x))
        if abs(nxt - x) < tol:
            lo, hi = nxt - 100.0 * tol, nxt + 100.0 * tol
            g_lo, g_hi = br(1, br(2, lo)) - lo, br(1, br(2, hi)) - hi
            return BrIterationResult(g_lo <= 0.0 <= g_hi or g_hi <= 0.0 <= g_lo, nxt, br(2, nxt), it)
        x = nxt
    return BrIterationResult(False, x, br(2, x), max_iter)


def trajectory(norm: NormalizedGame, k1: float, k2: float, horizon: int) -> list[TrajectorySample]:
    """Every step t = 0, ..., horizon of `simulate_cost`'s roll-out, as it
    once returned them all."""
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
        out.append(TrajectorySample(t, x, -k1 * x, -k2 * x, total1, total2))
        x = a_cl * x
    return out


def near_locus_bases() -> list[GameParams]:
    """The four pitchfork and five fold games that `near_locus_games`
    perturbs, on the locus itself."""
    bases = [pitchfork_game(Fraction(s))[0] for s in ("4/3", "3/4", "5/12", "12/5")]
    return bases + [fold_game(Fraction(c), Fraction(k1))[0]
                    for c, k1 in (("1/2", "1/2"), ("1/2", "1"), ("2/5", "3/2"), ("3/5", "1/2"), ("1/5", "2"))]


def near_locus_games() -> list[GameParams]:
    """378 games next to the fold and pitchfork locus, where the composed
    best-response map's slope is near 1 and roots crowd together: each of
    `near_locus_bases` with one of a, q1 and r2 multiplied by 1 + 2^-e or
    1 - 2^-e, e in {8, 12, 16, 24, 32, 40, 48}."""
    return [dataclasses.replace(base, **{name: getattr(base, name) * (1 + sign * Fraction(1, 2**e))})
            for base in near_locus_bases() for name in ("a", "q1", "r2") for sign in (1, -1)
            for e in (8, 12, 16, 24, 32, 40, 48)]
