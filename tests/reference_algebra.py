"""Textbook routes the tests check lqnash against; none of them runs in lqnash."""

import math
from fractions import Fraction

import numpy as np

from lqnash.exactalg import RationalLike, SturmSequence, UniPoly
from lqnash.game import NormalizedGame, best_response, closed_loop, float_game, residuals
from lqnash.groebner import (
    MultiPoly,
    Monomial,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)
from lqnash.oracle import BrIterationResult, _dedup, _newton_polish, _straddles_zero


def from_roots(roots: list[RationalLike]) -> UniPoly:
    p = UniPoly((1,))
    for r in roots:
        p = p * UniPoly((-Fraction(r), 1))
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
    return best_response(norm, 1, best_response(norm, 2, x).k_best).k_best - x


def lex_compare(m1: tuple[int, int], m2: tuple[int, int]) -> int:
    """-1, 0 or +1 comparing exponent pairs lexicographically, k1 before k2."""
    if m1 == m2:
        return 0
    return 1 if m1 > m2 else -1


# The Buchberger engine as lqnash ran it over Fractions: the textbook
# division and S-polynomial, each normalizing to monic as it goes.


def s_polynomial(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Leading-term cancelling combination (L/lt(f)) f - (L/lt(g)) g."""
    if f.is_zero or g.is_zero:
        raise ValueError("s_polynomial requires nonzero polynomials")
    lmf, lmg = f.leading_monomial(), g.leading_monomial()
    lcm = monomial_lcm(lmf, lmg)
    tf = f.term_mul(1 / f.leading_coefficient(), monomial_div(lcm, lmf))
    tg = g.term_mul(1 / g.leading_coefficient(), monomial_div(lcm, lmg))
    return tf - tg


def reduce(f: MultiPoly, basis: list[MultiPoly]) -> MultiPoly:
    """Multivariate division remainder of f by the basis.

    No term of the result is divisible by any basis leading monomial, and the
    difference f - result lies in the ideal generated by the basis.
    """
    if any(g.is_zero for g in basis):
        raise ValueError("reduce requires nonzero basis members")
    lead = [(g.leading_monomial(), g) for g in basis]
    rem: dict[Monomial, Fraction] = {}
    work = dict(f.terms)
    while work:
        m = max(work)
        c = work.pop(m)
        if c == 0:
            continue
        for lm, g in lead:
            if monomial_divides(lm, m):
                factor = c / g.leading_coefficient()
                shift = monomial_div(m, lm)
                for gm, gc in g.terms.items():
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
    return MultiPoly(rem)


def _pair_key(lmi: Monomial, lmj: Monomial) -> tuple:
    lcm = monomial_lcm(lmi, lmj)
    return (lcm[0] + lcm[1], lcm)


def buchberger(system: list[MultiPoly]) -> list[MultiPoly]:
    """Reduced Groebner basis of the input system (lex, k1 > k2).

    Pairs are processed in normal (lowest lcm degree) order and pruned with
    the product and chain criteria; the output is autoreduced with monic
    leading coefficients and sorted by ascending leading monomial.
    """
    basis = [f.monic() for f in system if not f.is_zero]
    if not basis:
        raise ValueError("buchberger requires a nonempty system of nonzero polynomials")
    pending: set[tuple[int, int]] = set()
    for i in range(len(basis)):
        for j in range(i):
            pending.add((j, i))

    def chain_criterion(i: int, j: int) -> bool:
        lcm = monomial_lcm(basis[i].leading_monomial(), basis[j].leading_monomial())
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if not monomial_divides(basis[k].leading_monomial(), lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pending and b not in pending:
                return True
        return False

    while pending:
        i, j = min(
            pending,
            key=lambda p: _pair_key(
                basis[p[0]].leading_monomial(), basis[p[1]].leading_monomial()
            ),
        )
        pending.discard((i, j))
        lmi, lmj = basis[i].leading_monomial(), basis[j].leading_monomial()
        if monomial_lcm(lmi, lmj) == monomial_mul(lmi, lmj):
            continue  # product criterion: coprime leading monomials
        if chain_criterion(i, j):
            continue
        r = reduce(s_polynomial(basis[i], basis[j]), basis)
        if r.is_zero:
            continue
        basis.append(r.monic())
        new = len(basis) - 1
        for k in range(new):
            pending.add((k, new))

    return _autoreduce(basis)


def _autoreduce(basis: list[MultiPoly]) -> list[MultiPoly]:
    lms = [g.leading_monomial() for g in basis]
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
        if not r.is_zero:
            reduced.append(r.monic())
    reduced.sort(key=lambda g: g.leading_monomial())
    return reduced


# The float oracles as lqnash ran them before their fast paths: the residual
# surfaces as two whole (n + 1) x (n + 1) arrays, and best-response
# iteration through `best_response` records.


def flagged_cells(fnorm: NormalizedGame, xs) -> list[tuple[int, int]]:
    R1, R2 = residuals(fnorm, xs[:, None], xs[None, :])
    return [(i, j) for i, j in np.argwhere(_straddles_zero(R1) & _straddles_zero(R2)).tolist()]


def grid_scan(norm: NormalizedGame, n: int) -> list[tuple[float, float]]:
    fnorm = float_game(norm)
    a = fnorm.a
    xs = a * np.arange(0, n + 1) / n
    candidates = []
    for i, j in flagged_cells(fnorm, xs):
        c1 = 0.5 * (xs[i] + xs[i + 1])
        c2 = 0.5 * (xs[j] + xs[j + 1])
        polished = _newton_polish(fnorm, float(c1), float(c2))
        if polished is None:
            continue
        k1, k2 = polished
        if not (0.0 < k1 < a and 0.0 < k2 < a):
            continue
        if abs(closed_loop(a, k1, k2)) >= 1.0:
            continue
        candidates.append((k1, k2))
    return _dedup(fnorm, candidates)


def br_iteration(norm: NormalizedGame, k_start: float, max_iter: int, tol: float) -> BrIterationResult:
    norm = float_game(norm)
    x = float(k_start)
    for it in range(1, max_iter + 1):
        nxt = best_response(norm, 1, best_response(norm, 2, x).k_best).k_best
        if abs(nxt - x) < tol:
            return BrIterationResult(True, nxt, best_response(norm, 2, nxt).k_best, it)
        x = nxt
    return BrIterationResult(False, x, best_response(norm, 2, x).k_best, max_iter)
