"""Textbook routes the tests check lqnash against; none of them runs in lqnash."""

import math
from fractions import Fraction

from lqnash.exactalg import RationalLike, SturmSequence, UniPoly
from lqnash.game import NormalizedGame, best_response


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
