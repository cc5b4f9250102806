"""Exact univariate polynomial algebra over arbitrary-precision rationals.

Everything in this module is exact: coefficients are `fractions.Fraction`,
and real roots are isolated by Sturm bisection with integer sign
evaluations.  One remainder sequence per polynomial (`SturmSequence`)
serves root counts between rationals or +-math.inf, isolation, refinement
and the discriminant; a flat list of chains of the successive gcds gives
root multiplicities.  Floating point appears only when a caller converts a
refined rational approximation at the very end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

RationalLike = Union[int, Fraction]


class UniPoly:
    """Dense univariate polynomial, coefficients lowest-degree first.

    Immutable; the zero polynomial stores an empty coefficient tuple and the
    leading coefficient of any nonzero polynomial is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        lc = self.coeffs[-1]
        return UniPoly(c / lc for c in self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({self.to_str()})"

    def to_str(self, var: str = "x") -> str:
        """Highest degree first, each sign between its terms: `x^2 - 3/2*x + 1`."""
        text = ""
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                body = f"{abs(c)}"
            else:
                power = var if i == 1 else f"{var}^{i}"
                body = power if abs(c) == 1 else f"{abs(c)}*{power}"
            if text:
                text += " - " if c < 0 else " + "
            elif c < 0:
                text = "-"
            text += body
        return text or "0"


def _int_primitive(p: UniPoly) -> tuple[list[int], Fraction]:
    """Integer primitive coefficients and the positive factor taken out.

    Returns (coeffs, c) with p = c * coeffs and c > 0; the sign of the
    leading coefficient stays with the integer part.
    """
    if p.is_zero:
        return [], Fraction(1)
    den = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * den) for c in p.coeffs]
    g = math.gcd(*(abs(c) for c in ints))
    ints = [c // g for c in ints]
    return ints, Fraction(g, den)


def _prem_int(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of integer polynomials: lc(b)^(da-db+1) * a mod b."""
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    r = list(a)
    for i in range(da - db, -1, -1):
        lead = r[i + db]
        if lead:
            for j in range(len(r)):
                r[j] *= lb
            for j, bc in enumerate(b):
                r[i + j] -= lead * bc
        else:
            # keep the multiplier count uniform across all steps
            for j in range(len(r)):
                r[j] *= lb
        r[i + db] = 0
    while r and r[-1] == 0:
        r.pop()
    return r


# ---------------------------------------------------------------------------
# Sturm sequences, discriminants, root counting, isolation, refinement
# ---------------------------------------------------------------------------


def _signed_prs(ints: list[int]) -> tuple[list[list[int]], int]:
    """Primitive integer chain, sign-proportional to the Sturm chain, and Res(p, p').

    Every element equals a positive rational multiple of the corresponding
    classical chain element, so sign variation counts are unchanged.  For
    square-free input the last element is a nonzero constant; otherwise it is
    proportional to gcd(p, p') and the resultant is zero.  Requires degree >= 1.

    The resultant is carried along the chain.  With r = a mod b,
    Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r), and the
    stored element s = lam * r, lam = -|lc(b)|^(delta+1) / content, gives
    Res(b, r) = Res(b, s) / lam^(deg b).  Res(b, c) = c^(deg b) for a constant c.
    """
    n = len(ints) - 1
    d = [i * c for i, c in enumerate(ints)][1:]
    g = math.gcd(*d)
    chain = [ints, [c // g for c in d]]
    # Res(a, b) = mult * |lc(b)|^e * Res(b, s), one step per stored element
    steps = []
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        da, db, lb = len(a) - 1, len(b) - 1, b[-1]
        r = _prem_int(a, b)  # lc(b)^(delta+1) * (a mod b)
        if not r:
            return chain, 0
        # keep the sign of -(a mod b), as in the classical Sturm chain
        if lb > 0 or (da - db) % 2 == 1:
            r = [-c for c in r]
        content = math.gcd(*r)
        chain.append([c // content for c in r])
        dr = len(r) - 1
        sign = (-1) ** (db * (da + 1)) * (-1 if lb < 0 and (da - dr) % 2 else 1)
        steps.append((sign * content**db, abs(lb), (da - dr) - (da - db + 1) * db))
    # unwind from the constant end; every Res(a, b) is an integer, so each
    # division is exact and the numbers stay the size of the resultants
    res = chain[-1][0] ** (len(chain[-2]) - 1)
    for mult, base, e in reversed(steps):
        res *= mult
        res = res * base**e if e >= 0 else res // base**-e
    return chain, g**n * res  # Res(p, p') = g^n Res(p, p'/g)


def _divexact_int(a: list[int], b: list[int]) -> list[int]:
    """Exact quotient of integer polynomials (b must divide a)."""
    out = [0] * (len(a) - len(b) + 1)
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    for i in range(len(out) - 1, -1, -1):
        q, check = divmod(rem[i + db], lb)
        if check:
            raise ArithmeticError("inexact integer polynomial division")
        out[i] = q
        if q:
            for j, bc in enumerate(b):
                rem[i + j] -= q * bc
    if any(rem):
        raise ArithmeticError("inexact integer polynomial division")
    return out


class SturmSequence:
    """One polynomial's remainder sequences, built once and passed to every query.

    `degree` is the degree of the polynomial p, and `ints` are its primitive
    integer coefficients, a positive multiple of it with the same signs
    everywhere.  `discriminant` is the exact discriminant of p, read off the
    remainder sequence of (p, p'); it is zero when p has a multiple root.
    That sequence then ends in g, a multiple of gcd(p, p') that divides
    every element, and the quotients form the chain of p / g: at each point
    they have the signs of the elements times that of g, so every sign
    variation count is unchanged.  Each quotient of primitive polynomials is
    primitive (Gauss's lemma).  `chain` is that primitive integer Sturm
    chain, which counting, isolation and refinement share; its first
    element is the square-free part of p.  A root of multiplicity m of p
    is a root of multiplicity m - 1 of g, so the construction repeats on g
    while its own sequence ends in a nonconstant polynomial: `gcd_chains`
    holds the chains of g and of each later gcd, divided the same way, and
    is empty when p is square-free.
    """

    __slots__ = ("degree", "ints", "chain", "discriminant", "gcd_chains")

    def __init__(self, p: UniPoly):
        n = p.degree
        if n < 1:
            raise ValueError("a Sturm sequence requires degree >= 1")
        ints, content = _int_primitive(p)
        chain, res = _signed_prs(ints)
        sign = -1 if (n * (n - 1) // 2) % 2 else 1
        # p = content * ints scales the discriminant by content^(2n-2)
        self.discriminant = sign * content ** (2 * n - 2) * Fraction(res, ints[-1])
        self.degree = n
        self.ints = ints
        chains = []
        # the degree of g drops at every level, so this loop ends; each g is
        # primitive already, so it is its own integer polynomial
        while len(chain[-1]) > 1:
            g = chain[-1]
            chains.append([_divexact_int(c, g) for c in chain])
            chain = _signed_prs(g)[0]
        chains.append(chain)
        self.chain, *self.gcd_chains = chains


def _sign_at(ints: list[int], num: int, den: int) -> int:
    """Sign of an integer polynomial at the rational point num/den (den > 0), exactly.

    Evaluates sum c_i num^i den^(d-i), which is the value scaled by den^d > 0,
    so num/den need not be in lowest terms.  With den = 0 the sum is
    c_d num^d, so num = 1 or -1 gives the sign at +inf or -inf.
    """
    acc = 0
    powden = 1
    for c in reversed(ints):
        acc = acc * num + c * powden
        powden *= den
    if acc > 0:
        return 1
    if acc < 0:
        return -1
    return 0


def _variations(signs: Iterable[int]) -> int:
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _chain_signs(chain: list[list[int]], x: RationalLike | float) -> list[int]:
    """Signs of the chain's elements at a rational x or at x = +-math.inf."""
    # an isinstance test first: comparing a Fraction with a float is slow
    if isinstance(x, float) and math.isinf(x):
        num, den = (1 if x > 0 else -1), 0
    else:
        x = Fraction(x)
        num, den = x.numerator, x.denominator
    return [_sign_at(ints, num, den) for ints in chain]


def _count(chain: list[list[int]], lo, hi) -> int:
    """Distinct real roots in (lo, hi] of the chain's first element."""
    return _variations(_chain_signs(chain, lo)) - _variations(_chain_signs(chain, hi))


def sturm_count(seq: SturmSequence, lo: RationalLike | float, hi: RationalLike | float) -> int:
    """Distinct real roots of seq's polynomial in (lo, hi]; endpoints may be +-math.inf."""
    return _count(seq.chain, lo, hi)


@dataclass(frozen=True)
class RootInterval:
    """Half-open isolating interval (lo, hi] for one distinct real root."""

    lo: Fraction
    hi: Fraction
    multiplicity: int


def _cauchy_bound(ints: list[int]) -> int:
    """Integer bound B with all real roots in (-B, B)."""
    lead = abs(ints[-1])
    m = max(abs(c) for c in ints[:-1]) if len(ints) > 1 else 0
    return 1 + (m + lead - 1) // lead if m else 1


def isolate_roots_in_interval(seq: SturmSequence, lo: Fraction, hi: Fraction) -> list[RootInterval]:
    """Disjoint isolating intervals for the distinct real roots in (lo, hi], in order.

    Each interval holds one distinct root of p.  The roots of each gcd in
    `seq.gcd_chains` are among those of the level above, so a root of
    multiplicity m is counted in exactly the first m - 1 of them.  Raises
    ValueError when lo > hi, where the root count would be negative and
    bisection would never end.
    """
    chain = seq.chain
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError(f"interval bounds reversed: lo = {lo} > hi = {hi}")
    out = []
    stack = [(lo, hi, _variations(_chain_signs(chain, lo)), _variations(_chain_signs(chain, hi)))]
    while stack:
        a, b, va, vb = stack.pop()
        n = va - vb
        if n == 0:
            continue
        if n == 1:
            out.append(RootInterval(a, b, 1 + sum(_count(c, a, b) for c in seq.gcd_chains)))
            continue
        mid = (a + b) / 2
        vm = _variations(_chain_signs(chain, mid))
        stack.append((a, mid, va, vm))
        stack.append((mid, b, vm, vb))
    out.sort(key=lambda iv: iv.lo)
    return out


def isolate_real_roots(seq: SturmSequence) -> list[RootInterval]:
    """Isolating intervals for every distinct real root, with multiplicities."""
    bound = _cauchy_bound(seq.chain[0])
    return isolate_roots_in_interval(seq, -bound, bound)


def refine_root(seq: SturmSequence, iv: RootInterval, width: Fraction) -> Fraction:
    """Bisect the isolating interval until its width is at most `width`.

    Works on the square-free part so multiple roots refine like simple ones;
    an exact rational root is returned exactly when bisection lands on it.
    The loop runs on integers: with lo = l/D and hi - lo = w/D, every point
    it visits is (l 2^j + w m) / (D 2^j), so only the result is a Fraction.
    Raises ValueError unless `width` is positive, since bisection would
    never reach it.
    """
    width = Fraction(width)
    if width <= 0:
        raise ValueError(f"refine width must be positive, got {width}")
    ints = seq.chain[0]
    lo, hi = Fraction(iv.lo), Fraction(iv.hi)
    s_hi = _sign_at(ints, hi.numerator, hi.denominator)
    if s_hi == 0:
        return hi
    # lo = num/den and hi - lo = w/den throughout; den doubles at each step
    den = math.lcm(lo.denominator, hi.denominator)
    num = lo.numerator * (den // lo.denominator)
    w = hi.numerator * (den // hi.denominator) - num
    w_scaled, limit = w * width.denominator, width.numerator * den
    while w_scaled > limit:  # w/den > width
        num, den, limit = 2 * num, 2 * den, 2 * limit
        mid = num + w
        s_mid = _sign_at(ints, mid, den)
        if s_mid == 0:
            return Fraction(mid, den)
        if s_mid != s_hi:
            num = mid
    return Fraction(2 * num + w, 2 * den)
