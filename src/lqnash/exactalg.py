"""Exact univariate polynomial algebra over arbitrary-precision rationals.

Everything in this module is exact: coefficients are `fractions.Fraction`,
and real roots are isolated by Sturm bisection with integer sign
evaluations.  One remainder sequence per polynomial (`SturmSequence`)
serves root counting, isolation, refinement, root multiplicities and the
discriminant.  Floating point appears only when a caller converts a refined
rational approximation at the very end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

RationalLike = Union[int, Fraction]


class _Inf:
    """Extended endpoint for interval queries (sign taken from leading terms)."""

    __slots__ = ("positive",)

    def __init__(self, positive: bool):
        self.positive = positive

    def __repr__(self):
        return "+inf" if self.positive else "-inf"


POS_INF = _Inf(True)
NEG_INF = _Inf(False)

Endpoint = Union[int, Fraction, _Inf]


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

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly(-c for c in self.coeffs)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero or other.is_zero:
            return UniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero:
            return "UniPoly(0)"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            term = f"{c}" if i == 0 else (f"{c}*x" if i == 1 else f"{c}*x^{i}")
            parts.append(term)
        return "UniPoly(" + " + ".join(parts) + ")"


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


def _signed_prs(ints: list[int], resultant: bool = True) -> tuple[list[list[int]], int | None]:
    """Primitive integer chain, sign-proportional to the Sturm chain, and Res(p, p')
    (None unless `resultant`).

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
            return chain, 0 if resultant else None
        # keep the sign of -(a mod b), as in the classical Sturm chain
        if lb > 0 or (da - db) % 2 == 1:
            r = [-c for c in r]
        content = math.gcd(*r)
        chain.append([c // content for c in r])
        dr = len(r) - 1
        sign = (-1) ** (db * (da + 1)) * (-1 if lb < 0 and (da - dr) % 2 else 1)
        steps.append((sign * content**db, abs(lb), (da - dr) - (da - db + 1) * db))
    if not resultant:
        return chain, None
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
    """One polynomial's remainder sequence, built once and passed to every query.

    `ints` are the primitive integer coefficients of `poly`, a positive
    multiple of it with the same signs everywhere.  `chain` is a primitive
    integer Sturm chain of the square-free part `sf_ints`, which counting,
    isolation and refinement share.  `discriminant` is the exact
    discriminant of `poly`, read off the remainder sequence of (p, p'); it
    is zero when `poly` has a multiple root.  That sequence then ends in g,
    a multiple of gcd(p, p') that divides every element, and the quotients
    form the chain of p / g: at each point they have the signs of the
    elements times that of g, so every sign variation count is unchanged.
    Each quotient of primitive polynomials is primitive (Gauss's lemma).
    `gcd` is the sequence of g, or None when `poly` is square-free: a root
    of multiplicity m of p is a root of multiplicity m - 1 of g.  Its
    `discriminant` is None, since nothing reads one below the top level.
    """

    __slots__ = ("poly", "ints", "sf_ints", "chain", "square_free", "discriminant", "gcd")

    def __init__(self, p: UniPoly):
        n = p.degree
        if n < 1:
            raise ValueError("a Sturm sequence requires degree >= 1")
        ints, content = _int_primitive(p)
        chain, res = _signed_prs(ints)
        sign = -1 if (n * (n - 1) // 2) % 2 else 1
        # p = content * ints scales the discriminant by content^(2n-2)
        self.discriminant = sign * content ** (2 * n - 2) * Fraction(res, ints[-1])
        self._attach_chain(p, ints, chain)

    def _attach_chain(self, p: UniPoly, ints: list[int], chain: list[list[int]]) -> None:
        self.poly = p
        self.ints = ints
        self.square_free = len(chain[-1]) == 1
        if self.square_free:
            self.gcd = None
        else:
            g = chain[-1]
            chain = [_divexact_int(c, g) for c in chain]
            # g is primitive already, so it is its own `ints`; the degree
            # drops at every level, so this recursion ends
            self.gcd = SturmSequence.__new__(SturmSequence)
            self.gcd.discriminant = None
            self.gcd._attach_chain(UniPoly(g), g, _signed_prs(g, resultant=False)[0])
        self.chain = chain
        self.sf_ints = chain[0]

    @classmethod
    def of(cls, p: "UniPoly | SturmSequence") -> "SturmSequence":
        """`p` itself if it is already a sequence, else a fresh one."""
        return p if isinstance(p, cls) else cls(p)


def _sign_at(ints: list[int], num: int, den: int) -> int:
    """Sign of an integer polynomial at the rational point num/den (den > 0), exactly.

    Evaluates sum c_i num^i den^(d-i), which is the value scaled by den^d > 0,
    so num/den need not be in lowest terms.
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


def _chain_signs(chain: list[list[int]], x: Endpoint) -> list[int]:
    if isinstance(x, _Inf):
        out = []
        for ints in chain:
            lead = ints[-1]
            if not x.positive and (len(ints) - 1) % 2 == 1:
                lead = -lead
            out.append(1 if lead > 0 else (-1 if lead < 0 else 0))
        return out
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    return [_sign_at(ints, num, den) for ints in chain]


def sturm_count(p: UniPoly | SturmSequence, lo: Endpoint, hi: Endpoint) -> int:
    """Distinct real roots of p in (lo, hi]; endpoints may be POS_INF/NEG_INF."""
    if isinstance(p, UniPoly):
        if p.is_zero:
            raise ValueError("sturm_count requires a nonzero polynomial")
        if p.degree < 1:
            return 0
    chain = SturmSequence.of(p).chain
    return _variations(_chain_signs(chain, lo)) - _variations(_chain_signs(chain, hi))


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


def _isolate_square_free(
    chain: list[list[int]], lo: Fraction, hi: Fraction
) -> list[tuple[Fraction, Fraction]]:
    """Disjoint isolating intervals (lo, hi] inside a starting interval."""
    out = []
    vlo = _variations(_chain_signs(chain, lo))
    vhi = _variations(_chain_signs(chain, hi))
    stack = [(lo, hi, vlo, vhi)]
    while stack:
        a, b, va, vb = stack.pop()
        n = va - vb
        if n == 0:
            continue
        if n == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        vm = _variations(_chain_signs(chain, mid))
        stack.append((a, mid, va, vm))
        stack.append((mid, b, vm, vb))
    out.sort()
    return out


def _with_multiplicities(seq: SturmSequence, raw) -> list[RootInterval]:
    """Attach to each isolating interval the multiplicity of its root.

    (lo, hi] holds one distinct root of p and the roots of gcd(p, p') are
    among those of p, so the root has multiplicity m exactly when the first
    m - 1 nested gcds each have a root in (lo, hi].
    """
    out = []
    for lo, hi in raw:
        m, g = 1, seq.gcd
        while g is not None and sturm_count(g, lo, hi) == 1:
            m, g = m + 1, g.gcd
        out.append(RootInterval(lo, hi, m))
    return out


def isolate_real_roots(p: UniPoly | SturmSequence) -> list[RootInterval]:
    """Isolating intervals for every distinct real root, with multiplicities."""
    seq = SturmSequence.of(p)
    bound = Fraction(_cauchy_bound(seq.sf_ints))
    return _with_multiplicities(seq, _isolate_square_free(seq.chain, -bound, bound))


def isolate_roots_in_interval(
    p: UniPoly | SturmSequence, lo: Fraction, hi: Fraction
) -> list[RootInterval]:
    """Isolating intervals restricted to (lo, hi], with multiplicities."""
    seq = SturmSequence.of(p)
    return _with_multiplicities(seq, _isolate_square_free(seq.chain, Fraction(lo), Fraction(hi)))


def refine_root(p: UniPoly | SturmSequence, iv: RootInterval, width: Fraction) -> Fraction:
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
    ints = SturmSequence.of(p).sf_ints
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
