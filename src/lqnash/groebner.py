"""Minimal Buchberger engine for bivariate systems over exact rationals.

A polynomial is a plain dict {(e1, e2): coefficient} from exponent pairs for
the two policy variables to `int` or `Fraction` coefficients; zero
coefficients may appear in the input and never in the output.  Monomials are
ordered lexicographically with the first variable largest, so the reduced
basis of a zero-dimensional ideal triangularizes and exposes a univariate
member in the second variable.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactalg import UniPoly

Monomial = tuple[int, int]


class EliminationError(Exception):
    """Raised when a lex basis has no univariate member in the second variable."""


def monomial_mul(m1: Monomial, m2: Monomial) -> Monomial:
    return (m1[0] + m2[0], m1[1] + m2[1])


def monomial_lcm(m1: Monomial, m2: Monomial) -> Monomial:
    return (max(m1[0], m2[0]), max(m1[1], m2[1]))


def monomial_divides(m1: Monomial, m2: Monomial) -> bool:
    return m1[0] <= m2[0] and m1[1] <= m2[1]


def monomial_div(m1: Monomial, m2: Monomial) -> Monomial:
    return (m1[0] - m2[0], m1[1] - m2[1])


# The engine itself runs on primitive integer multiples of the polynomials,
# as {monomial: int} dicts: scaling a polynomial by a nonzero constant moves
# no leading monomial, so pair order, both criteria and every zero test take
# the same course as over monic Fractions, without a gcd per coefficient
# operation.  Only the final basis is made monic.
IntTerms = dict[Monomial, int]


def _primitive(terms: IntTerms) -> IntTerms:
    g = math.gcd(*terms.values())
    return terms if g == 1 else {m: c // g for m, c in terms.items()}


def _integer_multiple(f: dict[Monomial, int | Fraction]) -> IntTerms:
    """Primitive integer multiple of f without its zero terms; empty for zero.

    The engine keeps no zero term, so the largest key of each polynomial is
    its leading monomial.  Inputs may hold zeros: a cubic's k1 coefficient
    r + q - a^2 r vanishes at a = 2, q = 3, r = 1.
    """
    f = {m: c for m, c in f.items() if c}
    if not f:
        return f
    den = math.lcm(*(c.denominator for c in f.values()))
    return _primitive({m: c.numerator * (den // c.denominator) for m, c in f.items()})


def _s_polynomial(f: IntTerms, lmf: Monomial, g: IntTerms, lmg: Monomial) -> IntTerms:
    """Primitive part of the leading-term cancelling combination of f and g.

    Cross-multiplies by the leading coefficients divided by their gcd, so
    the result is a nonzero multiple of the monic S-polynomial, or zero.
    """
    lcm = monomial_lcm(lmf, lmg)
    d = math.gcd(f[lmf], g[lmg])
    scale_f, scale_g = g[lmg] // d, f[lmf] // d
    shift_f, shift_g = monomial_div(lcm, lmf), monomial_div(lcm, lmg)
    out = {monomial_mul(m, shift_f): scale_f * c for m, c in f.items()}
    for m, c in g.items():
        t = monomial_mul(m, shift_g)
        v = out.get(t, 0) - scale_g * c
        if v:
            out[t] = v
        else:
            out.pop(t, None)
    return _primitive(out) if out else out


def _reduce(f: IntTerms, lead: list[tuple[Monomial, IntTerms]]) -> IntTerms:
    """Primitive part of a positive multiple of f's division remainder by
    the (leading monomial, polynomial) pairs, by pseudo-division: before each
    cancellation the remainder so far is scaled by lc(g) / gcd(c, lc(g)).
    """
    rem: IntTerms = {}
    work = dict(f)
    while work:
        m = max(work)
        c = work.pop(m)
        for lm, g in lead:
            if monomial_divides(lm, m):
                lc = g[lm]
                d = math.gcd(c, lc) if lc > 0 else -math.gcd(c, lc)
                scale, factor = lc // d, c // d
                if scale != 1:
                    work = {t: scale * v for t, v in work.items()}
                    rem = {t: scale * v for t, v in rem.items()}
                shift = monomial_div(m, lm)
                for gm, gc in g.items():
                    if gm == lm:
                        continue
                    t = monomial_mul(gm, shift)
                    v = work.get(t, 0) - factor * gc
                    if v:
                        work[t] = v
                    else:
                        work.pop(t, None)
                break
        else:
            rem[m] = c
    return _primitive(rem) if rem else rem


def buchberger(system: list[dict[Monomial, int | Fraction]]) -> list[dict[Monomial, Fraction]]:
    """Reduced Groebner basis of the input system (lex, k1 > k2).

    Buchberger's algorithm with the Gebauer-Moeller update (J. Symbolic
    Comput. 6, 1988): each polynomial joins the basis through `_update`,
    which prunes pairs by the chain and product criteria and retires basis
    elements its leading monomial divides.  Pairs are processed in normal
    (lowest lcm degree) order.  Each S-polynomial is reduced by every
    polynomial added so far, retired ones included, in the order they were
    added.  Reducing by the active elements alone is correct too, but on
    some systems its remainders' coefficients explode: on one pair of
    random bicubics they reached about 300,000 bits, where this order
    finds the basis in milliseconds.  The active elements are autoreduced
    into the output, with monic leading coefficients, sorted by ascending
    leading monomial.
    """
    polys = [g for g in map(_integer_multiple, system) if g]
    if not polys:
        raise ValueError("buchberger requires a nonempty system of nonzero polynomials")
    # every polynomial ever added, by index; `active` indexes the ones not
    # retired, in the order they were added; `pairs` holds the pairs still
    # to process as ((lcm degree, lcm), i, j)
    basis: list[IntTerms] = []
    lms: list[Monomial] = []
    active: list[int] = []
    pairs: list[tuple[tuple[int, Monomial], int, int]] = []
    for f in polys:
        _update(basis, lms, active, pairs, f)
    while pairs:
        pair = min(pairs)
        pairs.remove(pair)
        _, i, j = pair
        r = _reduce(_s_polynomial(basis[i], lms[i], basis[j], lms[j]), list(zip(lms, basis)))
        if r:
            _update(basis, lms, active, pairs, r)
    return _autoreduce([basis[k] for k in active], [lms[k] for k in active])


def _update(basis: list[IntTerms], lms: list[Monomial], active: list[int],
            pairs: list, h: IntTerms) -> None:
    """Add h to the basis in place, with the Gebauer-Moeller criteria.

    Of h's new pairs (g, h), one is dropped when the lcm of another new pair
    divides its lcm, keeping one of several equal lcms, and then those with
    coprime leading monomials (product criterion).  A queued pair (i, j) is
    dropped when lm(h) divides its lcm L and neither lcm(lm(i), lm(h)) nor
    lcm(lm(j), lm(h)) equals L (chain criterion).  Active elements whose
    leading monomial lm(h) divides retire: they get no new pairs, and their
    queued pairs stay.
    """
    new = len(basis)
    lm_h = max(h)
    basis.append(h)
    lms.append(lm_h)
    candidates = [(monomial_lcm(lms[g], lm_h), g) for g in active]
    kept: list[tuple[Monomial, int]] = []
    for n, (lcm, g) in enumerate(candidates):
        if lcm == monomial_mul(lms[g], lm_h) or not (
            any(monomial_divides(other, lcm) for other, _ in candidates[n + 1:])
            or any(monomial_divides(other, lcm) for other, _ in kept)
        ):
            kept.append((lcm, g))
    pairs[:] = [
        p for p in pairs
        if not monomial_divides(lm_h, p[0][1])
        or monomial_lcm(lms[p[1]], lm_h) == p[0][1]
        or monomial_lcm(lms[p[2]], lm_h) == p[0][1]
    ]
    pairs.extend(((lcm[0] + lcm[1], lcm), g, new)
                 for lcm, g in kept if lcm != monomial_mul(lms[g], lm_h))
    active[:] = [g for g in active if not monomial_divides(lm_h, lms[g])]
    active.append(new)


def _autoreduce(basis: list[IntTerms], lms: list[Monomial]) -> list[dict[Monomial, Fraction]]:
    minimal = []
    for i, g in enumerate(basis):
        if any(
            j != i and monomial_divides(lms[j], lms[i])
            and (lms[j] != lms[i] or j < i)
            for j in range(len(basis))
        ):
            continue
        minimal.append((lms[i], g))
    reduced = []
    for i, (_, g) in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = _reduce(g, others) if others else g
        if r:
            lc = r[max(r)]
            reduced.append({m: Fraction(c, lc) for m, c in r.items()})
    reduced.sort(key=max)
    return reduced


def elimination_polynomial(basis: list[dict[Monomial, Fraction]]) -> UniPoly:
    """The basis member free of k1, as a univariate polynomial in k2; monic,
    as every member of a basis from `buchberger` is.

    Raises EliminationError when the basis has no such member (the ideal is
    not zero-dimensional, or was computed under the wrong ordering).
    """
    for g in basis:
        if all(m[0] == 0 for m in g):
            coeffs = [0] * (max(m[1] for m in g) + 1)
            for (_, e2), c in g.items():
                coeffs[e2] = c
            return UniPoly(coeffs)
    raise EliminationError("basis has no univariate member in k2")
