"""Minimal Buchberger engine for bivariate systems over exact rationals.

Monomials are exponent pairs (e1, e2) for the two policy variables, ordered
lexicographically with the first variable largest, so the reduced basis of a
zero-dimensional ideal triangularizes and exposes a univariate member in the
second variable.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterable, Mapping

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


class MultiPoly:
    """Sparse bivariate polynomial: map from exponent pair to nonzero rational."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | Iterable[tuple[Monomial, Fraction]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Monomial, Fraction] = {}
        for m, c in items:
            c = Fraction(c)
            if c != 0:
                clean[(int(m[0]), int(m[1]))] = clean.get((int(m[0]), int(m[1])), Fraction(0)) + c
        object.__setattr__(self, "terms", {m: c for m, c in clean.items() if c != 0})

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def leading_monomial(self) -> Monomial:
        return max(self.terms)

    def leading_coefficient(self) -> Fraction:
        return self.terms[max(self.terms)]

    def monic(self) -> "MultiPoly":
        if self.is_zero:
            return self
        lc = self.leading_coefficient()
        return MultiPoly({m: c / lc for m, c in self.terms.items()})

    def term_mul(self, coeff: Fraction, mono: Monomial) -> "MultiPoly":
        if coeff == 0:
            return MultiPoly()
        return MultiPoly({monomial_mul(m, mono): c * coeff for m, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, Fraction(0)) - c
            if v == 0:
                out.pop(m, None)
            else:
                out[m] = v
        return MultiPoly(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), reverse=True)

    def __repr__(self) -> str:
        if self.is_zero:
            return "MultiPoly(0)"
        parts = []
        for (e1, e2), c in self.sorted_terms():
            mono = "".join(
                f"*{v}^{e}" if e > 1 else (f"*{v}" if e == 1 else "")
                for v, e in (("k1", e1), ("k2", e2))
            )
            parts.append(f"{c}{mono}")
        return "MultiPoly(" + " + ".join(parts) + ")"


# The engine itself runs on primitive integer multiples of the polynomials,
# as {monomial: int} dicts: scaling a polynomial by a nonzero constant moves
# no leading monomial, so pair order, both criteria and every zero test take
# the same course as over monic Fractions, without a gcd per coefficient
# operation.  Only the final basis is made monic.
IntTerms = dict[Monomial, int]


def _primitive(terms: IntTerms) -> IntTerms:
    g = math.gcd(*terms.values())
    return terms if g == 1 else {m: c // g for m, c in terms.items()}


def _integer_multiple(f: MultiPoly) -> IntTerms:
    den = math.lcm(*(c.denominator for c in f.terms.values()))
    return _primitive({m: c.numerator * (den // c.denominator) for m, c in f.terms.items()})


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


def _pair_key(lmi: Monomial, lmj: Monomial) -> tuple:
    lcm = monomial_lcm(lmi, lmj)
    return (lcm[0] + lcm[1], lcm)


def buchberger(system: list[MultiPoly]) -> list[MultiPoly]:
    """Reduced Groebner basis of the input system (lex, k1 > k2).

    Pairs are processed in normal (lowest lcm degree) order and pruned with
    the product and chain criteria; the output is autoreduced with monic
    leading coefficients and sorted by ascending leading monomial.
    """
    basis = [_integer_multiple(f) for f in system if not f.is_zero]
    if not basis:
        raise ValueError("buchberger requires a nonempty system of nonzero polynomials")
    lms = [max(g) for g in basis]
    # the pairs not yet processed: a set for the chain criterion, and a heap
    # in processing order
    pending = {(j, i) for i in range(len(basis)) for j in range(i)}
    queue = [(_pair_key(lms[i], lms[j]), i, j) for i, j in pending]
    heapq.heapify(queue)

    def chain_criterion(i: int, j: int) -> bool:
        lcm = monomial_lcm(lms[i], lms[j])
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if not monomial_divides(lms[k], lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pending and b not in pending:
                return True
        return False

    while queue:
        _, i, j = heapq.heappop(queue)
        pending.discard((i, j))
        lmi, lmj = lms[i], lms[j]
        if monomial_lcm(lmi, lmj) == monomial_mul(lmi, lmj):
            continue  # product criterion: coprime leading monomials
        if chain_criterion(i, j):
            continue
        r = _reduce(_s_polynomial(basis[i], lmi, basis[j], lmj), list(zip(lms, basis)))
        if not r:
            continue
        basis.append(r)
        lms.append(max(r))
        new = len(basis) - 1
        for k in range(new):
            pending.add((k, new))
            heapq.heappush(queue, (_pair_key(lms[k], lms[new]), k, new))

    return _autoreduce(basis, lms)


def _autoreduce(basis: list[IntTerms], lms: list[Monomial]) -> list[MultiPoly]:
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
            reduced.append(MultiPoly({m: Fraction(c, lc) for m, c in r.items()}))
    reduced.sort(key=lambda g: g.leading_monomial())
    return reduced


def elimination_polynomial(basis: list[MultiPoly]) -> UniPoly:
    """The monic basis member free of k1, as a univariate polynomial in k2.

    Raises EliminationError when the basis has no such member (the ideal is
    not zero-dimensional, or was computed under the wrong ordering).
    """
    for g in basis:
        if all(m[0] == 0 for m in g.terms):
            degree = max(m[1] for m in g.terms)
            coeffs = [Fraction(0)] * (degree + 1)
            for (_, e2), c in g.terms.items():
                coeffs[e2] = c
            return UniPoly(coeffs).monic()
    raise EliminationError("basis has no univariate member in k2")
