"""Minimal Buchberger engine for bivariate systems over exact rationals.

Monomials are exponent pairs (e1, e2) for the two policy variables, ordered
lexicographically with the first variable largest, so the reduced basis of a
zero-dimensional ideal triangularizes and exposes a univariate member in the
second variable.
"""

from __future__ import annotations

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

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, Fraction(0)) + c
            if v == 0:
                out.pop(m, None)
            else:
                out[m] = v
        return MultiPoly(out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, Fraction(0)) - c
            if v == 0:
                out.pop(m, None)
            else:
                out[m] = v
        return MultiPoly(out)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return MultiPoly(out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly({m: -c for m, c in self.terms.items()})

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
