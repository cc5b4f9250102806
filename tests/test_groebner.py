"""Buchberger engine: worked examples, basis laws, and the re-derivation of
the elimination quintic that is this module's reason to exist."""

import random
from fractions import Fraction

import pytest

from lqnash.exactalg import UniPoly
from lqnash.game import GameParams, normalize
from lqnash.groebner import EliminationError, MultiPoly, buchberger, elimination_polynomial
from lqnash.solver import build_g, stationarity_system
from reference_algebra import buchberger as fraction_buchberger
from reference_algebra import lex_compare, reduce, s_polynomial

K1 = MultiPoly({(1, 0): 1})
K2 = MultiPoly({(0, 1): 1})
F_CLASSIC = MultiPoly({(2, 0): 1, (0, 1): -1})  # k1^2 - k2
G_CLASSIC = MultiPoly({(1, 1): 1, (0, 0): -1})  # k1*k2 - 1


def random_rational_game(rng) -> GameParams:
    def r(lo=1, hi=40, den=4):
        return Fraction(rng.randint(lo, hi), rng.randint(1, den))

    return GameParams(a=r(1, 16), q1=r(), q2=r(), r1=r(), r2=r())


class TestLexCompare:
    def test_k1_beats_any_k2_power(self):
        assert lex_compare((1, 0), (0, 5)) == 1

    def test_second_exponent_breaks_ties(self):
        assert lex_compare((2, 1), (2, 3)) == -1

    def test_equal(self):
        assert lex_compare((0, 0), (0, 0)) == 0


class TestSPolynomial:
    def test_coprime_monomials_cancel_completely(self):
        assert s_polynomial(K1, K2).is_zero

    def test_classic_pair(self):
        assert s_polynomial(F_CLASSIC, G_CLASSIC) == MultiPoly({(1, 0): 1, (0, 2): -1})

    def test_self_pair_is_zero(self):
        assert s_polynomial(F_CLASSIC, F_CLASSIC).is_zero

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            s_polynomial(MultiPoly(), K1)


class TestReduce:
    def test_full_reduction(self):
        assert reduce(MultiPoly({(2, 0): 1}), [K1]).is_zero

    def test_substitution_style(self):
        f = MultiPoly({(1, 1): 1, (0, 1): 1})
        assert reduce(f, [MultiPoly({(1, 0): 1, (0, 0): -1})]) == MultiPoly({(0, 1): 2})

    def test_empty_basis(self):
        assert reduce(F_CLASSIC, []) == F_CLASSIC


class TestBuchberger:
    def test_already_a_basis(self):
        assert set(map(repr, buchberger([K1, K2]))) == set(map(repr, [K1, K2]))

    def test_classic_example_eliminates(self):
        basis = buchberger([F_CLASSIC, G_CLASSIC])
        assert elimination_polynomial(basis) == UniPoly([-1, 0, 0, 1])

    def test_all_ones_system(self):
        basis = buchberger(stationarity_system(normalize(GameParams(a=1, q1=1, q2=1, r1=1, r2=1))))
        expected = UniPoly([1, -2, -2, 0, -3, 2]).monic()
        assert elimination_polynomial(basis) == expected

    def test_idempotent(self):
        basis = buchberger([F_CLASSIC, G_CLASSIC])
        assert buchberger(basis) == basis

    def test_inputs_reduce_to_zero(self):
        rng = random.Random(3)
        for _ in range(10):
            system = stationarity_system(normalize(random_rational_game(rng)))
            basis = buchberger(system)
            for f in system:
                assert reduce(f, basis).is_zero

    def test_all_s_polynomials_reduce_to_zero(self):
        rng = random.Random(17)
        for _ in range(5):
            basis = buchberger(stationarity_system(normalize(random_rational_game(rng))))
            for i in range(len(basis)):
                for j in range(i):
                    assert reduce(s_polynomial(basis[i], basis[j]), basis).is_zero

    def test_rejects_empty_system(self):
        with pytest.raises(ValueError):
            buchberger([])

    def test_random_systems_self_certify(self):
        rng = random.Random(606)
        certified = 0
        while certified < 60:
            system = []
            for _ in range(rng.randint(2, 3)):
                terms = {}
                for _ in range(rng.randint(2, 5)):
                    m = (rng.randint(0, 2), rng.randint(0, 2))
                    terms[m] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                p = MultiPoly(terms)
                if not p.is_zero:
                    system.append(p)
            if len(system) < 2:
                continue
            basis = buchberger(system)
            if not basis:
                continue
            for f in system:
                assert reduce(f, basis).is_zero
            for i in range(len(basis)):
                for j in range(i):
                    assert reduce(s_polynomial(basis[i], basis[j]), basis).is_zero
            assert buchberger(basis) == basis
            certified += 1

    def test_same_basis_as_the_fraction_engine(self):
        rng = random.Random(31)
        systems = [stationarity_system(normalize(random_rational_game(rng))) for _ in range(30)]
        while len(systems) < 330:
            system = [MultiPoly({(rng.randint(0, 2), rng.randint(0, 3)):
                                 Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                 for _ in range(rng.randint(2, 6))})
                      for _ in range(rng.randint(1, 3))]
            if any(not p.is_zero for p in system):
                systems.append(system)
        for system in systems:
            assert buchberger(system) == fraction_buchberger(system), system

    def test_remainder_terms_not_divisible_by_basis_leads(self):
        rng = random.Random(909)
        for _ in range(50):
            basis = buchberger(stationarity_system(normalize(random_rational_game(rng))))
            terms = {(rng.randint(0, 4), rng.randint(0, 4)): Fraction(rng.randint(-9, 9))
                     for _ in range(5)}
            f = MultiPoly(terms)
            r = reduce(f, basis)
            leads = [g.leading_monomial() for g in basis]
            for m in r.terms:
                assert not any(lm[0] <= m[0] and lm[1] <= m[1] for lm in leads)


class TestElimination:
    def test_triangular_basis(self):
        basis = [MultiPoly({(1, 0): 1, (0, 1): -1}), MultiPoly({(0, 2): 1, (0, 0): -1})]
        assert elimination_polynomial(basis) == UniPoly([-1, 0, 1])

    def test_origin_ideal(self):
        assert elimination_polynomial([K1, K2]) == UniPoly([0, 1])

    def test_signals_absence(self):
        with pytest.raises(EliminationError):
            elimination_polynomial([K1])

    def test_matches_direct_quintic_on_random_rational_games(self):
        # the module's reason to exist
        rng = random.Random(2024)
        for _ in range(20):
            params = random_rational_game(rng)
            norm = normalize(params)
            eliminated = elimination_polynomial(buchberger(stationarity_system(norm)))
            assert eliminated == build_g(norm).monic()
            assert eliminated.degree == 5
