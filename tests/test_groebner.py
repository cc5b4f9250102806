"""Buchberger engine: worked examples, basis laws, and the re-derivation of
the elimination quintic that is this module's reason to exist."""

import importlib.util
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lqnash.exactalg import UniPoly
from lqnash.game import GameParams, normalize
from lqnash.groebner import EliminationError, _update, buchberger, elimination_polynomial
from lqnash.solver import build_g, stationarity_system
from reference_algebra import buchberger as fraction_buchberger
from reference_algebra import lex_compare, reduce, s_polynomial

K1 = {(1, 0): 1}
K2 = {(0, 1): 1}
F_CLASSIC = {(2, 0): 1, (0, 1): -1}  # k1^2 - k2
G_CLASSIC = {(1, 1): 1, (0, 0): -1}  # k1*k2 - 1

# a = 2, q = 3, r = 1 zeroes a player's k1 coefficient r + q - a^2 r, so
# these stationarity systems reach the engine with a zero term, though not
# a leading one
ZERO_COEFFICIENT_GAMES = [
    GameParams(a=2, q1=3, r1=1, q2=Fraction(5, 2), r2=Fraction(7, 3)),
    GameParams(a=2, q1=Fraction(5, 2), r1=Fraction(7, 3), q2=3, r2=1),
]


def verify_stream_systems(count: int) -> list:
    """Stationarity systems of the first `count` games of the benchmark's
    seed-7 verify_oracles stream (perfbench/corpus.py)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    corpus = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    ops = itertools.islice(corpus.stream("verify_oracles", 7), count)
    return [stationarity_system(normalize(op.params)) for op in ops]


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
        assert not s_polynomial(K1, K2)

    def test_classic_pair(self):
        assert s_polynomial(F_CLASSIC, G_CLASSIC) == {(1, 0): 1, (0, 2): -1}

    def test_self_pair_is_zero(self):
        assert not s_polynomial(F_CLASSIC, F_CLASSIC)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            s_polynomial({}, K1)


class TestReduce:
    def test_full_reduction(self):
        assert not reduce({(2, 0): 1}, [K1])

    def test_substitution_style(self):
        f = {(1, 1): 1, (0, 1): 1}
        assert reduce(f, [{(1, 0): 1, (0, 0): -1}]) == {(0, 1): 2}

    def test_empty_basis(self):
        assert reduce(F_CLASSIC, []) == F_CLASSIC


class TestBuchberger:
    def test_already_a_basis(self):
        assert buchberger([K1, K2]) == [K2, K1]

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
                assert not reduce(f, basis)

    def test_all_s_polynomials_reduce_to_zero(self):
        rng = random.Random(17)
        for _ in range(5):
            basis = buchberger(stationarity_system(normalize(random_rational_game(rng))))
            for i in range(len(basis)):
                for j in range(i):
                    assert not reduce(s_polynomial(basis[i], basis[j]), basis)

    def test_rejects_empty_system(self):
        with pytest.raises(ValueError):
            buchberger([])
        with pytest.raises(ValueError):
            buchberger([{(1, 0): 0, (0, 0): Fraction(0)}])

    def test_zero_terms_are_dropped_on_entry(self):
        # a zero at the lex-largest monomial must not become a leading term,
        # and an all-zero polynomial adds nothing to the ideal
        padded = [{(3, 0): 0, **F_CLASSIC}, {**G_CLASSIC, (2, 2): Fraction(0)}, {(1, 1): 0}]
        assert buchberger(padded) == buchberger([F_CLASSIC, G_CLASSIC])

    def test_zero_coefficient_games_reach_the_engine_with_a_zero_term(self):
        for game, player in zip(ZERO_COEFFICIENT_GAMES, (0, 1)):
            assert 0 in stationarity_system(normalize(game))[player].values()

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
                if any(terms.values()):
                    system.append(terms)
            if len(system) < 2:
                continue
            basis = buchberger(system)
            if not basis:
                continue
            for f in system:
                assert not reduce(f, basis)
            for i in range(len(basis)):
                for j in range(i):
                    assert not reduce(s_polynomial(basis[i], basis[j]), basis)
            assert buchberger(basis) == basis
            certified += 1

    def test_same_basis_as_the_fraction_engine(self):
        rng = random.Random(31)
        games = [random_rational_game(rng) for _ in range(30)] + ZERO_COEFFICIENT_GAMES
        systems = [stationarity_system(normalize(game)) for game in games]
        while len(systems) < 332:
            system = [{(rng.randint(0, 2), rng.randint(0, 3)):
                       Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                       for _ in range(rng.randint(2, 6))}
                      for _ in range(rng.randint(1, 3))]
            if any(any(p.values()) for p in system):
                systems.append(system)
        for system in systems:
            assert buchberger(system) == fraction_buchberger(system), system

    def test_same_basis_as_the_fraction_engine_on_verify_stream_systems(self):
        for system in verify_stream_systems(300):
            assert buchberger(system) == fraction_buchberger(system), system

    def test_same_basis_as_the_fraction_engine_on_larger_systems(self):
        # up to four polynomials of degree up to 3 in each variable queue
        # more pairs, so both Gebauer-Moeller criteria and retirement fire
        rng = random.Random(77)
        checked = 0
        while checked < 60:
            system = [{(rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                       for _ in range(rng.randint(2, 4))}
                      for _ in range(rng.randint(2, 4))]
            if any(any(p.values()) for p in system):
                assert buchberger(system) == fraction_buchberger(system), system
                checked += 1

    def test_remainder_terms_not_divisible_by_basis_leads(self):
        rng = random.Random(909)
        for _ in range(50):
            basis = buchberger(stationarity_system(normalize(random_rational_game(rng))))
            terms = {(rng.randint(0, 4), rng.randint(0, 4)): Fraction(rng.randint(-9, 9))
                     for _ in range(5)}
            r = reduce(terms, basis)
            leads = [max(g) for g in basis]
            for m in r:
                assert not any(lm[0] <= m[0] and lm[1] <= m[1] for lm in leads)


class TestGebauerMoellerUpdate:
    F1 = {(2, 1): 1, (0, 0): -1}  # k1^2 k2 - 1
    F2 = {(1, 2): 1, (0, 0): -1}  # k1 k2^2 - 1
    H = {(1, 1): 1, (0, 0): -1}  # k1 k2 - 1

    def _state(self, polys):
        basis, lms, active, pairs = [], [], [], []
        for f in polys:
            _update(basis, lms, active, pairs, f)
        return basis, lms, active, pairs

    def test_pair_of_non_coprime_leads_is_queued(self):
        *_, active, pairs = self._state([self.F1, self.F2])
        assert active == [0, 1]
        assert pairs == [((4, (2, 2)), 0, 1)]

    def test_new_lead_dividing_old_ones_retires_them_and_drops_their_pair(self):
        # lm(H) = k1 k2 divides lcm(lm F1, lm F2) = k1^2 k2^2, which neither
        # lcm with lm(H) equals, so the queued pair (0, 1) is redundant; it
        # divides both old leads, so both retire
        *_, active, pairs = self._state([self.F1, self.F2, self.H])
        assert active == [2]
        assert pairs == [((3, (2, 1)), 0, 2), ((3, (1, 2)), 1, 2)]

    def test_new_pair_whose_lcm_another_new_lcm_divides_is_dropped(self):
        # with k1 and k1^2 + k2 active, k1 k2's lcm with k1 divides its lcm
        # with k1^2 + k2, so of its two new pairs only (0, 2) is queued
        *_, active, pairs = self._state([{(1, 0): 1}, {(2, 0): 1, (0, 1): 1},
                                         {(1, 1): 1, (0, 0): 1}])
        assert active == [0, 1, 2]
        assert pairs == [((2, (2, 0)), 0, 1), ((2, (1, 1)), 0, 2)]

    def test_coprime_new_pairs_are_not_queued(self):
        *_, active, pairs = self._state([{(2, 0): 1, (0, 0): 1}, {(0, 3): 1, (0, 0): 1}])
        assert active == [0, 1]
        assert pairs == []

    def test_bases_with_retirement_equal_the_fraction_engine(self):
        for system in ([self.F1, self.F2, self.H], [self.H, self.F1, self.F2],
                       [self.F1, {(1, 0): 1, (0, 1): -2}]):
            assert buchberger(system) == fraction_buchberger(system)
        assert buchberger([self.F1, self.F2, self.H]) == [{(0, 1): 1, (0, 0): -1},
                                                          {(1, 0): 1, (0, 0): -1}]


class TestElimination:
    def test_triangular_basis(self):
        basis = [{(1, 0): 1, (0, 1): -1}, {(0, 2): 1, (0, 0): -1}]
        assert elimination_polynomial(basis) == UniPoly([-1, 0, 1])

    def test_origin_ideal(self):
        assert elimination_polynomial([K1, K2]) == UniPoly([0, 1])

    def test_signals_absence(self):
        with pytest.raises(EliminationError):
            elimination_polynomial([K1])

    def test_matches_direct_quintic_on_random_rational_games(self):
        # the module's reason to exist
        rng = random.Random(2024)
        for params in [random_rational_game(rng) for _ in range(20)] + ZERO_COEFFICIENT_GAMES:
            norm = normalize(params)
            eliminated = elimination_polynomial(buchberger(stationarity_system(norm)))
            assert eliminated == build_g(norm).monic()
            assert eliminated.degree == 5
