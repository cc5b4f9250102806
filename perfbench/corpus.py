"""Seeded operation streams for the four benchmark workloads.

The draws reproduce the acceptance suite's generators (`_random_game`,
`_random_rational_game`) without importing the test package.  Rational games
keep `a <= A_MAX` (see there); verify_oracles draws them with `a` stratified
in groups (`_stratified_a`).  Each stream is
infinite and yields only parameter sets it has not yielded before, so no two
operations of a run share exact parameters and the solver's per-polynomial
memo can only hit within one solve.

A stream is keyed by (workload, seed) through `random.Random(str)`, which is
deterministic across interpreters and platforms.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from lqnash import GameParams, fold_game, pitchfork_game

# Every MULTI_EVERY-th exact operation is a constructed multiple-root game,
# alternating fold (double root) and pitchfork (triple root).
MULTI_EVERY = 16

# The figure sweep's a-grid endpoints are jittered by at most this much in
# every sweep after the first, which keeps the rows distinct from the golden
# figure while leaving (q1, r1, q2) and the four r2 curves shared.
SWEEP_JITTER = 1e-6

# verify_oracles draws a in groups of this many games (see _stratified_a).
VERIFY_GROUP = 5

# Rational games are drawn with a <= A_MAX: the acceptance suite's
# distribution conditioned on that bound.  Above it the seed commit rejects
# valid games: solve checks its float residual against an absolute 1e-8, and
# the residual grows like a^3.  Over 30,000 games with a <= 20 the largest
# residual was 4.0e-10 and none was rejected; with
# 20 < a <= 50 it reached 7.6e-9, and about 14% of games with a >= 55 raise
# ConsistencyError.  A workload must run no failing operation, so the rejected
# games are measured apart, by large_a_games and solver.large_a_solved_frac.
A_MAX = 20

# Games with a > A_MAX in the fixed set large_a_games draws.
LARGE_A_COUNT = 128

# Gate operations per workload, drawn from their own stream (see gate_ops).
GATE_SIZE = {"solve_float": 64, "solve_exact": 96}


@dataclass(frozen=True)
class Op:
    """One benchmark operation: a game, with the point its construction pins."""

    kind: str  # "float", "rational", "fold" or "pitchfork"
    params: GameParams
    known: tuple[Fraction, Fraction] | None = None  # exact multiple point (k1, k2)


def op_key(params: GameParams) -> tuple:
    return tuple(getattr(params, n) for n in ("a", "q1", "q2", "r1", "r2", "b1", "b2", "x0"))


def _unique(draw, seen: set):
    while True:
        op = draw()
        key = op_key(op.params)
        if key not in seen:
            seen.add(key)
            yield op


def _float_game(rng: random.Random) -> GameParams:
    a = 0.0
    while a == 0.0:
        a = rng.uniform(0, 4)
    return GameParams(
        a=a,
        q1=10 ** rng.uniform(-2, 2), q2=10 ** rng.uniform(-2, 2),
        r1=10 ** rng.uniform(-2, 2), r2=10 ** rng.uniform(-2, 2),
        b1=rng.choice([2, 1, 0.5, -2, -1, -0.5]),
        b2=rng.choice([2, 1, 0.5, -2, -1, -0.5]),
    )


def _small_rational(rng: random.Random, hi: int = 400, den: int = 100) -> Fraction:
    return Fraction(rng.randint(1, hi), rng.randint(1, den))


def _a_within(rng: random.Random, low: int, high: int | None) -> Fraction:
    """`_small_rational` drawn again until low < a <= high (no upper bound if None)."""
    while True:
        a = _small_rational(rng)
        if low < a and (high is None or a <= high):
            return a


def _rational_game(rng: random.Random, a: Fraction | None = None) -> GameParams:
    r = _small_rational
    a = a or _a_within(rng, 0, A_MAX)
    return GameParams(a=a, q1=r(rng), q2=r(rng), r1=r(rng), r2=r(rng))


def _stratified_a(rng: random.Random):
    """`a = n/d` as `_small_rational` draws it with a <= A_MAX, stratified in
    groups of VERIFY_GROUP.  The admissible (n, d) pairs, sorted by a, are cut
    into VERIFY_GROUP strata of equal size (to within one pair); each group
    takes one pair from each stratum, in random order.  Every single draw is
    uniform over the pairs, as in the acceptance suite; a group's mix of large
    and small a varies less, and a is what a verified game's cost depends on
    most."""
    pairs = sorted(((n, d) for n in range(1, 401) for d in range(1, 101) if n <= A_MAX * d),
                   key=lambda nd: nd[0] / nd[1])
    cuts = [len(pairs) * i // VERIFY_GROUP for i in range(VERIFY_GROUP + 1)]
    strata = [pairs[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    while True:
        for stratum in rng.sample(strata, VERIFY_GROUP):
            yield Fraction(*rng.choice(stratum))


def _fold_op(rng: random.Random) -> Op:
    """A fold_game instance: double root at a known rational equilibrium."""
    while True:
        c = Fraction(rng.randint(1, 39), 40)
        k1 = Fraction(rng.randint(1, 400), rng.randint(1, 100))
        r1 = Fraction(rng.randint(1, 40), rng.randint(1, 20))
        try:
            params, point = fold_game(c, k1, r1)
        except ValueError:
            continue  # outside the positive-weight region: draw again
        return Op("fold", params, point)


def _pitchfork_op(rng: random.Random) -> Op:
    """A pitchfork_game instance: triple root at k1 = k2 = s."""
    m = rng.randint(2, 40)
    n = rng.randint(1, m - 1)
    s = Fraction(m * m - n * n, 2 * m * n)  # 1 + s^2 is a rational square
    params, s = pitchfork_game(s, _small_rational(rng))
    return Op("pitchfork", params, (s, s))


def _drawer(workload: str, rng: random.Random):
    if workload == "solve_float":
        return lambda: Op("float", _float_game(rng))
    if workload == "verify_oracles":
        a_values = _stratified_a(rng)
        return lambda: Op("rational", _rational_game(rng, next(a_values)))
    count = 0

    def draw_exact() -> Op:
        nonlocal count
        count += 1
        if count % MULTI_EVERY == 0:
            return _fold_op(rng) if (count // MULTI_EVERY) % 2 else _pitchfork_op(rng)
        return Op("rational", _rational_game(rng))

    return draw_exact


def gate_ops(workload: str, count: int | None = None) -> list[Op]:
    """The fixed operations whose seed-commit outputs are committed as golden."""
    ops = _unique(_drawer(workload, random.Random(f"{workload}:gate:0")), set())
    return [next(ops) for _ in range(GATE_SIZE.get(workload, 0) if count is None else count)]


def large_a_games() -> list[Op]:
    """A fixed set of small-rational games with a > A_MAX, outside every
    workload: the games the seed commit partly rejects (see A_MAX)."""
    rng = random.Random("solve_exact:large_a:0")
    return [Op("rational", _rational_game(rng, _a_within(rng, A_MAX, None)))
            for _ in range(LARGE_A_COUNT)]


def stream(workload: str, seed: int):
    """The run's operations for a seed: new parameters only, none a gate op's."""
    seen = {op_key(op.params) for op in gate_ops(workload)}
    return _unique(_drawer(workload, random.Random(f"{workload}:run:{seed}")), seen)


def figure_config(root: Path) -> dict:
    with open(root / "configs" / "figure_sweep.json", encoding="utf-8") as fh:
        return json.load(fh)


def sweep_configs(base: dict, seed: int):
    """The figure config itself, then seeded variants with a shifted a-grid."""
    rng = random.Random(f"sweep_figure:run:{seed}")
    yield dict(base)
    seen = set()
    while True:
        grid = dict(base["a_grid"])
        grid["min"] = grid["min"] + rng.uniform(0.0, SWEEP_JITTER)
        grid["max"] = grid["max"] - rng.uniform(0.0, SWEEP_JITTER)
        if (grid["min"], grid["max"]) in seen:
            continue
        seen.add((grid["min"], grid["max"]))
        yield dict(base, a_grid=grid)
