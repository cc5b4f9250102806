"""Command-line surface: solve single games, sweep the dynamics gain,
cross-verify against the brute-force oracles, and re-derive the elimination
quintic through the Buchberger engine.

Exit codes: 0 ok, 2 invalid input, 3 internal-consistency violation,
4 oracle disagreement.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import random
import re
import sys

# not called here: perfbench/tracing.py still wraps these names in this module
from .exactalg import isolate_real_roots, refine_root  # noqa: F401
from .oracle import grid_scan  # noqa: F401
from .game import (
    GameParams,
    InvalidGameError,
    cost,
    float_game,
    normalize,
    parse_rational,
    renormalize_equilibrium,
)
from .groebner import EliminationError, buchberger, elimination_polynomial
from .oracle import (
    TarskiQueries,
    br_iteration,
    resultant_elimination,
    simulate_cost,
    stationarity_system,
)
from .solver import (
    G_SCALE,
    ConsistencyError,
    NashEquilibrium,
    SolveReport,
    build_g,
    solve,
)
from . import sweep as sweep_mod
from .sweep import ConfigError, canonical_dumps, format_float

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INCONSISTENT = 3
EXIT_DISAGREE = 4

# verify's agreement tolerance between the solver and the float oracles
VERIFY_TOL = 1e-6


class InputError(Exception):
    """Input rejected before any work; `main` prints it and exits 2."""


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


_GAME_FLAGS = ("a", "q1", "q2", "r1", "r2")
_OPT_FLAGS = ("b1", "b2", "x0")


def _add_game_flags(sp: argparse.ArgumentParser) -> None:
    for name in _GAME_FLAGS:
        sp.add_argument(f"--{name}", required=True)
    sp.add_argument("--b1", default="1")
    sp.add_argument("--b2", default="1")
    sp.add_argument("--x0", default="1")


# a value token that starts like a negative number: -1/2, -1e3, -.5
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """`--a -1/2` rewritten as `--a=-1/2`, for every game flag.

    argparse reads a token that starts with '-' as an option unless it is a
    plain integer or decimal, so `-1/2` or `-1e3` would leave the flag
    without its value.
    """
    flags = {f"--{name}" for name in _GAME_FLAGS + _OPT_FLAGS}
    out: list[str] = []
    for token in argv:
        if out and out[-1] in flags and _NEGATIVE_VALUE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _game_from_args(args) -> GameParams:
    """The command's validated game; only `solve` accepts the trivial game a = 0."""
    try:
        params = GameParams(**{name: parse_rational(getattr(args, name))
                               for name in _GAME_FLAGS + _OPT_FLAGS})
    except ValueError as exc:
        raise InputError(f"invalid parameters: {exc}") from exc
    # documents print every parameter as a double
    for name in _GAME_FLAGS + _OPT_FLAGS:
        try:
            float(getattr(params, name))
        except OverflowError:
            raise InputError(f"invalid parameters: {name} is too large for a double") from None
    if params.a == 0 and args.command != "solve":
        raise InputError(f"{args.command} does not apply to the trivial game a = 0")
    return params


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lqnash",
        description="Exact Nash equilibria of scalar two-player discrete-time LQ games",
    )
    ap.add_argument("--seed", type=int, default=None, help="seed for randomized verify starts")
    ap.add_argument("--threads", type=int, default=1, help="worker processes for sweeps")
    ap.add_argument("--quiet", action="store_true", help="suppress informational output")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve one game and print the report")
    _add_game_flags(sp)
    sp.add_argument("--format", choices=("json", "table"), default="json")

    sp = sub.add_parser("sweep", help="run a parameter sweep from a JSON config")
    sp.add_argument("config", help="path to the sweep configuration")

    sp = sub.add_parser("verify", help="cross-check one game against all oracles")
    _add_game_flags(sp)

    sp = sub.add_parser("groebner-check", help="re-derive the quintic with Buchberger")
    _add_game_flags(sp)
    return ap


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _equilibrium_doc(e) -> dict:
    return {
        "k1": e.k1,
        "k2": e.k2,
        "a_cl": e.a_cl,
        "j1": e.j1,
        "j2": e.j2,
        "residual_norm": e.residual_norm,
        "root_multiplicity": e.root_multiplicity,
    }


def _params_doc(params: GameParams) -> dict:
    return {name: float(getattr(params, name)) for name in _GAME_FLAGS + _OPT_FLAGS}


@contextlib.contextmanager
def _any_int_length():
    """Lift Python's limit on the digits of an int converted to str (3.11 and
    the 3.10 security releases cap it at 4,300) for the block only."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def solve_document(params: GameParams, report: SolveReport) -> dict:
    # an exact game of long numbers has a quintic and a discriminant longer still
    with _any_int_length():
        g2_coefficients = [str(c) for c in report.g2.coeffs]
        delta = str(report.delta)
    return {
        "params": _params_doc(params),
        "trivial": False,
        "g2_coefficients": g2_coefficients,
        "g_scale": G_SCALE,
        "delta": {
            "exact": delta,
            "float": report.delta_float,
            "sign": report.delta_sign,
        },
        "real_roots_total": report.real_roots_total,
        "roots_below_zero": report.roots_below_zero,
        "roots_above_a": report.roots_above_a,
        "n_nash": report.n_nash,
        "equilibria": [_equilibrium_doc(e) for e in report.equilibria],
        # a SolveReport cannot break the discriminant law, so each flag is true
        "theorem_flags": {"existence": True, "at_most_three": True, "delta_consistency": True},
    }


def trivial_document(params: GameParams) -> dict:
    # a product, as `cost` takes it: a float power raises OverflowError past the double range
    x0 = float(params.x0)
    x0sq = x0 * x0
    zero = NashEquilibrium(k1=0.0, k2=0.0, a_cl=0.0, j1=float(params.q1) * x0sq,
                           j2=float(params.q2) * x0sq, residual_norm=0.0, root_multiplicity=1)
    return {
        "params": _params_doc(params),
        "trivial": True,
        "n_nash": 1,
        "equilibria": [_equilibrium_doc(zero)],
    }


_TABLE_COLUMNS = (("k1", 18), ("k2", 18), ("a_cl", 14), ("j1", 16), ("j2", 16))


def _print_table(doc: dict) -> None:
    # a space before every column: a value may fill its whole field
    print(f"{'':>4}" + "".join(f" {name:>{width}}" for name, width in _TABLE_COLUMNS))
    for i, e in enumerate(doc["equilibria"], 1):
        print(f"{i:>4}" + "".join(f" {format_float(e[name]):>{width}}"
                                  for name, width in _TABLE_COLUMNS))
    if not doc.get("trivial"):
        print(f"delta = {doc['delta']['float']:.6g} (sign {doc['delta']['sign']}), "
              f"{doc['n_nash']} equilibrium(s)")


def cmd_solve(args) -> int:
    params = _game_from_args(args)
    doc = trivial_document(params) if params.a == 0 else solve_document(params, solve(params))
    if args.format == "table":
        _print_table(doc)
    else:
        sys.stdout.write(canonical_dumps(doc))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    config = sweep_mod.load_config(args.config)
    n_rows = sweep_mod.run_sweep(config, threads=max(1, args.threads))
    if not args.quiet:
        print(f"wrote {n_rows} rows to {config.outputs.csv}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _deviation(p: tuple[float, float], q: tuple[float, float]) -> float:
    """Chebyshev distance between two pairs; infinite if a coordinate is NaN."""
    dx, dy = abs(p[0] - q[0]), abs(p[1] - q[1])
    # max() drops a NaN that is not its first argument
    return math.inf if math.isnan(dx) or math.isnan(dy) else max(dx, dy)


def _check_tarski(game, solved: list) -> tuple[str | None, str | None]:
    """The exact number of equilibria must be the number of solved pairs,
    and each pair must have an equilibrium within VERIFY_TOL, certified in
    an interval of k2 at most a third of the way to the next solved k2.  The
    intervals are disjoint, so the pairs match the equilibria one to one."""
    queries = TarskiQueries(game)
    counted = queries.count()
    if counted is None:
        return "inconclusive (a stabilizing condition vanishes at a real root)", None
    n, roots = counted
    if n != len(solved):
        return None, f"{n} equilibria vs {len(solved)} solved pairs"
    for i, (k1, k2) in enumerate(solved):
        if not (math.isfinite(k1) and math.isfinite(k2)):
            return None, f"pair ({k1:.9g}, {k2:.9g}) is not finite"
        gap = min((abs(k2 - other) for j, (_, other) in enumerate(solved) if j != i), default=math.inf)
        detail = queries.locate(k1, k2, min(VERIFY_TOL, gap / 3), VERIFY_TOL)
        if detail:
            return None, f"pair ({k1:.9g}, {k2:.9g}): {detail}"
    return (f"agree ({n} {'equilibrium' if n == 1 else 'equilibria'}, {roots} real roots; "
            f"every pair within {VERIFY_TOL:g})"), None


def _check_br_iteration(fnorm, solved: list, seed: int | None) -> tuple[str | None, str | None]:
    """Best-response iteration from 8 starts spread over (0, a), jittered
    when seeded; each start that converges must land on a solved pair."""
    a = fnorm.a
    rng = random.Random(seed)
    converged = 0
    for i in range(1, 9):
        start = a * i / 9.0
        if seed is not None:
            start += rng.uniform(-a / 18.0, a / 18.0)
        res = br_iteration(fnorm, min(max(start, 1e-12), a - 1e-12), max_iter=500,
                           tol=VERIFY_TOL / 100.0)
        if not res.converged:
            continue
        converged += 1
        if min(_deviation((res.k1, res.k2), e) for e in solved) > 10 * VERIFY_TOL:
            return None, f"fixed point ({res.k1:.9g}, {res.k2:.9g}) not among solved pairs"
    if converged:
        return f"agree ({converged}/8 starts converged, all matched)", None
    # nothing to compare: not a disagreement, since the composed
    # best-response map need not contract near any equilibrium
    return "inconclusive (0/8 starts converged)", None


def _check_resultant(report: SolveReport) -> tuple[str | None, str | None]:
    if resultant_elimination(report.game) == report.g2:
        return "agree (exactly the solver's quintic)", None
    return None, "the resultant is not the solver's quintic"


def _check_simulated_cost(fnorm, solved: list) -> tuple[str | None, str | None]:
    """Each solved pair's 200-step partial costs against its closed-form
    costs, allowing the geometric tail past step 200.  Both run from
    x0 = 1, since x0 only scales them by x0^2; a cost that is not finite
    compares nothing."""
    fnorm = dataclasses.replace(fnorm, x0=1.0)
    worst, not_finite = 0.0, None
    for k1, k2 in solved:
        final = simulate_cost(fnorm, k1, k2, 200)
        closed = cost(fnorm, k1, k2)
        for partial, total in ((final.partial_cost_1, closed.j1), (final.partial_cost_2, closed.j2)):
            if not (math.isfinite(partial) and math.isfinite(total)):
                not_finite = not_finite or (k1, k2)
                continue
            err = abs(partial - total)
            if err > abs(total) * abs(closed.a_cl) ** 402 + 1e-9 * (1 + abs(total)):
                return None, f"simulated cost off by {err:.3g} at pair ({k1:.9g}, {k2:.9g})"
            worst = max(worst, err)
    if not_finite:
        k1, k2 = not_finite
        return f"inconclusive (a cost is not finite at pair ({k1:.9g}, {k2:.9g}))", None
    return f"agree (max error {worst:.3g})", None


def cmd_verify(args) -> int:
    report = solve(_game_from_args(args))
    fnorm = float_game(report.game)
    solved = [renormalize_equilibrium(fnorm, (e.k1, e.k2)) for e in report.equilibria]
    # (oracle, its label, its check): a check returns (agreement text, None)
    # or (None, disagreement detail)
    checks = (
        ("tarski_count", "tarski_count", lambda: _check_tarski(report.game, solved)),
        ("br_iteration", "br_iteration", lambda: _check_br_iteration(fnorm, solved, args.seed)),
        ("resultant_elimination", "resultant_elimination", lambda: _check_resultant(report)),
        ("simulate_cost", "simulate_cost(T=200)", lambda: _check_simulated_cost(fnorm, solved)),
    )
    print(f"solve: {len(solved)} equilibrium(s), delta sign {report.delta_sign}")
    failure = None
    for oracle, label, check in checks:
        text, detail = check()
        if detail is None:
            print(f"{label}: {text}")
        else:
            print(f"{label}: DISAGREE: {detail}")
            failure = failure or f"{oracle}: {detail}"
    if failure:
        print(f"VERDICT: FAIL ({failure})")
        return EXIT_DISAGREE
    print("VERDICT: PASS")
    return EXIT_OK


# ---------------------------------------------------------------------------
# groebner-check
# ---------------------------------------------------------------------------


def cmd_groebner_check(args) -> int:
    norm = normalize(_game_from_args(args))
    direct = build_g(norm).monic()
    eliminated = elimination_polynomial(buchberger(stationarity_system(norm)))
    print(f"direct quintic:     {direct.to_str('k2')}")
    print(f"buchberger version: {eliminated.to_str('k2')}")
    if eliminated == direct:
        print("PASS: elimination polynomial matches the closed form exactly")
        return EXIT_OK
    print("FAIL: polynomials differ")
    return EXIT_DISAGREE


def main(argv=None) -> int:
    """Run one command; the exceptions it lets through map to exit codes here."""
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_negative_values(argv))
    handlers = {
        "solve": cmd_solve,
        "sweep": cmd_sweep,
        "verify": cmd_verify,
        "groebner-check": cmd_groebner_check,
    }
    try:
        return handlers[args.command](args)
    except InputError as exc:
        message, code = str(exc), EXIT_INVALID
    except InvalidGameError as exc:
        message, code = f"invalid parameters: {exc}", EXIT_INVALID
    except ConfigError as exc:
        message, code = f"invalid sweep config: {exc}", EXIT_INVALID
    except ConsistencyError as exc:
        message, code = f"internal consistency error: {exc}", EXIT_INCONSISTENT
    except EliminationError as exc:
        message, code = f"elimination failed: {exc}", EXIT_DISAGREE
    print(message, file=sys.stderr)
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
