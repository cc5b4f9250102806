"""Command-line surface: solve single games, sweep the dynamics gain,
cross-verify against the brute-force oracles, and re-derive the elimination
quintic through the Buchberger engine.

Exit codes: 0 ok, 2 invalid input, 3 internal-consistency violation,
4 oracle disagreement.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import random
import re
import sys

from .exactalg import UniPoly
# not called here: perfbench/tracing.py still wraps these two names in this module
from .exactalg import isolate_real_roots, refine_root  # noqa: F401
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
    GRID_DEFAULT,
    br_iteration,
    grid_scan,
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


def format_poly(p: UniPoly, var: str = "k2") -> str:
    if p.is_zero:
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = f"{mag}"
        else:
            power = var if i == 1 else f"{var}^{i}"
            body = power if mag == 1 else f"{mag}*{power}"
        parts.append(("-" if c < 0 else "+", body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


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


def _match_sets(found: list, expected: list, tol: float) -> tuple[bool, float, str]:
    """Pairwise set agreement within tol; reports the worst deviation."""
    if len(found) != len(expected):
        return False, math.inf, f"{len(found)} pairs vs {len(expected)}"
    worst = 0.0
    used = [False] * len(expected)
    for f in found:
        best, best_i = math.inf, -1
        for i, e in enumerate(expected):
            if used[i]:
                continue
            d = max(abs(f[0] - e[0]), abs(f[1] - e[1]))
            if d < best:
                best, best_i = d, i
        if best_i < 0 or best > tol:
            return False, best, f"pair ({f[0]:.9g}, {f[1]:.9g}) unmatched (deviation {best:.3g})"
        used[best_i] = True
        worst = max(worst, best)
    return True, worst, ""


def cmd_verify(args) -> int:
    params = _game_from_args(args)
    report = solve(params)
    norm = report.game
    fnorm = float_game(norm)
    solved = [renormalize_equilibrium(fnorm, (e.k1, e.k2)) for e in report.equilibria]
    a = fnorm.a
    failures = []
    lines = [f"solve: {len(solved)} equilibrium(s), delta sign {report.delta_sign}"]

    scanned = grid_scan(fnorm, GRID_DEFAULT)
    ok, worst, detail = _match_sets(scanned, solved, VERIFY_TOL)
    lines.append(
        f"grid_scan(n={GRID_DEFAULT}): "
        + (f"agree ({len(scanned)} pairs, max deviation {worst:.3g})" if ok else f"DISAGREE: {detail}")
    )
    if not ok:
        failures.append(("grid_scan", detail))

    rng = random.Random(args.seed)
    starts = []
    for i in range(1, 9):
        base = a * i / 9.0
        if args.seed is not None:
            base += rng.uniform(-a / 18.0, a / 18.0)
        starts.append(min(max(base, 1e-12), a - 1e-12))
    converged = 0
    for s in starts:
        res = br_iteration(fnorm, s, max_iter=500, tol=VERIFY_TOL / 100.0)
        if not res.converged:
            continue
        converged += 1
        best = min(
            (max(abs(res.k1 - e[0]), abs(res.k2 - e[1])) for e in solved), default=math.inf
        )
        if best > 10 * VERIFY_TOL:
            detail = f"fixed point ({res.k1:.9g}, {res.k2:.9g}) not among solved pairs"
            failures.append(("br_iteration", detail))
            lines.append(f"br_iteration: DISAGREE: {detail}")
            break
    else:
        if converged:
            lines.append(f"br_iteration: agree ({converged}/8 starts converged, all matched)")
        else:
            # nothing to compare: not a disagreement, since the composed
            # best-response map need not contract near any equilibrium
            lines.append("br_iteration: inconclusive (0/8 starts converged)")

    res_poly = resultant_elimination(norm)
    if res_poly == report.g2:
        lines.append("resultant_elimination: agree (exactly the solver's quintic)")
    else:
        detail = "the resultant is not the solver's quintic"
        failures.append(("resultant_elimination", detail))
        lines.append(f"resultant_elimination: DISAGREE: {detail}")

    worst_sim = 0.0
    sim_ok = True
    for k1, k2 in solved:
        final = simulate_cost(fnorm, k1, k2, 200)
        closed = cost(fnorm, k1, k2)
        a_cl = closed.a_cl
        for partial, total in ((final.partial_cost_1, closed.j1), (final.partial_cost_2, closed.j2)):
            tail = abs(total) * abs(a_cl) ** 402 + 1e-9 * (1 + abs(total))
            err = abs(partial - total)
            worst_sim = max(worst_sim, err)
            if err > tail:
                sim_ok = False
                detail = f"simulated cost off by {err:.3g} at pair ({k1:.9g}, {k2:.9g})"
                failures.append(("simulate_cost", detail))
                lines.append(f"simulate_cost: DISAGREE: {detail}")
                break
        if not sim_ok:
            break
    if sim_ok:
        lines.append(f"simulate_cost(T=200): agree (max error {worst_sim:.3g})")

    for line in lines:
        print(line)
    if failures:
        print(f"VERDICT: FAIL ({failures[0][0]}: {failures[0][1]})")
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
    print(f"direct quintic:     {format_poly(direct)}")
    print(f"buchberger version: {format_poly(eliminated)}")
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
