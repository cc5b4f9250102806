"""The operations each workload sends to lqnash, and the checks on their outputs.

An operation goes through the public call its users make: `lqnash.solve` for
a game, `lqnash.cli.main` for `verify`/`groebner-check` and for `sweep`.  The
checks here run outside every timed region.  They are independent of the
solver's internals: equilibria are checked against the stationarity residuals
in exact arithmetic, the discriminant law against the reported counts, and
the constructed multiple-root games against the point they were built from.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import lqnash
import lqnash.cli

# Relative tolerance on reported floats (k1, k2, a_cl, costs).  It is far
# above double rounding, so correctly rounded roots still pass, and far below
# any wrong root.
REL_TOL = 1e-9

_GAME_FLAGS = ("a", "q1", "q2", "r1", "r2", "b1", "b2", "x0")


def _close(x: float, y, tol: float = REL_TOL) -> bool:
    return abs(x - float(y)) <= tol * max(1.0, abs(float(y)))


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def summarize(report) -> dict:
    """The fields of a solve report the golden gate compares.

    The exact discriminant runs to thousands of digits on float games, so it
    is kept as the sha256 of its decimal fraction.
    """
    eqs = sorted(report.equilibria, key=lambda e: (e.k2, e.k1))
    return {
        "delta_sha256": hashlib.sha256(str(report.delta).encode()).hexdigest(),
        "delta_sign": report.delta_sign,
        "n_nash": report.n_nash,
        "real_roots_total": report.real_roots_total,
        "multiplicities": [e.root_multiplicity for e in eqs],
        "k": [[e.k1, e.k2] for e in eqs],
    }


def _residual_ok(a, q, r, k_own, k_other) -> bool:
    """Player stationarity residual vanishes relative to its own terms."""
    beta = a - k_other
    terms = (beta * r * k_own * k_own, (r + q) * k_own, -beta * beta * r * k_own, -beta * q)
    return abs(sum(terms)) <= REL_TOL * sum(abs(t) for t in terms)


def check_solve(op, report) -> list[str]:
    """Problems with one solve report; an empty list means it is correct."""
    p = op.params
    bad = []
    n, sign = report.n_nash, report.delta_sign
    if not 1 <= n <= 3:
        bad.append(f"{n} equilibria")
    if sign != (report.delta > 0) - (report.delta < 0):
        bad.append("delta_sign disagrees with delta")
    if (sign == -1 and n != 1) or (sign == 0 and n > 2):
        bad.append(f"discriminant law broken: sign {sign}, {n} equilibria")
    if not n + 2 <= report.real_roots_total <= 5:
        bad.append(f"{report.real_roots_total} real roots for {n} equilibria")
    mults = [e.root_multiplicity for e in report.equilibria]
    if any(m not in (1, 2, 3) for m in mults) or sum(mults) > 3:
        bad.append(f"multiplicities {mults}")
    if sign != 0 and any(m > 1 for m in mults):
        bad.append("multiple root with nonzero discriminant")

    a, q1, q2 = Fraction(p.a), Fraction(p.q1), Fraction(p.q2)
    b1, b2, x0 = Fraction(p.b1), Fraction(p.b2), Fraction(p.x0)
    r1, r2 = Fraction(p.r1) / b1**2, Fraction(p.r2) / b2**2
    sigma = -1 if a < 0 else 1
    a = abs(a)
    for e in report.equilibria:
        # raw policy gains back to the canonical game (a > 0, unit input gains)
        k1 = sigma * Fraction(e.k1) * b1
        k2 = sigma * Fraction(e.k2) * b2
        a_cl = a - k1 - k2
        if not (0 < k1 < a and 0 < k2 < a and 0 < a_cl < 1):
            bad.append(f"pair ({e.k1}, {e.k2}) outside the stabilizing region")
            continue
        if not (_residual_ok(a, q1, r1, k1, k2) and _residual_ok(a, q2, r2, k2, k1)):
            bad.append(f"pair ({e.k1}, {e.k2}) is not stationary")
        denom = (1 - a_cl * a_cl) / (x0 * x0)
        if not (_close(e.a_cl, a_cl) and _close(e.j1, (q1 + r1 * k1 * k1) / denom)
                and _close(e.j2, (q2 + r2 * k2 * k2) / denom)):
            bad.append(f"pair ({e.k1}, {e.k2}) reports a wrong closed loop or cost")

    if op.known is not None:
        # a fold point is at least double: on the symmetric locus it is triple
        want = 2 if op.kind == "fold" else 3
        if report.delta != 0:
            bad.append(f"{op.kind} game with discriminant {report.delta}")
        if not any(e.root_multiplicity >= want and _close(e.k1, op.known[0])
                   and _close(e.k2, op.known[1]) for e in report.equilibria):
            bad.append(f"{op.kind} point {op.known} not reported with multiplicity {want}+")
    return bad


def check_golden(summary: dict, golden: dict) -> list[str]:
    """Compare a solve summary with the one recorded at the seed commit."""
    if "error" in golden:
        return []  # failed at the seed commit; a success only needs check_solve
    bad = [
        f"{field} {summary[field]!r} != golden {golden[field]!r}"
        for field in ("delta_sha256", "delta_sign", "n_nash", "real_roots_total", "multiplicities")
        if summary[field] != golden[field]
    ]
    if not bad and not all(
        _close(x, y) for got, want in zip(summary["k"], golden["k"]) for x, y in zip(got, want)
    ):
        bad.append(f"pairs {summary['k']} != golden {golden['k']}")
    return bad


# ---------------------------------------------------------------------------
# verify + groebner-check
# ---------------------------------------------------------------------------


def verify_argv(op) -> tuple[list[str], list[str]]:
    flags = []
    for name in _GAME_FLAGS:
        flags += [f"--{name}", str(Fraction(getattr(op.params, name)))]
    return ["--quiet", "verify"] + flags, ["--quiet", "groebner-check"] + flags


def run_cli(argv: list[str], main=None) -> tuple[int, str]:
    """`lqnash.cli.main` in process, with its output captured.

    An exception escaping the command is a failed operation, reported as
    exit code 1 with the exception in the output.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = (main or lqnash.cli.main)(argv)
        except Exception as exc:  # a crash of one command fails that operation only
            code = 1
            print(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue()


def check_verify(outputs: list[tuple[int, str]]) -> list[str]:
    """verify must end in VERDICT: PASS and groebner-check print its PASS line."""
    (_, verify_out), (_, groebner_out) = outputs
    bad = []
    if "VERDICT: PASS" not in verify_out.splitlines():
        bad.append("verify exited 0 without VERDICT: PASS")
    if not any(line.startswith("PASS: ") for line in groebner_out.splitlines()):
        bad.append("groebner-check exited 0 without its PASS line")
    return bad


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def write_sweep_config(config: dict, directory: Path, name: str) -> Path:
    """A sweep config whose outputs land in `directory`."""
    doc = dict(config, outputs={
        "csv": str(directory / f"{name}.csv"),
        "svg": str(directory / f"{name}.svg"),
        "json": str(directory / f"{name}.json"),
    })
    path = directory / f"{name}.config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def sweep_digest(config_path: Path) -> dict:
    """sha256 of the CSV and JSON a sweep wrote, plus the CSV rows."""
    outputs = json.loads(config_path.read_text(encoding="utf-8"))["outputs"]
    csv_bytes = Path(outputs["csv"]).read_bytes()
    return {
        "csv_sha256": hashlib.sha256(csv_bytes).hexdigest(),
        "json_sha256": hashlib.sha256(Path(outputs["json"]).read_bytes()).hexdigest(),
        "rows": csv_bytes.decode("utf-8").splitlines()[1:],
    }


def check_sweep_rows(rows: list[str], expected: int) -> list[str]:
    """Row count and the discriminant law on every CSV row."""
    bad = [] if len(rows) == expected else [f"{len(rows)} rows, expected {expected}"]
    for line in rows:
        fields = line.split(",")
        sign, n_nash = int(fields[3]), int(fields[5])
        present = sum(1 for i in range(3) if fields[6 + 4 * i])
        if not 1 <= n_nash <= 3 or present != n_nash or (sign == -1 and n_nash != 1) \
                or (sign == 0 and n_nash > 2):
            bad.append(f"row {line!r} breaks the discriminant law")
    return bad
