"""Valid games that `lqnash` does not yet solve as it should, one test each.

Every game here has q, r > 0, b != 0 and finite numbers, so it must either
solve and pass `verify` or fail with a documented reason.  Each test is a
strict xfail whose reason names the stage that stops it today; the change
that mends a game turns its xfail into a pass and must drop the mark.
"""

import json
import math

import pytest

from lqnash.cli import main

ALL_ONES = ["--q1", "1", "--q2", "1", "--r1", "1", "--r2", "1"]


def xfail(reason):
    return pytest.mark.xfail(strict=True, reason=reason)


@pytest.mark.parametrize("flags", [
    pytest.param(["--a", "1000", *ALL_ONES], id="all_ones_a_1000",
                 marks=xfail("solve's residual gate refuses k2 = 0.001000002 (7.448e-08)")),
    pytest.param("--a 247/2 --q1 319/57 --q2 331/34 --r1 155/87 --r2 242/3".split(),
                 id="rational_a_247_2",
                 marks=xfail("solve's residual gate refuses k2 = 123.466454 (2.580e-08)")),
    pytest.param("--a 2 --q1 1e300 --q2 1 --r1 1 --r2 1".split(), id="q1_1e300",
                 marks=xfail("solve's residual gate refuses a NaN residual")),
    pytest.param("--a 2 --q1 1e-300 --q2 1 --r1 1 --r2 1".split(), id="q1_1e-300",
                 marks=xfail("solve's positivity check refuses k1 = 0.0")),
])
def test_verify_passes(capsys, flags):
    code = main(["verify", *flags])
    captured = capsys.readouterr()
    assert code == 0, captured.err


@xfail("solve refines k2 to an absolute 2^-60, 7.2e-6 of a root of 5e-14: "
       "k1 = 4.997498749e-14, k2 = 4.99746299031e-14")
def test_symmetric_tiny_root_game_reports_k1_equal_to_k2(capsys):
    # q1 = q2 and r1 = r2: the equilibrium is symmetric
    code = main(["solve", "--a", "0.999", "--q1", "1e-8", "--q2", "1e-8", "--r1", "1e8", "--r2", "1e8"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    for e in doc["equilibria"]:
        assert math.isclose(e["k1"], e["k2"], rel_tol=1e-12), e


@xfail("solve's residual gate refuses the grid points a >= 420, so the sweep exits 3")
def test_log_spaced_all_ones_sweep_writes_its_files(capsys, tmp_path):
    outputs = {kind: str(tmp_path / f"out.{kind}") for kind in ("csv", "svg", "json")}
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "q1": 1, "r1": 1, "q2": 1, "r2_values": [1],
        "a_grid": {"min": 1, "max": 1000, "count": 200, "spacing": "log"},
        "outputs": outputs,
    }))
    code = main(["--quiet", "sweep", str(config)])
    assert code == 0, capsys.readouterr().err
    for path in outputs.values():
        assert (tmp_path / path).stat().st_size > 0
