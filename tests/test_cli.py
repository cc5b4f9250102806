"""Command-line surface: JSON/CSV/SVG emission, exit codes, determinism."""

import contextlib
import importlib.util
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lqnash.cli as cli
import lqnash.oracle as oracle
import lqnash.solver as solver
import lqnash.sweep as sweep
from lqnash.cli import canonical_dumps, main, parse_rational
from lqnash.exactalg import SturmSequence, isolate_real_roots
from lqnash.game import GameParams, InvalidGameError, normalize
from lqnash.solver import ConsistencyError, fold_game, pitchfork_game
from lqnash.sweep import CSV_COLUMNS

ALL_ONES = ["--a", "1", "--q1", "1", "--q2", "1", "--r1", "1", "--r2", "1"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def game_flags(params):
    return [arg for name in ("a", "q1", "q2", "r1", "r2")
            for arg in (f"--{name}", str(getattr(params, name)))]


def int_digits_limit():
    """Python's limit on the digits of an int turned into a str (None before 3.10.7)."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    return get_limit() if get_limit else None


@contextlib.contextmanager
def any_int_length():
    limit = int_digits_limit()
    if limit is None:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def multiple_root_games():
    """(game, known k2, its multiplicity, multiplicities of all real roots of
    the direct resultant) for a fold and a pitchfork point."""
    fold, (_, fold_k2) = fold_game(Fraction(1, 2), Fraction(1, 2))
    pitchfork, s = pitchfork_game(Fraction(3, 4))
    return [(fold, fold_k2, 2, [1, 1, 2, 1]), (pitchfork, s, 3, [1, 3, 1])]


def write_config(tmp_path, name="cfg.json", **overrides):
    doc = {
        "q1": 0.5, "r1": 1.0, "q2": 1.0,
        "a_grid": {"min": 0.1, "max": 3.9, "count": 20, "spacing": "linear"},
        "r2_values": [1.0, 2.0],
        "outputs": {"csv": str(tmp_path / "out.csv")},
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path, doc


class TestParseRational:
    def test_fraction(self):
        assert parse_rational("7/2") == Fraction(7, 2)

    def test_decimal_is_exact(self):
        assert parse_rational("0.1") == Fraction(1, 10)

    def test_rejects_symbolic(self):
        with pytest.raises(ValueError):
            parse_rational("pi")


class TestSolveCommand:
    def test_all_ones_json(self, capsys):
        code, out, _ = run_cli(capsys, ["solve", *ALL_ONES])
        assert code == 0
        doc = json.loads(out)
        assert doc["n_nash"] == 1
        eq = doc["equilibria"][0]
        assert abs(eq["k1"] - 0.355415726776) < 1e-9
        assert abs(eq["k2"] - 0.355415726776) < 1e-9
        assert doc["delta"]["exact"] == "-5056"
        assert doc["theorem_flags"]["existence"] is True

    @pytest.mark.parametrize("flags, params", [
        (ALL_ONES, GameParams(a=1, q1=1, q2=1, r1=1, r2=1)),
        # b1 = 3 folds r1 / 9, which no double holds; int inputs are read
        # exactly, so the printed discriminant is the library's
        (ALL_ONES + ["--b1", "3"], GameParams(a=1, q1=1, q2=1, r1=1, r2=1, b1=3)),
    ], ids=["all_ones", "b1_3"])
    def test_json_round_trips_byte_identical(self, capsys, flags, params):
        code, out, _ = run_cli(capsys, ["solve", *flags])
        assert code == 0
        assert canonical_dumps(json.loads(out)) == out
        assert json.loads(out)["delta"]["exact"] == str(solver.solve(params).delta)

    def test_a_nan_residual_exits_3_naming_the_residual_gate(self, capsys):
        code, out, err = run_cli(capsys, ["solve", "--a", "2", "--q1", "1e300", *ALL_ONES[4:]])
        assert code == 3
        assert out == ""
        assert err == ("internal consistency error: candidate root 4.336808689942018e-19 "
                       "failed residual verification (nan)\n")

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_prints_exact_numbers_of_any_length(self, capsys, fmt):
        # the discriminant has about 28,000 digits, past the 4,300 that
        # Python lets an int turn into a str; solve lifts that limit only
        # while it prints
        a = Fraction(10**700 + 1, 10**700)
        limit_before = int_digits_limit()
        code, out, _ = run_cli(capsys, ["solve", "--a", f"{a.numerator}/{a.denominator}",
                                        *ALL_ONES[2:], "--format", fmt])
        assert code == 0
        assert int_digits_limit() == limit_before
        if fmt == "table":
            assert out.endswith("1 equilibrium(s)\n")
            return
        doc = json.loads(out)
        report = solver.solve(GameParams(a=a, q1=1, q2=1, r1=1, r2=1))
        assert doc["n_nash"] == report.n_nash == 1
        with any_int_length():
            assert doc["delta"]["exact"] == str(report.delta)
            assert doc["g2_coefficients"] == [str(c) for c in report.g2.coeffs]
        assert len(doc["delta"]["exact"]) > 4300

    def test_trivial_game(self, capsys):
        code, out, _ = run_cli(
            capsys, ["solve", "--a", "0", "--q1", "1", "--q2", "1", "--r1", "1", "--r2", "1"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["trivial"] is True
        assert doc["equilibria"][0]["k1"] == 0.0 and doc["equilibria"][0]["k2"] == 0.0
        # x0^2 overflows a double to inf, as in the costs of a nontrivial game
        for a in ("0", "1"):
            code, out, _ = run_cli(capsys, ["solve", *ALL_ONES, "--a", a, "--x0", "1e200"])
            assert code == 0
            eq = json.loads(out)["equilibria"][0]
            assert eq["j1"] == eq["j2"] == math.inf

    def test_invalid_parameter_names_invariant(self, capsys):
        code, _, err = run_cli(
            capsys, ["solve", "--a", "1", "--q1", "-1", "--q2", "1", "--r1", "1", "--r2", "1"]
        )
        assert code == 2
        assert "q1 must be > 0" in err

    def test_non_numeric_parameter(self, capsys):
        code, _, err = run_cli(
            capsys, ["solve", "--a", "x", "--q1", "1", "--q2", "1", "--r1", "1", "--r2", "1"]
        )
        assert code == 2

    def test_table_format(self, capsys):
        code, out, _ = run_cli(capsys, ["solve", *ALL_ONES, "--format", "table"])
        assert code == 0
        assert "k1" in out and "0.355415726776" in out
        # a_cl = 0.289168546448 fills its whole field; it must not run into k2
        header, *rows, summary = out.splitlines()
        assert header.split() == ["k1", "k2", "a_cl", "j1", "j2"]
        assert rows and summary.startswith("delta = ")
        for row in rows:
            assert len(row.split()) == 6, row

    @pytest.mark.parametrize("flag", ["--a", "--b1", "--x0"])
    @pytest.mark.parametrize("value", ["-1/2", "-1e3", "-0.5"])
    def test_negative_value_as_separate_argument(self, capsys, flag, value):
        game = dict(zip(ALL_ONES[::2], ALL_ONES[1::2]))
        game[flag] = value
        separate = ["solve"] + [arg for item in game.items() for arg in item]
        joined = ["solve"] + [f"{name}={v}" for name, v in game.items()]
        args = cli.build_parser().parse_args(cli._attach_negative_values(separate))
        assert getattr(args, flag[2:]) == value
        # read exactly as the `--flag=value` form; a = -1000 reaches open
        # item 1's large-a residual check (exit 3) either way
        result = run_cli(capsys, separate)
        assert result == run_cli(capsys, joined)
        assert result[0] != cli.EXIT_INVALID, result[2]


class TestSweepCommand:
    def test_csv_schema_and_row_count(self, capsys, tmp_path):
        path, doc = write_config(tmp_path)
        code, _, _ = run_cli(capsys, ["sweep", str(path)])
        assert code == 0
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) - 1 == 20 * 2
        # ordered by (r2, a)
        keys = [(float(l.split(",")[1]), float(l.split(",")[0])) for l in lines[1:]]
        assert keys == sorted(keys)

    def test_byte_identical_across_thread_counts(self, capsys, tmp_path):
        outputs = []
        for threads, name in ((1, "a.csv"), (3, "b.csv")):
            path, _ = write_config(tmp_path, name=f"cfg{threads}.json",
                                   outputs={"csv": str(tmp_path / name)})
            code, _, _ = run_cli(capsys, ["--threads", str(threads), "sweep", str(path)])
            assert code == 0
            outputs.append((tmp_path / name).read_bytes())
        assert outputs[0] == outputs[1]

    def test_single_point_grid_matches_solve(self, capsys, tmp_path):
        path, _ = write_config(
            tmp_path,
            q1=1.0, r1=1.0, q2=1.0,
            a_grid={"min": 1.0, "max": 1.0, "count": 1},
            r2_values=[1.0],
        )
        code, _, _ = run_cli(capsys, ["sweep", str(path)])
        assert code == 0
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[5] == "1"  # n_nash
        assert abs(float(fields[6]) - 0.355415726776) < 1e-9

    def test_invalid_config_exits_2_without_partial_output(self, capsys, tmp_path):
        path, _ = write_config(tmp_path, a_grid={"min": -1.0, "max": 2.0, "count": 5})
        code, _, err = run_cli(capsys, ["sweep", str(path)])
        assert code == 2
        assert "a_grid.min" in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "override",
        [
            {"q1": math.inf},
            {"r1": math.nan},
            {"q2": math.inf},
            {"b1": math.nan},
            {"b2": -math.inf},
            {"x0": math.inf},
            {"a_grid": {"min": 0.1, "max": math.inf, "count": 20}},
            {"a_grid": {"min": 0.1, "max": 3.9, "count": math.inf}},
            {"r2_values": [1.0, math.nan]},
            {"a_grid": {"min": 1e-300, "max": 1e300, "count": 3, "spacing": "log"}},
            {"a_grid": {"min": 3.0, "max": sys.float_info.max, "count": 3, "spacing": "log"}},
            {"r2_values": "123"},
            {"q2": True},
            {"r2_values": [1.0, False]},
        ],
        ids=["q1", "r1", "q2", "b1", "b2", "x0", "a_grid.max", "a_grid.count", "r2_values",
             "a_grid.log_ratio", "a_grid.log_end", "r2_values.string", "q2.bool",
             "r2_values.bool"],
    )
    def test_non_finite_number_exits_2_without_output(self, capsys, tmp_path, override):
        # json.dumps writes NaN and Infinity, and json.load reads them back;
        # the last three cases are no numbers: a string for r2_values, and booleans
        path, _ = write_config(tmp_path, **override)
        code, _, err = run_cli(capsys, ["sweep", str(path)])
        assert code == 2
        assert err.startswith("invalid sweep config")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("name, value", [("q1", 0), ("r1", -1), ("b2", 0), ("r2", -2)])
    def test_solve_and_sweep_refuse_a_game_with_the_same_message(self, capsys, tmp_path, name, value):
        # both gates build a GameParams
        with pytest.raises(InvalidGameError) as refused:
            GameParams(**{"a": 1, "q1": 1, "q2": 1, "r1": 1, "r2": 1, name: value})
        message = str(refused.value)
        game = dict(zip(ALL_ONES[::2], ALL_ONES[1::2]))
        game[f"--{name}"] = str(value)
        code, _, err = run_cli(capsys, ["solve"] + [arg for item in game.items() for arg in item])
        assert code == 2 and message in err
        field = {"r2_values": [float(value)]} if name == "r2" else {name: float(value)}
        path, _ = write_config(tmp_path, **field)
        code, _, err = run_cli(capsys, ["sweep", str(path)])
        assert code == 2 and err.startswith("invalid sweep config") and message in err
        assert not (tmp_path / "out.csv").exists()

    def test_output_paths_that_are_no_strings_exit_2_without_output(self, capsys, tmp_path):
        path, _ = write_config(tmp_path, outputs={"csv": ["a", 1], "svg": True, "json": 123})
        code, _, err = run_cli(capsys, ["sweep", str(path)])
        assert code == 2
        assert err.startswith("invalid sweep config") and "outputs.csv" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("kind", ["csv", "svg", "json"])
    def test_output_in_a_missing_directory_exits_2_before_solving(self, capsys, tmp_path, kind):
        # the other outputs are writable; none of them may be written
        outputs = {k: str(tmp_path / f"out.{k}") for k in ("csv", "svg", "json")}
        outputs[kind] = str(tmp_path / "missing" / f"out.{kind}")
        path, _ = write_config(tmp_path, outputs=outputs)
        code, _, err = run_cli(capsys, ["sweep", str(path)])
        assert code == 2
        assert err.startswith(f"invalid sweep config: outputs.{kind}: no directory")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("kind", ["csv", "svg", "json"])
    def test_output_that_is_a_directory_exits_2_before_solving(self, capsys, tmp_path, kind):
        # the rows would be solved, then fail to rename over the directory
        outputs = {k: str(tmp_path / f"out.{k}") for k in ("csv", "svg", "json")}
        (tmp_path / f"out.{kind}").mkdir()
        path, _ = write_config(tmp_path, outputs=outputs)
        code, _, err = run_cli(capsys, ["sweep", str(path)])
        assert code == 2
        assert err == f"invalid sweep config: outputs.{kind}: {outputs[kind]!r} is a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", f"out.{kind}"]
        assert not any((tmp_path / f"out.{kind}").iterdir())

    def test_one_file_named_twice_exits_2_before_solving(self, capsys, tmp_path):
        # staged twice, one rename would land over the other
        path, _ = write_config(tmp_path, outputs={"csv": str(tmp_path / "out.txt"),
                                                  "json": str(tmp_path / "out.txt")})
        code, _, err = run_cli(capsys, ["sweep", str(path)])
        assert code == 2
        assert err == (f"invalid sweep config: outputs.csv and outputs.json name one file, "
                       f"{str(tmp_path / 'out.txt')!r}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_gain_past_the_double_range_exits_2_before_solving(self, capsys, monkeypatch, tmp_path):
        # r1 / b1^2 = 1e400 has no double, though every number in the config does
        monkeypatch.setattr(sweep, "solve", broken_solve)
        path, _ = write_config(tmp_path, b1=1e-200)
        code, _, err = run_cli(capsys, ["--threads", "1", "sweep", str(path)])
        assert code == 2
        assert err == ("invalid sweep config: r1 / b1^2 is too large for a double "
                       "(game with r2_values entry 1.0)\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, ["sweep", str(tmp_path / "nope.json")])
        assert code == 2

    def test_svg_and_json_outputs(self, capsys, tmp_path):
        path, _ = write_config(
            tmp_path,
            outputs={
                "csv": str(tmp_path / "out.csv"),
                "svg": str(tmp_path / "out.svg"),
                "json": str(tmp_path / "out.json"),
            },
        )
        code, _, _ = run_cli(capsys, ["sweep", str(path)])
        assert code == 0
        svg = (tmp_path / "out.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg
        assert "href" not in svg  # self-contained
        rows = json.loads((tmp_path / "out.json").read_text())
        assert len(rows) == 40
        assert canonical_dumps(rows) == (tmp_path / "out.json").read_text()

    def test_svg_deterministic(self, capsys, tmp_path):
        renders = []
        for name in ("s1.svg", "s2.svg"):
            path, _ = write_config(tmp_path, name=f"c{name}.json",
                                   outputs={"csv": str(tmp_path / "c.csv"),
                                            "svg": str(tmp_path / name)})
            assert run_cli(capsys, ["sweep", str(path)])[0] == 0
            renders.append((tmp_path / name).read_bytes())
        assert renders[0] == renders[1]


class TestVerifyCommand:
    def test_all_ones_agrees(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", *ALL_ONES])
        assert code == 0
        assert "VERDICT: PASS" in out

    @pytest.mark.parametrize("game", [
        "--a 3.8 --q1 0.5 --q2 1 --r1 1 --r2 1",
        # a pitchfork game with a multiplied by 1 + 2^-32, whose three
        # equilibria lie so close that the grid scan took them for one
        "--a 12884901891/4294967296 --q1 16/9 --q2 16/9 --r1 1 --r2 1",
    ], ids=["a_3.8", "near_pitchfork"])
    def test_three_equilibria_point(self, capsys, game):
        code, out, _ = run_cli(capsys, ["verify", *game.split()])
        assert code == 0
        assert "tarski_count: agree (3 equilibria, 5 real roots; every pair within 1e-06)" in out.splitlines()

    def test_seeded_starts(self, capsys):
        code, out, _ = run_cli(capsys, ["--seed", "7", "verify", *ALL_ONES])
        assert code == 0

    def test_no_converged_start_is_inconclusive_not_agreement(self, capsys):
        # on the pitchfork game no best-response start converges, so that
        # oracle compares nothing; the verdict rests on the others
        pitchfork = ["--a", "2", "--q1", "9/16", "--q2", "9/16", "--r1", "1", "--r2", "1"]
        code, out, _ = run_cli(capsys, ["verify", *pitchfork])
        assert code == 0
        assert "br_iteration: inconclusive (0/8 starts converged)" in out.splitlines()
        assert out.splitlines()[-1] == "VERDICT: PASS"

    def test_start_that_stops_off_a_fixed_point_has_not_converged(self, capsys):
        # a pitchfork game with a multiplied by 1 + 2^-12: the composed
        # map's slope is 1.0001, and the start a 4/9 takes a step below tol
        # 4e-5 from every equilibrium, where g(x) = br1(br2(x)) - x keeps
        # its sign
        near_pitchfork = "--a 12291/4096 --q1 16/9 --q2 16/9 --r1 1 --r2 1".split()
        code, out, _ = run_cli(capsys, ["verify", *near_pitchfork])
        assert code == 0
        assert "br_iteration: inconclusive (0/8 starts converged)" in out.splitlines()
        assert out.splitlines()[-1] == "VERDICT: PASS"

    def test_normalizes_the_game_once(self, capsys, monkeypatch):
        calls = []
        for module in (solver, cli):
            monkeypatch.setattr(module, "normalize",
                                lambda params, f=module.normalize: calls.append(params) or f(params))
        assert run_cli(capsys, ["verify", *ALL_ONES])[0] == 0
        assert len(calls) == 1


class TestGroebnerCheckCommand:
    def test_all_ones_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["groebner-check", *ALL_ONES])
        assert code == 0
        assert "PASS" in out
        assert "k2^5" in out

    def test_rational_flags(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["groebner-check", "--a", "7/2", "--q1", "1/2", "--r1", "1", "--q2", "1", "--r2", "2"],
        )
        assert code == 0
        assert "PASS" in out

    def test_decimal_accepted_exactly(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["groebner-check", "--a", "0.1", "--q1", "1", "--q2", "1", "--r1", "1", "--r2", "1"],
        )
        assert code == 0

    def test_symbolic_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["groebner-check", "--a", "pi", "--q1", "1", "--q2", "1", "--r1", "1", "--r2", "1"],
        )
        assert code == 2
        assert "not a rational number" in err


def broken_solve(params):
    raise ConsistencyError("planted failure")


class TestInputGate:
    """Every game command reads, validates and rejects its input the same way,
    and `main` alone maps failures to exit codes."""

    @pytest.mark.parametrize("command", ["solve", "verify", "groebner-check"])
    @pytest.mark.parametrize("text", ["inf", "nan", "0x1p3", "1/0", "pi"])
    def test_unparsable_number_exits_2(self, capsys, command, text):
        code, out, err = run_cli(capsys, [command, "--a", text, *ALL_ONES[2:]])
        assert code == 2
        assert out == ""
        assert err == f"invalid parameters: not a rational number: {text!r}\n"

    @pytest.mark.parametrize("command", ["verify", "groebner-check"])
    def test_trivial_game_outside_solve_exits_2(self, capsys, command):
        code, out, err = run_cli(capsys, [command, "--a", "0", *ALL_ONES[2:]])
        assert code == 2
        assert out == ""
        assert err == f"{command} does not apply to the trivial game a = 0\n"

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_consistency_error_exits_3(self, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "solve", broken_solve)
        code, out, err = run_cli(capsys, [command, *ALL_ONES])
        assert code == 3
        assert out == ""
        assert err == "internal consistency error: planted failure\n"

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("flags, message", [
        (["--x0", "1e400"], "x0 is too large for a double"),
        (["--b1", "1e-400"], "r1 / b1^2 is too large for a double"),
        (["--q1", "1e400"], "q1 is too large for a double"),
        (["--r1", "1e400", "--b1", "1e200"], "r1 is too large for a double"),
        (["--b1", "1e-400", "--r1", "1e-800"], "b1 is too small for a double"),
        (["--a", "1e-400"], "a is too small for a double"),
        (["--q1", "1e-400"], "q1 is too small for a double"),
        (["--r1", "1e-400"], "r1 / b1^2 is too small for a double"),
    ])
    def test_number_past_the_double_range_exits_2(self, capsys, command, flags, message):
        # a repeated flag overrides ALL_ONES's value
        code, out, err = run_cli(capsys, [command, *ALL_ONES, *flags])
        assert code == 2
        assert out == ""
        assert err == f"invalid parameters: {message}\n"

    def test_sweep_consistency_error_exits_3_without_output(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(sweep, "solve", broken_solve)
        path, _ = write_config(tmp_path)
        code, _, err = run_cli(capsys, ["--threads", "1", "sweep", str(path)])
        assert code == 3
        assert err == "internal consistency error: planted failure\n"
        assert not (tmp_path / "out.csv").exists()


class TestMultipleRootGames:
    @pytest.mark.parametrize("game", multiple_root_games(), ids=["fold", "pitchfork"])
    def test_verify_and_groebner_check_pass(self, capsys, game):
        params = game[0]
        code, out, _ = run_cli(capsys, ["verify", *game_flags(params)])
        assert code == 0
        assert "VERDICT: PASS" in out
        code, out, _ = run_cli(capsys, ["groebner-check", *game_flags(params)])
        assert code == 0
        assert "PASS: elimination polynomial matches the closed form exactly" in out

    @pytest.mark.parametrize("game", multiple_root_games(), ids=["fold", "pitchfork"])
    def test_resultant_reports_the_constructed_multiplicity(self, game):
        params, k2, multiplicity, all_multiplicities = game
        ivs = isolate_real_roots(SturmSequence(oracle.resultant_elimination(normalize(params))))
        assert [iv.multiplicity for iv in ivs if iv.lo < k2 <= iv.hi] == [multiplicity]
        assert [iv.multiplicity for iv in ivs] == all_multiplicities


def test_every_benchmark_tracer_target_resolves():
    """perfbench/tracing.py wraps functions by their dotted names in lqnash
    and reports a name that is gone as absent; deleting or renaming one of
    them is a benchmark change, so it must fail here first."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
    assert tracing.CAPTURE <= {(module, attr) for module, attr, _ in tracing.TARGETS}
