"""Sweep configuration, grids, and emission invariants."""

import concurrent.futures
import hashlib
import json
import math
import multiprocessing
import os
import re
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

import lqnash.cli as cli
import lqnash.sweep as sweep
from lqnash.game import GameParams
from lqnash.solver import ConsistencyError, solve
from lqnash.sweep import (
    AGrid,
    ConfigError,
    SweepOutputs,
    SweepRow,
    a_points,
    format_float,
    parse_config,
    rows_to_csv,
    rows_to_json_doc,
    run_sweep,
    SweepConfig,
)
from sweep_output import csv_rows


# a directory this test module never creates
MISSING_DIR = Path(__file__).parent / "no-such-directory"


def minimal_doc(**overrides):
    doc = {
        "q1": 0.5, "r1": 1.0, "q2": 1.0,
        "a_grid": {"min": 0.5, "max": 2.0, "count": 4},
        "r2_values": [1.0],
        "outputs": {"csv": "out.csv"},
    }
    doc.update(overrides)
    return doc


class TestConfig:
    def test_defaults(self):
        config = parse_config(minimal_doc())
        assert config.b1 == 1.0 and config.b2 == 1.0 and config.x0 == 1.0
        assert config.a_grid.spacing == "linear"
        assert config.outputs == SweepOutputs(csv="out.csv")

    def test_null_optional_outputs_are_omitted(self):
        config = parse_config(minimal_doc(outputs={"csv": "out.csv", "svg": None, "json": None}))
        assert config.outputs == SweepOutputs(csv="out.csv")

    @pytest.mark.parametrize(
        "patch, message",
        [
            ({"a_grid": {"min": 0.0, "max": 1.0, "count": 4}}, "a_grid.min"),
            ({"a_grid": {"min": 2.0, "max": 1.0, "count": 4}}, "a_grid.max"),
            ({"a_grid": {"min": 0.5, "max": 1.0, "count": 0}}, "a_grid.count"),
            ({"a_grid": {"min": 0.5, "max": 1.0, "count": 4, "spacing": "cubic"}}, "spacing"),
            ({"r2_values": []}, "r2_values"),
            ({"r2_values": [1.0, -2.0]}, "r2_values"),
            ({"q1": 0.0}, "q1"),
            ({"b2": 0.0}, "b2"),
            ({"r1": math.nan}, "r1 must be finite"),
            # a count that is not a JSON integer is refused, not truncated
            ({"a_grid": {"min": 0.5, "max": 1.0, "count": 2.5}}, "a_grid.count"),
            ({"a_grid": {"min": 0.5, "max": 1.0, "count": True}}, "a_grid.count"),
            ({"a_grid": {"min": 0.5, "max": 1.0, "count": "3"}}, "a_grid.count"),
            # r2_values is a JSON array, not a string of digits or an object's keys
            ({"r2_values": "123"}, "r2_values must be a JSON array"),
            ({"r2_values": {"1": 2}}, "r2_values must be a JSON array"),
            # no number field reads true or false as 1.0 or 0.0
            ({"q1": True}, "q1 must be a number, not true"),
            ({"r1": True}, "r1 must be a number"),
            ({"q2": True}, "q2 must be a number"),
            ({"b1": True}, "b1 must be a number"),
            ({"b2": False}, "b2 must be a number, not false"),
            ({"x0": True}, "x0 must be a number"),
            ({"a_grid": {"min": True, "max": 1.0, "count": 4}}, "a_grid.min must be a number"),
            ({"a_grid": {"min": 0.5, "max": True, "count": 4}}, "a_grid.max must be a number"),
            ({"r2_values": [1.0, True]}, "r2_values entry must be a number"),
            # output paths are JSON strings, in directories that exist
            ({"outputs": {"csv": ["a", 1]}}, r'outputs.csv must be a nonempty string, not \["a", 1\]'),
            ({"outputs": {"csv": "out.csv", "svg": True}}, "outputs.svg must be a nonempty string"),
            ({"outputs": {"csv": "out.csv", "json": 123}}, "outputs.json must be a nonempty string"),
            ({"outputs": {"csv": ""}}, "outputs.csv must be a nonempty string"),
            ({"outputs": {}}, "outputs.csv must be a nonempty string, not null"),
            ({"outputs": ["out.csv"]}, "outputs must be a JSON object"),
            ({"outputs": {"csv": str(MISSING_DIR / "out.csv")}}, "outputs.csv: no directory"),
            ({"outputs": {"csv": "out.csv", "svg": str(MISSING_DIR / "out.svg")}},
             "outputs.svg: no directory"),
            ({"outputs": {"csv": "out.csv", "json": str(MISSING_DIR / "out.json")}},
             "outputs.json: no directory"),
            # rows print r2 as its double, so no two entries may share one
            ({"r2_values": [1.0, "1"]}, r"r2_values entries 1\.0 and Fraction\(1, 1\) are one double"),
            ({"r2_values": [1.0, 1.0]}, "r2_values entries 1.0 and 1.0 are one double"),
            ({"r2_values": ["98/27", 3.6296296296296298]}, "are one double, 3.6296296296296298"),
            # ... which the double range must hold, even where r2 / b2^2 fits
            ({"r2_values": ["1e400"], "b2": "1e200"}, "r2_values entry .* is too large for a double"),
            # each output is its own file, however its path is spelled
            ({"outputs": {"csv": "out.txt", "json": "out.txt", "svg": "out.txt"}},
             "^outputs.csv and outputs.svg name one file, 'out.txt'$"),
            ({"outputs": {"csv": "out.csv", "json": os.path.join(".", "out.csv")}},
             "^outputs.csv and outputs.json name one file"),
        ],
    )
    def test_invariant_violations(self, patch, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(minimal_doc(**patch))

    @pytest.mark.parametrize("patch, message", [
        ({"a_grid": AGrid(min=0.5, max=2.0, count=0)}, "a_grid.count must be an integer >= 1"),
        ({"r2_values": (1.0, 1.0)}, "r2_values entries 1.0 and 1.0 are one double"),
        ({"r2_values": ()}, "r2_values must be nonempty"),
        ({"q1": 0.0}, "q1 must be > 0"),
    ])
    def test_library_built_configs_are_refused(self, patch, message):
        fields = dict(q1=0.5, r1=1.0, q2=1.0, a_grid=AGrid(min=0.5, max=2.0, count=3),
                      r2_values=(1.0,), outputs=SweepOutputs(csv="out.csv"))
        SweepConfig(**fields)
        with pytest.raises(ConfigError, match=re.escape(message)):
            SweepConfig(**{**fields, **patch})

    def test_missing_key(self):
        doc = minimal_doc()
        del doc["r2_values"]
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_string_numbers_are_still_read(self):
        config = parse_config(minimal_doc(q1="0.25", r2_values=["2", 1.5]))
        assert config.q1 == 0.25 and config.r2_values == (2.0, 1.5)

    def test_strings_are_read_exactly_and_numbers_as_doubles(self):
        config = parse_config(minimal_doc(q1="1/2", r1="0.1", q2=0.1, b1="3", x0="1e-3",
                                          r2_values=["98/27", 1.5]))
        assert config.q1 == Fraction(1, 2) and config.r1 == Fraction(1, 10)
        assert config.q2 == 0.1 and type(config.q2) is float
        assert config.b1 == 3 and config.x0 == Fraction(1, 1000)
        assert config.r2_values == (Fraction(98, 27), 1.5)
        # the double 98/27 rounds to, in a config of its own: one sweep refuses both
        assert parse_config(minimal_doc(r2_values=[3.6296296296296298])).r2_values == (98 / 27,)
        # the a-grid stays in doubles
        assert parse_config(minimal_doc(a_grid={"min": "0.5", "max": 2, "count": 4})).a_grid.min == 0.5

    @pytest.mark.parametrize("patch, message", [
        ({"q1": "pi"}, "q1: not a rational number: 'pi'"),
        ({"r2_values": [1.0, "inf"]}, "r2_values entry: not a rational number: 'inf'"),
        ({"x0": "nan"}, "x0: not a rational number"),
        ({"b2": "1/0"}, "b2: not a rational number"),
        ({"r1": "0"}, "r1 must be > 0"),
        ({"q2": "1e400"}, "q2 is too large for a double"),
        ({"q1": "1e-400"}, "q1 is too small for a double"),
    ])
    def test_strings_that_are_no_valid_game_number_are_refused(self, patch, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(minimal_doc(**patch))

    def test_exact_r2_is_solved_exactly_and_printed_as_its_double(self, tmp_path):
        out = tmp_path / "out.csv"
        doc = minimal_doc(q1="1/2", r2_values=["98/27"], a_grid={"min": 2.25, "max": 2.5, "count": 3},
                          outputs={"csv": str(out)})
        assert run_sweep(parse_config(doc)) == 3
        rows = csv_rows(out)
        assert {row["r2"] for row in rows} == {format_float(98 / 27)}
        # the grid points print exactly
        assert [float(row["a"]) for row in rows] == [2.25, 2.375, 2.5]
        for row in rows:
            report = solve(GameParams(a=float(row["a"]), q1=Fraction(1, 2), q2=1.0, r1=1.0,
                                      r2=Fraction(98, 27)))
            assert (row["delta"], int(row["n_nash"])) == (format_float(report.delta_float), report.n_nash)
        # the JSON number 98/27 rounds to is another game: its discriminant differs
        a = float(rows[0]["a"])
        rounded = solve(GameParams(a=a, q1=0.5, q2=1.0, r1=1.0, r2=98 / 27))
        assert rounded.delta != solve(GameParams(a=a, q1=0.5, q2=1.0, r1=1.0,
                                                 r2=Fraction(98, 27))).delta
        assert out.read_text(encoding="utf-8").splitlines()[1].split(",")[1] == format_float(98 / 27)

    def test_non_object(self):
        with pytest.raises(ConfigError):
            parse_config([1, 2, 3])


class TestAPoints:
    def test_linear_endpoints(self):
        pts = a_points(AGrid(min=0.5, max=2.0, count=4))
        assert pts[0] == 0.5 and pts[-1] == 2.0
        assert len(pts) == 4
        steps = [b - a for a, b in zip(pts, pts[1:])]
        assert all(math.isclose(s, steps[0]) for s in steps)

    def test_log_endpoints_and_ratios(self):
        pts = a_points(AGrid(min=0.01, max=1.0, count=5, spacing="log"))
        assert pts[0] == 0.01 and math.isclose(pts[-1], 1.0)
        ratios = [b / a for a, b in zip(pts, pts[1:])]
        assert all(math.isclose(r, ratios[0]) for r in ratios)

    def test_single_point(self):
        assert a_points(AGrid(min=0.7, max=0.7, count=1)) == [0.7]


class TestEmission:
    def test_csv_deterministic_and_lf_only(self, tmp_path):
        def swept(name):
            config = SweepConfig(
                q1=0.5, r1=1.0, q2=1.0,
                a_grid=AGrid(min=0.5, max=3.5, count=7),
                r2_values=(2.0, 1.0),
                outputs=SweepOutputs(csv=str(tmp_path / name)),
            )
            assert run_sweep(config) == 7 * 2
            return tmp_path / name

        first = swept("first.csv")
        text = first.read_bytes().decode("utf-8")
        assert first.read_bytes() == swept("again.csv").read_bytes()
        assert "\r" not in text
        assert len(text.splitlines()) == 1 + 7 * 2
        # r2 values are swept in ascending order regardless of input order
        r2_col = [row["r2"] for row in csv_rows(first)]
        assert r2_col == sorted(r2_col, key=float)

    def test_rows_render_their_reports(self):
        report = solve(GameParams(a=1, q1=1, q2=1, r1=1, r2=1))
        row = SweepRow(a=1.0, r2=1.0, report=report)
        # one line per row: the header is written once per sweep, not per chunk
        line = rows_to_csv([row])
        assert line.count("\n") == 1
        assert line.split(",")[2:6] == [format_float(report.delta_float), "-1", "3", "1"]
        assert rows_to_json_doc([row])[0]["n_real_roots_g"] == report.real_roots_total

    @pytest.mark.parametrize("with_json", [False, True])
    def test_one_worker_renders_each_chunk_through_the_row_renderers(self, tmp_path, monkeypatch,
                                                                   with_json):
        calls = {"rows_to_csv": [], "rows_to_json_doc": []}
        for name, log in calls.items():
            def counted(rows, render=getattr(sweep, name), log=log):
                log.append(len(rows))
                return render(rows)
            monkeypatch.setattr(sweep, name, counted)
        outputs = {"csv": str(tmp_path / "out.csv")}
        if with_json:
            outputs["json"] = str(tmp_path / "out.json")
        # 2 x 50 rows: three full chunks and one of 4
        doc = minimal_doc(a_grid={"min": 0.5, "max": 3.5, "count": 50}, r2_values=[1.0, 2.0],
                          outputs=outputs)
        assert run_sweep(parse_config(doc)) == 100
        assert calls["rows_to_csv"] == [32, 32, 32, 4]
        assert calls["rows_to_json_doc"] == ([32, 32, 32, 4] if with_json else [])
        assert len(csv_rows(tmp_path / "out.csv")) == 100
        if with_json:
            assert len(json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))) == 100

    @pytest.mark.parametrize("count, cpus, pools", [
        (50, 64, [4]),     # 100 rows: no more workers than the 4 chunks
        (400, 3, [3]),     # 800 rows, 25 chunks: no more workers than CPUs
        (10, 64, []),      # one chunk: the parent solves it alone
        (50, None, []),    # an unknown CPU count counts as one
    ])
    def test_worker_count_is_bounded(self, tmp_path, monkeypatch, count, cpus, pools):
        made = []

        class RecordingPool:
            """Records max_workers and runs the chunks here; starts no process."""

            def __init__(self, max_workers):
                made.append(max_workers)

            def map(self, fn, iterable):
                return map(fn, iterable)

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        doc = minimal_doc(a_grid={"min": 0.5, "max": 3.5, "count": count}, r2_values=[1.0, 2.0],
                          outputs={"csv": str(tmp_path / "out.csv")})
        assert run_sweep(parse_config(doc), threads=100_000) == 2 * count
        assert made == pools

    def test_format_float_sig_digits(self):
        assert format_float(1.2290953879362431) == "1.22909538794"
        assert format_float(0.1) == "0.1"
        assert format_float(-5056.0) == "-5056"


ROOT = Path(__file__).resolve().parent.parent


def figure_config(tmp_path, count=None) -> Path:
    """The figure config, writing all three outputs into tmp_path."""
    doc = json.loads((ROOT / "configs" / "figure_sweep.json").read_text(encoding="utf-8"))
    if count is not None:
        doc["a_grid"]["count"] = count
    doc["outputs"] = {kind: str(tmp_path / f"out.{kind}") for kind in ("csv", "svg", "json")}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    return config


def run_figure_sweep(tmp_path, count=None, threads=1) -> dict:
    """The figure config through `cli.main`; the bytes it wrote."""
    config = figure_config(tmp_path, count)
    assert cli.main(["--quiet", "--threads", str(threads), "sweep", str(config)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.json", "out.csv", "out.json", "out.svg"]
    return {kind: (tmp_path / f"out.{kind}").read_bytes() for kind in ("csv", "svg", "json")}


def fail_past(a_max):
    """A stand-in for `solve` that raises once a exceeds a_max."""
    def solve_until(params):
        if params.a > a_max:
            raise ConsistencyError(f"planted failure at a={params.a}")
        return solve(params)
    return solve_until


@pytest.mark.parametrize("threads", [1, 2])
def test_failure_mid_sweep_leaves_no_output(tmp_path, monkeypatch, capsys, threads):
    # a patched module attribute reaches the workers only when they fork
    if threads > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("the workers would not see the patched solve")
    monkeypatch.setattr(sweep, "solve", fail_past(2.0))
    config = figure_config(tmp_path, count=50)
    code = cli.main(["--quiet", "--threads", str(threads), "sweep", str(config)])
    assert code == 3
    assert capsys.readouterr().err.startswith("internal consistency error: planted failure at a=2.")
    # rows before the failure were streamed to temporary files, which are gone
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


SVG = "{http://www.w3.org/2000/svg}"


def test_figure_svg_has_two_curves_and_a_label_per_r2(tmp_path):
    doc = json.loads((ROOT / "configs" / "figure_sweep.json").read_text(encoding="utf-8"))
    doc["a_grid"]["count"] = 50
    doc["outputs"] = {"csv": str(tmp_path / "out.csv"), "svg": str(tmp_path / "out.svg")}
    config = parse_config(doc)
    run_sweep(config)
    root = ET.parse(tmp_path / "out.svg").getroot()
    assert root.tag == SVG + "svg"
    r2s = sorted(config.r2_values)
    polylines = root.findall(SVG + "polyline")
    assert len(polylines) == 2 * len(r2s)
    for line in polylines:
        assert len(line.get("points").split()) == config.a_grid.count
    labels = [t for t in root.findall(SVG + "text") if t.text.startswith("r2 = ")]
    assert [t.text for t in labels] == [f"r2 = {format_float(r2)}" for r2 in r2s]
    # each label has the color of its r2's two curves, one in each panel
    for i, label in enumerate(labels):
        assert {line.get("stroke") for line in polylines[2 * i:2 * i + 2]} == {label.get("fill")}


class TestGolden:
    """The figure sweep byte for byte against committed output."""

    def test_figure_sweep_matches_golden(self, tmp_path):
        written = run_figure_sweep(tmp_path, count=50)
        for kind in ("csv", "json"):
            golden = ROOT / "tests" / "data" / f"figure_sweep_50.{kind}"
            assert written[kind] == golden.read_bytes(), kind

    @pytest.mark.parametrize("threads", [2, 3])
    def test_worker_pool_writes_the_same_bytes(self, tmp_path, monkeypatch, threads):
        # rows are rendered in the workers and streamed in order by the parent;
        # a sweep starts no more workers than CPUs, so claim enough of them
        monkeypatch.setattr(os, "cpu_count", lambda: threads)
        (tmp_path / "one").mkdir()
        (tmp_path / "pool").mkdir()
        serial = run_figure_sweep(tmp_path / "one", count=50)
        pooled = run_figure_sweep(tmp_path / "pool", count=50, threads=threads)
        for kind in ("csv", "json"):
            golden = ROOT / "tests" / "data" / f"figure_sweep_50.{kind}"
            assert pooled[kind] == golden.read_bytes(), kind
        assert pooled["svg"] == serial["svg"]

    def test_full_figure_sweep_matches_benchmark_golden(self, tmp_path):
        # the full 400-point grid, against the digests the benchmark gates on
        golden = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))
        written = run_figure_sweep(tmp_path)
        assert written["csv"].count(b"\n") == 1 + 400 * 4
        for kind in ("csv", "json"):
            digest = hashlib.sha256(written[kind]).hexdigest()
            assert digest == golden["sweep_figure"][f"{kind}_sha256"], kind
