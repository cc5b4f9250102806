"""Sweep configuration, grids, and emission invariants."""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import pytest

import lqnash.cli as cli
from lqnash.solver import ConsistencyError, NashEquilibrium
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
        ],
    )
    def test_invariant_violations(self, patch, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(minimal_doc(**patch))

    def test_missing_key(self):
        doc = minimal_doc()
        del doc["r2_values"]
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_string_numbers_are_still_read(self):
        config = parse_config(minimal_doc(q1="0.25", r2_values=["2", 1.5]))
        assert config.q1 == 0.25 and config.r2_values == (2.0, 1.5)

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
    def test_csv_deterministic_and_lf_only(self):
        config = SweepConfig(
            q1=0.5, r1=1.0, q2=1.0,
            a_grid=AGrid(min=0.5, max=3.5, count=7),
            r2_values=(2.0, 1.0),
            outputs=SweepOutputs(csv="unused.csv"),
        )
        rows = run_sweep(config)
        text = rows_to_csv(rows)
        assert text == rows_to_csv(run_sweep(config))
        assert "\r" not in text
        assert len(text.splitlines()) == 1 + 7 * 2
        # r2 values are swept in ascending order regardless of input order
        r2_col = [line.split(",")[1] for line in text.splitlines()[1:]]
        assert r2_col == sorted(r2_col, key=float)

    def test_rows_breaking_the_discriminant_law_are_refused(self):
        eq = NashEquilibrium(k1=0.1, k2=0.2, a_cl=0.5, j1=1.0, j2=1.0, residual_norm=0.0, root_multiplicity=1)
        row = SweepRow(a=2.5, r2=1.5, delta=-1.0, delta_sign=-1, n_real_roots_g=5,
                       n_nash=3, equilibria=(eq, eq, eq))
        with pytest.raises(ConsistencyError, match=r"a=2\.5 r2=1\.5"):
            rows_to_csv([row])
        with pytest.raises(ConsistencyError, match=r"a=2\.5 r2=1\.5"):
            rows_to_json_doc([row])
        lawful = dataclasses.replace(row, n_nash=1, equilibria=(eq,))
        assert rows_to_csv([lawful]).count("\n") == 2

    def test_format_float_sig_digits(self):
        assert format_float(1.2290953879362431) == "1.22909538794"
        assert format_float(0.1) == "0.1"
        assert format_float(-5056.0) == "-5056"


ROOT = Path(__file__).resolve().parent.parent


def run_figure_sweep(tmp_path, count=None) -> dict:
    """The figure config through `cli.main` at one worker; the bytes it wrote."""
    doc = json.loads((ROOT / "configs" / "figure_sweep.json").read_text(encoding="utf-8"))
    if count is not None:
        doc["a_grid"]["count"] = count
    doc["outputs"] = {"csv": str(tmp_path / "out.csv"), "json": str(tmp_path / "out.json")}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["--quiet", "--threads", "1", "sweep", str(config)]) == 0
    return {kind: (tmp_path / f"out.{kind}").read_bytes() for kind in ("csv", "json")}


class TestGolden:
    """The figure sweep byte for byte against committed output."""

    def test_figure_sweep_matches_golden(self, tmp_path):
        written = run_figure_sweep(tmp_path, count=50)
        for kind in ("csv", "json"):
            golden = ROOT / "tests" / "data" / f"figure_sweep_50.{kind}"
            assert written[kind] == golden.read_bytes(), kind

    def test_full_figure_sweep_matches_benchmark_golden(self, tmp_path):
        # the full 400-point grid, against the digests the benchmark gates on
        golden = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))
        written = run_figure_sweep(tmp_path)
        assert written["csv"].count(b"\n") == 1 + 400 * 4
        for kind in ("csv", "json"):
            digest = hashlib.sha256(written[kind]).hexdigest()
            assert digest == golden["sweep_figure"][f"{kind}_sha256"], kind
