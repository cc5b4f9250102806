"""Parameter sweeps over the dynamics gain: rows, CSV/JSON emission, SVG plots.

Points are processed independently (optionally across worker processes) and
the output ordering is restored before writing, so results are byte-identical
regardless of worker count.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

from .game import GameParams, InvalidGameError
from .solver import NashEquilibrium, TheoremFlags, solve

CSV_COLUMNS = (
    "a", "r2", "delta", "delta_sign", "n_real_roots_g", "n_nash",
    "k1_1", "k2_1", "j1_1", "j2_1",
    "k1_2", "k2_2", "j1_2", "j2_2",
    "k1_3", "k2_3", "j1_3", "j2_3",
)

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


class ConfigError(ValueError):
    """A sweep configuration violates its invariants."""


@dataclass(frozen=True)
class AGrid:
    min: float
    max: float
    count: int
    spacing: str = "linear"


@dataclass(frozen=True)
class SweepOutputs:
    csv: str
    svg: str | None = None
    json: str | None = None


@dataclass(frozen=True)
class SweepConfig:
    q1: float
    r1: float
    q2: float
    a_grid: AGrid
    r2_values: tuple[float, ...]
    outputs: SweepOutputs
    b1: float = 1.0
    b2: float = 1.0
    x0: float = 1.0


@dataclass(frozen=True)
class SweepRow:
    a: float
    r2: float
    delta: float
    delta_sign: int
    n_real_roots_g: int
    n_nash: int
    equilibria: tuple[NashEquilibrium, ...]


def load_config(path: str) -> SweepConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read sweep config: {exc}") from exc
    return parse_config(doc)


def parse_config(doc: dict) -> SweepConfig:
    if not isinstance(doc, dict):
        raise ConfigError("sweep config must be a JSON object")
    try:
        grid_doc = doc["a_grid"]
        grid = AGrid(
            min=_number(grid_doc["min"], "a_grid.min"),
            max=_number(grid_doc["max"], "a_grid.max"),
            count=grid_doc["count"],
            spacing=str(grid_doc.get("spacing", "linear")),
        )
        outputs_doc = doc["outputs"]
        if not isinstance(outputs_doc, dict):
            raise ConfigError("outputs must be a JSON object")
        outputs = SweepOutputs(
            csv=_path(outputs_doc.get("csv"), "outputs.csv"),
            svg=_path(outputs_doc.get("svg"), "outputs.svg", optional=True),
            json=_path(outputs_doc.get("json"), "outputs.json", optional=True),
        )
        if not isinstance(doc["r2_values"], list):
            raise ConfigError("r2_values must be a JSON array")
        config = SweepConfig(
            q1=_number(doc["q1"], "q1"),
            r1=_number(doc["r1"], "r1"),
            q2=_number(doc["q2"], "q2"),
            b1=_number(doc.get("b1", 1.0), "b1"),
            b2=_number(doc.get("b2", 1.0), "b2"),
            x0=_number(doc.get("x0", 1.0), "x0"),
            a_grid=grid,
            r2_values=tuple(_number(v, "r2_values entry") for v in doc["r2_values"]),
            outputs=outputs,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed sweep config: {exc}") from exc
    _validate(config)
    return config


def _number(value, field: str) -> float:
    # bool is an int subclass, so float() would read true as 1.0
    if isinstance(value, bool):
        raise ConfigError(f"{field} must be a number, not {json.dumps(value)}")
    return float(value)


def _path(value, field: str, optional: bool = False) -> str | None:
    # str() would turn any JSON value into a file name
    if value is None and optional:
        return None
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{field} must be a nonempty string, not {json.dumps(value)}")
    return value


def _validate(config: SweepConfig) -> None:
    grid = config.a_grid
    # JSON readers accept NaN and Infinity
    if not (math.isfinite(grid.min) and math.isfinite(grid.max)):
        raise ConfigError("a_grid.min and a_grid.max must be finite")
    if not grid.min > 0:
        raise ConfigError("a_grid.min must be > 0")
    if grid.max < grid.min:
        raise ConfigError("a_grid.max must be >= a_grid.min")
    # bool is an int subclass, but no JSON integer
    if type(grid.count) is not int or grid.count < 1:
        raise ConfigError("a_grid.count must be an integer >= 1")
    if grid.spacing not in ("linear", "log"):
        raise ConfigError("a_grid.spacing must be 'linear' or 'log'")
    # the last log point is min * (max / min), which can overflow though both are finite
    if grid.spacing == "log" and not math.isfinite(grid.min * (grid.max / grid.min)):
        raise ConfigError("a_grid.max / a_grid.min overflows a double under log spacing")
    if not config.r2_values:
        raise ConfigError("r2_values must be nonempty")
    # checked before solving: a write that fails would come after the whole sweep
    for field in ("csv", "svg", "json"):
        path = getattr(config.outputs, field)
        if path is not None and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ConfigError(f"outputs.{field}: no directory to write {path!r} into")
    for r2 in config.r2_values:
        try:
            GameParams(a=grid.min, q1=config.q1, q2=config.q2, r1=config.r1, r2=r2,
                       b1=config.b1, b2=config.b2, x0=config.x0).validate()
        except InvalidGameError as exc:
            raise ConfigError(f"{exc} (game with r2_values entry {r2!r})") from exc


def a_points(grid: AGrid) -> list[float]:
    if grid.count == 1:
        return [grid.min]
    if grid.spacing == "log":
        ratio = grid.max / grid.min
        return [grid.min * ratio ** (i / (grid.count - 1)) for i in range(grid.count)]
    step = (grid.max - grid.min) / (grid.count - 1)
    return [grid.min + i * step for i in range(grid.count)]


def _row_for_point(params: GameParams) -> SweepRow:
    report = solve(params)
    return SweepRow(
        a=params.a,
        r2=params.r2,
        delta=report.delta_float,
        delta_sign=report.delta_sign,
        n_real_roots_g=report.real_roots_total,
        n_nash=report.n_nash,
        equilibria=report.equilibria,
    )


def run_sweep(config: SweepConfig, threads: int = 1) -> list[SweepRow]:
    """One row per (r2, a) pair, ordered by (r2, a) ascending."""
    tasks = [
        GameParams(a=a, q1=config.q1, q2=config.q2, r1=config.r1, r2=r2,
                   b1=config.b1, b2=config.b2, x0=config.x0)
        for r2 in sorted(config.r2_values)
        for a in a_points(config.a_grid)
    ]
    if threads > 1:
        # imported here, its only use: loading the process pool machinery
        # costs every `import lqnash.cli` about 2.5 MB of memory
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(_row_for_point, tasks, chunksize=32))
    else:
        rows = [_row_for_point(t) for t in tasks]
    return rows


def format_float(x: float) -> str:
    """12 significant digits, the presentation precision of CSV and JSON."""
    return format(x, ".12g")


def _csv_line(row: SweepRow) -> str:
    fields = [
        format_float(row.a),
        format_float(row.r2),
        format_float(row.delta),
        str(row.delta_sign),
        str(row.n_real_roots_g),
        str(row.n_nash),
    ]
    for i in range(3):
        if i < len(row.equilibria):
            e = row.equilibria[i]
            fields += [format_float(e.k1), format_float(e.k2), format_float(e.j1), format_float(e.j2)]
        else:
            fields += ["", "", "", ""]
    return ",".join(fields)


def rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        TheoremFlags.checked(row.n_nash, row.delta_sign, f"sweep row a={row.a} r2={row.r2}")
        lines.append(_csv_line(row))
    return "\n".join(lines) + "\n"


def rows_to_json_doc(rows: list[SweepRow]) -> list[dict]:
    out = []
    for row in rows:
        TheoremFlags.checked(row.n_nash, row.delta_sign, f"sweep row a={row.a} r2={row.r2}")
        out.append(
            {
                "a": row.a,
                "r2": row.r2,
                "delta": row.delta,
                "delta_sign": row.delta_sign,
                "n_real_roots_g": row.n_real_roots_g,
                "n_nash": row.n_nash,
                "equilibria": [
                    {"k1": e.k1, "k2": e.k2, "a_cl": e.a_cl, "j1": e.j1, "j2": e.j2}
                    for e in row.equilibria
                ],
            }
        )
    return out


def write_atomic(path: str, text: str) -> None:
    """Write via a temporary file and rename, so partial output never lands."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sweep-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# SVG rendering: two stacked panels, no external references
# ---------------------------------------------------------------------------


def _symlog(delta: float) -> float:
    """sign(d) * log10(1 + |d|), the documented symmetric-log transform."""
    if delta == 0:
        return 0.0
    magnitude = math.log10(1.0 + abs(delta)) if math.isfinite(delta) else 320.0
    return math.copysign(magnitude, delta)


def _fmt(x: float) -> str:
    return format(x, ".2f")


def render_svg(rows: list[SweepRow]) -> str:
    """Self-contained two-panel figure: transformed discriminant and count vs a."""
    width, height = 760.0, 560.0
    margin_l, margin_r, margin_t, panel_gap = 70.0, 20.0, 30.0, 50.0
    panel_h = (height - 2 * margin_t - panel_gap - 30.0) / 2
    plot_w = width - margin_l - margin_r

    by_r2: dict[float, list[SweepRow]] = {}
    for row in rows:
        by_r2.setdefault(row.r2, []).append(row)
    r2s = sorted(by_r2)
    for series in by_r2.values():
        series.sort(key=lambda r: r.a)

    a_vals = [r.a for r in rows]
    a_lo, a_hi = min(a_vals), max(a_vals)
    a_span = (a_hi - a_lo) or 1.0
    y1_vals = [_symlog(r.delta) for r in rows]
    y1_lo, y1_hi = min(y1_vals + [0.0]), max(y1_vals + [0.0])
    y1_span = (y1_hi - y1_lo) or 1.0

    def x_of(a: float) -> float:
        return margin_l + (a - a_lo) / a_span * plot_w

    def y1_of(v: float) -> float:
        return margin_t + panel_h - (v - y1_lo) / y1_span * panel_h

    panel2_top = margin_t + panel_h + panel_gap

    def y2_of(n: float) -> float:
        return panel2_top + panel_h - (n - 0.0) / 4.0 * panel_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{margin_l}" y="18" font-family="sans-serif" font-size="13">'
        "discriminant vs a (symmetric log: sign * log10(1 + |delta|))</text>",
    ]
    # panel frames
    for top in (margin_t, panel2_top):
        parts.append(
            f'<rect x="{_fmt(margin_l)}" y="{_fmt(top)}" width="{_fmt(plot_w)}" '
            f'height="{_fmt(panel_h)}" fill="none" stroke="#888" stroke-width="1"/>'
        )
    # zero line in panel 1
    parts.append(
        f'<line x1="{_fmt(margin_l)}" y1="{_fmt(y1_of(0.0))}" x2="{_fmt(margin_l + plot_w)}" '
        f'y2="{_fmt(y1_of(0.0))}" stroke="#bbb" stroke-width="1" stroke-dasharray="4,3"/>'
    )
    # a-axis ticks on both panels
    for i in range(5):
        a_t = a_lo + a_span * i / 4
        x = x_of(a_t)
        for top in (margin_t, panel2_top):
            parts.append(
                f'<line x1="{_fmt(x)}" y1="{_fmt(top + panel_h)}" x2="{_fmt(x)}" '
                f'y2="{_fmt(top + panel_h + 4)}" stroke="#444" stroke-width="1"/>'
            )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(panel2_top + panel_h + 18)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{format_float(a_t)}</text>'
        )
    # count gridlines
    for n in (1, 2, 3):
        parts.append(
            f'<line x1="{_fmt(margin_l)}" y1="{_fmt(y2_of(n))}" x2="{_fmt(margin_l + plot_w)}" '
            f'y2="{_fmt(y2_of(n))}" stroke="#eee" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(margin_l - 8)}" y="{_fmt(y2_of(n) + 4)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{n}</text>'
        )
    for idx, r2 in enumerate(r2s):
        color = _PALETTE[idx % len(_PALETTE)]
        series = by_r2[r2]
        pts1 = " ".join(f"{_fmt(x_of(r.a))},{_fmt(y1_of(_symlog(r.delta)))}" for r in series)
        pts2 = " ".join(f"{_fmt(x_of(r.a))},{_fmt(y2_of(r.n_nash))}" for r in series)
        parts.append(f'<polyline points="{pts1}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<polyline points="{pts2}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{_fmt(margin_l + plot_w - 120)}" y="{_fmt(margin_t + 16 + 14 * idx)}" '
            f'font-family="sans-serif" font-size="11" fill="{color}">r2 = {format_float(r2)}</text>'
        )
    parts.append(
        f'<text x="{margin_l}" y="{_fmt(panel2_top - 10)}" font-family="sans-serif" '
        'font-size="13">number of Nash equilibria vs a</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
