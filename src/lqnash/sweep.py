"""Parameter sweeps over the dynamics gain: rows, CSV/JSON emission, SVG plots.

A sweep solves one game per (r2, a) point, in chunks of consecutive points,
optionally across worker processes.  The worker that solves a chunk also
renders its rows' CSV lines and canonical-JSON elements (`rows_to_csv`,
`rows_to_json_doc`).  `run_sweep` takes the chunks in (r2, a) order as they
arrive, appends their text to temporary files beside the CSV and JSON
outputs, and keeps only the four numbers per row that the SVG plots.  Once
every row and the SVG are written the temporary files are renamed over the
outputs; on any error they are deleted, so partial output never lands.  The
parent's memory therefore does not grow with whole rows, and the output is
byte-identical at every worker count.

Canonical JSON (`canonical_dumps`) lives here beside `format_float`: sorted
keys, two-space indent, 12-significant-digit floats, so that parsing a
document and re-serializing it is byte-identical.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import tempfile
from dataclasses import dataclass
from functools import partial
from itertools import islice
from json.encoder import encode_basestring_ascii
from numbers import Real
from typing import NamedTuple

from .game import GameParams, InvalidGameError, float_game, normalize, parse_rational
from .solver import SolveReport, solve

CSV_COLUMNS = (
    "a", "r2", "delta", "delta_sign", "n_real_roots_g", "n_nash",
    "k1_1", "k2_1", "j1_1", "j2_1",
    "k1_2", "k2_2", "j1_2", "j2_2",
    "k1_3", "k2_3", "j1_3", "j2_3",
)
CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"

# rows per worker task: the process-pool traffic of one message per 32 rows
CHUNK = 32

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
    """A sweep; each game number is a float (a JSON number) or a Fraction (a string).

    Construction raises ConfigError unless the grid is finite, positive and
    nonempty, the r2 values are nonempty with distinct doubles, every game
    of the sweep has a float image, and the outputs name distinct files in
    existing directories.
    """

    q1: Real
    r1: Real
    q2: Real
    a_grid: AGrid
    r2_values: tuple[Real, ...]
    outputs: SweepOutputs
    b1: Real = 1.0
    b2: Real = 1.0
    x0: Real = 1.0

    def __post_init__(self) -> None:
        _validate(self)


@dataclass(frozen=True)
class SweepRow:
    """One solved grid point: a, the double of r2 (as the rows print it), and its report."""

    a: float
    r2: float
    report: SolveReport


class SweepPoint(NamedTuple):
    """What the parent keeps of a streamed row: the numbers the SVG plots."""

    a: float
    r2: float
    delta: float
    n_nash: int


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
        fields = dict(
            q1=_game_number(doc["q1"], "q1"),
            r1=_game_number(doc["r1"], "r1"),
            q2=_game_number(doc["q2"], "q2"),
            b1=_game_number(doc.get("b1", 1.0), "b1"),
            b2=_game_number(doc.get("b2", 1.0), "b2"),
            x0=_game_number(doc.get("x0", 1.0), "x0"),
            a_grid=grid,
            r2_values=tuple(_game_number(v, "r2_values entry") for v in doc["r2_values"]),
            outputs=outputs,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed sweep config: {exc}") from exc
    return SweepConfig(**fields)


def _number(value, field: str) -> float:
    # bool is an int subclass, so float() would read true as 1.0
    if isinstance(value, bool):
        raise ConfigError(f"{field} must be a number, not {json.dumps(value)}")
    return float(value)


def _game_number(value, field: str) -> Real:
    """A JSON number as its double; a string read exactly, as `lqnash solve` reads it."""
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ValueError as exc:
            raise ConfigError(f"{field}: {exc}") from None
    return _number(value, field)


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
    # checked before solving: a write that fails would come after the whole
    # sweep, and a file named twice would be staged twice, the last rename winning
    named: dict[str, str] = {}
    for field in ("csv", "svg", "json"):
        path = getattr(config.outputs, field)
        if path is None:
            continue
        full = os.path.abspath(path)
        if not os.path.isdir(os.path.dirname(full)):
            raise ConfigError(f"outputs.{field}: no directory to write {path!r} into")
        if full in named:
            raise ConfigError(f"outputs.{named[full]} and outputs.{field} name one file, {path!r}")
        named[full] = field
    # r_i / b_i^2 can leave the double range, which no grid point changes.
    # Rows print each r2 as its double, so it needs one, and two entries
    # with one double would print, and plot, as one curve.
    seen: dict[float, Real] = {}
    for r2 in config.r2_values:
        try:
            float_game(normalize(GameParams(a=grid.min, q1=config.q1, q2=config.q2, r1=config.r1,
                                            r2=r2, b1=config.b1, b2=config.b2, x0=config.x0)))
            double = float(r2)
        except InvalidGameError as exc:
            raise ConfigError(f"{exc} (game with r2_values entry {r2!r})") from exc
        except OverflowError:
            raise ConfigError(f"r2_values entry {r2!r} is too large for a double") from None
        if double in seen:
            raise ConfigError(f"r2_values entries {seen[double]!r} and {r2!r} are one double, {double!r}")
        seen[double] = r2


def a_points(grid: AGrid) -> list[float]:
    if grid.count == 1:
        return [grid.min]
    if grid.spacing == "log":
        ratio = grid.max / grid.min
        return [grid.min * ratio ** (i / (grid.count - 1)) for i in range(grid.count)]
    step = (grid.max - grid.min) / (grid.count - 1)
    return [grid.min + i * step for i in range(grid.count)]


def _chunks(config: SweepConfig):
    """The sweep's games in (r2, a) order, CHUNK at a time, built as they are taken."""
    games = (
        GameParams(a=a, q1=config.q1, q2=config.q2, r1=config.r1, r2=r2,
                   b1=config.b1, b2=config.b2, x0=config.x0)
        for r2 in sorted(config.r2_values)
        for a in a_points(config.a_grid)
    )
    while chunk := list(islice(games, CHUNK)):
        yield chunk


def _solve_chunk(chunk: list[GameParams], with_json: bool) -> tuple[list[SweepPoint], str, str | None]:
    """One chunk's whole job, done in the worker that solves it: the SVG's
    numbers, the CSV lines and (if the sweep writes JSON) the elements of the
    JSON document's top-level list, joined by ",\\n"."""
    rows = [SweepRow(params.a, float(params.r2), solve(params)) for params in chunk]
    csv_lines = rows_to_csv(rows)
    elements = None
    if with_json:
        elements = ",\n".join(_element(doc) for doc in rows_to_json_doc(rows))
    points = [SweepPoint(row.a, row.r2, row.report.delta_float, row.report.n_nash) for row in rows]
    return points, csv_lines, elements


def run_sweep(config: SweepConfig, threads: int = 1) -> int:
    """Solve one row per (r2, a) pair, ordered by (r2, a) ascending, and write
    the outputs; returns the number of rows.

    Chunks of CHUNK rows are solved and rendered on up to `threads` workers
    (never more than there are chunks or CPUs).  Their CSV and JSON text is
    appended to temporary files as it arrives, in row order; those are
    renamed over the outputs after the SVG is written, and deleted if
    anything fails, so partial output never lands.
    """
    outputs = config.outputs
    work = partial(_solve_chunk, with_json=outputs.json is not None)
    n_chunks = -(-len(config.r2_values) * config.a_grid.count // CHUNK)
    workers = min(threads, n_chunks, os.cpu_count() or 1)
    points: list[SweepPoint] = []
    with contextlib.ExitStack() as stack:
        csv_fh = stack.enter_context(_staged(outputs.csv))
        json_fh = stack.enter_context(_staged(outputs.json)) if outputs.json else None
        if workers > 1:
            # imported here, its only use: loading the process pool machinery
            # costs every `import lqnash.cli` about 2.5 MB of memory
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=workers)
            # on an error, leaving the block cancels the queued chunks instead
            # of waiting for them
            stack.callback(pool.shutdown, cancel_futures=True)
            results = pool.map(work, _chunks(config))
        else:
            results = map(work, _chunks(config))
        csv_fh.write(CSV_HEADER)
        separator = "[\n"
        for chunk_points, csv_lines, elements in results:
            points += chunk_points
            csv_fh.write(csv_lines)
            if json_fh is not None:
                json_fh.write(separator + elements)
                separator = ",\n"
        if json_fh is not None:
            # a sweep has at least one row, so the list is never empty
            json_fh.write("\n]\n")
        if outputs.svg:
            write_atomic(outputs.svg, render_svg(points))
    return len(points)


def format_float(x: float) -> str:
    """12 significant digits, the presentation precision of CSV and JSON."""
    return format(x, ".12g")


def _csv_line(row: SweepRow) -> str:
    report = row.report
    fields = [
        format_float(row.a),
        format_float(row.r2),
        format_float(report.delta_float),
        str(report.delta_sign),
        str(report.real_roots_total),
        str(report.n_nash),
    ]
    for i in range(3):
        if i < report.n_nash:
            e = report.equilibria[i]
            fields += [format_float(e.k1), format_float(e.k2), format_float(e.j1), format_float(e.j2)]
        else:
            fields += ["", "", "", ""]
    return ",".join(fields) + "\n"


def _row_doc(row: SweepRow) -> dict:
    report = row.report
    return {
        "a": row.a,
        "r2": row.r2,
        "delta": report.delta_float,
        "delta_sign": report.delta_sign,
        "n_real_roots_g": report.real_roots_total,
        "n_nash": report.n_nash,
        "equilibria": [
            {"k1": e.k1, "k2": e.k2, "a_cl": e.a_cl, "j1": e.j1, "j2": e.j2}
            for e in report.equilibria
        ],
    }


def _element(doc: dict) -> str:
    """A row document as an element of the JSON document's top-level list."""
    out = ["  "]
    _serialize(doc, "  ", out)
    return "".join(out)


def rows_to_csv(rows: list[SweepRow]) -> str:
    """The CSV lines of `rows`, without the header."""
    return "".join(_csv_line(row) for row in rows)


def rows_to_json_doc(rows: list[SweepRow]) -> list[dict]:
    """The JSON document of `rows`, to serialize with `canonical_dumps`."""
    return [_row_doc(row) for row in rows]


# ---------------------------------------------------------------------------
# Canonical JSON: sorted keys, two-space indent, 12-significant-digit floats.
# Parsing a document and re-serializing it is byte-identical.
# ---------------------------------------------------------------------------


def _float_token(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    if x == 0.0:
        return "0"
    return format(x, ".12g")


def _serialize(obj, pad: str, out: list[str]) -> None:
    """Append obj's text to `out`; its nested lines start with `pad` plus two spaces."""
    if isinstance(obj, float):
        out.append(_float_token(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        separator = "[\n" + inner
        for v in obj:
            out.append(separator)
            _serialize(v, inner, out)
            separator = ",\n" + inner
        out.append("\n" + pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        separator = "{\n" + inner
        for k, v in sorted(obj.items()):
            out.append(separator + encode_basestring_ascii(str(k)) + ": ")
            _serialize(v, inner, out)
            separator = ",\n" + inner
        out.append("\n" + pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def canonical_dumps(obj) -> str:
    out: list[str] = []
    _serialize(obj, "", out)
    out.append("\n")
    return "".join(out)


@contextlib.contextmanager
def _staged(path: str):
    """A text file beside `path` that replaces it when the block ends and is
    deleted if the block raises."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sweep-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_atomic(path: str, text: str) -> None:
    """Write via a temporary file and rename, so partial output never lands."""
    with _staged(path) as fh:
        fh.write(text)


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


def render_svg(rows: list[SweepPoint]) -> str:
    """Self-contained two-panel figure: transformed discriminant and count vs a."""
    width, height = 760.0, 560.0
    margin_l, margin_r, margin_t, panel_gap = 70.0, 20.0, 30.0, 50.0
    panel_h = (height - 2 * margin_t - panel_gap - 30.0) / 2
    plot_w = width - margin_l - margin_r

    by_r2: dict[float, list] = {}
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
