"""Measurement, tracing and checking for the lqnash benchmark (see README.md).

`run.py` is the entry point; it puts the checkout's `src/` on the import path
before this module is imported.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import lqnash
import lqnash.cli

import corpus
import ops
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build"

# Operations per block.  Throughput is the median of the per-block rates
# (except on verify_oracles), and the first block of a traced run is the prefix
# the exact counters cover.  verify_oracles uses short blocks, the corpus's
# groups, whose mix of large and small a varies little: a few percent of its
# games spend seconds in grid_scan, and a block that holds one is an outlier.
BLOCK = {"solve_float": 128, "solve_exact": 128, "verify_oracles": corpus.VERIFY_GROUP}

# The tail percentile, fixed per workload so that runs stay comparable.  For
# the solve workloads it is the highest with at least ten samples beyond it at
# the seed commit's throughput.  verify_oracles runs about 150 operations whose
# slowest few percent take 2-9 s each, so every percentile above the upper
# quartile moves by a factor of two between seeds; it reports the upper quartile.
TAIL_PERCENTILE = {"solve_float": 99, "solve_exact": 99, "verify_oracles": 75}

# The solve workloads' tail is the median of the percentile over this many
# consecutive stretches of the run, so that one burst of load on the host moves
# one stretch only.  Over ten 20-s solve_float runs on a busy host, the p99 of
# the whole run spread by 0.12 (IQR over median), from two runs whose slowest
# reference slice ran at a quarter of nominal speed.
TAIL_STRETCHES = {"solve_float": 4, "solve_exact": 4, "verify_oracles": 1}

# Fresh interpreters per run for setup_s.  With 7, the median of ten runs'
# setup_s moved by 17% between two sets of runs of the same code.
SETUP_REPEATS = 15

# Machine-speed reference.  The host is shared, and identical work runs up to
# a third slower from one minute to the next.  A fixed loop timed right before
# and right after a stretch of work slows down with it: over 20-s windows of
# alternating solve blocks and this loop, the solve time varied by 28%
# (interquartile range over median), its ratio to the bracketing loop time by
# 4%.  Every timed stretch is therefore scaled by REFERENCE_S over the mean of
# its two bracketing slices.  The loop is exact bisection on an integer quintic
# with Fraction midpoints, the kind of work lqnash does, written out here so
# that no change to lqnash moves it.  Changing it or REFERENCE_S changes every
# timed metric.
REFERENCE_S = 0.030
_REFERENCE_QUINTIC = [(-1) ** k * (3 ** (40 * k + 7) + 12345) for k in range(6)]

# A stretch that keeps several CPUs busy (a sweep at nproc workers) is
# bracketed by as many slices run at once, which track what the host gives to
# all of them.  Their nominal time is REFERENCE_S times WIDE_FACTOR, the ratio
# of two slices at once to one on a 2-vCPU host (median of 101 pairs).  Over
# 101 figure sweeps at 2 workers on that host, the IQR over median of the
# sweep time was 0.156 unscaled, 0.174 scaled by one-CPU slices and 0.130
# scaled by two-CPU slices.
WIDE_FACTOR = 1.38


def reference_slice() -> None:
    lo, hi = Fraction(0), Fraction(7, 3)
    for _ in range(2400):
        mid = (lo + hi) / 2
        num, den = mid.numerator, mid.denominator
        value, power = 0, 1
        for c in reversed(_REFERENCE_QUINTIC):
            value = value * num + c * power
            power *= den
        if value > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < Fraction(1, 2**300):
            lo, hi = Fraction(0), Fraction(7, 3)


def reference_slices(width: int) -> None:
    """`width` slices at once: one here, the others in forked children."""
    children = []
    try:
        for _ in range(width - 1):
            pid = os.fork()
            if pid == 0:
                try:
                    reference_slice()
                finally:
                    os._exit(0)
            children.append(pid)
        reference_slice()
    finally:
        for pid in children:
            os.waitpid(pid, 0)


class Clock:
    """Reference slices between timed stretches of work."""

    def __init__(self):
        self.slices: list[tuple[int, float]] = []  # (width, seconds)
        reference_slice()  # the first slice of a process runs cold
        self.tick()

    def tick(self, width: int = 1) -> float:
        """Time one slice of `width`; return the machine's speed over the
        stretch since the last slice.

        Speed is nominal over actual: a stretch's time times its speed is what
        it would have taken at nominal speed.  A stretch is scaled by the mean
        of its two bracketing slices, or by the closing slice alone when the
        opening one had another width; callers open a bracket with a tick.
        """
        start = time.perf_counter()
        reference_slices(width)
        self.slices.append((width, time.perf_counter() - start))
        nominal = REFERENCE_S * (WIDE_FACTOR if width > 1 else 1.0)
        bracket = [t for w, t in self.slices[-2:] if w == width]
        return len(bracket) * nominal / sum(bracket) if len(self.slices) > 1 else 1.0

    def summary(self) -> str:
        speeds = [REFERENCE_S * (WIDE_FACTOR if w > 1 else 1.0) / t for w, t in self.slices]
        return (f"machine speed {statistics.median(speeds):.4g} x nominal "
                f"(range {min(speeds):.3g}-{max(speeds):.3g} over {len(speeds)} reference "
                f"slices of nominal {REFERENCE_S * 1e3:g} ms per CPU); times are scaled "
                "to nominal")


LAYER_MS = (
    "game.normalize", "solver.build_g", "solver.discriminant", "exactalg.sturm_count",
    "exactalg.isolate", "exactalg.refine", "solver.recover_verify", "oracle.grid_scan",
    "oracle.br_iteration", "oracle.resultant_elimination", "oracle.simulate_cost",
    "groebner.buchberger", "sweep.emit",
)

SWEEP_ONLY = (("sweep.throughput_1w_ops_s", "1/s"), ("sweep.scaling_eff", "frac"),
              ("sweep.parallel_loss_s", "s"))


class Run:
    """What one invocation measured and found."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.problems: list[str] = []
        self.metrics: dict[str, tuple[float, str, str, bool]] = {}
        self.notes: list[str] = []
        self.seen: set = set()
        self.clock = Clock()

    def metric(self, name: str, value: float, unit: str, note: str = "",
               reported: bool = True) -> None:
        """Record a metric; `reported=False` prints it without putting it in the JSON."""
        self.metrics[name] = (value, unit, note, reported)

    def outcome(self, failure: str | None, problems: list[str], count: int = 1) -> None:
        """Count `count` attempted operations; a failure or a wrong output fails them."""
        self.attempted += count
        if failure or problems:
            self.failed += count
            self.failures[failure or "wrong output"] += count
        self.problems.extend(problems)

    def unique(self, key) -> None:
        if key in self.seen:
            raise RuntimeError(f"two {self.workload} operations share parameters {key}")
        self.seen.add(key)


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100)[pct - 1]


def peak_rss_mb(pool_workers: int = 0) -> float:
    """Peak RSS of this process, plus `pool_workers` times the largest child's.

    Forked pool children share pages with the parent, so with children the
    figure is an upper bound on the resident peak.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if pool_workers else 0
    return (own + pool_workers * child) / 1024.0


# ---------------------------------------------------------------------------
# Games: solve_float, solve_exact, verify_oracles
# ---------------------------------------------------------------------------


def execute(workload: str, op, tracer):
    """One operation; returns (elapsed ns, failure name or None, checker input)."""
    if workload == "verify_oracles":
        argvs = ops.verify_argv(op)
        main = lqnash.cli.main if tracer is None else tracer.wrap("cli.main", lqnash.cli.main)
        start = time.perf_counter_ns()
        outputs = [ops.run_cli(argv, main) for argv in argvs]
        elapsed = time.perf_counter_ns() - start
        codes = [code for code, _ in outputs]
        failure = None if codes == [0, 0] else f"exit codes {codes}"
        return elapsed, failure, outputs
    start = time.perf_counter_ns()
    try:
        solve = lqnash.solve if tracer is None else tracer.wrap("solver.solve", lqnash.solve)
        report = solve(op.params)
    except Exception as exc:  # every exception is a failed operation, not a crash
        return time.perf_counter_ns() - start, type(exc).__name__, None
    return time.perf_counter_ns() - start, None, report


def check(workload: str, op, failure, output) -> list[str]:
    if failure:
        return []
    if workload == "verify_oracles":
        return ops.check_verify(output)
    return ops.check_solve(op, output)


def run_games(run: Run, seed: int, seconds: float, trace: bool, golden: dict):
    workload = run.workload
    block = BLOCK[workload]
    stream = corpus.stream(workload, seed)
    tracer = tracing.Tracer(capture_ops=block) if trace else None
    busy_ns = 0
    traced_ops = 0
    rates: list[float] = []
    raw_rates: list[float] = []
    traced_rates: list[float] = []
    latencies: list[float] = []
    raw_latencies: list[int] = []
    op_speed: dict[int, float] = {}
    traced = trace
    op_id = 0
    while True:
        if traced:
            tracer.install()
        block_ns = []
        for _ in range(block):
            op = next(stream)
            run.unique(corpus.op_key(op.params))
            if traced:
                tracer.op = op_id
            elapsed, failure, output = execute(workload, op, tracer if traced else None)
            run.outcome(failure, check(workload, op, failure, output))
            block_ns.append(elapsed)
            op_id += 1
        if traced:
            tracer.remove()
        speed = run.clock.tick()
        total = sum(block_ns)
        busy_ns += total
        if traced:
            traced_ops += block
            traced_rates.append(block * 1e9 / (total * speed))
            op_speed.update(dict.fromkeys(range(op_id - block, op_id), speed))
        else:
            rates.append(block * 1e9 / (total * speed))
            raw_rates.append(block * 1e9 / total)
            latencies.extend(ns * speed for ns in block_ns)
            raw_latencies.extend(block_ns)
        if busy_ns >= seconds * 1e9 and rates and (not trace or traced_rates):
            break
        if trace:
            traced = not traced

    if workload in golden:
        for op, want in zip(corpus.gate_ops(workload), golden[workload], strict=True):
            run.unique(corpus.op_key(op.params))
            _, failure, report = execute(workload, op, None)
            problems = check(workload, op, failure, report)
            if not failure and not problems:
                problems = [f"gate {op.params}: {p}"
                            for p in ops.check_golden(ops.summarize(report), want)]
            run.outcome(failure, problems)

    if not trace:
        pct = TAIL_PERCENTILE[workload]
        n = len(latencies)
        stretches = TAIL_STRETCHES[workload]
        size = n // stretches

        def tail(values):
            return statistics.median(percentile(values[i * size:(i + 1) * size], pct)
                                     for i in range(stretches))

        if workload == "verify_oracles":
            # even its median block rate follows how much of a run the
            # multi-second games take, so the rate is taken at the
            # interquartile mean of the operation times
            middle = sorted(latencies)[n // 4:n - n // 4]
            rate, how = len(middle) * 1e9 / sum(middle), "interquartile mean of op times"
        else:
            rate, how = statistics.median(rates), f"median of {len(rates)} blocks of {block} ops"
        run.metric("throughput_ops_s", rate, "1/s",
                   f"{how}, n={n}; raw median block {statistics.median(raw_rates):.6g}, "
                   f"mean {n * 1e9 / sum(latencies):.4g}")
        run.metric("latency_p50_ms", statistics.median(latencies) / 1e6, "ms",
                   f"n={n}; raw {statistics.median(raw_latencies) / 1e6:.6g}")
        run.metric("latency_tail_ms", tail(latencies) / 1e6, "ms",
                   f"p{pct}, median over {stretches} stretches of n={size}, "
                   f"{size - math.ceil(size * pct / 100)} samples beyond in each; "
                   f"raw {tail(raw_latencies) / 1e6:.6g}")
        run.metric("peak_rss_mb", peak_rss_mb(), "MB")
        return
    traced_rate, untraced_rate = statistics.median(traced_rates), statistics.median(rates)
    report_layers(run, tracer, traced_ops, "op", op_speed)
    exact_counts(run, tracer)
    large_a_solved(run)
    for name, unit in SWEEP_ONLY:
        run.metric(name, 0.0, unit, "not exercised by this workload")
    run.metric("trace.overhead_frac", 1 - traced_rate / untraced_rate, "frac",
               f"median block rate {traced_rate:.1f} traced vs {untraced_rate:.1f} untraced ops/s")


# ---------------------------------------------------------------------------
# sweep_figure
# ---------------------------------------------------------------------------


def run_figure(run: Run, seed: int, seconds: float, trace: bool, golden: dict):
    nproc = len(os.sched_getaffinity(0))
    base = corpus.figure_config(ROOT)
    rows = len(base["r2_values"]) * base["a_grid"]["count"]
    configs = corpus.sweep_configs(base, seed)
    tracer = tracing.Tracer(capture_ops=1) if trace else None
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=SCRATCH, prefix="sweep-"))
    planned: list[dict] = []
    digests: dict[tuple[int, int], dict] = {}
    op_speed: dict[int, float] = {}
    busy_ns = 0

    def sweep(index: int, threads: int, traced: bool) -> float:
        """One sweep; returns its time in ns, scaled to nominal speed."""
        nonlocal busy_ns
        while len(planned) <= index:
            planned.append(next(configs))
            run.unique(json.dumps(planned[-1], sort_keys=True))
        path = ops.write_sweep_config(planned[index], tmp, f"c{index}-w{threads}")
        argv = ["--threads", str(threads), "--quiet", "sweep", str(path)]
        main = lqnash.cli.main
        if traced:
            tracer.op = index
            tracer.install()
            main = tracer.wrap("cli.main", main)
        start = time.perf_counter_ns()
        try:
            code, text = ops.run_cli(argv, main)
        finally:
            elapsed = time.perf_counter_ns() - start
            if traced:
                tracer.remove()
        speed = run.clock.tick(threads)
        busy_ns += elapsed
        if traced:
            op_speed[index] = speed
        if code != 0:
            run.outcome(f"sweep exit code {code}", [], rows)
            return elapsed * speed
        digest = digests[index, threads] = ops.sweep_digest(path)
        problems = ops.check_sweep_rows(digest.pop("rows"), rows)
        other = digests.get((index, nproc if threads == 1 else 1))
        if other is not None and other != digest:
            problems.append(f"sweep {index} differs between 1 and {nproc} workers")
        if index == 0 and digest != golden["sweep_figure"]:
            problems.append("figure sweep output differs from the golden sha256")
        run.outcome(None, problems, rows)
        return elapsed * speed

    try:
        # nproc workers first: pool children fork from this process, so they
        # must not inherit memo entries from a 1-worker sweep of the same config.
        # Untraced runs give most of their time to the nproc sweeps, which the
        # end-to-end metrics come from.
        wide: list[float] = []
        share = 0.25 if trace else 0.8
        index = 0
        run.clock.tick(nproc)
        while not wide or busy_ns < share * seconds * 1e9:
            wide.append(sweep(index, nproc, False))
            index += 1
        run.clock.tick()
        narrow: list[float] = []
        traced_ns: list[float] = []
        index = 0
        while not narrow or (trace and not traced_ns) or busy_ns < seconds * 1e9:
            traced = trace and index % 2 == 0
            (traced_ns if traced else narrow).append(sweep(index, 1, traced))
            index += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    rate_wide = statistics.median(rows * 1e9 / t for t in wide)
    rate_narrow = statistics.median(rows * 1e9 / t for t in narrow)
    scaling = rate_wide / (nproc * rate_narrow)
    if not trace:
        run.metric("throughput_ops_s", rate_wide, "1/s",
                   f"rows/s at {nproc} workers, median of {len(wide)} sweeps of {rows} rows")
        run.metric("latency_p50_ms", statistics.median(wide) / 1e6, "ms",
                   f"one {rows}-row sweep at {nproc} workers, n={len(wide)}")
        upper = statistics.quantiles(wide, n=4, method="inclusive")[2] if len(wide) > 1 else wide[0]
        run.metric("latency_tail_ms", upper / 1e6, "ms",
                   f"upper quartile of n={len(wide)} sweeps; no percentile has ten samples "
                   "beyond it, and the slowest sweep alone moves by a quarter between runs")
        run.metric("peak_rss_mb", peak_rss_mb(nproc), "MB", "parent + workers x largest child")
        run.metric("throughput_1w_ops_s", rate_narrow, "1/s",
                   f"median of {len(narrow)} 1-worker sweeps", reported=False)
        run.metric("scaling_eff", scaling, "frac", f"{nproc} workers", reported=False)
        return
    run.metric("sweep.throughput_1w_ops_s", rate_narrow, "1/s",
               f"median of {len(narrow)} untraced 1-worker sweeps")
    run.metric("sweep.scaling_eff", scaling, "frac", f"{nproc} workers against 1")
    run.metric("sweep.parallel_loss_s",
               (statistics.median(wide) - statistics.median(narrow) / nproc) / 1e9, "s",
               f"per {rows}-row sweep")
    report_layers(run, tracer, rows * len(traced_ns), "row", op_speed)
    exact_counts(run, tracer)
    large_a_solved(run)
    traced_rate = rows * len(traced_ns) * 1e9 / sum(traced_ns)
    run.metric("trace.overhead_frac", 1 - traced_rate / rate_narrow, "frac",
               f"{traced_rate:.1f} traced vs {rate_narrow:.1f} untraced rows/s at 1 worker")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def report_layers(run: Run, tracer, n_ops: int, unit: str, op_speed: dict[int, float]) -> None:
    inclusive, self_ns = tracing.layer_times(tracer.spans, op_speed)
    per_op = lambda ns: ns / n_ops / 1e6  # noqa: E731
    note = f"mean ms per {unit}, {n_ops} traced {unit}s"
    for layer in LAYER_MS:
        run.metric(f"{layer}_ms", per_op(self_ns.get(layer, 0)), "ms", note)
    run.metric("solver.solve_ms", per_op(inclusive.get("solver.solve", 0)), "ms", note)
    run.metric("solver.self_ms", per_op(self_ns.get("solver.solve", 0)), "ms",
               note + ", solve span minus its stage spans")
    run.metric("cli.self_ms", per_op(self_ns.get("cli.main", 0)), "ms",
               note + ", cli.main minus its children")
    run.metric("sweep.row_ms", per_op(inclusive.get("sweep.run", 0)), "ms",
               note + ", run_sweep span per row")
    solve_ns = inclusive.get("solver.solve", 0)
    if solve_ns:
        solves = {i for i, span in enumerate(tracer.spans) if span[0] == "solver.solve"}
        stages = sum((end - start) * op_speed[op]
                     for _, start, end, op, parent in tracer.spans if parent in solves)
        run.notes.append(f"solve span accounted: stages {stages / solve_ns:.4f} + self "
                         f"{self_ns['solver.solve'] / solve_ns:.4f} of {solve_ns / 1e9:.3f} s")
    for name in tracer.absent:
        run.notes.append(f"absent span target: {name}")


def _coeff_bits(poly) -> int:
    """Largest bit length among the integer coefficients of a rational poly."""
    den = math.lcm(*(c.denominator for c in poly.coeffs))
    return max(abs(int(c * den)).bit_length() for c in poly.coeffs)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def exact_counts(run: Run, tracer) -> None:
    """Counts over the traced prefix; they repeat exactly for a given seed."""
    cap = tracer.captured
    counters = {
        "exactalg.g2_coeff_bits_mean": ("solver", "build_g", "bits",
                                        lambda xs: _mean(_coeff_bits(r) for _, r in xs)),
        "exactalg.g2_coeff_bits_max": ("solver", "build_g", "bits",
                                       lambda xs: max((_coeff_bits(r) for _, r in xs), default=0)),
        "exactalg.roots_in_window_mean": ("solver", "isolate_roots_in_interval", "count",
                                          lambda xs: _mean(len(r) for _, r in xs)),
        "exactalg.multiple_root_frac": (
            "solver", "isolate_roots_in_interval", "frac",
            lambda xs: _mean(any(iv.multiplicity > 1 for iv in r) for _, r in xs)),
        "exactalg.isolation_width_bits_mean": (
            "solver", "refine_root", "bits",
            lambda xs: _mean(math.log2(a[1].hi - a[1].lo) for a, _ in xs)),
        "oracle.br_converged_frac": ("cli", "br_iteration", "frac",
                                     lambda xs: _mean(r.converged for _, r in xs)),
        "groebner.basis_size_mean": ("cli", "buchberger", "count",
                                     lambda xs: _mean(len(r) for _, r in xs)),
    }
    for name, (module, attr, unit, reduce) in counters.items():
        calls = cap.get((f"lqnash.{module}", attr), [])
        try:
            value = reduce(calls)
        except (AttributeError, TypeError, ValueError, IndexError):
            value = 0.0
            run.notes.append(f"absent counter: {name} (lqnash.{module}.{attr} changed shape)")
        run.metric(name, float(value), unit, f"exact, over {len(calls)} calls in the prefix")


def large_a_solved(run: Run) -> None:
    """Share of `corpus.large_a_games` that solve answers, on solve_exact.

    Those games lie outside every workload because the seed commit rejects
    some of them (see `corpus.A_MAX`), so they are not operations of the run:
    a rejection lowers the share and fails nothing.  A wrong answer is a wrong
    output like any other.
    """
    if run.workload != "solve_exact":
        run.metric("solver.large_a_solved_frac", 0.0, "frac", "not exercised by this workload")
        return
    games = corpus.large_a_games()
    solved = 0
    for op in games:
        try:
            report = lqnash.solve(op.params)
        except Exception:  # a rejected game: what this share counts
            continue
        problems = ops.check_solve(op, report)
        run.problems.extend(f"large-a game {op.params}: {p}" for p in problems)
        solved += not problems
    run.metric("solver.large_a_solved_frac", solved / len(games), "frac",
               f"exact, {solved} of {len(games)} fixed games with a > {corpus.A_MAX}")


# ---------------------------------------------------------------------------
# Set-up: fresh interpreters
# ---------------------------------------------------------------------------


def fresh_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(run: Run, seed: int) -> None:
    """Median wall time of a fresh interpreter importing lqnash and finishing
    the workload's first operation."""
    SCRATCH.mkdir(exist_ok=True)
    cmd = [sys.executable, str(HERE / "setup_probe.py"), run.workload, str(seed), str(SCRATCH)]
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=fresh_env(), capture_output=True, text=True, timeout=120)
        raw.append(time.perf_counter() - start)
        times.append(raw[-1] * run.clock.tick())
        if proc.returncode != 0:  # the loop counts the operation's failure; note it here
            run.notes.append(f"setup probe exit code {proc.returncode}: "
                             f"{proc.stderr.strip().splitlines()[-1:]}")
    run.metric("setup_s", statistics.median(times), "s",
               f"median of {SETUP_REPEATS} interpreters; raw {statistics.median(raw):.6g}")


def measure_imports(run: Run) -> None:
    """`-X importtime` cumulative times for lqnash and numpy, median of runs."""
    found: dict[str, list[float]] = {"lqnash": [], "numpy": []}
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lqnash"],
                              env=fresh_env(), capture_output=True, text=True, timeout=120)
        speed = run.clock.tick()
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in found:
                found[fields[2].strip()].append(int(fields[1]) / 1000.0 * speed)
    for name, values in found.items():
        run.metric(f"setup.import_{name}_ms", statistics.median(values) if values else 0.0,
                   "ms", f"-X importtime cumulative, median of {len(values)}")


# ---------------------------------------------------------------------------


def main(args) -> int:
    """Run one workload as `run.py` parsed it and print the result."""
    # pool workers started by spawn import lqnash from the same tree
    os.environ["PYTHONPATH"] = fresh_env()["PYTHONPATH"]
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        golden = json.load(fh)

    run = Run(args.workload)
    trace = bool(args.trace)
    if args.workload == "sweep_figure":
        run_figure(run, args.seed, args.seconds, trace, golden)
    else:
        run_games(run, args.seed, args.seconds, trace, golden)
    if trace:
        measure_imports(run)
    else:
        measure_setup(run, args.seed)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={sys.version.split()[0]} nproc={os.cpu_count()}")
    print("  " + run.clock.summary())
    for name, (value, unit, note, _) in run.metrics.items():
        print(f"  {name} = {value:.6g} {unit}" + (f"  [{note}]" if note else ""))
    for line in run.notes:
        print("  " + line)
    print(f"  fail_frac = {run.failed / max(run.attempted, 1):.6g} frac  "
          f"[{run.failed} of {run.attempted}: {dict(run.failures)}]")
    for problem in run.problems[:20]:
        print(f"  WRONG OUTPUT: {problem}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _, reported) in run.metrics.items() if reported},
    }))
    return 0
