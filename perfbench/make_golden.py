"""Regenerate golden.json: the outputs the correctness gate compares against.

Run from the root of a checkout of the commit whose outputs are the
reference:  python3 perfbench/make_golden.py
The gate operations are fixed (they do not depend on a run's --seed).
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import lqnash  # noqa: E402

import corpus  # noqa: E402
import ops  # noqa: E402
import bench  # noqa: E402


def main() -> int:
    golden = {}
    for workload in corpus.GATE_SIZE:
        entries = []
        for op in corpus.gate_ops(workload):
            try:
                report = lqnash.solve(op.params)
            except Exception as exc:  # recorded: a later success is not a regression
                entries.append({"error": type(exc).__name__})
                continue
            problems = ops.check_solve(op, report)
            if problems:
                raise SystemExit(f"gate op {op.params} fails its own checks: {problems}")
            entries.append(ops.summarize(report))
        golden[workload] = entries
    bench.SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.SCRATCH) as tmp:
        path = ops.write_sweep_config(corpus.figure_config(bench.ROOT), Path(tmp), "figure")
        code, text = ops.run_cli(["--quiet", "sweep", str(path)])
        if code != 0:
            raise SystemExit(f"figure sweep failed: {text}")
        digest = ops.sweep_digest(path)
        digest.pop("rows")
        golden["sweep_figure"] = digest
    with open(HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
