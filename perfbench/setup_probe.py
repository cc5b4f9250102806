"""Set-up probe: a fresh interpreter imports lqnash and finishes one operation.

`run.py` starts this script several times per run and reports the median wall
time as `setup_s`.  Usage: setup_probe.py WORKLOAD SEED SCRATCH_DIR, with
lqnash importable (the benchmark puts the checkout's src/ on PYTHONPATH).
Each workload imports only what its users import: the solve workloads never
load `lqnash.cli`.
"""

import sys
import tempfile
from pathlib import Path

import lqnash

import corpus


def main(workload: str, seed: int, scratch: Path) -> int:
    if workload in ("solve_float", "solve_exact"):
        lqnash.solve(next(corpus.stream(workload, seed)).params)
        return 0
    import ops

    if workload == "verify_oracles":
        op = next(corpus.stream(workload, seed))
        return max(ops.run_cli(argv)[0] for argv in ops.verify_argv(op))
    # the first row of the figure sweep, through the same CLI call
    base = corpus.figure_config(Path(__file__).resolve().parent.parent)
    config = dict(base, r2_values=base["r2_values"][:1], a_grid=dict(base["a_grid"], count=1))
    with tempfile.TemporaryDirectory(dir=scratch, prefix="setup-") as tmp:
        return ops.run_cli(["--quiet", "sweep", str(ops.write_sweep_config(config, Path(tmp),
                                                                            "first"))])[0]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])))
