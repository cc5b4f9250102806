"""The lqnash benchmark: one closed-loop workload per run, checked and timed.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve_float --seed 1 --seconds 20 --trace 0

With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
alternates traced and untraced work and prints the per-layer metrics.  Human-
readable lines come first; the last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.  The exit code
is 0 when the run completed, whether or not its outputs were correct, and 2
when the checkout holds no lqnash source tree.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIGURE_CONFIG = ROOT / "configs" / "figure_sweep.json"

WORKLOADS = ("solve_float", "solve_exact", "sweep_figure", "verify_oracles")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lqnash" / "__init__.py").is_file() or not FIGURE_CONFIG.is_file():
        print(f"perfbench: {ROOT} holds no lqnash source tree (src/lqnash, configs/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
