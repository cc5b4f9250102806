"""`lqnash solve` prints the same bytes as when the golden was made, as JSON
and as a table: the quintic, the exact and float discriminant, the root
counts, every equilibrium's gains and costs, and the theorem-flags block.

Regenerate (only for a deliberate output change, with the reason recorded):
    PYTHONPATH=src python tests/test_solve_golden.py
"""

import contextlib
import io
from fractions import Fraction
from pathlib import Path

from lqnash import fold_game, pitchfork_game
from lqnash.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "solve_golden.txt"


def _flags(params) -> list[str]:
    return [f"--{name}={Fraction(getattr(params, name))}"
            for name in ("a", "q1", "q2", "r1", "r2", "b1", "b2", "x0")]


def golden_games():
    """Argument lists of the all-ones game, the same game with b1 = 3 (whose
    r1 / 9 no double holds), a negative dynamics gain, a fold game and a
    pitchfork game (a double and a triple root), and the trivial game a = 0."""
    all_ones = ["--a", "1", "--q1", "1", "--q2", "1", "--r1", "1", "--r2", "1"]
    fold, _ = fold_game(Fraction(1, 2), Fraction(1, 2))
    pitchfork, _ = pitchfork_game(Fraction(3, 4))
    return [
        all_ones,
        all_ones + ["--b1", "3"],
        ["--a", "-2"] + all_ones[2:],
        _flags(fold),
        _flags(pitchfork),
        ["--a", "0"] + all_ones[2:],
    ]


def transcript() -> str:
    """Each command, then its stdout and stderr together, then its exit code."""
    out = io.StringIO()
    for flags in golden_games():
        for argv in (["solve"] + flags, ["solve", "--format", "table"] + flags):
            text = io.StringIO()
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
                code = main(argv)
            out.write(f"$ lqnash {' '.join(argv)}\n{text.getvalue()}exit {code}\n")
    return out.getvalue()


def test_solve_output_matches_golden():
    assert transcript() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(transcript(), encoding="utf-8")
