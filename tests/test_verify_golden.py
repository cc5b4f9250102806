"""`verify` and `groebner-check` print the same bytes as when the golden was
made: every float an oracle computes and every rational Buchberger derives
reaches this output, so a change that moves one of them shows here.

Regenerate (only for a deliberate output change, with the reason recorded):
    PYTHONPATH=src python tests/test_verify_golden.py
"""

import contextlib
import io
import random
from fractions import Fraction
from pathlib import Path

from lqnash.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "verify_golden.txt"


def _small_rational(rng, hi=400, den=100):
    return Fraction(rng.randint(1, hi), rng.randint(1, den))


def golden_games():
    """Argument lists of 20 seeded small-rational games (a <= 20), the
    all-ones game, one with a negative dynamics and input gain, then a fold
    and two pitchfork games, whose quintics have a double or a triple root."""
    rng = random.Random(10)
    games = [["--a", "1", "--q1", "1", "--q2", "1", "--r1", "1", "--r2", "1"],
             ["--a=-3/2", "--q1", "2", "--q2", "5/3", "--r1", "1/4", "--r2", "7",
              "--b1=-2", "--x0", "3"]]
    while len(games) < 22:
        a = _small_rational(rng)
        if a > 20:
            continue
        values = [a] + [_small_rational(rng) for _ in range(4)]
        games.append([arg for name, v in zip(("a", "q1", "q2", "r1", "r2"), values)
                      for arg in (f"--{name}", str(v))])
    for game in ("--a 16/7 --q1 1/2 --q2 1 --r1 1 --r2 98/27",
                 "--a 2 --q1 9/16 --q2 9/16 --r1 1 --r2 1",
                 "--a 5/2 --q1 21/16 --q2 21/16 --r1 25/21 --r2 25/21"):
        games.append(game.split())
    return games


def transcript() -> str:
    """Each command, then its stdout and stderr together, then its exit code;
    every third game's verify also runs with a seed, to jitter its starts."""
    out = io.StringIO()
    for i, flags in enumerate(golden_games()):
        commands = [["verify"] + flags, ["groebner-check"] + flags]
        if i % 3 == 0:
            commands.append(["--seed", str(i), "verify"] + flags)
        for argv in commands:
            text = io.StringIO()
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
                code = main(argv)
            out.write(f"$ lqnash {' '.join(argv)}\n{text.getvalue()}exit {code}\n")
    return out.getvalue()


def test_verify_and_groebner_check_output_matches_golden():
    assert transcript() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(transcript(), encoding="utf-8")
