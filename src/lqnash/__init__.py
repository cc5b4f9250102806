"""Exact computation of all linear feedback Nash equilibria of scalar
two-player discrete-time infinite-horizon LQ games.

The pipeline builds the elimination quintic with exact rational coefficients,
classifies the equilibrium count through the sign of its discriminant,
isolates and refines the certified roots, and cross-validates every answer
with independent brute-force oracles and a from-scratch Buchberger engine.

The package exports the library surface below; the layers (`exactalg`,
`game`, `solver`, `oracle`, `groebner`, `sweep`, `cli`) are imported from
their modules.
"""

from .game import GameParams, InvalidGameError, TrivialGame
from .solver import (
    ConsistencyError,
    NashEquilibrium,
    SolveReport,
    fold_game,
    pitchfork_game,
    solve,
)

__version__ = "0.1.0"
