"""Per-crossing traversal coordinates of a based Gauss code.

Each crossing gets two numbers read off the traversal: delta records
whether the first visit goes over (1) or under (0), epsilon is the
crossing sign.  The coordinate sums in `invariants` read these two and,
from the passage positions, which chords interleave.
"""

from __future__ import annotations

from typing import NamedTuple

from .codes import GaussCode, OVER


class CrossingCoordinates(NamedTuple):
    label: str
    delta: int
    epsilon: int


def delta(code: GaussCode, label: str) -> int:
    """1 if the chronologically first passage through the crossing is
    the over-passage, else 0."""
    first, _ = code.positions(label)
    return 1 if code.passages[first].role == OVER else 0


def epsilon(code: GaussCode, label: str) -> int:
    """The crossing sign, +1 or -1."""
    return code.sign_of(label)


def coordinate_table(code: GaussCode) -> tuple[CrossingCoordinates, ...]:
    """(label, delta, epsilon) for every crossing, in first-visit order."""
    return tuple([
        CrossingCoordinates(l, delta(code, l), epsilon(code, l))
        for l in code.crossings
    ])
