"""Chord diagram combinatorics and weight systems.

Covers enumeration of based chord diagrams, the degree 2 and 3 weight
systems, checking of the one-term and four-term relations, resolution
of double points into signed crossing pairs, a planar realization of
any chord diagram as a singular knot, and the weight system a knot
invariant induces through that realization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Dict

from .codes import (
    DoublePointPassage,
    GaussCode,
    OVER,
    Passage,
    SingularCode,
    UNDER,
    embedding_genus,
    validate,
)
from .diagrams import ChordDiagram, double_point_diagram, interleaved
from .errors import CheckFailed, TooLarge, WrongDegree

MAX_ENUM_DEGREE = 6


def enumerate_chord_diagrams(n: int) -> list[ChordDiagram]:
    """All based diagrams with n chords, (2n-1)!! of them, in a fixed
    deterministic order."""
    if not 0 <= n <= MAX_ENUM_DEGREE:
        raise TooLarge(f"degree {n} outside 0..{MAX_ENUM_DEGREE}")
    out: list[ChordDiagram] = []

    def build(free: tuple[int, ...], acc: tuple[tuple[int, int], ...]) -> None:
        if not free:
            out.append(ChordDiagram(acc))
            return
        first, rest = free[0], free[1:]
        for i, partner in enumerate(rest):
            build(rest[:i] + rest[i + 1:], acc + ((first, partner),))

    build(tuple(range(2 * n)), ())
    return out


def chord_word(d: ChordDiagram) -> str:
    """Endpoint word with chords numbered by first appearance,
    e.g. ``1 2 1 2`` for the crossed 2-chord diagram."""
    at: dict[int, int] = {}
    for i, (a, b) in enumerate(d.chords):
        at[a] = i
        at[b] = i
    order: dict[int, int] = {}
    toks = []
    for pos in range(2 * d.degree):
        rank = order.setdefault(at[pos], len(order) + 1)
        toks.append(str(rank))
    return " ".join(toks)


def _isolated(d: ChordDiagram, i: int) -> bool:
    return all(not interleaved(d, i, j) for j in range(d.degree) if j != i)


def w2(d: ChordDiagram) -> int:
    """1 on the crossed 2-chord diagram, 0 on the other two."""
    if d.degree != 2:
        raise WrongDegree(f"w2 needs 2 chords, got {d.degree}")
    return 1 if interleaved(d, 0, 1) else 0


def w3(d: ChordDiagram) -> int:
    """2 when all three chords pairwise cross, 1 when the crossing
    graph is a two-edge path, 0 otherwise."""
    if d.degree != 3:
        raise WrongDegree(f"w3 needs 3 chords, got {d.degree}")
    edges = sum(interleaved(d, i, j) for i, j in combinations(range(3), 2))
    return {3: 2, 2: 1}.get(edges, 0)


@dataclass
class WeightSystem:
    """A total assignment of rationals to the based diagrams of one degree."""

    degree: int
    table: Dict[ChordDiagram, Fraction]
    name: str = ""

    def evaluate(self, d: ChordDiagram) -> Fraction:
        if d.degree != self.degree:
            raise WrongDegree(f"{self.name or 'weight system'} has degree {self.degree}")
        return self.table[d]


def weight_system_from_function(
    fn: Callable[[ChordDiagram], int], degree: int, name: str = ""
) -> WeightSystem:
    table = {d: Fraction(fn(d)) for d in enumerate_chord_diagrams(degree)}
    return WeightSystem(degree, table, name)


@dataclass(frozen=True)
class FourTermQuadruple:
    """Four diagrams differing only in one moving chord endpoint; a
    weight system must kill the alternating sum."""

    diagrams: tuple[ChordDiagram, ChordDiagram, ChordDiagram, ChordDiagram]

    signs = (1, -1, 1, -1)


def four_term_quadruples(n: int) -> list[FourTermQuadruple]:
    """Every placement of the four-term figure at degree n.

    On 2n-1 slots choose the fixed chord (b1, b2), the moving chord's
    fixed endpoint, and a background matching; the moving endpoint then
    takes the four insertion slots adjacent to b1 and b2, ordered
    (before b1, after b1, before b2, after b2).
    """
    if not 2 <= n <= 5:
        raise TooLarge(f"degree {n} outside 2..5")
    m = 2 * n - 1
    quads: list[FourTermQuadruple] = []

    def matchings(points: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
        if not points:
            return [()]
        first, rest = points[0], points[1:]
        out = []
        for i, partner in enumerate(rest):
            for tail in matchings(rest[:i] + rest[i + 1:]):
                out.append(((first, partner),) + tail)
        return out

    def insert(chords, fixed_end, slot):
        shifted = tuple(
            (a + (a >= slot), b + (b >= slot)) for a, b in chords
        )
        moving = (fixed_end + (fixed_end >= slot), slot)
        return ChordDiagram(shifted + (moving,))

    for b1, b2 in combinations(range(m), 2):
        rest = tuple(p for p in range(m) if p not in (b1, b2))
        for a2 in rest:
            background = tuple(p for p in rest if p != a2)
            for bg in matchings(background):
                base = bg + ((b1, b2),)
                four = tuple(
                    insert(base, a2, slot) for slot in (b1, b1 + 1, b2, b2 + 1)
                )
                quads.append(FourTermQuadruple(four))
    return quads


@dataclass(frozen=True)
class RelationReport:
    one_term_ok: bool
    four_term_ok: bool
    violations: tuple[str, ...]


def check_relations(w: WeightSystem) -> RelationReport:
    """Exhaustive one-term and four-term check at the system's degree.

    The four-term check is skipped (reported as passing) below degree 2
    where the figure does not exist.
    """
    violations = []
    one_ok = True
    for d in enumerate_chord_diagrams(w.degree):
        if any(_isolated(d, i) for i in range(d.degree)) and w.evaluate(d) != 0:
            one_ok = False
            violations.append(f"1T: {chord_word(d)} -> {w.evaluate(d)}")
    four_ok = True
    if 2 <= w.degree <= 5:
        for q in four_term_quadruples(w.degree):
            total = sum(
                s * w.evaluate(d) for s, d in zip(q.signs, q.diagrams)
            )
            if total != 0:
                four_ok = False
                violations.append(
                    "4T: "
                    + " | ".join(chord_word(d) for d in q.diagrams)
                    + f" -> {total}"
                )
    return RelationReport(one_ok, four_ok, tuple(violations))


def resolve_singular(s: SingularCode) -> list[tuple[int, GaussCode]]:
    """Expand every double point into (positive crossing) - (negative
    crossing).

    Returns 2^d signed codes ordered by resolution bitmask (bit i set =
    double point i resolved negatively).  In the positive resolution the
    first visit becomes the over-passage with sign +1; in the negative
    one it becomes the under-passage with sign -1.
    """
    dps = s.double_points
    taken = {p.label for p in s.passages if isinstance(p, Passage)}
    fresh = 1 + max(
        (int(l) for l in taken | set(dps) if l.isdigit()), default=0
    )
    new_label = {}
    for l in dps:
        if l in taken:
            new_label[l] = str(fresh)
            fresh += 1
        else:
            new_label[l] = l
    index = {l: i for i, l in enumerate(dps)}

    out = []
    for mask in range(1 << len(dps)):
        passages = []
        for p in s.passages:
            if isinstance(p, Passage):
                passages.append(p)
                continue
            negative = (mask >> index[p.label]) & 1
            label = new_label[p.label]
            if negative:
                role = UNDER if p.visit == "a" else OVER
                passages.append(Passage(label, role, -1))
            else:
                role = OVER if p.visit == "a" else UNDER
                passages.append(Passage(label, role, 1))
        sign = -1 if bin(mask).count("1") % 2 else 1
        out.append((sign, GaussCode(tuple(passages))))
    return out


# --- planar realization ---------------------------------------------------
#
# A chord diagram is realized by finger moves on a line.  The base circle
# runs left to right along a horizontal line through positions 0..2n-1
# and is closed by an arc far below.  Chord (i, j) becomes a thin finger:
# its outgoing strand rises at i to the finger's height, runs right above
# the line and dips across the line at j; just left of j the returning
# strand comes back up across the line, runs left just under the outgoing
# run and comes down beside i.  The outgoing strand's crossing of the line
# is the double point, the returning strand's an ordinary crossing.  A
# finger's height is the rank of its span j - i, ties broken by chord
# index, so nested fingers never meet and an interleaved pair meets where
# the higher finger's two legs at its inner endpoint cut the lower
# finger's two runs: n + 4 * (interleaved pairs) ordinary crossings in
# all.  Every strand is axis-parallel, the earlier visit of an ordinary
# crossing is over, and its sign is that of cross(over, under) of the two
# directions.  The first visit of a double point goes down and the second
# goes right, the chirality that makes the first-visit-over resolution a
# positive crossing.

_UP, _DOWN, _RIGHT, _LEFT = (0, 1), (0, -1), (1, 0), (-1, 0)


def realize_chord_diagram(d: ChordDiagram) -> SingularCode:
    """A planar singular knot whose double points trace the diagram.

    The double points, in traversal order, reproduce d exactly; the
    ordinary crossings introduced by planarization all have their first
    visit on the over branch.
    """
    n = d.degree
    chords = d.chords
    height = {c: (j - i, c) for c, (i, j) in enumerate(chords)}
    chord_at = {x: c for c, ends in enumerate(chords) for x in ends}

    def lower(c: int, x: int) -> list[int]:
        """Fingers lower than c whose runs pass over x, lowest first."""
        return sorted(
            (e for e, (k, l) in enumerate(chords) if k < x < l and height[e] < height[c]),
            key=height.__getitem__,
        )

    def higher_legs(c: int) -> list[tuple[int, str]]:
        """Legs of higher fingers standing between c's endpoints, left to right."""
        i, j = chords[c]
        legs = []
        for x in range(i + 1, j):
            e = chord_at[x]
            if height[e] > height[c]:
                pair = ("out", "ret") if x == chords[e][0] else ("ret", "out")
                legs.extend((e, leg) for leg in pair)
        return legs

    def finger(c: int) -> list[tuple[tuple, tuple[int, int]]]:
        """(crossing, direction) along finger c, from i back to i."""
        i, j = chords[c]
        at_i, at_j, legs = lower(c, i), lower(c, j), higher_legs(c)
        return [
            *(((e, run, c, "out"), _UP) for e in at_i for run in ("bot", "top")),
            *(((c, "top", e, leg), _RIGHT) for e, leg in legs),
            *(((e, run, c, "out"), _DOWN) for e in reversed(at_j) for run in ("top", "bot")),
            (("dp", c), _DOWN),
            (("tip", c), _UP),
            *(((e, run, c, "ret"), _UP) for e in at_j for run in ("bot", "top")),
            *(((c, "bot", e, leg), _LEFT) for e, leg in reversed(legs)),
            *(((e, run, c, "ret"), _DOWN) for e in reversed(at_i) for run in ("top", "bot")),
        ]

    passages: list = []
    over: dict[tuple, tuple[int, str, tuple[int, int]]] = {}  # crossing -> its over visit
    for x in range(2 * n):
        c = chord_at[x]
        first = x == chords[c][0]
        line = [(("tip", c), _RIGHT), (("dp", c), _RIGHT)]  # under c's tip, left to right
        for key, (dx, dy) in finger(c) if first else line:
            if key[0] == "dp":
                passages.append(DoublePointPassage(str(c + 1), "a" if first else "b"))
            elif key not in over:
                over[key] = (len(passages), str(n + 1 + len(over)), (dx, dy))
                passages.append(None)  # filled in once the under visit fixes the sign
            else:
                k, label, (ox, oy) = over[key]
                sign = 1 if ox * dy - oy * dx > 0 else -1
                passages[k] = Passage(label, OVER, sign)
                passages.append(Passage(label, UNDER, sign))

    code = SingularCode(tuple(passages))
    if validate(code):
        raise CheckFailed("realization produced an invalid code")
    if double_point_diagram(code) != d:
        raise CheckFailed("double point trace mismatch")
    if embedding_genus(code) != 0:
        raise CheckFailed("realization is not planar")
    return code


def weight_from_invariant(
    v: Callable[[GaussCode], int], n: int, name: str = ""
) -> WeightSystem:
    """The weight system the invariant induces at degree n: realize each
    diagram, resolve its double points, and alternate-sum the invariant."""
    table: Dict[ChordDiagram, Fraction] = {}
    for d in enumerate_chord_diagrams(n):
        code = realize_chord_diagram(d)
        total = Fraction(0)
        for sign, resolved in resolve_singular(code):
            total += sign * Fraction(v(resolved))
        table[d] = total
    return WeightSystem(n, table, name or f"induced[{getattr(v, '__name__', 'v')}]@{n}")
