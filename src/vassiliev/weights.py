"""Chord diagram combinatorics and weight systems.

Covers enumeration of based chord diagrams, the degree 2 and 3 weight
systems, checking of the one-term and four-term relations, resolution
of double points into signed crossing pairs, a planar realization of
any chord diagram as a singular knot, and the weight system a knot
invariant induces through that realization.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import prod
from typing import Callable, Dict, Iterator, Mapping, NamedTuple

from .codes import (
    DoublePointPassage,
    GaussCode,
    OVER,
    Passage,
    SingularCode,
    UNDER,
    _fresh_labels,
    _paired,
    embedding_genus,
    validate,
)
from .diagrams import ChordDiagram, _ends, double_point_diagram, interleaved
from .errors import CheckFailed, TooLarge, WrongDegree

MAX_ENUM_DEGREE = 6
# weight_from_invariant evaluates the invariant on (2n-1)!! * 2^n resolved
# codes: 30,240 at degree 5, 665,280 at degree 6.
MAX_INDUCED_DEGREE = 5


def _matchings(points: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    """Every perfect matching of the points; the first point's partner
    varies slowest, in the order of ``points``."""
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for i, partner in enumerate(rest):
        for tail in _matchings(rest[:i] + rest[i + 1:]):
            yield ((first, partner),) + tail


def enumerate_chord_diagrams(n: int) -> list[ChordDiagram]:
    """All based diagrams with n chords, (2n-1)!! of them, in a fixed
    deterministic order."""
    if not 0 <= n <= MAX_ENUM_DEGREE:
        raise TooLarge(f"degree {n} outside 0..{MAX_ENUM_DEGREE}")
    return [ChordDiagram(m) for m in _matchings(tuple(range(2 * n)))]


def chord_word(d: ChordDiagram) -> str:
    """Endpoint word with chords numbered by first appearance,
    e.g. ``1 2 1 2`` for the crossed 2-chord diagram."""
    order: dict[int, int] = {}
    return " ".join(str(order.setdefault(i, len(order) + 1)) for i, _ in _ends(d.chords))


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


class WeightSystem(NamedTuple):
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


def weight_systems() -> Dict[str, WeightSystem]:
    """The reference weight system of each canonical invariant, built from
    this module's names on each call, so a wrapper bound over w2 or w3 is used."""
    return {"v2": weight_system_from_function(w2, 2, "w2"), "v3": weight_system_from_function(w3, 3, "w3")}


class FourTermQuadruple(NamedTuple):
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

    def insert(chords, fixed_end, slot):
        shifted = tuple([(a + (a >= slot), b + (b >= slot)) for a, b in chords])
        moving = (fixed_end + (fixed_end >= slot), slot)
        return ChordDiagram(shifted + (moving,))

    for b1, b2 in combinations(range(m), 2):
        rest = tuple([p for p in range(m) if p not in (b1, b2)])
        for a2 in rest:
            background = tuple([p for p in rest if p != a2])
            for bg in _matchings(background):
                base = bg + ((b1, b2),)
                four = tuple([insert(base, a2, slot) for slot in (b1, b1 + 1, b2, b2 + 1)])
                quads.append(FourTermQuadruple(four))
    return quads


class RelationReport(NamedTuple):
    one_term_ok: bool
    four_term_ok: bool
    violations: tuple[str, ...]


def check_relations(w: WeightSystem) -> RelationReport:
    """Exhaustive one-term and four-term check at the system's degree.

    The four-term check is skipped (reported as passing) below degree 2,
    where the figure does not exist, and refused above its limit up front.
    """
    quads = four_term_quadruples(w.degree) if w.degree >= 2 else []
    one_term, four_term = [], []
    for d in enumerate_chord_diagrams(w.degree):
        if any(_isolated(d, i) for i in range(d.degree)) and w.evaluate(d) != 0:
            one_term.append(f"1T: {chord_word(d)} -> {w.evaluate(d)}")
    for q in quads:
        total = sum(
            s * w.evaluate(d) for s, d in zip(q.signs, q.diagrams)
        )
        if total != 0:
            four_term.append(
                "4T: "
                + " | ".join(chord_word(d) for d in q.diagrams)
                + f" -> {total}"
            )
    return RelationReport(not one_term, not four_term, tuple(one_term + four_term))


def resolve_singular(s: SingularCode) -> list[tuple[int, GaussCode]]:
    """Expand every double point into (positive crossing) - (negative
    crossing).

    Returns 2^d signed codes ordered by resolution bitmask (bit i set =
    double point i resolved negatively).  The over end of a double point
    is the one ``s.pairs()`` gives, its first visit: the positive
    resolution puts the over passage there with sign +1, the negative one
    the under passage with sign -1.
    """
    taken = {label for kind, label in s.ends if kind is Passage}
    fresh = iter(_fresh_labels(s, s.degree))
    # Every resolution has the same labels at the same positions, so one
    # pairing table and one pair of passages per double-point end serve all.
    ends, visits = {}, []  # visits: (position, bit, (positive, negative passage))
    for ((kind, label), hits), (_, over, under, _) in zip(s.ends.items(), s.pairs()):
        if kind is DoublePointPassage:
            kind, bit = Passage, len(visits) // 2
            label = next(fresh) if label in taken else label
            visits += [(over, bit, (Passage(label, OVER, 1), Passage(label, UNDER, -1))),
                       (under, bit, (Passage(label, UNDER, 1), Passage(label, OVER, -1)))]
        ends[kind, label] = hits
    out = []
    for mask in range(1 << s.degree):
        passages = list(s.passages)
        for i, bit, choice in visits:
            passages[i] = choice[mask >> bit & 1]
        out.append((-1 if mask.bit_count() % 2 else 1, _paired(GaussCode(tuple(passages)), ends)))
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
    invariants: Mapping[str, Callable[[GaussCode], int]], n: int
) -> Dict[str, WeightSystem]:
    """The weight system each invariant induces at degree n: realize each
    diagram, resolve its double points once, evaluate every invariant on
    each resolved code, whose arrow diagram they share, and alternate-sum
    them all.

    Refused above MAX_INDUCED_DEGREE, before any diagram is realized."""
    if n > MAX_INDUCED_DEGREE:
        evaluations = prod(range(1, 2 * n, 2)) << n
        raise TooLarge(
            f"an induced weight system at degree {n} needs {evaluations:,} invariant"
            f" evaluations; the limit is degree {MAX_INDUCED_DEGREE}"
        )
    tables: Dict[str, Dict[ChordDiagram, Fraction]] = {name: {} for name in invariants}
    for d in enumerate_chord_diagrams(n):
        totals = dict.fromkeys(invariants, 0)
        for sign, resolved in resolve_singular(realize_chord_diagram(d)):
            for name, v in invariants.items():
                totals[name] += sign * v(resolved)
        for name, total in totals.items():
            tables[name][d] = Fraction(total)
    return {name: WeightSystem(n, table, name) for name, table in tables.items()}
