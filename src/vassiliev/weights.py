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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
# A chord diagram is realized by immersing the base circle in the plane
# so that the two preimages of each chord meet at one transversal double
# point.  The circle is traced as a closed polyline through exact
# rational points: position s gets approach and departure anchors on the
# unit circle, and each passage detours to the chord's interior apex,
# crossing it on a short transversal segment.  At the apex the first
# visit travels along the rotated chord direction and the second against
# the chord direction, so the two middle segments meet exactly there,
# with the chirality that makes the first-visit-over resolution a
# positive crossing.  All remaining polyline self-intersections become
# ordinary crossings, assigned the descending convention (first visit
# over) with signs read off the exact geometry.

_Vec = Tuple[Fraction, Fraction]

_APEX_PULL = Fraction(1, 2)  # apex = chord midpoint scaled toward the center
_ANCHOR_OFF = Fraction(1, 3)  # anchor parameter offset around each position


class _Degenerate(Exception):
    """A non-generic coincidence in one realization attempt; the caller
    retries with different segment lengths."""


def _circle(t: Fraction) -> _Vec:
    den = 1 + t * t
    return ((1 - t * t) / den, 2 * t / den)


def _sub(a: _Vec, b: _Vec) -> _Vec:
    return (a[0] - b[0], a[1] - b[1])


def _cross(a: _Vec, b: _Vec) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def _segment_meet(
    p: _Vec, p2: _Vec, q: _Vec, q2: _Vec
) -> Optional[tuple[Fraction, Fraction, _Vec]]:
    """Proper interior intersection of two segments, or None.

    Collinear overlaps and endpoint touches between non-adjacent
    segments are degeneracies the realization must not produce.
    """
    r = _sub(p2, p)
    s = _sub(q2, q)
    denom = _cross(r, s)
    qp = _sub(q, p)
    if denom == 0:
        if _cross(qp, r) == 0:
            # collinear: any overlap is non-generic
            dot = r[0] * r[0] + r[1] * r[1]
            t0 = (qp[0] * r[0] + qp[1] * r[1]) / dot
            t1 = t0 + (s[0] * r[0] + s[1] * r[1]) / dot
            lo, hi = min(t0, t1), max(t0, t1)
            if not (hi <= 0 or lo >= 1):
                raise _Degenerate("collinear overlap")
        return None
    t = _cross(qp, s) / denom
    u = _cross(qp, r) / denom
    if 0 <= t <= 1 and 0 <= u <= 1:
        if not (0 < t < 1 and 0 < u < 1):
            raise _Degenerate("segment endpoint touch")
        point = (p[0] + t * r[0], p[1] + t * r[1])
        return t, u, point
    return None


def realize_chord_diagram(d: ChordDiagram) -> SingularCode:
    """A planar singular knot whose double points trace the diagram.

    The double points, in traversal order, reproduce d exactly; the
    ordinary crossings introduced by planarization all have their first
    visit on the over branch.
    """
    n = d.degree
    if n == 0:
        return SingularCode(())
    # The drawing is generic for almost every choice of segment lengths;
    # walk a fixed schedule until no coincidence fires.
    last: Exception = _Degenerate("untried")
    for attempt in range(40):
        try:
            return _realize_attempt(d, attempt)
        except _Degenerate as exc:
            last = exc
    raise CheckFailed(f"no generic realization found: {last}")


def _realize_attempt(d: ChordDiagram, attempt: int) -> SingularCode:
    n = d.degree
    chord_at: dict[int, tuple[int, bool]] = {}
    for c, (i, j) in enumerate(d.chords):
        chord_at[i] = (c, True)
        chord_at[j] = (c, False)

    point = [_circle(Fraction(s - n)) for s in range(2 * n)]
    apex = []
    direction = []
    for i, j in d.chords:
        mid = (
            (point[i][0] + point[j][0]) / 2 * _APEX_PULL,
            (point[i][1] + point[j][1]) / 2 * _APEX_PULL,
        )
        apex.append(mid)
        direction.append(_sub(point[j], point[i]))

    vertices: list[_Vec] = []
    for s in range(2 * n):
        c, is_first = chord_at[s]
        m = apex[c]
        dx, dy = direction[c]
        lam = Fraction(1, 8 + 2 * attempt + 3 * c)
        if is_first:
            step = (-dy * lam, dx * lam)  # along rot90(d)
        else:
            step = (-dx * lam, -dy * lam)  # along -d
        t = Fraction(s - n)
        vertices.append(_circle(t - _ANCHOR_OFF))
        vertices.append((m[0] - step[0], m[1] - step[1]))
        vertices.append((m[0] + step[0], m[1] + step[1]))
        vertices.append(_circle(t + _ANCHOR_OFF))

    m_segs = len(vertices)
    if len(set(vertices)) != m_segs:
        raise _Degenerate("coincident polyline vertices")
    segs = [(vertices[k], vertices[(k + 1) % m_segs]) for k in range(m_segs)]

    hits: dict[_Vec, list[tuple[int, Fraction]]] = {}
    for a in range(m_segs):
        for b in range(a + 1, m_segs):
            if b - a == 1 or (a == 0 and b == m_segs - 1):
                continue
            meet = _segment_meet(*segs[a], *segs[b])
            if meet is None:
                continue
            t, u, pt = meet
            hits.setdefault(pt, []).extend([(a, t), (b, u)])

    apex_of = {m: c for c, m in enumerate(apex)}
    if len(apex_of) != n:
        raise _Degenerate("coincident chord apexes")
    for pt, ends in hits.items():
        if len(ends) != 2:
            raise _Degenerate(f"multiple point at {pt}")
    for c, m in enumerate(apex):
        got = sorted(seg for seg, _ in hits.get(m, ()))
        i, j = d.chords[c]
        if got != sorted((4 * i + 1, 4 * j + 1)):
            raise _Degenerate("apex missed its cross segments")

    by_seg: dict[int, list[tuple[Fraction, _Vec]]] = {}
    for pt, ends in hits.items():
        for seg, t in ends:
            by_seg.setdefault(seg, []).append((t, pt))

    first_dir: dict[_Vec, _Vec] = {}
    first_label: dict[_Vec, str] = {}
    passages: list = []
    next_ordinary = n + 1
    for seg in range(m_segs):
        seg_dir = _sub(segs[seg][1], segs[seg][0])
        for _, pt in sorted(by_seg.get(seg, ())):
            if pt in apex_of:
                c = apex_of[pt]
                visit = "b" if pt in first_dir else "a"
                first_dir[pt] = seg_dir
                passages.append(DoublePointPassage(str(c + 1), visit))
                continue
            if pt not in first_dir:
                first_dir[pt] = seg_dir
                first_label[pt] = str(next_ordinary)
                next_ordinary += 1
                passages.append(Passage(first_label[pt], OVER, 0))
                continue
            sign = 1 if _cross(first_dir[pt], seg_dir) > 0 else -1
            label = first_label[pt]
            for k, p in enumerate(passages):
                if isinstance(p, Passage) and p.label == label:
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
