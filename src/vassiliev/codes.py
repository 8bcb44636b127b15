"""Knot diagrams as signed Gauss codes.

A Gauss code records a walk around a knot diagram.  Each crossing is met
twice, once on the over strand and once on the under strand, and both
passages carry the crossing sign, so tokens look like ``O3+`` or
``U12-``.  The first token marks the basepoint; every positional notion
(first visit, rotation) is relative to it.  The empty code is the
unknot.

Singular codes extend the grammar with double points, written ``X3a``
for the first visit to double point 3 and ``X3b`` for the second.

Besides parsing and formatting, this module implements basepoint
rotation, mirror image, orientation reversal, curl and strand-pair
insertions, a planarity test for signed codes, and a reader for knot
tables stored as JSON lines.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Optional, Union

from .errors import (
    CheckFailed,
    IndexOutOfRange,
    LabelRoleMismatch,
    MalformedToken,
    ParseError,
    SignMismatch,
    UnbalancedLabel,
    UnknownLabel,
    UnsupportedOrientationCase,
    VassilievError,
)

OVER = "O"
UNDER = "U"

_TOKEN = re.compile(r"(O|U)([A-Za-z0-9]+)([+-])\Z")
_SINGULAR_TOKEN = re.compile(r"X([A-Za-z0-9]+)([ab])\Z")


class Passage(NamedTuple):
    """One visit to an ordinary crossing: label, O or U role, sign."""

    label: str
    role: str
    sign: int

    def token(self) -> str:
        return f"{self.role}{self.label}{'+' if self.sign > 0 else '-'}"


class DoublePointPassage(NamedTuple):
    """One visit to a double point; visit is "a" (first) or "b" (second)."""

    label: str
    visit: str

    def token(self) -> str:
        return f"X{self.label}{self.visit}"


AnyPassage = Union[Passage, DoublePointPassage]


class Diagnostic(NamedTuple):
    """One validation finding: a kind tag, the label involved, a message."""

    kind: str
    label: Optional[str]
    message: str


class _Code:
    """What the two code classes share: the passages and their pairing."""

    passages: tuple

    def __len__(self) -> int:
        return len(self.passages)

    def __iter__(self) -> Iterator[AnyPassage]:
        return iter(self.passages)

    @cached_property
    def ends(self) -> dict[tuple[type, str], tuple[int, ...]]:
        """Word positions of every (passage type, label), ascending, keyed
        in order of first appearance.  Computed once per code; every
        pairing of passages into crossings or double points reads it."""
        table: dict[tuple[type, str], list[int]] = {}
        for i, p in enumerate(self.passages):
            table.setdefault((type(p), p.label), []).append(i)
        return {key: tuple(hits) for key, hits in table.items()}

    @cached_property
    def faces(self) -> list[tuple[int, ...]]:
        """Face boundary walks of the embedded diagram (see ``_faces``),
        walked once per code; the planarity test and the R2 moves read it."""
        return _faces(self)

    @cached_property
    def r2_insertions(self) -> list[tuple[int, int, str]]:
        """``list_r2_insertions`` of this code, once: perturbations draw from it, ``apply_r2`` checks in it."""
        return list_r2_insertions(self)

    def _labels(self, kind: type) -> tuple[str, ...]:
        return tuple([label for k, label in self.ends if k is kind])

    def pairs(self) -> Iterator[tuple[type, int, int, int]]:
        """(passage type, over position, under position, sign) per label,
        in order of first appearance.  A double point is read as its
        positive resolution: first visit over, sign +1.  A label not met
        exactly twice raises UnbalancedLabel."""
        for (kind, label), hits in self.ends.items():
            if len(hits) != 2:
                raise UnbalancedLabel(f"label {label!r} occurs {len(hits)} times")
            first, second = hits
            if kind is DoublePointPassage:
                yield kind, first, second, 1
            elif (p := self.passages[first]).role == OVER:
                yield kind, first, second, p.sign
            else:
                yield kind, second, first, p.sign


@dataclass(frozen=True)
class GaussCode(_Code):
    """An immutable signed Gauss code; passages in basepoint order."""

    passages: tuple[Passage, ...] = ()

    @property
    def crossings(self) -> tuple[str, ...]:
        """Crossing labels in order of first appearance."""
        return self._labels(Passage)

    def positions(self, label: str) -> tuple[int, int]:
        """Word positions of the two passages through ``label``, ascending."""
        hits = self.ends.get((Passage, label), ())
        if len(hits) != 2:
            raise UnknownLabel(f"label {label!r} does not occur twice")
        return hits

    def sign_of(self, label: str) -> int:
        i, _ = self.positions(label)
        return self.passages[i].sign


@dataclass(frozen=True)
class SingularCode(_Code):
    """A Gauss code with double points mixed in."""

    passages: tuple[AnyPassage, ...] = ()

    @property
    def double_points(self) -> tuple[str, ...]:
        return self._labels(DoublePointPassage)

    @property
    def degree(self) -> int:
        return len(self.double_points)


class KnotRecord(NamedTuple):
    """A named knot with its code and optional expected invariant values."""

    name: str
    code: GaussCode
    expected: Optional[Mapping[str, Fraction]] = None


def _paired(code: Union[GaussCode, SingularCode], ends: dict) -> Union[GaussCode, SingularCode]:
    """The code, given ``ends``, a table equal to its own, as its pairing table."""
    code.__dict__["ends"] = ends  # where cached_property keeps its value
    return code


def _diagnose(code: Union[GaussCode, SingularCode], written: Optional[Mapping] = None) -> list[Diagnostic]:
    """Findings on the pairing table, crossings first, then double points,
    each sorted by label: the code's, or where ``written`` maps a (passage
    type, label) key to the label as written, that one."""
    found = []
    ps = code.passages
    for key, hits in code.ends.items():
        label = written[key] if written else key[1]
        if key[0] is DoublePointPassage:
            visits = [ps[i].visit for i in hits]
            if visits != ["a", "b"]:
                found.append((True, label, Diagnostic("LabelRoleMismatch", label, f"double point {label} needs"
                              f" visit a then visit b, got {'/'.join(visits) or 'nothing'}")))
        elif len(hits) != 2 or {ps[hits[0]].role, ps[hits[1]].role} != {OVER, UNDER}:
            roles = "/".join(sorted(ps[i].role for i in hits))
            found.append((False, label, Diagnostic("LabelRoleMismatch", label,
                          f"crossing {label} has passages {roles}, needs exactly one O and one U")))
        elif ps[hits[0]].sign != ps[hits[1]].sign:
            found.append((False, label, Diagnostic("SignMismatch", label, f"crossing {label} carries both signs")))
    return [d for *_, d in sorted(found, key=lambda f: f[:2])]


_DIAG_EXC = {
    "LabelRoleMismatch": LabelRoleMismatch,
    "SignMismatch": SignMismatch,
}


def _parse(text: str, kind: type) -> Union[GaussCode, SingularCode]:
    """Read tokens into a code of ``kind`` in one pass, relabelling
    crossings and double points, each densely "1".."n" in order of first
    appearance (the two never collide since the token kinds differ), then
    diagnose it on the labels as written."""
    passages: list[AnyPassage] = []
    new: dict[tuple[type, str], str] = {}  # (passage type, label as written) -> label
    written: dict[tuple[type, str], str] = {}  # and back
    ends: dict[tuple[type, str], tuple[int, ...]] = {}
    ranks = {Passage: 0, DoublePointPassage: 0}
    for i, tok in enumerate(text.split()):
        if m := _TOKEN.match(tok):
            k, (role, label, sign) = Passage, m.groups()
        elif kind is SingularCode and (m := _SINGULAR_TOKEN.match(tok)):
            k, (label, visit) = DoublePointPassage, m.groups()
        else:
            raise MalformedToken(f"bad token {tok!r}")
        if (name := new.get((k, label))) is None:
            ranks[k] += 1
            name = new[k, label] = str(ranks[k])
            written[k, name] = label
        ends[k, name] = ends.get((k, name), ()) + (i,)
        passages.append(Passage(name, role, 1 if sign == "+" else -1) if k is Passage else DoublePointPassage(name, visit))
    code = _paired(kind(tuple(passages)), ends)
    if diags := _diagnose(code, written):
        raise _DIAG_EXC[diags[0].kind](diags[0].message)
    return code


def parse_gauss_code(text: str) -> GaussCode:
    """Parse a whitespace-separated token string into a Gauss code.

    Labels are normalized to 1..n in order of first appearance.  Raises
    MalformedToken, LabelRoleMismatch, or SignMismatch on bad input.
    """
    return _parse(text, GaussCode)


def parse_singular_code(text: str) -> SingularCode:
    """Parse a token string that may contain double point visits Xna/Xnb."""
    return _parse(text, SingularCode)


def format_code(code: Union[GaussCode, SingularCode]) -> str:
    """Render a code back to its token string form."""
    return " ".join(p.token() for p in code.passages)


def validate(code: Union[GaussCode, SingularCode]) -> tuple[Diagnostic, ...]:
    """Structural diagnostics for a possibly hand-built code.

    Empty result means the code is well formed.  Parsing already
    enforces these, so this matters for codes assembled directly.
    """
    out = _diagnose(code)
    for p in code.passages:
        if isinstance(p, Passage):
            if p.role not in (OVER, UNDER):
                out.append(Diagnostic("LabelRoleMismatch", p.label, f"bad role {p.role!r}"))
            if p.sign not in (1, -1):
                out.append(Diagnostic("SignMismatch", p.label, f"bad sign {p.sign!r}"))
        elif p.visit not in ("a", "b"):
            out.append(Diagnostic("LabelRoleMismatch", p.label, f"bad visit {p.visit!r}"))
    return tuple(out)


def mirror(code: GaussCode) -> GaussCode:
    """Mirror image: swap over and under at every crossing, negate signs."""
    swapped = tuple([
        Passage(p.label, UNDER if p.role == OVER else OVER, -p.sign)
        for p in code.passages
    ])
    return GaussCode(swapped)


def rotate_basepoint(code: GaussCode, k: int) -> GaussCode:
    """Move the basepoint forward by k passages (k may be any integer)."""
    n = len(code.passages)
    if n == 0:
        return code
    k %= n
    return GaussCode(code.passages[k:] + code.passages[:k])


def reverse_orientation(code: GaussCode) -> GaussCode:
    """Traverse the knot the other way; roles and signs are unchanged."""
    return GaussCode(code.passages[::-1])


def _fresh_labels(code: Union[GaussCode, SingularCode], count: int) -> list[str]:
    taken = {p.label for p in code.passages}
    nxt = 1 + max((int(l) for l in taken if l.isdigit()), default=0)
    return [str(nxt + i) for i in range(count)]


def apply_r1(code: GaussCode, position: int, sign: int, first_role: str = OVER) -> GaussCode:
    """Insert a curl at a word position; the knot itself is unchanged.

    The new crossing's two passages are adjacent, with ``first_role``
    met first and both carrying ``sign``.  Any position from 0 to
    len(code) is geometrically valid.
    """
    if not 0 <= position <= len(code.passages):
        raise IndexOutOfRange(f"position {position} not in 0..{len(code.passages)}")
    if sign not in (1, -1):
        raise VassilievError(f"sign must be +1 or -1, got {sign!r}")
    if first_role not in (OVER, UNDER):
        raise VassilievError(f"first_role must be O or U, got {first_role!r}")
    (label,) = _fresh_labels(code, 1)
    second = UNDER if first_role == OVER else OVER
    kink = (Passage(label, first_role, sign), Passage(label, second, sign))
    ps = code.passages
    return GaussCode(ps[:position] + kink + ps[position:])


# --- surface embedding ----------------------------------------------------
#
# A signed code determines a 4-valent graph with a cyclic dart order at
# every vertex, hence a closed oriented surface.  Edge g runs from
# passage g to passage g+1 (cyclically); its forward dart is 2g and its
# backward dart is 2g+1, so opposite darts differ by xor 1.  A dart is
# attached at the vertex it points away from.
#
# Counterclockwise dart order at a vertex, writing o/u for the over and
# under passage (from ``pairs``, which reads a double point as its
# positive resolution) and in/out for arriving and leaving darts:
#
#   positive crossing   (o-in, u-in, o-out, u-out)
#   negative crossing   (o-in, u-out, o-out, u-in)
#
# Faces are the orbits of (next counterclockwise) after (flip dart); the
# code is realizable in the plane exactly when there are c + 2 of them.


def _rotation_system(code: Union[GaussCode, SingularCode]) -> list[tuple[int, int, int, int]]:
    n = len(code.passages)
    if n % 2:
        raise VassilievError("odd number of passages")

    def d_in(p: int) -> int:
        return 2 * ((p - 1) % n) + 1

    def d_out(p: int) -> int:
        return 2 * p

    return [
        (d_in(over), d_in(under), d_out(over), d_out(under)) if sign > 0
        else (d_in(over), d_out(under), d_out(over), d_in(under))
        for _, over, under, sign in code.pairs()
    ]


def _faces(code: Union[GaussCode, SingularCode]) -> list[tuple[int, ...]]:
    """Face boundary walks of the embedded diagram, as dart tuples."""
    n = len(code.passages)
    succ = [0] * (2 * n)
    for rot in _rotation_system(code):
        for i, d in enumerate(rot):
            succ[d] = rot[(i + 1) % 4]
    faces = []
    seen = [False] * (2 * n)
    for start in range(2 * n):
        if seen[start]:
            continue
        walk = []
        d = start
        while not seen[d]:
            seen[d] = True
            walk.append(d)
            d = succ[d ^ 1]
        faces.append(tuple(walk))
    return faces


def embedding_genus(code: Union[GaussCode, SingularCode]) -> int:
    """Genus of the closed surface the signed code embeds in."""
    c = len(code.passages) // 2
    if c == 0:
        return 0
    euler = c - 2 * c + len(code.faces)
    if euler % 2:
        raise CheckFailed(f"odd Euler characteristic {euler}")
    return (2 - euler) // 2


def is_realizable(code: Union[GaussCode, SingularCode]) -> bool:
    """True when the signed code is the code of an actual plane diagram."""
    return embedding_genus(code) == 0


# Which face-trace direction corresponds to parallel strands for the two
# insertion cases is fixed once by calibration on small realizable codes
# (exhaustive sign search on the trefoil); see tests covering insertion
# validity.  case-1 pairs with backward darts, case-2 with forward ones.
_R2_CASES = {
    "case-1": (1, -1),
    "case-2": (-1, 1),
}


def apply_r2(code: GaussCode, position_a: int, position_b: int, orientation_case: str) -> GaussCode:
    """Slide one strand across another, adding two cancelling crossings.

    Inserts "O x, O y" at position_a and "U y, U x" at position_b (both
    positions in the original word, 0..len).  Equal positions nest the
    two pairs, and the pair {0, len} wraps them around the basepoint;
    both amount to two curls and are always valid.  On a realizable code
    any other pair is valid only when list_r2_insertions lists it, with
    position 0 read as len (both enter the last word edge).  The crossing
    signs are (+, -) for case-1 and (-, +) for case-2.  Anything else
    raises UnsupportedOrientationCase.
    """
    n = len(code.passages)
    if orientation_case not in _R2_CASES:
        raise UnsupportedOrientationCase(f"unknown case {orientation_case!r}")
    if not 0 <= position_a <= n:
        raise IndexOutOfRange(f"position {position_a} not in 0..{n}")
    if not 0 <= position_b <= n:
        raise IndexOutOfRange(f"position {position_b} not in 0..{n}")
    if position_a > position_b:
        position_a, position_b = position_b, position_a
    sign_x, sign_y = _R2_CASES[orientation_case]

    realizable_input = n > 0 and is_realizable(code)
    degenerate = position_a == position_b or (position_a, position_b) == (0, n)
    if not degenerate and realizable_input:
        listed = (*sorted((position_a or n, position_b)), orientation_case)
        if listed not in code.r2_insertions:
            raise UnsupportedOrientationCase(
                f"segments before positions {position_a} and {position_b} do not"
                f" border a common face with {orientation_case} orientation"
            )

    x, y = _fresh_labels(code, 2)
    over = (Passage(x, OVER, sign_x), Passage(y, OVER, sign_y))
    under = (Passage(y, UNDER, sign_y), Passage(x, UNDER, sign_x))
    ps = code.passages
    out = GaussCode(
        ps[:position_a] + over + ps[position_a:position_b] + under + ps[position_b:]
    )
    if realizable_input and not is_realizable(out):
        raise CheckFailed("insertion broke planarity")
    return out


def list_r2_insertions(code: GaussCode) -> list[tuple[int, int, str]]:
    """All valid (position_a, position_b, case) triples for apply_r2.

    Position p inserts into the word edge before passage p, with 1..len
    naming every edge once.  A pair is valid when the two edges border a
    common face with compatible direction: case-1 needs both darts
    backward, case-2 both forward.  Distinct edges only; equal positions
    are always allowed and not enumerated.  Requires a realizable code.
    """
    out = set()
    for face in code.faces:
        for i, da in enumerate(face):
            for db in face[i + 1:]:
                # dart 2g or 2g+1 lies on edge g, which position g+1 enters
                if (da ^ db) & 1 or da >> 1 == db >> 1:
                    continue
                case = "case-1" if da & 1 else "case-2"
                out.add((*sorted(((da >> 1) + 1, (db >> 1) + 1)), case))
    return sorted(out)


def random_perturbations(code: GaussCode, count: int, rng) -> list[GaussCode]:
    """Codes of the same knot, each a short chain of curl and slide moves.

    ``rng`` is a random.Random; a fixed seed gives a fixed output list.
    Every result leaves the underlying knot unchanged, so any knot
    invariant must take the same value on all of them.
    """
    out = []
    for _ in range(count):
        current = code
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5 and (choices := current.r2_insertions):
                pa, pb, case = rng.choice(choices)
                current = apply_r2(current, pa, pb, case)
            else:
                pos = rng.randint(0, len(current.passages))
                sign = rng.choice((1, -1))
                role = rng.choice((OVER, UNDER))
                current = apply_r1(current, pos, sign, role)
        out.append(current)
    return out


def parse_rational(value) -> Fraction:
    """A JSON rational string such as "-1/2", or an integer; not a float or a bool."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise TypeError("want a rational string or an integer")
    return Fraction(value)


def parse_knot_table(text: str) -> list[KnotRecord]:
    """Parse JSON-lines knot table text.

    Each non-blank line is an object with "name" and "gauss" fields and
    an optional "expected" object mapping invariant names to rational
    strings or integers.  Problems raise ParseError carrying the line number.
    """
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(lineno, f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ParseError(lineno, "record is not an object")
        name = obj.get("name")
        gauss = obj.get("gauss")
        if not isinstance(name, str) or not isinstance(gauss, str):
            raise ParseError(lineno, 'need string fields "name" and "gauss"')
        try:
            parsed = parse_gauss_code(gauss)
        except VassilievError as exc:
            raise ParseError(lineno, f"bad code for {name}: {exc}") from exc
        expected = None
        raw = obj.get("expected")
        if raw is not None:
            if not isinstance(raw, dict):
                raise ParseError(lineno, '"expected" is not an object')
            try:
                expected = {k: parse_rational(v) for k, v in raw.items()}
            except (ValueError, ZeroDivisionError, TypeError) as exc:
                raise ParseError(lineno, f"bad expected value: {exc}") from exc
        records.append(KnotRecord(name, parsed, expected))
    return records


def load_knot_table(path) -> list[KnotRecord]:
    """Read a JSON-lines knot table file; see parse_knot_table."""
    with open(path, encoding="utf-8") as fh:
        return parse_knot_table(fh.read())


def bundled_knot_table() -> list[KnotRecord]:
    """The knot table shipped with the package."""
    return load_knot_table(Path(__file__).parent / "fixtures" / "knots.jsonl")
