"""Arrow diagrams, chord diagrams, and subdiagram counting.

The arrow diagram of a Gauss code has one arrow per crossing drawn on
the base circle, pointing from the over passage to the under passage
and carrying the crossing sign.  Forgetting directions and signs leaves
the chord diagram.  Counting signed copies of small fixed patterns
inside the arrow diagram of a code is the engine behind the pattern
based invariant evaluators.  A whole pattern file is counted in one
walk: its based patterns form a prefix trie whose steps name each gap
by the slot of an endpoint already placed (the start, the end, or the
tail or head of an earlier arrow), so patterns with equal first arrows
share those levels, and integer weights make one ``Fraction`` per file.

Pattern files hold one term per line, ``<coeff> <bracket> <word>``:
coeff is a rational like ``1`` or ``-1/2``; bracket is ``0`` for a
based pattern or ``1`` to sum the pattern's distinct basepoint
rotations; the word lists arrow endpoints in circle order, ``1h`` for
the head of arrow 1 and ``1t`` for its tail, e.g. ``1h 2t 1t 2h``.
``#`` starts a comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .codes import DoublePointPassage, GaussCode, SingularCode
from .errors import (
    IndexOutOfRange,
    MalformedToken,
    ParseError,
    SameChord,
    TooLarge,
    UnbalancedLabel,
)

_ENDPOINT = re.compile(r"([A-Za-z0-9]+)([ht])\Z")
# a kernel nests one while loop per arrow but the last, and CPython
# compiles at most 20 statically nested blocks
MAX_PATTERN_ARROWS = 21


class Arrow(NamedTuple):
    """A directed signed chord: tail at the over passage, head under."""

    tail: int
    head: int
    sign: int


def _check_positions(pairs: Iterable[tuple[int, int]]) -> None:
    flat = [p for pair in pairs for p in pair]
    if sorted(flat) != list(range(len(flat))):
        raise UnbalancedLabel(
            f"endpoint positions {sorted(flat)} must be exactly 0..{len(flat) - 1}"
        )


def _ends(arrows: Sequence[tuple[int, int]]) -> list[tuple[int, str]]:
    """(arrow index, "t" or "h") at each position of (tail, head) pairs."""
    at: list = [None] * (2 * len(arrows))
    for i, (t, h) in enumerate(arrows):
        at[t], at[h] = (i, "t"), (i, "h")
    return at


@dataclass(frozen=True)
class ArrowDiagram:
    """Arrows on 2n based circle positions, every position used once, kept
    in the order given: ``masks`` numbers them by it, and no count depends on it."""

    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        _check_positions((a.tail, a.head) for a in self.arrows)

    @property
    def degree(self) -> int:
        return len(self.arrows)

    @cached_property
    def masks(self) -> tuple[list[int], list[int], int, int, list[int], list[int], list[int]]:
        """The matcher's kernel arguments.  As bitmasks over the arrows: per
        position p in 0..2n, the arrows with tail, and with head, before p,
        so the arrows with tail strictly between positions a and b are
        tails[b] ^ tails[a + 1]; the forward arrows; the +1 arrows.  Then
        per arrow its tail, its head and its sign."""
        tail_at, head_at = [0] * (2 * self.degree), [0] * (2 * self.degree)
        tail_of, head_of, sign_of = [0] * self.degree, [0] * self.degree, [0] * self.degree
        forward = positive = 0
        for d, (tail, head, sign) in enumerate(self.arrows):
            tail_at[tail] = head_at[head] = 1 << d
            forward |= (tail < head) << d
            positive |= (sign > 0) << d
            tail_of[d], head_of[d], sign_of[d] = tail, head, sign
        # one bit per position, so the running sums are the running unions
        return (list(accumulate(tail_at, initial=0)), list(accumulate(head_at, initial=0)), forward, positive,
                tail_of, head_of, sign_of)


@dataclass(frozen=True)
class Pattern:
    """An arrow diagram with no signs, used as a thing to count."""

    arrows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _check_positions(self.arrows)
        object.__setattr__(self, "arrows", tuple(sorted(self.arrows, key=min)))

    @property
    def degree(self) -> int:
        return len(self.arrows)

    def word(self) -> str:
        """Canonical endpoint word, labels by first appearance."""
        order: dict[int, int] = {}
        return " ".join(f"{order.setdefault(i, len(order) + 1)}{kind}" for i, kind in _ends(self.arrows))

    @cached_property
    def kernel(self):
        """The compiled walk of the pattern alone, weight 1, for the matcher."""
        return _kernel(_trie([(self, 1)]))

    def rotate(self, k: int) -> "Pattern":
        """Move the basepoint forward past k endpoints."""
        n = 2 * len(self.arrows)
        if n == 0:
            return self
        return Pattern(tuple([((t - k) % n, (h - k) % n) for t, h in self.arrows]))

    def distinct_rotations(self) -> tuple["Pattern", ...]:
        """One representative per distinct based rotation of this pattern."""
        return tuple(dict.fromkeys([self.rotate(k) for k in range(max(1, 2 * len(self.arrows)))]))


@dataclass(frozen=True)
class ChordDiagram:
    """Unordered chords on 2n based circle positions."""

    chords: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _check_positions(self.chords)
        object.__setattr__(
            self,
            "chords",
            tuple(sorted(tuple(sorted(c)) for c in self.chords)),
        )

    @property
    def degree(self) -> int:
        return len(self.chords)


def arrow_diagram_from_code(code: Union[GaussCode, SingularCode]) -> ArrowDiagram:
    """Arrow diagram of a code: an arrow from over to under, with its sign,
    per pair of ``code.pairs()``, so a double point is its positive resolution."""
    return ArrowDiagram(tuple([Arrow(over, under, sign) for _, over, under, sign in code.pairs()]))


def chord_diagram(source: Union[GaussCode, SingularCode, ArrowDiagram]) -> ChordDiagram:
    """Forget arrow directions and signs."""
    if not isinstance(source, ArrowDiagram):
        source = arrow_diagram_from_code(source)
    return ChordDiagram(tuple([(a.tail, a.head) for a in source.arrows]))


def _packed(spans: Sequence[tuple[int, int]]) -> ChordDiagram:
    """Chord diagram of position pairs, renumbered 0..2k-1 in order."""
    rank = {p: i for i, p in enumerate(sorted(p for s in spans for p in s))}
    return ChordDiagram(tuple([(rank[a], rank[b]) for a, b in spans]))


def double_point_diagram(code: SingularCode) -> ChordDiagram:
    """Chord diagram of the double points alone, ordinary crossings
    ignored, positions packed in traversal order; a double point's over
    and under ends are its first and second visits."""
    return _packed([(over, under) for kind, over, under, _ in code.pairs() if kind is DoublePointPassage])


def chord_subdiagram(code: GaussCode, labels: Sequence[str]) -> ChordDiagram:
    """Chord diagram spanned by the chosen crossings, positions packed."""
    return _packed([code.positions(l) for l in labels])


def interleaved(diagram: ChordDiagram, i: int, j: int) -> bool:
    """Do chords i and j cross when drawn inside the circle?"""
    n = diagram.degree
    if not (0 <= i < n and 0 <= j < n):
        raise IndexOutOfRange(f"chord index out of range for {n} chords")
    if i == j:
        raise SameChord(f"chord {i} against itself")
    a1, a2 = diagram.chords[i]
    b1, b2 = diagram.chords[j]
    return (a1 < b1 < a2) != (a1 < b2 < a2)


def parse_pattern(text: str) -> Pattern:
    """Parse an endpoint word like ``1h 2t 1t 2h`` into a pattern."""
    toks = text.split()
    if not toks:
        raise MalformedToken("empty pattern word")
    ends: dict[str, dict[str, int]] = {}
    for pos, tok in enumerate(toks):
        m = _ENDPOINT.match(tok)
        if not m:
            raise MalformedToken(f"bad endpoint {tok!r}")
        label, kind = m.groups()
        slot = ends.setdefault(label, {})
        if kind in slot:
            raise UnbalancedLabel(f"arrow {label} has two {kind} endpoints")
        slot[kind] = pos
    arrows = []
    for label, slot in ends.items():
        if set(slot) != {"t", "h"}:
            raise UnbalancedLabel(f"arrow {label} needs one tail and one head")
        arrows.append((slot["t"], slot["h"]))
    return Pattern(tuple(arrows))


def _trie(weighted: Iterable[tuple[Pattern, int]]) -> list:
    """Based patterns with integer weights as a prefix tree of their steps.

    A pattern's steps are its arrows in first-endpoint order, each as the
    slots of the placed endpoints nearest below and above its tail, then
    its head, and whether it points forward.  Slot 0 is the start, slot 1
    the end, slots 2j + 2 and 2j + 3 the tail and head of the j-th arrow
    placed, so patterns whose first steps are equal share those nodes.
    A node, the root included, is ``[weight, children]``: weight sums the
    patterns ending there, and children maps each next step to its node."""
    root: list = [0, {}]
    for pattern, weight in weighted:
        if pattern.degree > MAX_PATTERN_ARROWS:
            raise TooLarge(f"a pattern of {pattern.degree} arrows; the matcher counts at most {MAX_PATTERN_ARROWS}")
        node, placed = root, [-1, 2 * pattern.degree]
        for tail, head in pattern.arrows:
            gaps = [
                placed.index(nearest(p for p in placed if (p < end) == below))
                for end in (tail, head)
                for nearest, below in ((max, True), (min, False))
            ]
            node = node[1].setdefault((*gaps, tail < head), [0, {}])
            placed += [tail, head]
        node[0] += weight
    return root


def _kernel(trie: list) -> Callable[..., int]:
    """A ``_trie`` tree's walk (see ``count_matches``) written as one
    function and compiled: a ``while`` loop per node, nested as the tree
    nests, save leaves (childless nodes below depth 1), with the k-th
    placed arrow's ends in ``tk`` and ``hk``; bounds at the start and end
    folded to 0 and the full mask; the forward mask only where a tail and
    its head share a gap, since distinct gaps fix their order; each node's
    weight and its leaves' weighted signed popcounts as one sum.  The
    source holds only the tree's integers and booleans."""
    lines = ["def kernel(tails, heads, forward, positive, T, H, S):", " full = tails[-1]", f" s0 = {int(trie[0])}"]
    popcount = "(2 * ((m := {}) & positive).bit_count() - m.bit_count())"

    def ends(masks: str, lo: int, hi: int) -> str:
        upper = "full" if hi == 1 else f"{masks}[{'th'[hi % 2]}{hi // 2}]"
        return upper if lo == 0 else f"({upper} ^ {masks}[{'th'[lo % 2]}{lo // 2} + 1])"

    def fits(t_lo: int, t_hi: int, h_lo: int, h_hi: int, ahead: bool) -> str:
        way = "" if (t_lo, t_hi) != (h_lo, h_hi) else " & forward" if ahead else " & ~forward"
        return f"{ends('tails', t_lo, t_hi)} & {ends('heads', h_lo, h_hi)}{way}"

    def emit(children: dict, k: int) -> None:
        pad = " " * k
        for step, (weight, below) in children.items():
            pops = [("" if w == 1 else f"{int(w)} * ") + popcount.format(fits(*s)) for s, (w, kids) in below.items()
                    if w and not kids]
            here = " + ".join([str(int(weight))] * bool(weight) + pops) or "0"
            lines.extend((f"{pad}f{k} = {fits(*step)}", f"{pad}while f{k}:", f"{pad} d{k} = f{k}.bit_length() - 1",
                          f"{pad} f{k} ^= 1 << d{k}", f"{pad} t{k} = T[d{k}]", f"{pad} h{k} = H[d{k}]"))
            inner = {s: node for s, node in below.items() if node[1]}
            if inner:
                lines.append(f"{pad} s{k} = {here}")
                emit(inner, k + 1)
                here = f"s{k}"
            lines.append(f"{pad} s{k - 1} += S[d{k}] * ({here})")

    emit(trie[1], 1)
    namespace: dict = {}
    exec("\n".join(lines + [" return s0"]), namespace)
    return namespace.pop("kernel")  # so the function and its globals form no cycle


def count_matches(subject: Union[Pattern, PatternExpression], diagram: ArrowDiagram) -> int:
    """Signed number of copies of the based pattern inside the diagram.

    A copy is a subset of the diagram's arrows whose endpoint word,
    read from the basepoint, equals the pattern's word with directions
    respected.  Each copy contributes the product of its arrow signs.
    For an expression the result is the sum over its based patterns of
    coefficient times count, times the expression's ``denominator``.

    The subject's ``kernel`` walks its ``_trie``.  Each node places one
    arrow from one mask: the arrows pointing its way with tail, and head,
    strictly inside the gaps its step names by slot.  Strict gaps reuse
    no arrow and keep the word's order, so the walk visits only partial
    copies, and patterns sharing their first arrows share that part of
    the walk.  Leaves are not walked: per candidate of their parent, each
    leaf's mask is built inline and its signed popcount added, times its
    weight.
    """
    return subject.kernel(*diagram.masks)


class PatternTerm(NamedTuple):
    coeff: Fraction
    bracket: bool
    pattern: Pattern


@dataclass(frozen=True)
class PatternExpression:
    """A rational combination of (possibly rotation-summed) patterns."""

    terms: tuple[PatternTerm, ...]

    @property
    def degree(self) -> int:
        return max((t.pattern.degree for t in self.terms), default=0)

    @cached_property
    def denominator(self) -> int:
        """The least common denominator of the coefficients."""
        return lcm(*(t.coeff.denominator for t in self.terms))

    @cached_property
    def kernel(self):
        """The compiled walk, for the matcher, of the based patterns of
        every term weighted by its coefficient times ``denominator``: every
        distinct rotation of a bracketed pattern, else the pattern itself."""
        weighted = ((p, int(t.coeff * self.denominator)) for t in self.terms
                    for p in (t.pattern.distinct_rotations() if t.bracket else (t.pattern,)))
        return _kernel(_trie(weighted))


def evaluate_expression(expr: PatternExpression, target: ArrowDiagram) -> Fraction:
    """Sum of coeff times pattern count over the expression's terms.

    A bracketed term counts every distinct basepoint rotation of its
    pattern, which makes the term's value independent of where the
    target code is based.  The whole expression is counted in one walk.
    """
    return Fraction(count_matches(expr, target), expr.denominator)


def parse_pattern_file(text: str) -> PatternExpression:
    """Parse pattern file text; see the module docstring for the format."""
    terms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(None, 2)
        if len(fields) < 3:
            raise ParseError(lineno, "need <coeff> <bracket> <word>")
        coeff_s, bracket_s, word = fields
        try:
            coeff = Fraction(coeff_s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(lineno, f"bad coefficient {coeff_s!r}") from exc
        if bracket_s not in ("0", "1"):
            raise ParseError(lineno, f"bracket flag must be 0 or 1, got {bracket_s!r}")
        try:
            pattern = parse_pattern(word)
        except (MalformedToken, UnbalancedLabel) as exc:
            raise ParseError(lineno, str(exc)) from exc
        terms.append(PatternTerm(coeff, bracket_s == "1", pattern))
    if not terms:
        raise ParseError(1, "pattern file has no terms")
    return PatternExpression(tuple(terms))


def load_pattern_file(path) -> PatternExpression:
    with open(path, encoding="utf-8") as fh:
        return parse_pattern_file(fh.read())
