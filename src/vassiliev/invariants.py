"""Degree 2 and 3 knot invariants computed from Gauss codes.

Two independent formula families are implemented: coordinate sums over
pairs and triples of crossings (v2_lannes, v3_lannes), and signed
pattern counts in the arrow diagram (v2_polyak_viro, v3_polyak_viro,
v3_theorem).  All are normalized to 0 on the unknot and 1 on the right
trefoil; their agreement on arbitrary codes is the package's main
correctness check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import xor
from pathlib import Path
from typing import Callable, Dict, Mapping, NamedTuple

from .codes import GaussCode
from .coordinates import delta, epsilon
from .diagrams import (
    arrow_diagram_from_code,
    chord_subdiagram,
    evaluate_expression,
    load_pattern_file,
)
from .errors import NonIntegerResult
from .weights import w2, w3

# Transcribing the coordinate formulas verbatim yields -1 on the right
# trefoil, where the defining normalization fixes +1, so each formula
# carries a committed overall sign.  Guard tests assert that flipping
# either constant breaks the trefoil calibration.
V2_SIGN = -1
V3_SIGN = -1


def _integral(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise NonIntegerResult(f"{what} evaluated to {value}")
    return int(value)


def _shared(code: GaussCode, build: Callable):
    """``build(code)``, made once per code object, by the first route that
    reads it: the arrow diagram (arrow_diagram_from_code) or the crossing
    table (_table) that the routes of one report share.  It is kept in the
    code's attribute dict beside ``ends``, keyed by ``build``, so an equal
    code builds its own and the fields, and with them equality, hash and
    repr, are untouched."""
    parts = code.__dict__.setdefault("_parts", {})
    if build not in parts:
        parts[build] = build(code)
    return parts[build]


def _table(code: GaussCode) -> tuple[tuple[str, ...], int, int, int, list[int]]:
    """The crossings in first-passage order; as bitmasks over them, delta 1,
    delta 0, sign +1, and per crossing the chords with one end in its span."""
    labels = code.crossings
    spans = [code.positions(l) for l in labels]
    index = {l: i for i, l in enumerate(labels)}
    opened = list(accumulate((1 << index[p.label] for p in code), xor, initial=0))  # one end before p
    over = sum(delta(code, l) << i for i, l in enumerate(labels))
    positive = sum((epsilon(code, l) > 0) << i for i, l in enumerate(labels))
    under = ((1 << len(labels)) - 1) & ~over
    return labels, over, under, positive, [opened[a + 1] ^ opened[b] for a, b in spans]


def v2_lannes(code: GaussCode) -> int:
    """Degree 2 invariant as a coordinate sum over crossing pairs: a pair
    with dx != dy contributes -w2 * ex * ey, any other pair nothing."""
    # As in v3_lannes, a class with a nonzero count is weighed on its first pair.
    labels, over, under, positive, rows = _shared(code, _table)
    counts, members = [0, 0], [None, None]  # pairs (x, y) that do not cross, and that do
    for x in range(len(labels)):
        if over >> x & 1:
            good = ~positive if positive >> x & 1 else positive  # y with -ex * ey = 1
            for crossed, ys in enumerate((under & ~rows[x], under & rows[x])):
                counts[crossed] += 2 * (ys & good).bit_count() - ys.bit_count()
                if members[crossed] is None and ys:
                    members[crossed] = x, (ys & -ys).bit_length() - 1
    total = 0
    for crossed in (1, 0):
        if counts[crossed]:
            total += counts[crossed] * w2(chord_subdiagram(code, [labels[i] for i in members[crossed]]))
    return _integral(Fraction(V2_SIGN * total, 2), "half the pair sum")


def _triples(over: int, under: int, rows: list[int], xz: int, xy: int, yz: int):
    """The triples of v3_lannes in loop order whose xz, xy, yz cross as flagged."""
    for x in range(len(rows)):
        dx = over >> x & 1
        later = -(2 << x)
        ys = (under if dx else over) & later & (rows[x] ^ (xy - 1))
        zs = (over if dx else under) & later & (rows[x] ^ (xz - 1))
        while zs:
            bit = zs & -zs
            zs ^= bit
            found = ys & (bit - 1) & (rows[bit.bit_length() - 1] ^ (yz - 1))
            if found:
                yield x, (found & -found).bit_length() - 1, bit.bit_length() - 1


def v3_lannes(code: GaussCode) -> int:
    """Degree 3 invariant as a coordinate sum over crossing triples: roles
    (x, y, z) with dx = dz != dy contribute -w3 * ex * ey * ez, any
    others nothing."""
    # Each triple is read in first-passage order, so y lies between x and z;
    # tests/test_invariants.py rejects the two readings over all six orders.
    # The weight depends only on which of xz, xy and yz cross.  Per pair (x, z),
    # with ys between them, four signed counts are summed by whether xz crosses:
    # a = ys in rows x and z, b = ys in row x, c = ys in row z, d = ys, in units
    # of -ex * ey * ez.  Inclusion-exclusion gives each class's count, and a
    # nonzero one is weighed once, on its first triple.
    labels, over, under, positive, rows = _shared(code, _table)
    a0 = b0 = c0 = d0 = a1 = b1 = c1 = d1 = 0  # over pairs (x, z) that do not cross, and that do
    for x in range(len(labels)):
        dx = over >> x & 1
        later = -(2 << x)
        pool, zs = (under if dx else over) & later, (over if dx else under) & later
        near = pool & (rx := rows[x])
        ex = positive >> x & 1
        while zs:
            bit = zs & -zs
            zs ^= bit
            z = bit.bit_length() - 1
            good = ~positive if positive >> z & 1 == ex else positive  # y with -ex * ey * ez = 1
            rz = rows[z]
            ys = pool & (bit - 1)
            ysx = near & (bit - 1)
            m = ysx & rz
            a = 2 * (m & good).bit_count() - m.bit_count()
            b = 2 * (ysx & good).bit_count() - ysx.bit_count()
            m = ys & rz
            c = 2 * (m & good).bit_count() - m.bit_count()
            d = 2 * (ys & good).bit_count() - ys.bit_count()
            if rx & bit:
                a1 += a
                b1 += b
                c1 += c
                d1 += d
            else:
                a0 += a
                b0 += b
                c0 += c
                d0 += d
    total = 0
    for xz, (a, b, c, d) in ((1, (a1, b1, c1, d1)), (0, (a0, b0, c0, d0))):
        for xy, yz, count in ((1, 1, a), (1, 0, b - a), (0, 1, c - a), (0, 0, d - b - c + a)):
            if count:
                member = next(_triples(over, under, rows, xz, xy, yz))
                total += count * w3(chord_subdiagram(code, [labels[i] for i in member]))
    return _integral(Fraction(V3_SIGN * total, 2), "the triple sum")


def _counter(file: str, name: str, doc: str, patterns_dir) -> Callable[[GaussCode], int]:
    """The evaluator ``name`` that counts one pattern file in the shared
    arrow diagram.  The file is read once, here, from patterns_dir, and
    the evaluator records it as ``pattern_file``."""
    expression = load_pattern_file(Path(patterns_dir) / file)

    def count(code: GaussCode) -> int:
        return _integral(evaluate_expression(expression, _shared(code, arrow_diagram_from_code)), f"the {file} count")

    count.__name__ = count.__qualname__ = name
    count.__doc__, count.pattern_file = doc, file
    return count


def _registry(patterns_dir) -> Dict[str, tuple[int, Callable[[GaussCode], int]]]:
    """Every method, name -> (degree, evaluator), each pattern file read
    once from patterns_dir.  Names with a family suffix ("_lannes", "_pv",
    "_thm") are the routes a report compares; the bare names are the
    canonical evaluators, the same functions as the pattern count for v2
    and the five-pattern sum for v3."""
    v2_pv = _counter("v2.pat", "v2_polyak_viro", """Degree 2 invariant as the signed count of one based two-arrow
    pattern.""", patterns_dir)
    v3_pv = _counter("v3_pv.pat", "v3_polyak_viro", """Degree 3 invariant from two rotation-summed three-arrow patterns,
    the second weighted 1/2.""", patterns_dir)
    v3_thm = _counter("v3_theorem.pat", "v3_theorem", """Degree 3 invariant as the plain sum of five based three-arrow
    patterns with unit coefficients.""", patterns_dir)
    return {
        "v2": (2, v2_pv),
        "v3": (3, v3_thm),
        "v2_lannes": (2, v2_lannes),
        "v2_pv": (2, v2_pv),
        "v3_lannes": (3, v3_lannes),
        "v3_pv": (3, v3_pv),
        "v3_thm": (3, v3_thm),
    }


# The only list of methods; the public evaluators are its entries.
INVARIANTS = _registry(Path(__file__).parent / "patterns")
v2, v3, v2_polyak_viro, v3_polyak_viro, v3_theorem = (INVARIANTS[name][1] for name in ("v2", "v3", "v2_pv", "v3_pv", "v3_thm"))


def family(name: str) -> str:
    """The method family of a registry name ("lannes", "pv", "thm"), or
    "" for a canonical evaluator."""
    return name.partition("_")[2]


def canonical(name: str) -> str:
    """The invariant a registry name computes ("v2" for "v2_lannes")."""
    return name.partition("_")[0]


PATTERN_FILES = tuple(sorted({fn.pattern_file for _, fn in INVARIANTS.values() if hasattr(fn, "pattern_file")}))

Registry = Mapping[str, tuple[int, Callable[[GaussCode], int]]]


def methods(patterns_dir=None) -> Registry:
    """The method registry, name -> (degree, evaluator): INVARIANTS itself,
    or with a directory, the same registry with each of PATTERN_FILES read
    from it once, here.  A missing or malformed file raises before
    anything is evaluated."""
    return INVARIANTS if patterns_dir is None else _registry(patterns_dir)


class InvariantReport(NamedTuple):
    """The route values for one code, and per invariant, by canonical
    name and sorted, whether its methods agree."""

    values: Dict[str, int]
    agreement: Dict[str, bool]

    @property
    def consistent(self) -> bool:
        return all(self.agreement.values())


def invariant_report(code: GaussCode, registry: Registry = INVARIANTS) -> InvariantReport:
    """Evaluate the registry's routes (its names with a family), in its
    order; methods of the same invariant must agree.

    Disagreements are reported, not raised.
    """
    values = {name: fn(code) for name, (_, fn) in registry.items() if family(name)}
    seen: Dict[str, set] = {}
    for name, value in values.items():
        seen.setdefault(canonical(name), set()).add(value)
    return InvariantReport(values, {key: len(seen[key]) == 1 for key in sorted(seen)})
