"""Expansion identities: a knot written as an invariant-weighted sum of
basis knots, checked numerically and solved for basis values.

Expansion files are JSON documents:

    {"degree": 3,
     "terms": [{"coeff": {"v3": "1"}, "knot": "3_1"},
               {"coeff": {"v3": "1", "v2": "-1"}, "knot": "4_1"}]}

Each term's coefficient is a linear form in invariant names, weighted by
rational strings or integers and evaluated on the knot being expanded;
"knot" names a basis knot found once in the corpus the checker runs against,
and by one term only.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

from .codes import GaussCode, KnotRecord, _Value, parse_rational
from .errors import (
    DegreeTooHigh,
    ParseError,
    UnderdeterminedSystem,
    UnknownInvariant,
    VassilievError,
)
from .invariants import INVARIANTS, Registry


class ExpansionTerm(NamedTuple):
    coeff: Mapping[str, Fraction]
    knot: str


class Expansion(_Value):
    _fields = ("degree", "terms")

    def __init__(self, degree: int, terms: Tuple[ExpansionTerm, ...]):
        knots = [term.knot for term in terms]
        for knot in knots:
            if knots.count(knot) > 1:
                raise VassilievError(f"basis knot {knot!r} is named by {knots.count(knot)} terms")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", terms)


class ResidualRow(NamedTuple):
    probe: str
    knot: str
    residual: Fraction


class ExpansionReport(NamedTuple):
    rows: Tuple[ResidualRow, ...]

    @property
    def all_zero(self) -> bool:
        return all(row.residual == 0 for row in self.rows)


class SolvedProbe(NamedTuple):
    probe: str
    values: Mapping[str, Fraction]
    consistent: bool
    certificate: Optional[str]


class SolveReport(NamedTuple):
    probes: Tuple[SolvedProbe, ...]

    @property
    def consistent(self) -> bool:
        return all(p.consistent for p in self.probes)


def parse_expansion(text: str) -> Expansion:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.msg) from exc
    if not isinstance(data, dict):
        raise VassilievError("expansion document must be a JSON object")
    degree = data.get("degree")
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise VassilievError(f"expansion degree must be a positive integer, got {degree!r}")
    raw_terms = data.get("terms")
    if not isinstance(raw_terms, list):
        raise VassilievError("expansion document needs a 'terms' list")
    terms = []
    for k, item in enumerate(raw_terms):
        if not isinstance(item, dict):
            raise VassilievError(f"term {k} is not an object")
        knot = item.get("knot")
        if not isinstance(knot, str) or not knot:
            raise VassilievError(f"term {k} needs a nonempty 'knot' name")
        raw_coeff = item.get("coeff")
        if not isinstance(raw_coeff, dict) or not raw_coeff:
            raise VassilievError(f"term {k} needs a nonempty 'coeff' object")
        coeff: Dict[str, Fraction] = {}
        for name, weight in raw_coeff.items():
            try:
                coeff[name] = parse_rational(weight)
            except (ValueError, ZeroDivisionError, TypeError) as exc:
                raise VassilievError(
                    f"term {k}: bad weight {weight!r} for {name!r}: {exc}"
                ) from exc
        terms.append(ExpansionTerm(coeff, knot))
    return Expansion(degree, tuple(terms))


def load_expansion(path) -> Expansion:
    with open(path, encoding="utf-8") as fh:
        return parse_expansion(fh.read())


def bundled_expansion(degree: int) -> Expansion:
    """The packaged expansion of the given degree (2 or 3)."""
    try:
        return load_expansion(Path(__file__).parent / "expansions" / f"n{degree}.json")
    except FileNotFoundError as exc:
        raise VassilievError(f"no bundled expansion of degree {degree}") from exc


def _method(registry: Registry, name: str) -> tuple[int, Callable[[GaussCode], int]]:
    try:
        return registry[name]
    except KeyError:
        raise UnknownInvariant(f"unknown invariant {name!r}") from None


def _probes(
    expansion: Expansion, names: Sequence[str], registry: Registry
) -> list[tuple[str, Callable[[GaussCode], int]]]:
    """(name, evaluator) per probe; a probe above the expansion's degree
    is refused, and so is an empty list of probes."""
    probes = []
    for name in names:
        degree, fn = _method(registry, name)
        if degree > expansion.degree:
            raise DegreeTooHigh(
                f"probe {name} has degree {degree}, "
                f"expansion only claims degree {expansion.degree}"
            )
        probes.append((name, fn))
    if not probes:
        raise VassilievError(f"no probe invariant for an expansion of degree {expansion.degree}")
    return probes


def _basis_rows(expansion: Expansion, corpus: Sequence[KnotRecord]) -> list[int]:
    """The corpus row of each term's basis knot, named exactly once."""
    found = []
    for term in expansion.terms:
        named = [k for k, record in enumerate(corpus) if record.name == term.knot]
        if not named:
            raise VassilievError(f"basis knot {term.knot!r} not in the corpus")
        if len(named) > 1:
            raise VassilievError(f"basis knot {term.knot!r} occurs {len(named)} times in the corpus")
        found.append(named[0])
    return found


def _corpus_values(
    expansion: Expansion, probes: list, corpus: Sequence[KnotRecord], registry: Registry
) -> list[Dict[str, Fraction]]:
    """Per corpus knot, every probe and every invariant of the coefficient
    forms, each name evaluated once."""
    fns = {name: _method(registry, name)[1] for term in expansion.terms for name in term.coeff}
    fns.update(probes)
    return [{name: Fraction(fn(record.code)) for name, fn in fns.items()} for record in corpus]


def _term_weights(expansion: Expansion, values: Mapping[str, Fraction]) -> list[Fraction]:
    """Every term's coefficient linear form on one knot's values."""
    return [sum((w * values[name] for name, w in term.coeff.items()), Fraction(0)) for term in expansion.terms]


def check_expansion(
    expansion: Expansion,
    names: Sequence[str],
    corpus: Sequence[KnotRecord],
    registry: Registry = INVARIANTS,
) -> ExpansionReport:
    """Residuals probe(K) - sum of coeff(K) * probe(basis knot) over the corpus.

    Probes and coefficient forms are both evaluated through ``registry``,
    each name once per corpus knot.
    """
    probes = _probes(expansion, names, registry)
    basis = _basis_rows(expansion, corpus)
    per_knot = _corpus_values(expansion, probes, corpus, registry)
    weights = [_term_weights(expansion, known) for known in per_knot]
    rows = []
    for name, _ in probes:
        on_basis = [per_knot[k][name] for k in basis]
        for record, known, weight in zip(corpus, per_knot, weights):
            predicted = sum((w * value for w, value in zip(weight, on_basis)), Fraction(0))
            rows.append(ResidualRow(name, record.name, known[name] - predicted))
    return ExpansionReport(tuple(rows))


def solve_basis_values(
    expansion: Expansion,
    names: Sequence[str],
    corpus: Sequence[KnotRecord],
    registry: Registry = INVARIANTS,
) -> SolveReport:
    """Fit probe values on the basis knots from the corpus equations.

    One pass over the corpus rows, in order, serves every probe.  Each row
    is reduced against the pivot rows found before it, and keeps its
    multipliers by corpus position (two rows may share a name).  A row
    left with no unknowns is a combination of earlier rows; for each
    probe, the first such row with a nonzero right-hand side is the
    certificate of a contradiction; it names each row it combines by name
    and 1-based corpus position, as in "[dup@2]".  A consistent system of
    rank below the number of terms raises UnderdeterminedSystem.
    """
    probes = _probes(expansion, names, registry)
    t = len(expansion.terms)
    if len(corpus) <= t:
        raise UnderdeterminedSystem(f"corpus of {len(corpus)} knots cannot pin down {t} basis values")
    # a pivot row is 1 at its column and 0 at the columns of earlier pivots
    pivots: list[tuple[int, list[Fraction], Dict[int, Fraction]]] = []
    contradictions: Dict[int, tuple[Fraction, Dict[int, Fraction]]] = {}
    for k, known in enumerate(_corpus_values(expansion, probes, corpus, registry)):
        row = _term_weights(expansion, known) + [known[name] for name, _ in probes]
        mults = {k: Fraction(1)}
        for col, pivot, pivot_mults in pivots:
            factor = row[col]
            if factor:
                row = [x - factor * y for x, y in zip(row, pivot)]
                for j, m in pivot_mults.items():
                    mults[j] = mults.get(j, 0) - factor * m
        col = next((c for c in range(t) if row[c]), None)
        if col is not None:
            head = row[col]
            pivots.append((col, [x / head for x in row], {j: m / head for j, m in mults.items()}))
            continue
        for i in range(len(probes)):
            if row[t + i]:
                contradictions.setdefault(i, (row[t + i], mults))
    solved = []
    for i, (name, _) in enumerate(probes):
        if i in contradictions:
            value, mults = contradictions[i]
            combo = " + ".join(f"({m})*[{corpus[j].name}@{j + 1}]" for j, m in sorted(mults.items()) if m)
            solved.append(SolvedProbe(name, {}, False, f"{combo} forces 0 = {value}"))
            continue
        if len(pivots) < t:
            raise UnderdeterminedSystem(f"probe {name}: corpus determines only {len(pivots)} of {t} basis values")
        # back-substitute: a pivot row names only its own column and the
        # columns of later pivots
        values = [Fraction(0)] * t
        for col, pivot, _ in reversed(pivots):
            values[col] = pivot[t + i] - sum(pivot[c] * values[c] for c in range(t) if c != col)
        solved.append(SolvedProbe(name, {term.knot: v for term, v in zip(expansion.terms, values)}, True, None))
    return SolveReport(tuple(solved))
