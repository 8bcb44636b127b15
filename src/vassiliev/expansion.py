"""Expansion identities: a knot written as an invariant-weighted sum of
basis knots, checked numerically and solved for basis values.

Expansion files are JSON documents:

    {"degree": 3,
     "terms": [{"coeff": {"v3": "1"}, "knot": "3_1"},
               {"coeff": {"v3": "1", "v2": "-1"}, "knot": "4_1"}]}

Each term's coefficient is a linear form in invariant names, weighted by
rational strings or integers and evaluated on the knot being expanded;
"knot" names a basis knot found once in the corpus the checker runs against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from .codes import GaussCode, KnotRecord
from .errors import (
    DegreeTooHigh,
    ParseError,
    UnderdeterminedSystem,
    UnknownInvariant,
    VassilievError,
)
from .invariants import INVARIANTS, Registry


@dataclass(frozen=True)
class ExpansionTerm:
    coeff: Mapping[str, Fraction]
    knot: str


@dataclass(frozen=True)
class Expansion:
    degree: int
    terms: Tuple[ExpansionTerm, ...]


@dataclass(frozen=True)
class ResidualRow:
    probe: str
    knot: str
    residual: Fraction


@dataclass(frozen=True)
class ExpansionReport:
    rows: Tuple[ResidualRow, ...]

    @property
    def all_zero(self) -> bool:
        return all(row.residual == 0 for row in self.rows)


@dataclass(frozen=True)
class SolvedProbe:
    probe: str
    values: Mapping[str, Fraction]
    consistent: bool
    certificate: Optional[str]


@dataclass(frozen=True)
class SolveReport:
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
                if isinstance(weight, bool) or not isinstance(weight, (str, int)):
                    raise TypeError("want a rational string or an integer")
                coeff[name] = Fraction(weight)
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
        return load_expansion(resources.files("vassiliev") / "expansions" / f"n{degree}.json")
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
    is refused."""
    probes = []
    for name in names:
        degree, fn = _method(registry, name)
        if degree > expansion.degree:
            raise DegreeTooHigh(
                f"probe {name} has degree {degree}, "
                f"expansion only claims degree {expansion.degree}"
            )
        probes.append((name, fn))
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


def _eliminate(rows: list[list[Fraction]], unknowns: int) -> tuple[list[list[Fraction]], list[int]]:
    mat = [list(row) for row in rows]
    pivot_cols = []
    rank = 0
    for col in range(unknowns):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        head = mat[rank][col]
        mat[rank] = [x / head for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[rank])]
        pivot_cols.append(col)
        rank += 1
    return mat, pivot_cols


def solve_basis_values(
    expansion: Expansion,
    names: Sequence[str],
    corpus: Sequence[KnotRecord],
    registry: Registry = INVARIANTS,
) -> SolveReport:
    """Fit probe values on the basis knots from the corpus equations.

    One exact elimination for all probes.  An unsolvable system is reported
    with a certificate naming the corpus combination that forces a
    contradiction; a rank-deficient one raises UnderdeterminedSystem.
    """
    probes = _probes(expansion, names, registry)
    t = len(expansion.terms)
    if len(corpus) <= t:
        raise UnderdeterminedSystem(
            f"corpus of {len(corpus)} knots cannot pin down {t} basis values"
        )
    per_knot = _corpus_values(expansion, probes, corpus, registry)
    # columns: t unknowns, one rhs per probe, then one tracking column per
    # corpus row; the pivots depend only on the unknowns, so one
    # elimination serves every probe
    rows = [
        _term_weights(expansion, known)
        + [known[name] for name, _ in probes]
        + [Fraction(int(j == k)) for j in range(len(corpus))]
        for k, known in enumerate(per_knot)
    ]
    mat, pivot_cols = _eliminate(rows, t)
    solved = []
    for i, (name, _) in enumerate(probes):
        rhs = t + i
        bad = next((row for row in mat if row[rhs] != 0 and not any(row[:t])), None)
        if bad is not None:
            # multipliers by corpus position: two rows may share a name
            combo = " + ".join(
                f"({mult})*[{record.name}]"
                for record, mult in zip(corpus, bad[t + len(probes):])
                if mult != 0
            )
            certificate = f"{combo} forces 0 = {bad[rhs]}"
            solved.append(SolvedProbe(name, {}, False, certificate))
            continue
        if len(pivot_cols) < t:
            raise UnderdeterminedSystem(
                f"probe {name}: corpus determines only "
                f"{len(pivot_cols)} of {t} basis values"
            )
        values = {expansion.terms[col].knot: mat[rank][rhs] for rank, col in enumerate(pivot_cols)}
        solved.append(SolvedProbe(name, values, True, None))
    return SolveReport(tuple(solved))
