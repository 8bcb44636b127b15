import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from vassiliev import (
    INVARIANTS,
    Expansion,
    ExpansionTerm,
    KnotRecord,
    bundled_expansion,
    check_expansion,
    parse_expansion,
    random_perturbations,
    solve_basis_values,
)
from vassiliev.errors import (
    DegreeTooHigh,
    ParseError,
    UnderdeterminedSystem,
    UnknownInvariant,
    VassilievError,
)


def test_bundled_expansions_load():
    e2, e3 = bundled_expansion(2), bundled_expansion(3)
    assert e2.degree == 2 and len(e2.terms) == 1
    assert e3.degree == 3 and len(e3.terms) == 2
    assert e3.terms[1].coeff == {"v3": Fraction(1), "v2": Fraction(-1)}
    with pytest.raises(VassilievError):
        bundled_expansion(5)


def test_parse_expansion_errors():
    with pytest.raises(ParseError):
        parse_expansion("{not json")
    with pytest.raises(VassilievError):
        parse_expansion("[]")
    with pytest.raises(VassilievError):
        parse_expansion('{"degree": 0, "terms": []}')
    with pytest.raises(VassilievError):
        parse_expansion('{"degree": 2}')
    with pytest.raises(VassilievError):
        parse_expansion('{"degree": 2, "terms": [{"coeff": {}, "knot": "k"}]}')
    with pytest.raises(VassilievError):
        parse_expansion('{"degree": 2, "terms": [{"coeff": {"v2": "1/0"}, "knot": "k"}]}')
    # weights are rational strings or integers: a float or a bool is refused
    for weight in ("0.1", "true"):
        with pytest.raises(VassilievError, match="term 0: bad weight .* for 'v2'"):
            parse_expansion('{"degree": 2, "terms": [{"coeff": {"v2": %s}, "knot": "k"}]}' % weight)
    assert parse_expansion(
        '{"degree": 2, "terms": [{"coeff": {"v2": 3, "v3": "0.1"}, "knot": "k"}]}'
    ).terms[0].coeff == {"v2": 3, "v3": Fraction(1, 10)}


def test_degree_two_residuals_vanish(corpus):
    report = check_expansion(bundled_expansion(2), ["v2"], corpus)
    assert report.all_zero
    assert len(report.rows) == len(corpus)


def test_degree_three_residuals_vanish(corpus):
    report = check_expansion(bundled_expansion(3), ["v2", "v3"], corpus)
    assert report.all_zero
    assert len(report.rows) == 2 * len(corpus)


def test_residuals_vanish_on_perturbed_corpus(corpus):
    rng = random.Random(2)
    extended = list(corpus)
    for record in corpus:
        for i, code in enumerate(random_perturbations(record.code, 3, rng)):
            extended.append(KnotRecord(f"{record.name}~{i}", code, None))
    report = check_expansion(bundled_expansion(3), ["v2", "v3"], extended)
    assert report.all_zero


def test_solve_recovers_second_basis_knot(corpus):
    report = solve_basis_values(bundled_expansion(3), ["v2", "v3"], corpus)
    assert report.consistent
    values = {p.probe: dict(p.values) for p in report.probes}
    assert values["v2"] == {"3_1": Fraction(1), "4_1": Fraction(-1)}
    assert values["v3"] == {"3_1": Fraction(1), "4_1": Fraction(0)}


def test_solved_values_are_a_fixed_point(corpus):
    probes = ["v2", "v3"]
    expansion = bundled_expansion(3)
    solved = solve_basis_values(expansion, probes, corpus)
    code = {record.name: record.code for record in corpus}
    for p in solved.probes:
        evaluate = INVARIANTS[p.probe][1]
        assert p.values == {knot: evaluate(code[knot]) for knot in p.values}
    assert check_expansion(expansion, probes, corpus).all_zero


def test_each_invariant_is_evaluated_once_per_knot(corpus):
    calls = Counter()
    registry = {
        name: (degree, lambda code, name=name, fn=fn: calls.update([name]) or fn(code))
        for name, (degree, fn) in INVARIANTS.items()
    }
    expansion, probes = bundled_expansion(3), ["v2", "v3"]
    assert len(corpus) == 11
    # probes and coefficient forms share one value per knot, basis knots included
    assert check_expansion(expansion, probes, corpus, registry).all_zero
    assert calls == {"v2": 11, "v3": 11}
    calls.clear()
    assert solve_basis_values(expansion, probes, corpus, registry).consistent
    assert calls == {"v2": 11, "v3": 11}


def test_probe_above_expansion_degree_rejected(corpus):
    with pytest.raises(DegreeTooHigh):
        check_expansion(bundled_expansion(2), ["v3"], corpus)
    with pytest.raises(DegreeTooHigh):
        solve_basis_values(bundled_expansion(2), ["v3"], corpus)


def test_unknown_names_rejected(corpus):
    with pytest.raises(UnknownInvariant):
        check_expansion(bundled_expansion(2), ["v9"], corpus)
    with pytest.raises(UnknownInvariant):
        solve_basis_values(bundled_expansion(2), ["v9"], corpus)
    stray = parse_expansion(
        '{"degree": 2, "terms": [{"coeff": {"mystery": "1"}, "knot": "3_1"}]}'
    )
    with pytest.raises(UnknownInvariant):
        check_expansion(stray, ["v2"], corpus)


def test_user_supplied_evaluator_fills_unknown_name(corpus):
    stray = parse_expansion(
        '{"degree": 2, "terms": [{"coeff": {"mystery": "1"}, "knot": "3_1"}]}'
    )
    registry = {**INVARIANTS, "mystery": INVARIANTS["v2"]}
    report = check_expansion(stray, ["v2"], corpus, registry)
    assert report.all_zero


def test_missing_basis_knot(corpus):
    orphan = Expansion(2, (ExpansionTerm({"v2": Fraction(1)}, "9_99"),))
    with pytest.raises(VassilievError):
        check_expansion(orphan, ["v2"], corpus)


def test_underdetermined_cases(corpus):
    e3 = bundled_expansion(3)
    with pytest.raises(UnderdeterminedSystem):
        solve_basis_values(e3, ["v2"], corpus[:2])
    # duplicate equations keep the rank at one
    flat = [r for r in corpus if r.name in ("unknot", "3_1")]
    flat.append(KnotRecord("again", corpus[1].code, None))
    with pytest.raises(UnderdeterminedSystem):
        solve_basis_values(e3, ["v2"], flat)


def test_inconsistent_expansion_gets_certificate(corpus):
    lie = Expansion(2, (ExpansionTerm({"v3": Fraction(1)}, "3_1"),))
    report = solve_basis_values(lie, ["v2"], corpus)
    probe = report.probes[0]
    assert not report.consistent
    assert not probe.consistent
    assert "0 =" in probe.certificate
    residuals = check_expansion(lie, ["v2"], corpus)
    assert not residuals.all_zero


_CERTIFICATE_TERM = re.compile(r"\((-?\d+(?:/\d+)?)\)\*\[([^\]]*)\]")


def _check_certificate(certificate, expansion, probe, corpus):
    """The multiplier-weighted corpus rows sum to 0 on every unknown and
    to the stated nonzero value on the right-hand side."""
    combo, _, value = certificate.rpartition(" forces 0 = ")
    unknowns = [Fraction(0)] * len(expansion.terms)
    rhs, k = Fraction(0), 0
    for mult, name in _CERTIFICATE_TERM.findall(combo):
        # terms come in corpus order: each names the next row with that name
        while corpus[k].name != name:
            k += 1
        code, mult = corpus[k].code, Fraction(mult)
        k += 1
        for j, term in enumerate(expansion.terms):
            unknowns[j] += mult * sum(w * INVARIANTS[n][1](code) for n, w in term.coeff.items())
        rhs += mult * INVARIANTS[probe][1](code)
    assert unknowns == [0] * len(expansion.terms)
    assert rhs == Fraction(value) != 0


def test_certificate_arithmetic_holds(corpus):
    lie = Expansion(2, (ExpansionTerm({"v3": Fraction(1)}, "3_1"),))
    (probe,) = solve_basis_values(lie, ["v2"], corpus).probes
    _check_certificate(probe.certificate, lie, "v2", corpus)
    # two corpus rows with one name stay two terms
    by_name = {r.name: r.code for r in corpus}
    dup = [KnotRecord(n, by_name[k]) for n, k in (("dup", "4_1"), ("dup", "5_2"), ("3_1", "3_1"))]
    expansion = Expansion(3, (ExpansionTerm({"v2": Fraction(1)}, "3_1"),))
    (probe,) = solve_basis_values(expansion, ["v3"], dup).probes
    assert probe.certificate == "(2)*[dup] + (1)*[dup] forces 0 = 3"
    _check_certificate(probe.certificate, expansion, "v3", dup)


def test_probes_solved_together_as_apart(corpus):
    # v3 fits the one-term expansion and v2 does not
    half_lie = Expansion(3, (ExpansionTerm({"v3": Fraction(1)}, "3_1"),))
    for expansion in (bundled_expansion(3), half_lie):
        together = solve_basis_values(expansion, ["v2", "v3"], corpus).probes
        apart = [solve_basis_values(expansion, [name], corpus).probes[0] for name in ("v2", "v3")]
        assert list(together) == apart
    assert [p.consistent for p in together] == [False, True]
