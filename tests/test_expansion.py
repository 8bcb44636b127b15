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
from vassiliev.expansion import SolvedProbe, SolveReport

from _braids import BRAID_WORDS, braid_closure, is_knot
from conftest import outcome


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


@pytest.mark.parametrize("text, message", [
    ('{"degree": 2, "terms": [1]}', "term 0 is not an object"),
    ('{"degree": 2, "terms": [{"coeff": {"v2": 1}, "knot": ""}]}', "term 0 needs a nonempty 'knot' name"),
])
def test_edge_cases_no_other_test_reaches(text, message):
    assert outcome(lambda: parse_expansion(text)) == (VassilievError, message)


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


def test_basis_knot_named_by_two_terms_refused():
    # each term's basis knot carries its own unknown; under one name the
    # two would collapse into one value
    with pytest.raises(VassilievError, match="basis knot '3_1' is named by 2 terms"):
        parse_expansion(
            '{"degree": 3, "terms": [{"coeff": {"v2": "1"}, "knot": "3_1"}, '
            '{"coeff": {"v3": "1"}, "knot": "3_1"}]}'
        )
    with pytest.raises(VassilievError, match="basis knot '3_1' is named by 2 terms"):
        Expansion(3, (ExpansionTerm({"v2": Fraction(1)}, "3_1"), ExpansionTerm({"v3": Fraction(1)}, "3_1")))


def test_expansion_without_probe_refused(corpus):
    linear = parse_expansion('{"degree": 1, "terms": [{"coeff": {"v2": "1"}, "knot": "3_1"}]}')
    for run in (check_expansion, solve_basis_values):
        with pytest.raises(VassilievError, match="no probe invariant for an expansion of degree 1"):
            run(linear, [], corpus)


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


_CERTIFICATE_TERM = re.compile(r"\((-?\d+(?:/\d+)?)\)\*\[([^\]]*)@(\d+)\]")


def _check_certificate(certificate, expansion, probe, corpus):
    """The corpus rows the certificate names, each by its name and 1-based
    position, in corpus order, sum under its multipliers to 0 on every
    unknown and to the stated nonzero value on the right-hand side."""
    combo, _, value = certificate.rpartition(" forces 0 = ")
    terms = _CERTIFICATE_TERM.findall(combo)
    assert " + ".join(f"({mult})*[{name}@{k}]" for mult, name, k in terms) == combo
    assert Fraction(value) != 0
    rows = [int(k) - 1 for _, _, k in terms]
    assert rows == sorted(set(rows)) and 0 <= rows[0] and rows[-1] < len(corpus)
    assert [corpus[k].name for k in rows] == [name for _, name, _ in terms]
    forms = [term.coeff for term in expansion.terms] + [{probe: Fraction(1)}]
    total = [
        sum(Fraction(mult) * sum(w * INVARIANTS[n][1](corpus[k].code) for n, w in form.items())
            for (mult, _, _), k in zip(terms, rows))
        for form in forms
    ]
    assert total == [0] * len(expansion.terms) + [Fraction(value)], certificate


def test_certificate_arithmetic_holds(corpus):
    lie = Expansion(2, (ExpansionTerm({"v3": Fraction(1)}, "3_1"),))
    (probe,) = solve_basis_values(lie, ["v2"], corpus).probes
    _check_certificate(probe.certificate, lie, "v2", corpus)
    # two corpus rows with one name stay two terms
    by_name = {r.name: r.code for r in corpus}
    dup = [KnotRecord(n, by_name[k]) for n, k in (("dup", "4_1"), ("dup", "5_2"), ("3_1", "3_1"))]
    expansion = Expansion(3, (ExpansionTerm({"v2": Fraction(1)}, "3_1"),))
    (probe,) = solve_basis_values(expansion, ["v3"], dup).probes
    assert probe.certificate == "(2)*[dup@1] + (1)*[dup@2] forces 0 = 3"
    _check_certificate(probe.certificate, expansion, "v3", dup)


def test_probes_solved_together_as_apart(corpus):
    # v3 fits the one-term expansion and v2 does not
    half_lie = Expansion(3, (ExpansionTerm({"v3": Fraction(1)}, "3_1"),))
    for expansion in (bundled_expansion(3), half_lie):
        together = solve_basis_values(expansion, ["v2", "v3"], corpus).probes
        apart = [solve_basis_values(expansion, [name], corpus).probes[0] for name in ("v2", "v3")]
        assert list(together) == apart
    assert [p.consistent for p in together] == [False, True]


# -- the dense solver that the one-pass solve replaced, kept as an oracle ----------

def oracle_eliminate(rows, unknowns):
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


def oracle_solve(expansion, names, corpus):
    """Gauss-Jordan over [unknowns | one rhs per probe | an identity block
    tracking the corpus rows], with row swaps; a probe's certificate is the
    first row after the swaps with no unknowns and a nonzero rhs."""
    t = len(expansion.terms)
    if len(corpus) <= t:
        raise UnderdeterminedSystem(f"corpus of {len(corpus)} knots cannot pin down {t} basis values")
    used = set(names).union(*(term.coeff for term in expansion.terms))
    rows = []
    for k, record in enumerate(corpus):
        known = {name: Fraction(INVARIANTS[name][1](record.code)) for name in used}
        weights = [sum((w * known[n] for n, w in term.coeff.items()), Fraction(0)) for term in expansion.terms]
        identity = [Fraction(int(j == k)) for j in range(len(corpus))]
        rows.append(weights + [known[name] for name in names] + identity)
    mat, pivot_cols = oracle_eliminate(rows, t)
    solved = []
    for i, name in enumerate(names):
        rhs = t + i
        bad = next((row for row in mat if row[rhs] != 0 and not any(row[:t])), None)
        if bad is not None:
            combo = " + ".join(
                f"({mult})*[{record.name}@{k}]"
                for k, (record, mult) in enumerate(zip(corpus, bad[t + len(names):]), start=1)
                if mult != 0
            )
            solved.append(SolvedProbe(name, {}, False, f"{combo} forces 0 = {bad[rhs]}"))
            continue
        if len(pivot_cols) < t:
            raise UnderdeterminedSystem(
                f"probe {name}: corpus determines only {len(pivot_cols)} of {t} basis values"
            )
        values = {expansion.terms[col].knot: mat[rank][rhs] for rank, col in enumerate(pivot_cols)}
        solved.append(SolvedProbe(name, values, True, None))
    return SolveReport(tuple(solved))


def seeded_expansions(rng, basis_names, count):
    """The bundled degree-3 expansion, then 1- to 3-term expansions with
    random nonzero forms in v2 and v3; three such terms never have full
    rank, so a consistent probe on them is underdetermined."""
    yield bundled_expansion(3)
    for _ in range(count - 1):
        terms = []
        for knot in rng.sample(basis_names, rng.randint(1, 3)):
            invariants = rng.sample(("v2", "v3"), rng.randint(1, 2))
            terms.append(ExpansionTerm({n: Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2)) for n in invariants}, knot))
        yield Expansion(3, tuple(terms))


def test_one_pass_solve_agrees_with_the_dense_oracle(corpus):
    rng = random.Random(18)
    closures = [KnotRecord(name, braid_closure(word)) for name, word in BRAID_WORDS.items()]
    while len(closures) < 27:
        strands = rng.choice((2, 3, 4))
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(4, 8))]
        if is_knot(word):
            closures.append(KnotRecord("closure", braid_closure(word)))
    basis_names = [record.name for record in corpus]
    seen = Counter()
    for expansion in seeded_expansions(rng, basis_names, 40):
        basis = {term.knot for term in expansion.terms}
        # table knots off the basis and the braid fixtures share names
        records = [r if r.name in basis else KnotRecord(rng.choice(("dup", "again")), r.code) for r in corpus]
        records += closures
        rng.shuffle(records)
        try:
            want = oracle_solve(expansion, ["v2", "v3"], records)
        except UnderdeterminedSystem as exc:
            with pytest.raises(UnderdeterminedSystem, match=re.escape(str(exc))):
                solve_basis_values(expansion, ["v2", "v3"], records)
            seen["underdetermined"] += 1
            continue
        got = solve_basis_values(expansion, ["v2", "v3"], records)
        for mine, theirs in zip(got.probes, want.probes, strict=True):
            assert (mine.probe, mine.values, mine.consistent) == (theirs.probe, theirs.values, theirs.consistent)
            seen[mine.consistent] += 1
            if not mine.consistent:
                _check_certificate(mine.certificate, expansion, mine.probe, records)
                _check_certificate(theirs.certificate, expansion, theirs.probe, records)
    assert seen[True] and seen[False] and seen["underdetermined"], seen


def test_certificate_is_the_first_contradicting_row_in_corpus_order(corpus):
    # on v2 - v3 the trefoil rows A and B have no unknown and read 0 = 1;
    # C, a figure-eight, is the only pivot.  The dense eliminator swapped
    # C to the top and then named B.
    by_name = {r.name: r.code for r in corpus}
    rows = [KnotRecord("A", by_name["3_1"]), KnotRecord("B", by_name["3_1"]), KnotRecord("C", by_name["4_1"])]
    expansion = Expansion(3, (ExpansionTerm({"v2": Fraction(1), "v3": Fraction(-1)}, "4_1"),))
    (probe,) = solve_basis_values(expansion, ["v3"], rows).probes
    assert probe.certificate == "(1)*[A@1] forces 0 = 1"
    _check_certificate(probe.certificate, expansion, "v3", rows)
    assert oracle_solve(expansion, ["v3"], rows).probes[0].certificate == "(1)*[B@2] forces 0 = 1"
