import itertools
from fractions import Fraction

import pytest

from vassiliev import (
    ChordDiagram,
    check_relations,
    double_point_diagram,
    enumerate_chord_diagrams,
    four_term_quadruples,
    parse_singular_code,
    realize_chord_diagram,
    resolve_singular,
    w2,
    w3,
    weight_from_invariant,
    weight_system_from_function,
)
from vassiliev.codes import OVER, embedding_genus, format_code, is_realizable, validate
from vassiliev import weights
from vassiliev.errors import CheckFailed, TooLarge, WrongDegree
from vassiliev.invariants import v2, v3
from vassiliev.weights import MAX_ENUM_DEGREE, WeightSystem, chord_word


# Reference interleaving test, written differently from the library's:
# chord j crosses chord i when walking the arc strictly between i's
# endpoints meets exactly one endpoint of j.
def crossing_pairs(d: ChordDiagram):
    pairs = set()
    for i, (a1, a2) in enumerate(d.chords):
        lo, hi = sorted((a1, a2))
        inside = set(range(lo + 1, hi))
        for j, (b1, b2) in enumerate(d.chords):
            if j <= i:
                continue
            if (b1 in inside) != (b2 in inside):
                pairs.add((i, j))
    return pairs


W2_TABLE = {"1 1 2 2": 0, "1 2 1 2": 1, "1 2 2 1": 0}
W3_TABLE = {
    "1 1 2 2 3 3": 0, "1 1 2 3 2 3": 0, "1 1 2 3 3 2": 0,
    "1 2 1 2 3 3": 0, "1 2 1 3 2 3": 1, "1 2 1 3 3 2": 0,
    "1 2 2 1 3 3": 0, "1 2 3 1 2 3": 2, "1 2 3 1 3 2": 1,
    "1 2 2 3 1 3": 0, "1 2 3 2 1 3": 1, "1 2 3 3 1 2": 0,
    "1 2 2 3 3 1": 0, "1 2 3 2 3 1": 0, "1 2 3 3 2 1": 0,
}


# -- enumeration --------------------------------------------------------------

def test_enumeration_counts():
    assert [len(enumerate_chord_diagrams(n)) for n in range(5)] == [1, 1, 3, 15, 105]


def test_enumeration_is_duplicate_free():
    for n in range(5):
        diagrams = enumerate_chord_diagrams(n)
        assert len(set(diagrams)) == len(diagrams)


def test_enumeration_bounds():
    with pytest.raises(TooLarge):
        enumerate_chord_diagrams(MAX_ENUM_DEGREE + 1)
    with pytest.raises(TooLarge):
        enumerate_chord_diagrams(-1)


# -- the two bundled weight systems --------------------------------------------

def test_w2_exact_table():
    seen = {chord_word(d): w2(d) for d in enumerate_chord_diagrams(2)}
    assert seen == W2_TABLE


def test_w3_exact_table():
    seen = {chord_word(d): w3(d) for d in enumerate_chord_diagrams(3)}
    assert seen == W3_TABLE


def test_w3_agrees_with_crossing_count_rule():
    for d in enumerate_chord_diagrams(3):
        edges = len(crossing_pairs(d))
        assert w3(d) == {3: 2, 2: 1}.get(edges, 0)


def test_w2_agrees_with_crossing_count_rule():
    for d in enumerate_chord_diagrams(2):
        assert w2(d) == (1 if crossing_pairs(d) else 0)


def test_wrong_degree_rejected():
    three = enumerate_chord_diagrams(3)[0]
    with pytest.raises(WrongDegree):
        w2(three)
    with pytest.raises(WrongDegree):
        w3(enumerate_chord_diagrams(2)[0])
    ws = weight_system_from_function(w2, 2, "w2")
    with pytest.raises(WrongDegree):
        ws.evaluate(three)


# -- relations ----------------------------------------------------------------

def test_w2_and_w3_pass_relations():
    for fn, degree in ((w2, 2), (w3, 3)):
        report = check_relations(weight_system_from_function(fn, degree, f"w{degree}"))
        assert report.one_term_ok and report.four_term_ok
        assert report.violations == ()


def test_constant_system_fails_isolated_chord_check():
    report = check_relations(weight_system_from_function(lambda d: 1, 2, "const"))
    assert not report.one_term_ok
    assert any(v.startswith("1T") for v in report.violations)


def test_isolated_chord_always_gives_zero():
    for n, fn in ((2, w2), (3, w3)):
        for d in enumerate_chord_diagrams(n):
            chords = d.chords
            if any((a + 1 - b) % (2 * n) == 0 or (b + 1 - a) % (2 * n) == 0
                   for a, b in chords):
                assert fn(d) == 0


def test_four_term_quadruple_counts():
    assert len(four_term_quadruples(2)) == 3
    assert len(four_term_quadruples(3)) == 30


def test_four_term_quadruples_well_formed():
    for n in (2, 3):
        for q in four_term_quadruples(n):
            assert q.signs == (1, -1, 1, -1)
            for d in q.diagrams:
                assert d.degree == n


def test_four_term_bounds():
    with pytest.raises(TooLarge):
        four_term_quadruples(1)
    with pytest.raises(TooLarge):
        four_term_quadruples(6)


def test_four_term_alternating_sums_vanish():
    for n, fn in ((2, w2), (3, w3)):
        ws = weight_system_from_function(fn, n, f"w{n}")
        for q in four_term_quadruples(n):
            assert sum(s * ws.evaluate(d) for s, d in zip(q.signs, q.diagrams)) == 0


# -- double point resolution ----------------------------------------------------

def test_resolution_of_one_double_point():
    # the ordinary crossing normalizes to label 1, so the resolved double
    # point takes the fresh label 2
    code = parse_singular_code("X1a O2+ X1b U2+")
    terms = resolve_singular(code)
    assert [sign for sign, _ in terms] == [1, -1]
    positive, negative = terms[0][1], terms[1][1]
    assert format_code(positive) == "O2+ O1+ U2+ U1+"
    assert format_code(negative) == "U2- O1+ O2- U1+"


def test_resolution_signs_follow_parity():
    code = parse_singular_code("X1a X2a X1b X2b")
    terms = resolve_singular(code)
    assert [sign for sign, _ in terms] == [1, -1, -1, 1]
    for _, resolved in terms:
        assert not validate(resolved)
        assert resolved.crossings == ("1", "2")


def test_resolution_keeps_ordinary_crossings():
    code = parse_singular_code("X1a O2+ U2+ X1b")
    for _, resolved in resolve_singular(code):
        assert resolved.sign_of("1") == 1  # the old crossing, relabeled first


# -- planar realization ----------------------------------------------------------

def check_realization(d: ChordDiagram, resolutions: bool = True):
    """Round trip, planarity, and one ordinary crossing per finger tip plus
    four per interleaved pair."""
    code = realize_chord_diagram(d)
    assert not validate(code)
    assert double_point_diagram(code) == d
    assert embedding_genus(code) == 0
    ordinary = sum(hasattr(p, "role") for p in code.passages) // 2
    assert ordinary == d.degree + 4 * len(crossing_pairs(d))
    if resolutions:
        terms = resolve_singular(code)
        assert len(terms) == 2 ** d.degree
        assert all(is_realizable(resolved) for _, resolved in terms)


def test_realization_round_trip_small_degrees():
    for n in range(4):
        for d in enumerate_chord_diagrams(n):
            check_realization(d)


def test_realization_round_trip_degree_four():
    for d in enumerate_chord_diagrams(4):
        check_realization(d)


def test_realization_round_trip_degree_five():
    for d in enumerate_chord_diagrams(5):
        check_realization(d, resolutions=False)


def test_realization_ordinary_crossings_meet_over_first():
    for d in enumerate_chord_diagrams(3):
        code = realize_chord_diagram(d)
        first_role = {}
        for p in code.passages:
            if hasattr(p, "role") and p.label not in first_role:
                first_role[p.label] = p.role
        assert all(role == OVER for role in first_role.values())


# -- weight systems from invariants ----------------------------------------------

def test_invariant_induces_w2():
    ws = weight_from_invariant(v2, 2, "v2")
    for d in enumerate_chord_diagrams(2):
        assert ws.evaluate(d) == w2(d)


def test_invariant_induces_w3():
    ws = weight_from_invariant(v3, 3, "v3")
    for d in enumerate_chord_diagrams(3):
        assert ws.evaluate(d) == w3(d)


def test_low_degree_invariant_vanishes_above_its_degree():
    ws = weight_from_invariant(v2, 3, "v2@3")
    for d in enumerate_chord_diagrams(3):
        assert ws.evaluate(d) == 0


def test_v3_vanishes_at_degree_four():
    ws = weight_from_invariant(v3, 4, "v3@4")
    for d in enumerate_chord_diagrams(4):
        assert ws.evaluate(d) == 0


def test_derived_weight_systems_pass_relations():
    for fn, n in ((v2, 2), (v3, 3)):
        report = check_relations(weight_from_invariant(fn, n, "derived"))
        assert report.one_term_ok and report.four_term_ok


@pytest.mark.parametrize(
    "name, fake",
    [
        ("validate", lambda code: ("invalid",)),
        ("double_point_diagram", lambda code: ChordDiagram(())),
        ("embedding_genus", lambda code: 1),
    ],
)
def test_realization_guards_raise(monkeypatch, name, fake):
    monkeypatch.setattr(weights, name, fake)
    with pytest.raises(CheckFailed):
        realize_chord_diagram(enumerate_chord_diagrams(2)[1])
