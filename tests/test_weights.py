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
from vassiliev.codes import (
    DoublePointPassage,
    GaussCode,
    OVER,
    Passage,
    SingularCode,
    UNDER,
    embedding_genus,
    format_code,
    is_realizable,
    validate,
)
from vassiliev import weights
from vassiliev.errors import CheckFailed, TooLarge, WrongDegree
from vassiliev.invariants import INVARIANTS, family, v2, v3
from vassiliev.weights import MAX_ENUM_DEGREE, WeightSystem, chord_word, weight_systems

from _oracles import conway_symbol, sl2_symbol


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


def test_four_term_check_refused_above_its_limit():
    # one diagram without an isolated chord at 1, every other at 0: it
    # breaks 4T, which is found at degree 5 and refused, not passed, at 6
    for n in (5, 6):
        spike = ChordDiagram(tuple((i, i + n) for i in range(n)))
        ws = weight_system_from_function(lambda d: d == spike, n)
        if n == 5:
            report = check_relations(ws)
            assert report.one_term_ok and not report.four_term_ok
            assert report.violations and all(v.startswith("4T: ") for v in report.violations)
        else:
            with pytest.raises(TooLarge, match=r"outside 2\.\.5"):
                check_relations(ws)


def test_four_term_alternating_sums_vanish():
    for n, fn in ((2, w2), (3, w3)):
        ws = weight_system_from_function(fn, n, f"w{n}")
        for q in four_term_quadruples(n):
            assert sum(s * ws.evaluate(d) for s, d in zip(q.signs, q.diagrams)) == 0


def _rank(rows) -> int:
    """Rank over the rationals of rows given as {column: value} dicts."""
    pivots: dict = {}  # leading column -> row scaled to 1 there
    for row in rows:
        row = {k: Fraction(v) for k, v in row.items() if v}
        while row:
            lead = min(row)
            if lead not in pivots:
                pivots[lead] = {k: v / row[lead] for k, v in row.items()}
                break
            factor = row[lead]
            for k, v in pivots[lead].items():
                row[k] = row.get(k, 0) - factor * v
                if not row[k]:
                    del row[k]
    return len(pivots)


def _relation_space_dimension(n: int) -> int:
    """Dimension of the weight systems at degree n: the solutions of 1T
    and 4T over the based diagrams."""
    diagrams = enumerate_chord_diagrams(n)
    index = {d: i for i, d in enumerate(diagrams)}
    rows = []
    for d in diagrams:
        crossed = {c for pair in crossing_pairs(d) for c in pair}
        if len(crossed) < n:  # a chord no other chord crosses
            rows.append({index[d]: 1})
    for q in four_term_quadruples(n):
        row: dict = {}
        for s, d in zip(q.signs, q.diagrams):
            row[index[d]] = row.get(index[d], 0) + s
        rows.append(row)
    return len(diagrams) - _rank(rows)


def _v2_squared_symbol(d: ChordDiagram) -> int:
    """Sum over the three ways to split the 4 chords into two pairs of
    w2 x w2: the number of crossing pairs whose other two chords cross."""
    crossed = crossing_pairs(d)
    splits = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
    return sum(first in crossed and second in crossed for first, second in splits)


def test_degree_four_has_three_basic_weight_systems():
    # the paper's claim in finite form: modulo lower degrees, every degree-4
    # invariant is a combination of v2^2, c4 and the deframed sl2 (Jones) one
    assert [_relation_space_dimension(n) for n in (2, 3, 4)] == [1, 1, 3]
    for d in enumerate_chord_diagrams(2):
        assert sl2_symbol(d.chords) == -3 * w2(d)
    for d in enumerate_chord_diagrams(3):
        assert sl2_symbol(d.chords) == 6 * w3(d)
    diagrams = enumerate_chord_diagrams(4)
    symbols = [_v2_squared_symbol, lambda d: conway_symbol(d.chords), lambda d: sl2_symbol(d.chords)]
    for symbol in symbols:
        report = check_relations(weight_system_from_function(symbol, 4))
        assert report.one_term_ok and report.four_term_ok, report.violations[:3]
    assert _rank([{i: symbol(d) for i, d in enumerate(diagrams)} for symbol in symbols]) == 3


def test_references_are_keyed_by_the_registry_names():
    references = weight_systems()
    assert tuple(references) == tuple(name for name in INVARIANTS if not family(name))
    assert all(ws.degree == INVARIANTS[name][0] for name, ws in references.items())


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


# The resolution as first written, kept as the oracle: every code is built
# passage by passage, and its pairing table is left for GaussCode to walk.
def oracle_resolve(s):
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


def check_resolutions(code):
    """Signed codes as the oracle builds them; each handed-over pairing
    table equal, in order, to the one a fresh code walks."""
    terms = resolve_singular(code)
    assert [(sign, format_code(r)) for sign, r in terms] == [
        (sign, format_code(r)) for sign, r in oracle_resolve(code)
    ]
    for _, resolved in terms:
        assert list(resolved.ends.items()) == list(GaussCode(resolved.passages).ends.items())
    return terms


@pytest.mark.parametrize("code", [
    parse_singular_code("O1+ U1+"),  # no double point: the code itself
    parse_singular_code("X1a O2+ X1b U2+"),  # double point 1 takes label 2
    parse_singular_code("X2a X1a O1- X2b X1b U1-"),
    # written labels: x is taken by a crossing, 7 is not
    SingularCode((
        DoublePointPassage("x", "a"), Passage("x", OVER, 1), DoublePointPassage("7", "a"),
        DoublePointPassage("x", "b"), Passage("x", UNDER, 1), DoublePointPassage("7", "b"),
    )),
])
def test_resolutions_agree_with_the_oracle_on_written_codes(code):
    check_resolutions(code)


# -- planar realization ----------------------------------------------------------

def check_realization(d: ChordDiagram, resolutions: bool = True):
    """Round trip, planarity, and one ordinary crossing per finger tip plus
    four per interleaved pair; with resolutions, every resolved code as the
    oracle builds it, and planar."""
    code = realize_chord_diagram(d)
    assert not validate(code)
    assert double_point_diagram(code) == d
    assert embedding_genus(code) == 0
    ordinary = sum(hasattr(p, "role") for p in code.passages) // 2
    assert ordinary == d.degree + 4 * len(crossing_pairs(d))
    if resolutions:
        terms = check_resolutions(code)
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
    ws = weight_from_invariant({"v2": v2}, 2)["v2"]
    for d in enumerate_chord_diagrams(2):
        assert ws.evaluate(d) == w2(d)


def test_invariant_induces_w3():
    ws = weight_from_invariant({"v3": v3}, 3)["v3"]
    for d in enumerate_chord_diagrams(3):
        assert ws.evaluate(d) == w3(d)


def test_one_call_derives_every_named_invariant():
    derived = weight_from_invariant({"v2": v2, "v3": v3}, 3)
    assert {name: ws.name for name, ws in derived.items()} == {"v2": "v2", "v3": "v3"}
    for d in enumerate_chord_diagrams(3):
        assert (derived["v2"].evaluate(d), derived["v3"].evaluate(d)) == (0, w3(d))


def test_low_degree_invariant_vanishes_above_its_degree():
    ws = weight_from_invariant({"v2": v2}, 3)["v2"]
    for d in enumerate_chord_diagrams(3):
        assert ws.evaluate(d) == 0


def test_v3_vanishes_at_degree_four():
    ws = weight_from_invariant({"v3": v3}, 4)["v3"]
    for d in enumerate_chord_diagrams(4):
        assert ws.evaluate(d) == 0


def test_induced_weight_system_cost_limit(monkeypatch):
    def unreachable(d):
        raise AssertionError("realized a diagram past the cost limit")

    monkeypatch.setattr(weights, "realize_chord_diagram", unreachable)
    with pytest.raises(TooLarge, match=r"665,280 .* limit is degree 5"):
        weight_from_invariant({"v2": v2}, 6)


def test_derived_weight_systems_pass_relations():
    for fn, n in ((v2, 2), (v3, 3)):
        report = check_relations(weight_from_invariant({"derived": fn}, n)["derived"])
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
