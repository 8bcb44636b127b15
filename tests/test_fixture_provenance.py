"""Where the bundled knot table comes from, re-derived on every run.

Each code is rebuilt from a braid word (or a mirror / concatenation of
such) and compared byte for byte with the shipped table.  The knot
identifications rest on published invariant tables: the second Conway
coefficient pins each entry down among knots of its crossing count,
with |v3| separating the ties.
"""

from fractions import Fraction

from vassiliev import arrow_diagram_from_code, count_matches, format_code, is_realizable, mirror, v2, v3, validate
from vassiliev.codes import embedding_genus

from _braids import BRAID_WORDS, braid_closure, closure_permutation, connected_sum, is_knot, strand_count
from _generators import conway_file
from _oracles import conway, jones_moments, tl_jones

from conftest import TREFOIL

# second Conway coefficient of the named knots, from standard tables
A2 = {"3_1": 1, "4_1": -1, "5_1": 3, "5_2": 2, "6_1": -2, "6_2": -1, "6_3": 1}
V3_MAGNITUDE = {"3_1": 1, "4_1": 0, "5_1": 5, "5_2": 3, "6_2": 1, "6_3": 0}
# v3 where the table gives none, read off the Jones polynomial as -h^3 / 6
V3_FROM_JONES = {"5_1": 5, "5_2": 3, "6_1": -1, "6_2": -1}
# the degree-4 references on the bundled table, which knots.jsonl does not
# carry: the Conway coefficient of z^4, and 4 h^4 of V(e^h)
C4_FROM_CONWAY = {
    "unknot": 0, "3_1": 0, "3_1m": 0, "4_1": 0, "5_1": 1, "5_2": 0,
    "6_1": 0, "6_2": -1, "6_3": 1, "granny": 1, "square": 1,
}
FOUR_H4_FROM_JONES = {
    "unknot": 0, "3_1": -29, "3_1m": -29, "4_1": 5, "5_1": -243, "5_2": -130,
    "6_1": 34, "6_2": 41, "6_3": -17, "granny": -22, "square": -22,
}


def rebuild():
    codes = {name: braid_closure(word) for name, word in BRAID_WORDS.items()}
    codes["3_1m"] = mirror(codes["3_1"])
    codes["granny"] = connected_sum(codes["3_1"], codes["3_1"])
    codes["square"] = connected_sum(codes["3_1"], codes["3_1m"])
    return codes


def test_every_braid_closure_is_a_knot():
    for name, word in BRAID_WORDS.items():
        assert is_knot(word), name


def test_convention_check_reproduces_standard_trefoil():
    assert format_code(braid_closure([1, 1, 1])) == TREFOIL


def test_bundled_codes_match_rebuilt_codes(corpus):
    codes = rebuild()
    by_name = {r.name: r.code for r in corpus}
    assert by_name.pop("unknot").passages == ()
    assert set(by_name) == set(codes)
    for name, code in codes.items():
        assert format_code(by_name[name]) == format_code(code), name


def test_rebuilt_codes_are_planar():
    for name, code in rebuild().items():
        assert not validate(code), name
        assert is_realizable(code), name
        assert embedding_genus(code) == 0


def test_conway_coefficients_anchor_the_names():
    codes = rebuild()
    for name, a2 in A2.items():
        assert v2(codes[name]) == a2, name


def test_v3_where_the_table_has_none_follows_the_jones_polynomial(corpus):
    codes = rebuild()
    for name, want in V3_FROM_JONES.items():
        assert "v3" not in next(r.expected for r in corpus if r.name == name), name
        assert v3(codes[name]) == -jones_moments(codes[name])[3] / 6 == want, name


def test_v3_magnitudes_separate_ties():
    codes = rebuild()
    for name, magnitude in V3_MAGNITUDE.items():
        assert abs(v3(codes[name])) == magnitude, name


def test_identifications_are_unique_at_their_crossing_counts():
    # among prime knots drawable with <= 7 crossings, a2 = -2 happens only
    # for 6_1; the braid closure has 7 crossings, so the name is forced
    codes = rebuild()
    assert len(codes["6_1"].crossings) == 7
    assert v2(codes["6_1"]) == -2
    # a2 = -1 at <= 6 crossings means 4_1 or 6_2; |v3| = 1 rules out 4_1
    assert len(codes["6_2"].crossings) == 6
    assert (v2(codes["6_2"]), abs(v3(codes["6_2"]))) == (-1, 1)
    # a2 = +1 at <= 6 crossings means 3_1 or 6_3; v3 = 0 rules out 3_1
    assert len(codes["6_3"].crossings) == 6
    assert (v2(codes["6_3"]), v3(codes["6_3"])) == (1, 0)
    # a2 = +2 at <= 6 crossings means 5_2 or the granny; |v3| = 3 rules the
    # granny (|v3| = 2) out
    assert len(codes["5_2"].crossings) == 6
    assert (v2(codes["5_2"]), abs(v3(codes["5_2"]))) == (2, 3)


def test_expected_values_in_table_are_externally_anchored(corpus):
    for record in corpus:
        expected = record.expected or {}
        if record.name in A2:
            assert expected["v2"] == Fraction(A2[record.name]), record.name


def test_composite_values_follow_additivity(corpus):
    values = {r.name: (v2(r.code), v3(r.code)) for r in corpus}
    assert values["granny"] == (2, 2)
    assert values["square"] == (2, 0)


def test_degree_4_values_follow_the_conway_and_jones_oracles(corpus):
    # the Wirtinger c4 and both generated c4 counts; the bracket's 4 h^4,
    # and on the braid closures the Temperley-Lieb one
    assert [r.name for r in corpus] == list(C4_FROM_CONWAY) == list(FOUR_H4_FROM_JONES)
    files = [conway_file(4, first) for first in "ht"]
    for record in corpus:
        diagram = arrow_diagram_from_code(record.code)
        c4s = [(conway(record.code) + [0, 0])[2], *(count_matches(f, diagram) for f in files)]
        assert c4s == [C4_FROM_CONWAY[record.name]] * 3, record.name
        assert 4 * jones_moments(record.code, 4)[4] == FOUR_H4_FROM_JONES[record.name], record.name
    for name, word in BRAID_WORDS.items():
        assert 4 * tl_jones(word, strand_count(word))[4] == FOUR_H4_FROM_JONES[name], name


def test_degree_4_values_of_the_composites_follow_the_connected_sum_rule():
    # Conway and Jones multiply under #: c4 gains c2(a) c2(b), and h^4
    # gains h^2(a) h^2(b) = 9 v2(a) v2(b)
    codes = rebuild()
    for total, (a, b) in (("granny", ("3_1", "3_1")), ("square", ("3_1", "3_1m"))):
        product = v2(codes[a]) * v2(codes[b])
        assert C4_FROM_CONWAY[total] == C4_FROM_CONWAY[a] + C4_FROM_CONWAY[b] + product, total
        assert FOUR_H4_FROM_JONES[total] == FOUR_H4_FROM_JONES[a] + FOUR_H4_FROM_JONES[b] + 36 * product, total
