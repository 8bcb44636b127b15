"""v2 and v3 against the Jones and Conway polynomials, oracles that share
no sign, weight or pattern convention with the package."""

import random
from importlib import resources

from vassiliev import (
    arrow_diagram_from_code, count_matches, enumerate_chord_diagrams, invariant_report, mirror, parse_pattern_file,
    v2, v2_lannes, v2_polyak_viro, v3,
)

from _braids import BRAID_WORDS, braid_closure, is_knot, strand_count
from _generators import conway_file, conway_words, one_component_words
from _oracles import alexander, burau_conway, conway, conway_symbol, jones, jones_moments, tl_jones


def seeded_words(count=20):
    """Distinct braid words of 4 to 10 letters on 3 or 4 strands whose
    closures are knots, from a fixed seed."""
    rng = random.Random(17)
    words = set()
    while len(words) < count:
        strands = rng.choice((3, 4))
        word = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(4, 10)))
        if max(map(abs, word)) == strands - 1 and is_knot(list(word)):
            words.add(word)
    return [list(word) for word in sorted(words)]


def seeded_closures(count=20):
    """The closures of ``seeded_words(count)``."""
    return [braid_closure(word) for word in seeded_words(count)]


def test_right_trefoil_jones_polynomial(trefoil):
    assert jones(trefoil) == {1: 1, 3: 1, 4: -1}  # t + t^3 - t^4


def test_jones_moments_are_v2_and_v3(corpus):
    codes = [r.code for r in corpus]
    codes += [braid_closure(word) for word in BRAID_WORDS.values()]
    codes += seeded_closures()
    for code in codes:
        h = jones_moments(code)
        assert h[:2] == [1, 0], code
        assert (h[2], h[3]) == (-3 * v2(code), -6 * v3(code)), code


def test_mirror_flips_the_cubic_moment(corpus):
    for code in [r.code for r in corpus] + seeded_closures(count=5):
        h, flipped = jones_moments(code), jones_moments(mirror(code))
        assert flipped[2] == h[2] and flipped[3] == -h[3], code


def conway_coefficient(code, j):
    """The coefficient of z^(2j) in the Conway polynomial."""
    coeffs = conway(code)
    return coeffs[j] if j < len(coeffs) else 0


def test_alexander_polynomials_of_small_knots(corpus):
    by_name = {r.name: r.code for r in corpus}
    assert alexander(by_name["unknot"]) == [1]
    assert alexander(by_name["3_1"]) == [1, -1, 1]
    assert alexander(by_name["4_1"]) == [-1, 3, -1]
    assert alexander(by_name["6_2"]) == [-1, 3, -3, 3, -1]


def test_conway_z2_coefficient_is_v2(corpus):
    codes = [r.code for r in corpus]
    codes += [braid_closure(word) for word in BRAID_WORDS.values()]
    codes += seeded_closures()
    for code in codes:
        assert conway_coefficient(code, 0) == 1, code
        assert conway_coefficient(code, 1) == v2(code), code


def test_conway_z4_coefficient_on_the_table(corpus):
    got = {r.name: conway_coefficient(r.code, 2) for r in corpus}
    assert got == {
        "unknot": 0, "3_1": 0, "3_1m": 0, "4_1": 0, "5_2": 0, "6_1": 0,
        "5_1": 1, "6_3": 1, "granny": 1, "square": 1,
        "6_2": -1,
    }


def test_conway_is_unchanged_under_mirror(corpus):
    for code in [r.code for r in corpus] + [braid_closure(word) for word in BRAID_WORDS.values()]:
        assert conway(mirror(code)) == conway(code), code


# -- Conway coefficients as counts of generated patterns -------------------------

def reversed_word(word: str) -> str:
    """The word with every arrow's head and tail swapped."""
    return " ".join(end[:-1] + {"h": "t", "t": "h"}[end[-1]] for end in word.split())


def test_generated_degree_2_words_are_the_bundled_v2_pattern():
    v2_pat = parse_pattern_file((resources.files("vassiliev") / "patterns" / "v2.pat").read_text(encoding="utf-8"))
    assert conway_words(2) == [t.pattern.word() for t in v2_pat.terms] == ["1h 2t 1t 2h"]
    assert conway_words(2, first="t") == ["1t 2h 1h 2t"]
    assert conway_words(3) == conway_words(3, first="t") == []


def test_generated_degree_4_words():
    ascending, descending = conway_words(4), conway_words(4, first="t")
    assert len(ascending) == len(descending) == 21
    assert not set(ascending) & set(descending)
    assert sorted(reversed_word(w) for w in ascending) == descending


def test_generated_words_per_chord_diagram_are_the_conway_symbol():
    diagrams = enumerate_chord_diagrams(4)
    assert len(diagrams) == 105
    for d in diagrams:
        assert len(one_component_words(d)) == conway_symbol(d.chords), d


def test_generated_words_count_the_conway_coefficients(corpus):
    codes = [r.code for r in corpus]
    codes += [braid_closure(word) for word in BRAID_WORDS.values()]
    codes += seeded_closures(40)
    assert len(codes) == 58
    files = {(m, first): conway_file(m, first) for m in (2, 4) for first in "ht"}
    for code in codes:
        diagram = arrow_diagram_from_code(code)
        expected = {m: conway_coefficient(code, m // 2) for m in (2, 4)}
        for (m, first), expression in files.items():
            assert count_matches(expression, diagram) == expected[m], (code, m, first)


# -- the Conway polynomial from the reduced Burau matrix -------------------------

def knotted_word(rng: random.Random, strands: int, length: int) -> list[int]:
    """A word of ``length`` letters on exactly ``strands`` strands whose
    closure is a knot.  A k-strand knot's permutation is a k-cycle, of
    parity k - 1, so any other length parity would never close."""
    if length % 2 != (strands - 1) % 2:
        raise ValueError(f"no {length}-letter word on {strands} strands closes to a knot")
    while True:
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]
        if max(map(abs, word)) == strands - 1 and is_knot(word):
            return word


def test_burau_conway_is_the_wirtinger_conway():
    rng = random.Random(23)
    # the (2, 7) torus knot's Conway polynomial is 1 + 6z^2 + 5z^4 + z^6
    cases = [(word, conway(braid_closure(word))) for word in (*BRAID_WORDS.values(), [1] * 7)]
    assert cases[-1][1] == [1, 6, 5, 1]
    while len(cases) < len(BRAID_WORDS) + 11:
        strands = rng.choice((3, 4, 5))
        word = knotted_word(rng, strands, rng.choice([n for n in range(4, 13) if n % 2 != strands % 2]))
        if (want := conway(braid_closure(word))) != [1]:  # most short words close to unknots
            cases.append((word, want))
    for word, want in cases:
        assert burau_conway(word, strand_count(word)) == (want + [0] * 4)[:4], word
    assert {len(word) for word, _ in cases} >= {10, 12} and {strand_count(word) for word, _ in cases} == {2, 3, 4, 5}


def test_burau_conway_gives_v2_and_the_generated_c4_counts_on_large_closures():
    # past the Wirtinger oracle's reach: closures of 20 to 161 crossings
    rng = random.Random(5)
    files = [conway_file(4, first) for first in "ht"]
    c4s = []
    for strands, lengths in ((3, (20, 40, 80, 160)), (4, (21, 41, 81, 161))):
        for length in lengths:
            word = knotted_word(rng, strands, length)
            code = braid_closure(word)
            _, c2, c4, _ = burau_conway(word, strands)
            assert v2_lannes(code) == v2_polyak_viro(code) == c2, word
            diagram = arrow_diagram_from_code(code)
            assert [count_matches(f, diagram) for f in files] == [c4, c4], word
            c4s.append(c4)
    assert len(set(c4s)) > 2, c4s


# -- the Jones polynomial from the Temperley-Lieb algebra ------------------------

def test_temperley_lieb_jones_is_the_bracket_jones():
    words = [*BRAID_WORDS.values(), *seeded_words()]
    assert len(words) == 27
    for word in words:
        assert tl_jones(word, strand_count(word)) == jones_moments(braid_closure(word), 4), word


def test_temperley_lieb_jones_gives_v2_and_v3_on_large_closures():
    # past the bracket oracle's reach: closures of 20 to 80 crossings, where
    # the h^2 and h^3 coefficients are -3 v2 and -6 v3 by every route
    rng = random.Random(29)
    v3s = []
    for strands, lengths in ((3, (20, 40, 80)), (4, (21, 41))):
        for length in lengths:
            word = knotted_word(rng, strands, length)
            h0, h1, h2, h3, _ = tl_jones(word, strands)
            assert (h0, h1) == (1, 0), word
            values = invariant_report(braid_closure(word)).values
            assert values == {name: {"v2": -h2 / 3, "v3": -h3 / 6}[name[:2]] for name in values}, word
            v3s.append(h3)
    assert len(set(v3s)) > 2, v3s
