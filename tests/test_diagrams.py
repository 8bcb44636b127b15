import itertools
import math
import random
from collections import Counter
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from vassiliev import (
    Arrow,
    ArrowDiagram,
    ChordDiagram,
    GaussCode,
    Passage,
    arrow_diagram_from_code,
    chord_diagram,
    chord_subdiagram,
    count_matches,
    double_point_diagram,
    enumerate_chord_diagrams,
    evaluate_expression,
    interleaved,
    parse_gauss_code,
    parse_pattern,
    parse_pattern_file,
    parse_singular_code,
)
from vassiliev.diagrams import MAX_PATTERN_ARROWS, Pattern, PatternExpression, PatternTerm, _trie
from vassiliev.errors import (
    IndexOutOfRange,
    MalformedToken,
    ParseError,
    SameChord,
    TooLarge,
    UnbalancedLabel,
)

from conftest import TREFOIL, outcome


# The reference counter the fast matcher is checked against: try every
# injective assignment of pattern arrows to diagram arrows and keep those
# whose endpoints, read left to right, spell the pattern word.
def oracle_count(pattern: Pattern, diagram: ArrowDiagram) -> int:
    k = len(pattern.arrows)
    want = []
    endpoints = []
    for i, (tail, head) in enumerate(pattern.arrows):
        endpoints.append((tail, i, "t"))
        endpoints.append((head, i, "h"))
    endpoints.sort()
    want = [(i, kind) for _, i, kind in endpoints]
    total = 0
    for chosen in itertools.permutations(diagram.arrows, k):
        spots = []
        for i, arrow in enumerate(chosen):
            spots.append((arrow.tail, i, "t"))
            spots.append((arrow.head, i, "h"))
        spots.sort()
        if [(i, kind) for _, i, kind in spots] == want:
            total += math.prod(arrow.sign for arrow in chosen)
    return total


def random_diagram(rng, max_arrows=8, min_arrows=0) -> ArrowDiagram:
    n = rng.randint(min_arrows, max_arrows)
    slots = list(range(2 * n))
    rng.shuffle(slots)
    arrows = []
    for i in range(n):
        a, b = slots[2 * i], slots[2 * i + 1]
        if rng.random() < 0.5:
            a, b = b, a
        arrows.append(Arrow(a, b, rng.choice((1, -1))))
    return ArrowDiagram(tuple(arrows))


def random_pattern(rng, max_arrows=4, min_arrows=1) -> Pattern:
    n = rng.randint(min_arrows, max_arrows)
    slots = list(range(2 * n))
    rng.shuffle(slots)
    arrows = []
    for i in range(n):
        a, b = slots[2 * i], slots[2 * i + 1]
        arrows.append((a, b) if rng.random() < 0.5 else (b, a))
    return Pattern(tuple(sorted(arrows, key=min)))


def bundled_patterns():
    from importlib import resources

    out = []
    for name in ("v2.pat", "v3_pv.pat", "v3_theorem.pat"):
        text = (resources.files("vassiliev") / "patterns" / name).read_text()
        for term in parse_pattern_file(text).terms:
            out.append(term.pattern)
    return out


# -- arrow and chord diagrams -------------------------------------------------

def test_trefoil_arrows(trefoil):
    # tail sits at the over-passage, head at the under-passage
    diagram = arrow_diagram_from_code(trefoil)
    assert diagram.arrows == (
        Arrow(0, 3, 1),
        Arrow(4, 1, 1),
        Arrow(2, 5, 1),
    )


def test_mirror_reverses_arrow_direction():
    code = parse_gauss_code("O1+ U1+")
    assert arrow_diagram_from_code(code).arrows == (Arrow(0, 1, 1),)
    from vassiliev import mirror

    assert arrow_diagram_from_code(mirror(code)).arrows == (Arrow(1, 0, -1),)


def test_singular_code_arrows():
    code = parse_singular_code("X1a O2+ X1b U2+")
    diagram = arrow_diagram_from_code(code)
    assert diagram.arrows == (Arrow(0, 2, 1), Arrow(1, 3, 1))


# ArrowDiagram.masks as first written, kept as the oracle: the endpoint
# at each position, then one generator pass per mask, then each arrow's
# tail, head and sign.
def oracle_masks(diagram: ArrowDiagram):
    at: list = [None] * (2 * len(diagram.arrows))
    for i, a in enumerate(diagram.arrows):
        at[a.tail], at[a.head] = (i, "t"), (i, "h")
    tails = list(itertools.accumulate(((kind == "t") << d for d, kind in at), or_, initial=0))
    heads = list(itertools.accumulate(((kind == "h") << d for d, kind in at), or_, initial=0))
    forward = sum((a.tail < a.head) << d for d, a in enumerate(diagram.arrows))
    positive = sum((a.sign > 0) << d for d, a in enumerate(diagram.arrows))
    return (tails, heads, forward, positive,
            [a.tail for a in diagram.arrows], [a.head for a in diagram.arrows], [a.sign for a in diagram.arrows])


@given(st.integers(0, 10 ** 6))
def test_masks_agree_with_oracle_property(seed):
    diagram = random_diagram(random.Random(seed), max_arrows=12)
    assert diagram.masks == oracle_masks(diagram)


@given(st.integers(0, 10 ** 6), st.data())
def test_masks_and_counts_ignore_arrow_order_property(seed, data):
    from fractions import Fraction

    rng = random.Random(seed)
    diagram = random_diagram(rng, max_arrows=6)
    order = data.draw(st.permutations(range(diagram.degree)))
    shuffled = ArrowDiagram(tuple(diagram.arrows[i] for i in order))
    assert shuffled.arrows == tuple(diagram.arrows[i] for i in order)  # kept as given
    assert shuffled.masks == oracle_masks(shuffled)
    terms = tuple(
        PatternTerm(Fraction(rng.choice((1, -1, 2))), rng.random() < 0.3, rng.choice(SMALL_PATTERNS))
        for _ in range(rng.randint(1, 6))
    )
    expression = PatternExpression(terms)
    assert count_matches(expression, shuffled) == count_matches(expression, diagram)


def test_arrow_diagram_refuses_label_met_four_times():
    four = GaussCode(tuple(Passage("1", role, 1) for role in "OUOU"))
    with pytest.raises(UnbalancedLabel, match="occurs 4 times"):
        arrow_diagram_from_code(four)


def test_double_point_diagram_ignores_ordinary_crossings():
    code = parse_singular_code("X1a O2+ X1b U2+")
    assert double_point_diagram(code) == ChordDiagram(((0, 1),))


def test_chord_diagram_forgets_direction_and_sign(trefoil):
    assert chord_diagram(trefoil) == ChordDiagram(((0, 3), (1, 4), (2, 5)))
    assert chord_diagram(arrow_diagram_from_code(trefoil)) == chord_diagram(trefoil)


def test_chord_subdiagram_packs_positions(trefoil):
    sub = chord_subdiagram(trefoil, ("1", "3"))
    assert sub == ChordDiagram(((0, 2), (1, 3)))


def test_interleaved_basics():
    d = ChordDiagram(((0, 2), (1, 3), (4, 5)))
    assert interleaved(d, 0, 1)
    assert not interleaved(d, 0, 2)
    with pytest.raises(SameChord):
        interleaved(d, 1, 1)
    with pytest.raises(IndexOutOfRange):
        interleaved(d, 0, 7)


# -- pattern parsing ----------------------------------------------------------

def test_parse_pattern_word_roundtrip():
    p = parse_pattern("1h 2t 1t 2h")
    assert p.word() == "1h 2t 1t 2h"


def test_parse_pattern_errors():
    with pytest.raises(MalformedToken):
        parse_pattern("1x 1h")
    with pytest.raises(UnbalancedLabel):
        parse_pattern("1h 2t 1t")
    with pytest.raises(UnbalancedLabel):
        parse_pattern("1h 1h")


def test_pattern_rotations():
    p1 = parse_pattern("1h 2t 3h 1t 2h 3t")
    p2 = parse_pattern("1h 2h 1t 3h 2t 3t")
    assert len(p1.distinct_rotations()) == 2
    assert len(p2.distinct_rotations()) == 6


def test_pattern_file_parsing():
    text = "# header\n1 0 1h 2t 1t 2h\n\n1/2 1 1h 1t\n"
    expr = parse_pattern_file(text)
    assert len(expr.terms) == 2
    assert str(expr.terms[1].coeff) == "1/2"
    assert expr.terms[1].bracket is True
    assert expr.degree == 2


def test_pattern_file_errors():
    with pytest.raises(ParseError) as err:
        parse_pattern_file("1 0 1h 2t 1t 2h\nbad line\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_pattern_file("")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_pattern_file("x 0 1h 1t\n")
    assert err.value.line == 1


# -- the matcher vs the oracle ------------------------------------------------

def test_count_on_trefoil_by_hand(trefoil):
    diagram = arrow_diagram_from_code(trefoil)
    assert count_matches(parse_pattern("1h 2t 1t 2h"), diagram) == 1
    # the trefoil's own endpoint word, matched by exactly one assignment
    assert count_matches(parse_pattern("1t 2h 3t 1h 2t 3h"), diagram) == 1
    # same pattern rotated off the basepoint does not match unrotated
    assert count_matches(parse_pattern("1h 2t 3h 1t 2h 3t"), diagram) == 0


def test_matcher_agrees_with_oracle_on_fixtures(corpus):
    patterns = bundled_patterns()
    for record in corpus:
        diagram = arrow_diagram_from_code(record.code)
        for pattern in patterns:
            assert count_matches(pattern, diagram) == oracle_count(pattern, diagram)


def test_matcher_agrees_with_oracle_randomized():
    rng = random.Random(99)
    for _ in range(150):
        diagram = random_diagram(rng, max_arrows=6)
        pattern = random_pattern(rng)
        assert count_matches(pattern, diagram) == oracle_count(pattern, diagram)


@given(st.integers(0, 10 ** 6))
def test_matcher_agrees_with_oracle_property(seed):
    rng = random.Random(seed)
    diagram = random_diagram(rng, max_arrows=5)
    pattern = random_pattern(rng)
    assert count_matches(pattern, diagram) == oracle_count(pattern, diagram)


def based_patterns(k: int) -> list[Pattern]:
    """Every based pattern with k arrows: each chord diagram, each way of
    directing its chords."""
    return [
        Pattern(tuple((a, b) if forward else (b, a) for (a, b), forward in zip(d.chords, flags)))
        for d in enumerate_chord_diagrams(k)
        for flags in itertools.product((True, False), repeat=k)
    ]


def test_matcher_agrees_with_oracle_on_every_small_pattern():
    patterns = [p for k in range(5) for p in based_patterns(k)]
    assert len(patterns) == 1815
    rng = random.Random(3)
    diagrams = [d for d in (random_diagram(rng, max_arrows=6) for _ in range(20)) if d.degree >= 5]
    assert sorted(d.degree for d in diagrams[:4]) == [5, 5, 6, 6]
    # one diagram of each degree 0..3, where the bigger patterns find no room
    small = {}
    while len(small) < 4:
        d = random_diagram(rng, max_arrows=3)
        small.setdefault(d.degree, d)
    for diagram in diagrams[:4] + list(small.values()):
        # every pattern on the 5-arrow and the small diagrams; at 6 arrows
        # the oracle's permutations make 4-arrow patterns too slow
        for pattern in patterns if diagram.degree <= 5 else [p for p in patterns if p.degree <= 3]:
            assert count_matches(pattern, diagram) == oracle_count(pattern, diagram)


def test_empty_diagram_counts():
    empty = ArrowDiagram(())
    assert count_matches(parse_pattern("1h 1t"), empty) == 0


def test_expression_evaluation_is_linear(trefoil):
    diagram = arrow_diagram_from_code(trefoil)
    from fractions import Fraction

    a = parse_pattern("1h 2t 1t 2h")
    b = parse_pattern("1t 2h 1h 2t")
    expr = PatternExpression((
        PatternTerm(Fraction(2), False, a),
        PatternTerm(Fraction(-3), False, b),
    ))
    expected = 2 * count_matches(a, diagram) - 3 * count_matches(b, diagram)
    assert evaluate_expression(expr, diagram) == expected


def test_bracket_sums_over_rotations(trefoil):
    diagram = arrow_diagram_from_code(trefoil)
    from fractions import Fraction

    p = parse_pattern("1h 2t 3h 1t 2h 3t")
    bracketed = PatternExpression((PatternTerm(Fraction(1), True, p),))
    by_hand = sum(count_matches(q, diagram) for q in p.distinct_rotations())
    assert evaluate_expression(bracketed, diagram) == by_hand


# -- one walk per expression ---------------------------------------------------

SMALL_PATTERNS = [p for k in range(5) for p in based_patterns(k)]


def leading(pattern: Pattern, k: int) -> Pattern:
    """The pattern's first k arrows in first-endpoint order, packed."""
    arrows = sorted(pattern.arrows, key=min)[:k]
    rank = {p: i for i, p in enumerate(sorted(p for a in arrows for p in a))}
    return Pattern(tuple((rank[t], rank[h]) for t, h in arrows))


# 3- and 4-arrow patterns grouped by their first two arrows: the members of
# one group share the first two levels of a trie, and the group's 2-arrow
# key ends on a node that has children, as in a mixed-degree file
PREFIX_GROUPS: dict = {}
for _p in SMALL_PATTERNS:
    if _p.degree >= 3:
        PREFIX_GROUPS.setdefault(leading(_p, 2), []).append(_p)


@given(st.integers(0, 10 ** 6))
def test_expression_walk_agrees_with_oracle_property(seed):
    from fractions import Fraction

    rng = random.Random(seed)
    diagram = random_diagram(rng, max_arrows=5)
    key = rng.choice(list(PREFIX_GROUPS))
    chosen = [key, *rng.sample(PREFIX_GROUPS[key], 3), *rng.sample(SMALL_PATTERNS, 3)]
    coeffs = [Fraction(c) for c in ("1", "-1", "2", "1/2", "-1/3", "1/6", "3/4")]
    terms = [PatternTerm(rng.choice(coeffs), rng.random() < 0.3, p) for p in chosen]
    terms.append(rng.choice(terms))  # a repeated line
    # three lines of one based pattern whose coefficients cancel
    terms += [PatternTerm(Fraction(c), False, rng.choice(chosen)) for c in ("1/2", "-1/3", "-1/6")]
    rng.shuffle(terms)
    expr = PatternExpression(tuple(terms))
    expected = sum(
        t.coeff * sum(oracle_count(p, diagram) for p in (t.pattern.distinct_rotations() if t.bracket else [t.pattern]))
        for t in terms
    )
    assert evaluate_expression(expr, diagram) == expected
    assert count_matches(expr, diagram) == expected * expr.denominator


def cut(arrows) -> Pattern:
    """The pattern some of a diagram's arrows form, positions packed."""
    rank = {p: i for i, p in enumerate(sorted(p for a in arrows for p in (a.tail, a.head)))}
    return Pattern(tuple((rank[a.tail], rank[a.head]) for a in arrows))


@settings(max_examples=30)  # each example runs the oracle's 720 permutations per pattern
@given(st.integers(0, 10 ** 6))
def test_kernel_agrees_with_oracle_on_deep_patterns_property(seed):
    # 5- and 6-arrow patterns nest the kernel's loops deepest.  Patterns cut
    # from the diagram match at least once, and a 6-arrow pattern's first
    # five arrows end a pattern on a node that has children.
    from fractions import Fraction

    rng = random.Random(seed)
    diagram = random_diagram(rng, max_arrows=6, min_arrows=5)
    six = cut(rng.sample(diagram.arrows, 6)) if diagram.degree == 6 else random_pattern(rng, 6, 6)
    chosen = [six, leading(six, 5), cut(rng.sample(diagram.arrows, 5)), random_pattern(rng, 6, 5)]
    oracle: dict = {}

    def count(p: Pattern) -> int:
        return oracle.setdefault(p.word(), oracle_count(p, diagram))

    for p in chosen:
        assert count_matches(p, diagram) == count(p)
    coeffs = [Fraction(c) for c in ("1", "-1", "2", "1/2", "-1/3")]
    terms = [PatternTerm(rng.choice(coeffs), rng.random() < 0.25, p) for p in chosen]
    expr = PatternExpression(tuple(terms))
    expected = sum(
        t.coeff * sum(count(p) for p in (t.pattern.distinct_rotations() if t.bracket else [t.pattern])) for t in terms
    )
    assert evaluate_expression(expr, diagram) == expected


def trie_widths(expression: PatternExpression) -> tuple[int, ...]:
    """Nodes per depth of the prefix tree of the expression's based patterns."""
    based = [(p, 1) for t in expression.terms for p in (t.pattern.distinct_rotations() if t.bracket else [t.pattern])]
    widths = Counter()

    def visit(children, depth):
        for _, below in children.values():
            widths[depth] += 1
            visit(below, depth + 1)

    visit(_trie(based)[1], 1)
    return tuple(n for _, n in sorted(widths.items()))


def test_bundled_files_walk_shared_prefixes_once():
    from importlib import resources

    def bundled(name):
        return parse_pattern_file((resources.files("vassiliev") / "patterns" / name).read_text())

    # 5 based patterns, and the 8 distinct based rotations of 2 bracketed ones
    assert trie_widths(bundled("v3_theorem.pat")) == (2, 3, 5)
    assert trie_widths(bundled("v3_pv.pat")) == (2, 5, 8)
    assert trie_widths(bundled("v2.pat")) == (1, 1)


# -- the deepest pattern the matcher compiles ---------------------------------

def zigzag(n: int) -> tuple[str, ArrowDiagram]:
    """An n-arrow chain whose arrows alternate direction, as a word and as
    a diagram with its first arrow negative; the alternation keeps the
    walk's partial copies few."""
    word = " ".join(f"{i}t {i}h" if i % 2 else f"{i}h {i}t" for i in range(1, n + 1))
    arrows = [Arrow(2 * i, 2 * i + 1, 1) if i % 2 == 0 else Arrow(2 * i + 1, 2 * i, 1) for i in range(n)]
    return word, ArrowDiagram((arrows[0]._replace(sign=-1), *arrows[1:]))


def test_matcher_counts_the_deepest_pattern_it_compiles():
    word, diagram = zigzag(MAX_PATTERN_ARROWS)
    assert count_matches(parse_pattern(word), diagram) == -1


def test_matcher_refuses_a_pattern_too_deep_to_compile():
    word, diagram = zigzag(MAX_PATTERN_ARROWS + 1)
    message = r"a pattern of 22 arrows; the matcher counts at most 21\Z"
    with pytest.raises(TooLarge, match=message):
        count_matches(parse_pattern(word), diagram)
    with pytest.raises(TooLarge, match=message):
        count_matches(parse_pattern_file(f"1 0 1h 2t 1t 2h\n1 1 {word}\n"), diagram)


@pytest.mark.parametrize("call, want", [
    (lambda: ChordDiagram(((0, 2),)), (UnbalancedLabel, "endpoint positions [0, 2] must be exactly 0..1")),
    (lambda: Pattern(()).rotate(1), Pattern(())),
    (lambda: parse_pattern(""), (MalformedToken, "empty pattern word")),
    (lambda: parse_pattern_file("1 2 1h 1t\n"), (ParseError, "line 1: bracket flag must be 0 or 1, got '2'")),
    (lambda: parse_pattern_file("1 0 1h 1h\n"), (ParseError, "line 1: arrow 1 has two h endpoints")),
])
def test_edge_cases_no_other_test_reaches(call, want):
    assert outcome(call) == want
