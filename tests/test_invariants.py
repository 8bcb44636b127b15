import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule, run_state_machine_as_test

from vassiliev import (
    INVARIANTS,
    apply_r1,
    apply_r2,
    arrow_diagram_from_code,
    bundled_expansion,
    bundled_knot_table,
    check_expansion,
    chord_subdiagram,
    count_matches,
    delta,
    epsilon,
    format_code,
    invariant_report,
    is_realizable,
    methods,
    mirror,
    parse_gauss_code,
    parse_pattern_file,
    reverse_orientation,
    rotate_basepoint,
    v2,
    v2_lannes,
    v2_polyak_viro,
    v3,
    v3_lannes,
    v3_polyak_viro,
    v3_theorem,
    w2,
    w3,
)
from vassiliev import invariants, weights
from vassiliev.errors import NonIntegerResult, UnknownInvariant
from vassiliev.invariants import family

from conftest import TREFOIL
from test_codes import random_code
from _braids import braid_closure, is_knot
from _generators import conway_file

ALL_METHODS = (v2_lannes, v2_polyak_viro, v3_lannes, v3_polyak_viro, v3_theorem)
ROUTES = tuple(name for name in INVARIANTS if family(name))


def test_all_methods_vanish_on_unknot():
    empty = parse_gauss_code("")
    for fn in ALL_METHODS:
        assert fn(empty) == 0


def test_all_methods_give_one_on_trefoil(trefoil):
    for fn in ALL_METHODS:
        assert fn(trefoil) == 1


def test_expected_fixture_values(corpus):
    for record in corpus:
        for name, value in (record.expected or {}).items():
            _, fn = INVARIANTS[name]
            assert fn(record.code) == value, record.name


def test_methods_agree_on_corpus(corpus):
    for record in corpus:
        report = invariant_report(record.code)
        assert report.agreement == {"v2": True, "v3": True} and report.consistent, record.name


def test_basepoint_rotation_stability(corpus):
    for record in corpus:
        base = {fn: fn(record.code) for fn in ALL_METHODS}
        for k in range(1, len(record.code.passages)):
            rotated = rotate_basepoint(record.code, k)
            for fn in ALL_METHODS:
                assert fn(rotated) == base[fn], (record.name, k)


def test_mirror_behavior(corpus):
    for record in corpus:
        flipped = mirror(record.code)
        assert v2(flipped) == v2(record.code), record.name
        assert v3(flipped) == -v3(record.code), record.name


def test_reversal_leaves_both_invariants(corpus):
    for record in corpus:
        rev = reverse_orientation(record.code)
        assert v2(rev) == v2(record.code)
        assert v3(rev) == v3(record.code)


def test_connected_sum_additivity(corpus):
    values = {r.name: (v2(r.code), v3(r.code)) for r in corpus}
    assert values["granny"] == (2 * values["3_1"][0], 2 * values["3_1"][1])
    assert values["square"][0] == values["3_1"][0] + values["3_1m"][0]
    assert values["square"][1] == values["3_1"][1] + values["3_1m"][1]


# The braid relation in four sign forms, each a Reidemeister III move on the
# closure: s1 s2 s1 = s2 s1 s2, its all-inverse form, s1 s2 s1^-1 =
# s2^-1 s1 s2 and s1^-1 s2 s1 = s2 s1 s2^-1.
BRAID_RELATIONS = (
    ((1, 2, 1), (2, 1, 2)),
    ((-1, -2, -1), (-2, -1, -2)),
    ((1, 2, -1), (-2, 1, 2)),
    ((-1, 2, 1), (2, 1, -2)),
)


def braid_relation_pairs(words: int = 50) -> list[tuple[list[int], list[int]]]:
    """Seeded knotted 3- and 4-strand words of 6 to 16 letters, each paired
    with every word that one braid relation, either way round and shifted
    to generators i and i + 1, makes of it at one position."""
    rng = random.Random(3)
    pairs = []
    for _ in range(words):
        while True:
            strands = rng.choice((3, 4))
            word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(6, 16))]
            if is_knot(word):
                break
        for i in range(1, strands - 1):
            for relation in BRAID_RELATIONS:
                for a, b in (relation, relation[::-1]):
                    a, b = ([e + (i - 1 if e > 0 else 1 - i) for e in side] for side in (a, b))
                    pairs += [(word, word[:p] + b + word[p + 3:]) for p in range(len(word) - 2) if word[p:p + 3] == a]
    return pairs


def test_braid_relations_leave_every_route_and_the_generated_c4_counts():
    # a second source of Reidemeister III moves, beside the R1 and R2 moves
    # of random_perturbations: every route and both generated c4 counts keep
    # their values, while the lone based count of one three-arrow word,
    # which is no invariant, moves on some pair
    files = [conway_file(4, first) for first in "ht"]
    control = parse_pattern_file("1 0 1h 2t 3h 1t 2h 3t\n")
    pairs = braid_relation_pairs()
    assert len(pairs) >= 50
    moved = 0
    for word, other in pairs:
        a, b = braid_closure(word), braid_closure(other)
        assert invariant_report(a).values == invariant_report(b).values, (word, other)
        da, db = arrow_diagram_from_code(a), arrow_diagram_from_code(b)
        assert [count_matches(f, da) for f in files] == [count_matches(f, db) for f in files], (word, other)
        moved += count_matches(control, da) != count_matches(control, db)
    assert moved >= 1


class MovesKeepTheKnot(RuleBasedStateMachine):
    """Chains of curls, slides and nested R2 pairs from a bundled knot:
    each code stays a plane diagram of that knot, so every route keeps
    its value."""

    @initialize(record=st.sampled_from([r for r in bundled_knot_table() if r.code.passages]))
    def start(self, record):
        self.code = record.code
        self.want = invariant_report(record.code).values

    @rule(data=st.data(), sign=st.sampled_from((1, -1)), role=st.sampled_from(("O", "U")))
    def curl(self, data, sign, role):
        self.code = apply_r1(self.code, data.draw(st.integers(0, len(self.code.passages))), sign, role)

    @precondition(lambda self: self.code.r2_insertions)
    @rule(data=st.data())
    def slide(self, data):
        self.code = apply_r2(self.code, *data.draw(st.sampled_from(self.code.r2_insertions)))

    @rule(data=st.data(), case=st.sampled_from(("case-1", "case-2")))
    def nest(self, data, case):
        p = data.draw(st.integers(0, len(self.code.passages)))
        self.code = apply_r2(self.code, p, p, case)

    @invariant()
    def same_knot(self):
        assert is_realizable(self.code)
        assert invariant_report(self.code).values == self.want


def test_r1_and_r2_move_chains_keep_every_route():
    run_state_machine_as_test(MovesKeepTheKnot, settings=settings(max_examples=25, stateful_step_count=10))


def test_report_shape(trefoil):
    report = invariant_report(trefoil)
    assert set(report.values) == set(ROUTES)
    assert report.agreement == {"v2": True, "v3": True} and report.consistent


def test_half_sum_can_fail_on_virtual_codes():
    virtual = parse_gauss_code("O1+ U2+ U1+ O2+")
    with pytest.raises(NonIntegerResult, match="^half the pair sum evaluated to 1/2$"):
        v2_lannes(virtual)


def test_unknown_invariant_name(corpus):
    with pytest.raises(UnknownInvariant):
        check_expansion(bundled_expansion(2), ["v7"], corpus)


def test_registry_functions_match_canonical(trefoil):
    assert INVARIANTS["v2"][1](trefoil) == v2(trefoil)
    assert INVARIANTS["v3"][1](trefoil) == v3(trefoil)
    assert INVARIANTS["v3_thm"][0] == 3


def test_patterns_dir_override(doubled_v2_dir, trefoil):
    registry = methods(doubled_v2_dir)
    assert registry["v2_pv"][1](trefoil) == 2 * v2(trefoil)
    assert registry["v2"][1](trefoil) == 2 * v2(trefoil)
    assert registry["v3"][1](trefoil) == v3(trefoil)
    assert registry["v2_lannes"] == INVARIANTS["v2_lannes"]
    assert methods() is INVARIANTS


def test_patterns_dir_of_the_package_rebuilds_the_registry(corpus):
    # INVARIANTS and every --patterns-dir registry come from one builder
    registry = methods(Path(invariants.__file__).parent / "patterns")
    assert list(registry) == list(INVARIANTS)
    for name, (degree, fn) in INVARIANTS.items():
        other = registry[name][1]
        assert registry[name][0] == degree
        assert (other.__name__, other.__doc__) == (fn.__name__, fn.__doc__)
        assert getattr(other, "pattern_file", None) == getattr(fn, "pattern_file", None)
        assert [other(r.code) for r in corpus] == [fn(r.code) for r in corpus], name
    assert registry["v2"][1] is registry["v2_pv"][1] and registry["v3"][1] is registry["v3_thm"][1]


BUNDLED_PATTERNS = sorted(p.name for p in (Path(invariants.__file__).parent / "patterns").glob("*.pat"))


def pattern_evaluators(registry):
    """The distinct pattern evaluators of a registry, by identity."""
    return {id(fn): fn for _, fn in registry.values() if hasattr(fn, "pattern_file")}.values()


def test_each_bundled_pattern_file_is_counted_by_one_evaluator():
    counted = sorted(fn.pattern_file for fn in pattern_evaluators(INVARIANTS))
    assert counted == BUNDLED_PATTERNS == list(invariants.PATTERN_FILES)


def test_patterns_dir_rebinds_every_pattern_evaluator(doubled_v2_dir, monkeypatch):
    reads = []
    load = invariants.load_pattern_file
    monkeypatch.setattr(invariants, "load_pattern_file", lambda path: reads.append(Path(path).name) or load(path))
    m = methods(doubled_v2_dir)
    assert reads == BUNDLED_PATTERNS  # each file once, in one call
    for name, (degree, fn) in INVARIANTS.items():
        assert m[name][0] == degree
        if hasattr(fn, "pattern_file"):
            assert m[name][1] is not fn and m[name][1].pattern_file == fn.pattern_file
        else:
            assert m[name][1] is fn
    assert m["v2"][1] is m["v2_pv"][1] and m["v3"][1] is m["v3_thm"][1]
    assert len(pattern_evaluators(m)) == len(BUNDLED_PATTERNS)


def test_each_pattern_file_compiles_one_kernel():
    # in a fresh interpreter, repeated compute calls on the bundled table
    # compile each bundled file's kernel once
    script = """
import contextlib, io
from vassiliev import cli, diagrams
built = []
build = diagrams._kernel
diagrams._kernel = lambda trie: built.append(trie) or build(trie)
for _ in range(3):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["compute"])
print(len(built))
"""
    src = Path(invariants.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, f"{len(BUNDLED_PATTERNS)}\n", "")


def test_patterns_dir_compiles_one_kernel_per_loaded_copy(doubled_v2_dir, monkeypatch):
    from vassiliev import diagrams

    built = []
    build = diagrams._kernel
    monkeypatch.setattr(diagrams, "_kernel", lambda trie: built.append(trie) or build(trie))
    code = parse_gauss_code(TREFOIL)
    for m in (methods(doubled_v2_dir), methods(doubled_v2_dir)):
        for _ in range(2):
            assert [fn(code) for fn in pattern_evaluators(m)] == [2, 1, 1]
    assert len(built) == 2 * len(BUNDLED_PATTERNS)


def test_public_pattern_evaluators_keep_name_and_doc():
    docs = {
        "v2_polyak_viro": "Degree 2 invariant as the signed count of one based two-arrow pattern.",
        "v3_polyak_viro": "Degree 3 invariant from two rotation-summed three-arrow patterns, the second weighted 1/2.",
        "v3_theorem": "Degree 3 invariant as the plain sum of five based three-arrow patterns with unit coefficients.",
    }
    for name, doc in docs.items():
        fn = getattr(invariants, name)
        assert (fn.__name__, " ".join(fn.__doc__.split())) == (name, doc)
    assert v2 is v2_polyak_viro and v3 is v3_theorem


def test_patterns_dir_needs_every_file(doubled_v2_dir):
    (doubled_v2_dir / "v3_pv.pat").unlink()
    with pytest.raises(FileNotFoundError, match="v3_pv.pat"):
        methods(doubled_v2_dir)


def test_report_rule_is_agreement_within_invariant(doubled_v2_dir, trefoil):
    report = invariant_report(trefoil, methods(doubled_v2_dir))
    assert report.values["v2_pv"] == 2 and report.values["v2_lannes"] == 1
    assert report.agreement == {"v2": False, "v3": True}


def test_same_degree_invariants_are_compared_apart(trefoil):
    # a second degree-2 invariant that differs from v2 is no disagreement
    registry = {**INVARIANTS, "u2_lannes": (2, lambda code: 7)}
    report = invariant_report(trefoil, registry)
    assert report.values["u2_lannes"] == 7 and report.values["v2_lannes"] == 1
    assert report.agreement == {"u2": True, "v2": True, "v3": True}
    assert list(report.agreement) == ["u2", "v2", "v3"] and report.consistent


def test_report_evaluates_exactly_the_given_routes(trefoil):
    registry = {name: entry for name, entry in INVARIANTS.items() if name != "v3_pv"}
    report = invariant_report(trefoil, registry)
    assert list(report.values) == [name for name in ROUTES if name != "v3_pv"]
    assert report.agreement == {"v2": True, "v3": True}


# -- committed calibration choices, locked in place ---------------------------

def test_triple_role_convention_is_first_passage(corpus):
    assert surviving_conventions(corpus) == ["first-passage"]


def test_alternative_role_conventions_fail_calibration(trefoil):
    fig8 = parse_gauss_code("O1+ U2- O4- U1+ O3+ U4- O2- U3+")
    assert _transcribed_v3(trefoil, "ordered-averaged").denominator != 1
    assert _transcribed_v3(trefoil, "ordered-unaveraged") == 2
    assert _transcribed_v3(fig8, "ordered-unaveraged") == 1  # wants 0


def test_sign_constants_are_committed():
    assert invariants.V2_SIGN == -1
    assert invariants.V3_SIGN == -1


def test_flipping_v2_sign_breaks_calibration(monkeypatch, trefoil):
    monkeypatch.setattr(invariants, "V2_SIGN", 1)
    assert v2_lannes(trefoil) == -1  # calibration wants +1


def test_flipping_v3_sign_breaks_calibration(monkeypatch, trefoil):
    monkeypatch.setattr(invariants, "V3_SIGN", 1)
    assert v3_lannes(trefoil) == -1  # calibration wants +1


def test_committed_signs_reproduce_calibration_and_agreement(trefoil, corpus):
    assert v2_lannes(trefoil) == 1 and v3_lannes(trefoil) == 1
    for record in corpus:
        assert invariant_report(record.code).consistent


# -- the closed forms against the transcribed sums -----------------------------
#
# The Lannes sums as first transcribed: every pair and triple is weighed,
# then multiplied by its front product and (-1) power, and a triple takes
# its roles by sorting on first passage.

def _transcribed_v2(code) -> Fraction:
    labels = code.crossings
    dl = {l: delta(code, l) for l in labels}
    ep = {l: epsilon(code, l) for l in labels}
    total = 0
    for x, y in combinations(labels, 2):
        weight = w2(chord_subdiagram(code, (x, y)))
        dx, dy = dl[x], dl[y]
        front = dx * (1 - dy) + dy * (1 - dx)
        total += (-1) ** (dx + dy) * weight * ep[x] * ep[y] * front
    return Fraction(invariants.V2_SIGN * total, 2)


def _transcribed_v3(code, convention) -> Fraction:
    labels = code.crossings
    dl = {l: delta(code, l) for l in labels}
    ep = {l: epsilon(code, l) for l in labels}
    first = {l: code.positions(l)[0] for l in labels}

    def summand(weight, x, y, z):
        dx, dy, dz = dl[x], dl[y], dl[z]
        front = dy * (1 - dx) * (1 - dz) - dx * dz * (1 - dy)
        return (-1) ** (dx + dy + dz) * weight * ep[x] * ep[y] * ep[z] * front

    total = 0
    for trip in combinations(labels, 3):
        weight = w3(chord_subdiagram(code, trip))
        if convention == "first-passage":
            total += summand(weight, *sorted(trip, key=first.__getitem__))
        else:
            total += sum(summand(weight, *p) for p in permutations(trip))
    scale = Fraction(1, 12) if convention == "ordered-averaged" else Fraction(1, 2)
    return invariants.V3_SIGN * scale * total


ROLE_CONVENTIONS = ("first-passage", "ordered-averaged", "ordered-unaveraged")


def surviving_conventions(corpus) -> list[str]:
    """The role conventions whose transcribed triple sum gives 0 on the
    unknot, 1 on 3_1 and 0 on 4_1, and agrees with both pattern formulas
    on 5_1 and 5_2; a non-integer value fails."""
    code = {record.name: record.code for record in corpus}
    want = {"unknot": 0, "3_1": 1, "4_1": 0}
    for name in ("5_1", "5_2"):
        thm, pv = v3_theorem(code[name]), v3_polyak_viro(code[name])
        want[name] = thm if thm == pv else None  # no sum agrees with both
    return [
        convention for convention in ROLE_CONVENTIONS
        if all(_transcribed_v3(code[name], convention) == value for name, value in want.items())
    ]


def _agrees(evaluate, want: Fraction) -> None:
    """Equal values, or NonIntegerResult where the transcription is not
    an integer."""
    if want.denominator == 1:
        assert evaluate() == want
    else:
        with pytest.raises(NonIntegerResult):
            evaluate()


@given(st.integers(0, 10 ** 6))
def test_closed_forms_match_the_transcribed_sums(seed):
    code = random_code(random.Random(seed), max_crossings=7)  # mostly virtual
    _agrees(lambda: v2_lannes(code), _transcribed_v2(code))
    _agrees(lambda: v3_lannes(code), _transcribed_v3(code, "first-passage"))


def _closure(seed: int, crossings: int, strands: int = 3):
    """A seeded braid closure that is a knot."""
    rng = random.Random(seed)
    letters = [e for i in range(1, strands) for e in (i, -i)]
    while True:
        word = [rng.choice(letters) for _ in range(crossings)]
        if is_knot(word):
            return braid_closure(word)


def test_closed_forms_match_the_transcribed_sums_on_a_braid_closure():
    code = _closure(3, 40)
    assert len(code.crossings) == 40 and (v2_lannes(code), v3_lannes(code)) == (14, 49)
    # and six more at the sizes of the large-braids benchmark, on 3 and 4
    # strands (a knot needs an even word on 3 strands and an odd one on 4)
    sizes = [(20, 3), (24, 3), (30, 3), (21, 4), (25, 4), (29, 4)]
    more = [_closure(seed, crossings, strands) for seed, (crossings, strands) in enumerate(sizes)]
    assert [len(c.crossings) for c in more] == [crossings for crossings, _ in sizes]
    for code in [code, *more]:
        _agrees(lambda: v2_lannes(code), _transcribed_v2(code))
        _agrees(lambda: v3_lannes(code), _transcribed_v3(code, "first-passage"))


def test_lannes_sums_weigh_only_contributing_tuples(monkeypatch):
    fig8 = parse_gauss_code("O1+ U2- O4- U1+ O3+ U4- O2- U3+")
    assert [delta(fig8, l) for l in fig8.crossings] == [1, 0, 1, 1]
    spanned = {}  # id of each chord_subdiagram result -> its labels
    weighed = []

    def subdiagram(code, labels):
        d = chord_subdiagram(code, labels)
        spanned[id(d)] = tuple(labels)
        return d

    monkeypatch.setattr(invariants, "chord_subdiagram", subdiagram)
    for name in ("w2", "w3"):
        weight = getattr(invariants, name)
        monkeypatch.setattr(invariants, name, lambda d, w=weight: weighed.append(spanned[id(d)]) or w(d))
    for code, values in ((fig8, (-1, 0)), (_closure(60, 60), (4, 4))):
        weighed.clear()
        assert (v2_lannes(code), v3_lannes(code)) == values
        dl = {l: delta(code, l) for l in code.crossings}
        first = {l: code.positions(l)[0] for l in code.crossings}
        pairs = [t for t in weighed if len(t) == 2]
        triples = [sorted(t, key=first.__getitem__) for t in weighed if len(t) == 3]
        # only contributing tuples are weighed: pairs with dx != dy, and
        # triples, in first-passage order, with dx = dz != dy
        assert all(dl[x] != dl[y] for x, y in pairs)
        assert all(dl[x] == dl[z] != dl[y] for x, y, z in triples)
        # and each class of tuples with the same chords crossing only once
        assert len(pairs) == 1 and 1 <= len(triples) <= 4

        def crosses(p, q):
            (a1, a2), (b1, b2) = code.positions(p), code.positions(q)
            return (a1 < b1 < a2) != (a1 < b2 < a2)

        pair_classes = {crosses(x, y) for x, y in pairs}
        triple_classes = {(crosses(x, z), crosses(x, y), crosses(y, z)) for x, y, z in triples}
        assert len(pair_classes) == len(pairs) and len(triple_classes) == len(triples)
        # no class with an isolated chord is weighed: every pair crosses, and
        # in every triple at least two of the three pairs cross
        assert pair_classes == {True}
        assert all(sum(flags) >= 2 for flags in triple_classes)


def test_weight_systems_vanish_exactly_where_a_chord_is_isolated():
    # the Lannes sums skip the classes with an isolated chord: w2 and w3 are 0
    # on every diagram that has one, and nonzero on every diagram that has none
    for degree, w in ((2, w2), (3, w3)):
        for d in weights.enumerate_chord_diagrams(degree):
            isolated = any(weights._isolated(d, i) for i in range(degree))
            assert (w(d) == 0) == isolated, weights.chord_word(d)


def test_report_builds_the_shared_diagram_in_its_first_reader(monkeypatch, trefoil):
    events = []
    build = invariants.arrow_diagram_from_code
    monkeypatch.setattr(invariants, "arrow_diagram_from_code", lambda code: events.append("build") or build(code))
    registry = {
        name: (degree, lambda code, fn=fn, name=name: events.append(name) or fn(code))
        for name, (degree, fn) in INVARIANTS.items()
    }
    assert invariant_report(trefoil, registry).consistent
    # one build, inside v2_pv, the first route that reads the diagram
    assert ROUTES[:2] == ("v2_lannes", "v2_pv")
    assert events == [*ROUTES[:2], "build", *ROUTES[2:]]


def test_routes_agree_on_a_large_braid_closure():
    code = _closure(160, 160)
    report = invariant_report(code)
    assert len(code.crossings) == 160 and report.consistent
    assert report.values["v3_pv"] == report.values["v3_thm"] == report.values["v3_lannes"] == -186


def test_pattern_routes_share_one_arrow_diagram_per_code(monkeypatch, corpus, doubled_v2_dir):
    built = []
    build = invariants.arrow_diagram_from_code
    monkeypatch.setattr(invariants, "arrow_diagram_from_code", lambda code: built.append(code) or build(code))
    codes = [parse_gauss_code(format_code(record.code)) for record in corpus]
    for registry, scale in ((INVARIANTS, 1), (methods(doubled_v2_dir), 2)):
        for code in codes + codes[::-1]:
            values = invariant_report(code, registry).values
            # each code is counted in its own diagram
            assert values["v2_pv"] == scale * values["v2_lannes"]
            assert values["v3_pv"] == values["v3_thm"] == values["v3_lannes"]
    # one build per code object, across both passes and both registries
    assert [id(code) for code in built] == [id(code) for code in codes]
    # an equal code that is another object builds its own diagram
    copy = parse_gauss_code(format_code(code))
    built.clear()
    assert invariant_report(copy, registry).values == values
    assert copy == code and len(built) == 1 and built[0] is copy


def test_reuse_does_not_depend_on_call_order(monkeypatch, corpus, trefoil):
    built = []
    for name in ("_table", "arrow_diagram_from_code"):
        build = getattr(invariants, name)
        monkeypatch.setattr(invariants, name, lambda code, b=build, name=name: built.append((name, id(code))) or b(code))
    a, b = trefoil, parse_gauss_code(format_code(corpus[3].code))
    assert [invariant_report(code).consistent for code in (a, b, a)] == [True] * 3
    # a's parts are kept on a while b is evaluated, so a builds none again
    assert sorted(built) == sorted((name, id(code)) for name in ("_table", "arrow_diagram_from_code") for code in (a, b))


def test_a_report_leaves_the_code_equal_to_a_fresh_parse(trefoil):
    invariant_report(trefoil)
    fresh = parse_gauss_code(TREFOIL)
    assert trefoil == fresh and hash(trefoil) == hash(fresh) and repr(trefoil) == repr(fresh)


def test_report_builds_one_crossing_table_in_its_first_reader(monkeypatch):
    events = []
    for name in ("delta", "epsilon"):
        coordinate = getattr(invariants, name)
        monkeypatch.setattr(invariants, name, lambda code, label, f=coordinate, name=name: events.append(name) or f(code, label))
    registry = {
        name: (degree, lambda code, fn=fn, name=name: events.append(name) or fn(code))
        for name, (degree, fn) in INVARIANTS.items()
    }
    code = _closure(12, 12)
    invariant_report(code, registry)
    # one delta and one epsilon per crossing, all inside v2_lannes, the
    # first route that reads the table
    n = len(code.crossings)
    assert events[0] == ROUTES[0] == "v2_lannes"
    assert sorted(events[1:2 * n + 1]) == ["delta"] * n + ["epsilon"] * n
    assert events[2 * n + 1:] == list(ROUTES[1:])


def test_an_equal_code_builds_its_own_crossing_table(monkeypatch, trefoil):
    built = []
    build = invariants._table
    monkeypatch.setattr(invariants, "_table", lambda code: built.append(code) or build(code))
    assert (v2_lannes(trefoil), v3_lannes(trefoil), v3_lannes(trefoil)) == (1, 1, 1)
    copy = parse_gauss_code(format_code(trefoil))
    assert v3_lannes(copy) == 1
    assert copy == trefoil and [id(code) for code in built] == [id(trefoil), id(copy)]


def test_a_lone_route_builds_only_what_it_reads(monkeypatch, trefoil):
    built = []
    for name in ("_table", "arrow_diagram_from_code"):
        build = getattr(invariants, name)
        monkeypatch.setattr(invariants, name, lambda code, b=build, name=name: built.append(name) or b(code))
    assert v3_theorem(trefoil) == 1 and built == ["arrow_diagram_from_code"]
    copy = parse_gauss_code(TREFOIL)
    built.clear()
    assert v3_lannes(copy) == 1 and built == ["_table"]
