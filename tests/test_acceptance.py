"""The release gate: one test per criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines; every
comparison is exact, no tolerances anywhere.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

from vassiliev import (
    arrow_diagram_from_code,
    bundled_expansion,
    bundled_knot_table,
    check_expansion,
    check_relations,
    coordinate_table,
    count_matches,
    enumerate_chord_diagrams,
    invariant_report,
    mirror,
    parse_gauss_code,
    random_perturbations,
    rotate_basepoint,
    solve_basis_values,
    v2,
    v2_lannes,
    v2_polyak_viro,
    v3,
    v3_lannes,
    v3_polyak_viro,
    v3_theorem,
    w2,
    w3,
    weight_from_invariant,
    weight_system_from_function,
)
from vassiliev import invariants
from vassiliev.weights import chord_word

from conftest import TREFOIL
from test_diagrams import bundled_patterns, oracle_count, random_diagram
from test_invariants import surviving_conventions
from test_weights import W2_TABLE, W3_TABLE

METHODS = (v2_lannes, v2_polyak_viro, v3_lannes, v3_polyak_viro, v3_theorem)


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number:2d}: {text}")
        raise
    print(f"PASS criterion {number:2d}: {text}")


def check_calibration():
    empty = parse_gauss_code("")
    trefoil = parse_gauss_code(TREFOIL)
    for fn in METHODS:
        assert fn(empty) == 0
        assert fn(trefoil) == 1


def check_method_agreement(perturbations=200, seed=0):
    corpus = bundled_knot_table()
    assert len(corpus) >= 6
    baseline = {}
    for record in corpus:
        report = invariant_report(record.code)
        assert report.consistent, record.name
        baseline[record.name] = report.values
        for k in range(1, len(record.code.passages)):
            rotated = invariant_report(rotate_basepoint(record.code, k))
            assert rotated.values == baseline[record.name], (record.name, k)
    rng = random.Random(seed)
    for i in range(perturbations):
        record = corpus[i % len(corpus)]
        perturbed = random_perturbations(record.code, 1, rng)[0]
        report = invariant_report(perturbed)
        assert report.values == baseline[record.name], (record.name, i)


def test_criterion_01_calibration():
    with criterion(1, "every method gives 0 on the unknot and 1 on the trefoil"):
        check_calibration()


def test_criterion_02_coordinates():
    with criterion(2, "trefoil coordinates are delta=(1,0,1), epsilon=(+1,+1,+1)"):
        table = coordinate_table(parse_gauss_code(TREFOIL))
        assert tuple(c.delta for c in table) == (1, 0, 1)
        assert tuple(c.epsilon for c in table) == (1, 1, 1)


def test_criterion_03_weight_tables():
    with criterion(3, "w2 and w3 match their stated tables on all 3 and 15 diagrams"):
        assert {chord_word(d): w2(d) for d in enumerate_chord_diagrams(2)} == W2_TABLE
        assert {chord_word(d): w3(d) for d in enumerate_chord_diagrams(3)} == W3_TABLE


def test_criterion_04_relations():
    with criterion(4, "w2, w3 pass 1T and 4T exhaustively; constant-1 fails 1T"):
        for fn, n in ((w2, 2), (w3, 3)):
            report = check_relations(weight_system_from_function(fn, n, f"w{n}"))
            assert report.one_term_ok and report.four_term_ok
        control = check_relations(weight_system_from_function(lambda d: 1, 2, "one"))
        assert not control.one_term_ok


def test_criterion_05_derived_weight_systems():
    with criterion(5, "invariant-derived weight systems reproduce w2, w3, and vanish low"):
        from_v2 = weight_from_invariant({"v2": v2}, 2)["v2"]
        assert all(from_v2.evaluate(d) == w2(d) for d in enumerate_chord_diagrams(2))
        from_v3 = weight_from_invariant({"v3": v3_theorem}, 3)["v3"]
        assert all(from_v3.evaluate(d) == w3(d) for d in enumerate_chord_diagrams(3))
        low = weight_from_invariant({"v2": v2}, 3)["v2"]
        assert all(low.evaluate(d) == 0 for d in enumerate_chord_diagrams(3))


def test_criterion_06_method_agreement():
    with criterion(6, "methods agree on fixtures, all rotations, 200 perturbations"):
        check_method_agreement(perturbations=200, seed=0)


def test_criterion_07_mirror_symmetry():
    with criterion(7, "v2 is mirror-even and v3 mirror-odd across the corpus"):
        for record in bundled_knot_table():
            flipped = mirror(record.code)
            assert v2(flipped) == v2(record.code), record.name
            assert v3(flipped) == -v3(record.code), record.name


def test_criterion_08_expansions():
    with criterion(8, "expansion residuals vanish and the solve recovers (-1, 0)"):
        corpus = bundled_knot_table()
        assert check_expansion(bundled_expansion(2), ["v2"], corpus).all_zero
        assert check_expansion(bundled_expansion(3), ["v2", "v3"], corpus).all_zero
        solved = solve_basis_values(bundled_expansion(3), ["v2", "v3"], corpus)
        values = {p.probe: dict(p.values) for p in solved.probes}
        assert values["v2"]["4_1"] == Fraction(-1)
        assert values["v3"]["4_1"] == Fraction(0)


def test_criterion_09_matcher_oracle():
    with criterion(9, "matcher equals brute force on fixtures and 500 random diagrams"):
        patterns = bundled_patterns()
        for record in bundled_knot_table():
            diagram = arrow_diagram_from_code(record.code)
            for pattern in patterns:
                assert count_matches(pattern, diagram) == oracle_count(pattern, diagram)
        rng = random.Random(20240)
        for _ in range(500):
            diagram = random_diagram(rng, max_arrows=8)
            for pattern in patterns:
                assert count_matches(pattern, diagram) == oracle_count(pattern, diagram)


def test_criterion_10_committed_choices_guarded(monkeypatch):
    with criterion(10, "sign and role-convention commitments reproduce criteria 1 and 6"):
        assert invariants.V2_SIGN == -1 and invariants.V3_SIGN == -1
        assert surviving_conventions(bundled_knot_table()) == ["first-passage"]
        trefoil = parse_gauss_code(TREFOIL)
        with monkeypatch.context() as flip:
            flip.setattr(invariants, "V2_SIGN", 1)
            assert v2_lannes(trefoil) != 1
        with monkeypatch.context() as flip:
            flip.setattr(invariants, "V3_SIGN", 1)
            assert v3_lannes(trefoil) != 1
        check_calibration()
        check_method_agreement(perturbations=200, seed=0)
