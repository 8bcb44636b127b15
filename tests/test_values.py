"""The six value classes that validate or cache: construction, repr,
equality, hashing, immutability, validation errors and cached parts are
part of their contract."""

import copy
import pickle
from fractions import Fraction

import pytest

from vassiliev import invariant_report
from vassiliev.codes import GaussCode, SingularCode, parse_gauss_code, parse_singular_code
from vassiliev.diagrams import ChordDiagram, Pattern, PatternExpression, PatternTerm
from vassiliev.errors import UnbalancedLabel, VassilievError
from vassiliev.expansion import Expansion, ExpansionTerm

from conftest import TREFOIL

TERM = PatternTerm(Fraction(-1, 2), True, Pattern(((0, 1),)))

# (type, its fields in order, one instance's field values, all hashable)
VALUES = [
    (GaussCode, ("passages",), (parse_gauss_code(TREFOIL).passages,)),
    (SingularCode, ("passages",), (parse_singular_code("X1a O2+ X1b U2+").passages,)),
    (Pattern, ("arrows",), (((2, 0), (1, 3)),)),
    (ChordDiagram, ("chords",), (((0, 1), (2, 3)),)),
    (PatternExpression, ("terms",), ((TERM,),)),
    (Expansion, ("degree", "terms"), (2, ())),
]
IDS = [cls.__name__ for cls, _, _ in VALUES]


@pytest.mark.parametrize("cls, fields, values", VALUES, ids=IDS)
def test_fields_keep_their_names_and_order(cls, fields, values):
    value = cls(*values)
    assert tuple(getattr(value, f) for f in fields) == values
    assert cls(**dict(zip(fields, values))) == value


def test_codes_default_to_the_unknot():
    assert GaussCode().passages == SingularCode().passages == ()
    assert GaussCode() == GaussCode(()) == parse_gauss_code("")


@pytest.mark.parametrize("cls, fields, values", VALUES, ids=IDS)
def test_repr_names_every_field(cls, fields, values):
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(cls(*values)) == f"{cls.__name__}({shown})"


def test_repr_text():
    assert repr(ChordDiagram(((3, 2), (1, 0)))) == "ChordDiagram(chords=((0, 1), (2, 3)))"
    assert repr(Pattern(((1, 3), (2, 0)))) == "Pattern(arrows=((2, 0), (1, 3)))"
    assert repr(GaussCode()) == "GaussCode(passages=())"
    assert repr(parse_singular_code("X1a X1b")) == (
        "SingularCode(passages=(DoublePointPassage(label='1', visit='a'), DoublePointPassage(label='1', visit='b')))"
    )
    assert repr(PatternExpression((TERM,))) == (
        "PatternExpression(terms=(PatternTerm(coeff=Fraction(-1, 2), bracket=True, pattern=Pattern(arrows=((0, 1),))),))"
    )
    expansion = Expansion(3, (ExpansionTerm({"v3": Fraction(1)}, "3_1"),))
    assert repr(expansion) == "Expansion(degree=3, terms=(ExpansionTerm(coeff={'v3': Fraction(1, 1)}, knot='3_1'),))"


@pytest.mark.parametrize("cls, fields, values", VALUES, ids=IDS)
def test_equality_goes_by_class_and_value(cls, fields, values):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    assert a != values and a.__eq__(values) is NotImplemented
    assert a != values[0] and a != object()


def test_equal_passages_in_two_code_classes_are_unequal():
    passages = parse_gauss_code(TREFOIL).passages
    assert GaussCode(passages) != SingularCode(passages)
    assert GaussCode(passages).__eq__(SingularCode(passages)) is NotImplemented
    assert len({GaussCode(passages), SingularCode(passages)}) == 2


def test_a_changed_field_breaks_equality():
    assert ChordDiagram(((0, 1), (2, 3))) != ChordDiagram(((0, 2), (1, 3)))
    assert Expansion(2, ()) != Expansion(3, ())
    assert parse_gauss_code(TREFOIL) != GaussCode()


@pytest.mark.parametrize("cls, fields, values", VALUES, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(cls, fields, values):
    # so no set or dict keyed by these values changes its order
    assert hash(cls(*values)) == hash(cls(*values)) == hash(values)


def test_an_expansion_with_dict_coefficients_is_unhashable():
    with pytest.raises(TypeError):
        hash(Expansion(3, (ExpansionTerm({"v3": Fraction(1)}, "3_1"),)))


@pytest.mark.parametrize("cls, fields, values", VALUES, ids=IDS)
def test_no_attribute_can_be_assigned_or_deleted(cls, fields, values):
    value = cls(*values)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, f) for f in fields) == values


@pytest.mark.parametrize("cls, fields, values", VALUES, ids=IDS)
def test_copies_and_pickles_are_equal(cls, fields, values):
    value = cls(*values)
    assert copy.copy(value) == copy.deepcopy(value) == pickle.loads(pickle.dumps(value)) == value


def test_validation_errors_are_unchanged():
    with pytest.raises(UnbalancedLabel, match=r"^endpoint positions \[0, 1, 2, 4\] must be exactly 0\.\.3$"):
        ChordDiagram(((0, 2), (1, 4)))
    with pytest.raises(UnbalancedLabel, match=r"^endpoint positions \[0, 0\] must be exactly 0\.\.1$"):
        Pattern(((0, 0),))
    term = ExpansionTerm({"v2": Fraction(1)}, "3_1")
    with pytest.raises(VassilievError, match=r"^basis knot '3_1' is named by 2 terms$"):
        Expansion(2, (term, term))
    with pytest.raises(VassilievError, match=r"^basis knot '3_1' is named by 2 terms$"):
        Expansion(degree=2, terms=(term, ExpansionTerm({"v2": Fraction(2)}, "4_1"), term))


def test_construction_normalizes_the_fields():
    assert ChordDiagram(chords=((3, 2), (1, 0))).chords == ((0, 1), (2, 3))
    assert Pattern(arrows=((1, 3), (2, 0))).arrows == ((2, 0), (1, 3))
    assert ChordDiagram(((3, 2), (1, 0))) == ChordDiagram(((0, 1), (2, 3)))


def test_a_code_keeps_its_cached_parts_in_its_instance_dict():
    code = parse_gauss_code(TREFOIL)
    ends, faces = code.ends, code.faces
    invariant_report(code)
    assert vars(code)["ends"] is ends and code.ends is ends
    assert vars(code)["faces"] is faces and code.faces is faces
    assert "_parts" in vars(code)


def test_pattern_kernels_and_denominators_are_cached():
    pattern = Pattern(((0, 1),))
    expr = PatternExpression((TERM, PatternTerm(Fraction(1, 3), False, pattern)))
    assert pattern.kernel is pattern.kernel and "kernel" in vars(pattern)
    assert expr.denominator == 6 and expr.kernel is expr.kernel
    assert {"denominator", "kernel"} <= set(vars(expr))
