"""The plain record types are NamedTuples: fields, defaults, repr,
equality, hashing and immutability are part of their contract."""

from fractions import Fraction

import pytest

from vassiliev.codes import Diagnostic, DoublePointPassage, KnotRecord, Passage, parse_gauss_code
from vassiliev.coordinates import CrossingCoordinates
from vassiliev.diagrams import Arrow, ChordDiagram, Pattern, PatternTerm
from vassiliev.expansion import ExpansionReport, ExpansionTerm, ResidualRow, SolvedProbe, SolveReport
from vassiliev.invariants import InvariantReport
from vassiliev.weights import FourTermQuadruple, RelationReport, WeightSystem, four_term_quadruples

from conftest import TREFOIL

ROW = ResidualRow("v2", "3_1", Fraction(0))
PROBE = SolvedProbe("v3", {"3_1": Fraction(1)}, False, "(1)*[3_1@1] forces 0 = 1")

# (type, its fields in order, one instance's field values)
RECORDS = [
    (Passage, ("label", "role", "sign"), ("1", "O", 1)),
    (DoublePointPassage, ("label", "visit"), ("1", "a")),
    (Diagnostic, ("kind", "label", "message"), ("SignMismatch", "1", "crossing 1 carries both signs")),
    (KnotRecord, ("name", "code", "expected"), ("3_1", parse_gauss_code(TREFOIL), {"v2": Fraction(1)})),
    (CrossingCoordinates, ("label", "delta", "epsilon"), ("1", 1, -1)),
    (Arrow, ("tail", "head", "sign"), (0, 3, 1)),
    (PatternTerm, ("coeff", "bracket", "pattern"), (Fraction(1, 2), True, Pattern(((0, 1),)))),
    (WeightSystem, ("degree", "table", "name"), (1, {ChordDiagram(((0, 1),)): Fraction(0)}, "w1")),
    (FourTermQuadruple, ("diagrams",), (four_term_quadruples(2)[0].diagrams,)),
    (RelationReport, ("one_term_ok", "four_term_ok", "violations"), (False, True, ("1T: 1 1 -> 1",))),
    (InvariantReport, ("values", "agreement"), ({"v2_lannes": 1, "v2_pv": 1}, {"v2": True})),
    (ExpansionTerm, ("coeff", "knot"), ({"v2": Fraction(1)}, "3_1")),
    (ResidualRow, ("probe", "knot", "residual"), ("v2", "3_1", Fraction(0))),
    (ExpansionReport, ("rows",), ((ROW,),)),
    (SolvedProbe, ("probe", "values", "consistent", "certificate"), PROBE),
    (SolveReport, ("probes",), ((PROBE,),)),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_fields_keep_their_names_and_order(cls, fields, values):
    record = cls(*values)
    assert cls._fields == fields
    assert tuple(getattr(record, f) for f in fields) == tuple(values)
    assert record._asdict() == dict(zip(fields, values))
    assert cls(**dict(zip(fields, values))) == record


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, fields, values):
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(cls(*values)) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_equality_and_hash_go_by_value(cls, fields, values):
    a, b = cls(*values), cls(*values)
    assert a == b and a == tuple(values)
    assert a._replace(**{fields[-1]: "other"}) != a
    if _hashable(a):
        assert hash(a) == hash(b) == hash(tuple(values))


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(cls, fields, values):
    record = cls(*values)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, None)
    with pytest.raises(AttributeError):
        record.extra = None  # no instance __dict__ to hold it


def test_defaults():
    code = parse_gauss_code(TREFOIL)
    assert KnotRecord("3_1", code).expected is None
    assert WeightSystem(2, {}).name == ""
    assert [cls._field_defaults for cls in (KnotRecord, WeightSystem)] == [{"expected": None}, {"name": ""}]
    assert all(not cls._field_defaults for cls, _, _ in RECORDS if cls not in (KnotRecord, WeightSystem))


def test_four_term_signs_are_a_class_attribute_not_a_field():
    quad = four_term_quadruples(2)[0]
    assert FourTermQuadruple.signs == quad.signs == (1, -1, 1, -1)
    assert "signs" not in FourTermQuadruple._fields and len(quad) == 1
