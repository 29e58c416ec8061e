"""The immutable records: frozen, compared and hashed by value, picklable
(the pooled battery sends reports between processes), and built by
keyword as well as by position."""

import pickle
from fractions import Fraction as F

import pytest

from gfano.d3 import D3Operator
from gfano.mathieu import (
    FixedPointEntry,
    FrameShape,
    HeckeReport,
    frobenius_mukai_check,
    hecke_eigenform_check,
)
from gfano.periods import FamilyDescriptor, RelationReport, _even_substitution
from gfano.verify import IdentityReport, verify_identity

#: Each record type with a function that builds a fresh instance of it.
MAKERS = {
    D3Operator: lambda: D3Operator(6, 368, 88, 1056, 3584),
    FamilyDescriptor: lambda: FamilyDescriptor(
        "Y30", 15, 30, 3, 1, None, None, 3, "15A", "15+", "L15"),
    RelationReport: lambda: _even_substitution("Y48_2", 6),
    IdentityReport: lambda: verify_identity("Y24", 4, 7, 6),
    FrameShape: lambda: FrameShape.parse("1^2 2^2 3^2 6^2"),
    FixedPointEntry: lambda: frobenius_mukai_check()["entries"][5],
    HeckeReport: lambda: hecke_eigenform_check(FrameShape.parse("1^24"), 12, 5),
}
IDS = [cls.__name__ for cls in MAKERS]
RECORDS = pytest.mark.parametrize("make", MAKERS.values(), ids=IDS)
BY_TYPE = pytest.mark.parametrize("cls,make", MAKERS.items(), ids=IDS)

#: Field order, which positional construction and unpacking rely on.
FIELDS = {
    D3Operator: "b1 b2 b3 b4 b5",
    FamilyDescriptor: "key N degree rho index shift constant formula_shift "
                      "hauptmodul eta d3_operator",
    RelationReport: "name order ok first_mismatch lhs rhs",
    IdentityReport: "name family s c order ok first_mismatch",
    FrameShape: "counts",
    FixedPointEntry: "shape order fixed_points epsilon cycles iota ok",
    HeckeReport: "shape weight level bound prime_bound multiplicative_pairs "
                 "recursion_checks character_note violations",
}


@RECORDS
def test_fields_cannot_be_assigned(make):
    record = make()
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


@RECORDS
def test_equal_fields_compare_and_hash_alike(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


@BY_TYPE
def test_field_order_and_keyword_construction(cls, make):
    record = make()
    assert record._fields == tuple(FIELDS[cls].split())
    assert cls(**record._asdict()) == record


@BY_TYPE
def test_pickle_round_trip(cls, make):
    record = make()
    back = pickle.loads(pickle.dumps(record))
    assert type(record) is cls and type(back) is cls
    assert back == record


def test_d3_operator_stores_fractions():
    op = D3Operator(6, 368, 88, 1056, 3584)
    assert type(op.b1) is F and op.b1 == 6
    assert all(type(b) is F for b in op)
    assert D3Operator(b1=6, b2=368, b3=88, b4=1056, b5=F(3584)) == op
    assert type(pickle.loads(pickle.dumps(op)).b5) is F


def test_d3_operator_refuses_floats():
    with pytest.raises(TypeError):
        D3Operator(6.0, 368, 88, 1056, 3584)
