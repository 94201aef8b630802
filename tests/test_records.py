"""The library's records, all named tuples.

Each record keeps the field order, defaults, repr text, value equality,
hash and immutability it had as a frozen dataclass (Classification,
then mutable and unhashable, gains the last two; PolyDocument, then a
plain class, gains the hash of a document that holds no dict).  That
importing the library imports neither dataclasses nor inspect is
checked with numpy in test_cli.py::test_no_verb_imports_numpy.
"""

import pytest

from rrmf.catalog import RegressionItem, WorkedCurve
from rrmf.classify import Classification, Membership, ReducedForm
from rrmf.construct import FElement, QuarticResult
from rrmf.documents import PolyDocument
from rrmf.frames import SymbolicFrame
from rrmf.hodograph import CoreDecomposition, CurvePosition, TrivialWitness
from rrmf.indicatrix import RhoEta

# each record built from 0, 1, ... for its required fields: the fields in
# order, the defaults, and the repr text it printed as a dataclass
RECORDS = [
    (Membership, ("status", "method", "certificate"), {"certificate": None},
     "Membership(status=0, method=1, certificate=None)"),
    (Classification, ("in_widetilde", "in_f0", "trivial", "planar", "primitive",
                      "core_degree", "membership", "notes"), {"notes": ""},
     "Classification(in_widetilde=0, in_f0=1, trivial=2, planar=3, primitive=4, "
     "core_degree=5, membership=6, notes='')"),
    (ReducedForm, ("result", "vanishing"), {}, "ReducedForm(result=0, vanishing=1)"),
    (CurvePosition, ("x", "y", "z", "arclen"), {},
     "CurvePosition(x=0, y=1, z=2, arclen=3)"),
    (CoreDecomposition, ("core", "factor"), {}, "CoreDecomposition(core=0, factor=1)"),
    (TrivialWitness, ("left_factor", "direction", "direction_norm_sq"), {},
     "TrivialWitness(left_factor=0, direction=1, direction_norm_sq=2)"),
    (RhoEta, ("rho", "eta", "divisible"), {}, "RhoEta(rho=0, eta=1, divisible=2)"),
    (SymbolicFrame, ("denominator", "images"), {},
     "SymbolicFrame(denominator=0, images=1)"),
    (QuarticResult, ("poly", "non_trivial", "family_dim"), {},
     "QuarticResult(poly=0, non_trivial=1, family_dim=2)"),
    (FElement, ("poly", "certificate"), {}, "FElement(poly=0, certificate=1)"),
    (WorkedCurve, ("name", "generator", "certificate", "hodograph", "sigma",
                   "fraction_num", "fraction_den", "left_gcd", "right_gcd"), {},
     "WorkedCurve(name=0, generator=1, certificate=2, hodograph=3, sigma=4, "
     "fraction_num=5, fraction_den=6, left_gcd=7, right_gcd=8)"),
    (RegressionItem, ("name", "passed", "detail"), {"detail": ""},
     "RegressionItem(name=0, passed=1, detail='')"),
    (PolyDocument, ("sqrt_base", "kind", "poly", "length", "certificate", "metadata"),
     {"certificate": None, "metadata": None},
     "PolyDocument(sqrt_base=0, kind=1, poly=2, length=3, certificate=None, metadata=None)"),
]


@pytest.mark.parametrize("cls, fields, defaults, text", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_keeps_its_dataclass_behaviour(cls, fields, defaults, text):
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    values = tuple(range(len(fields) - len(defaults)))
    record = cls(*values)
    full = values + tuple(defaults.values())
    assert repr(record) == text
    assert record == cls(*full) and hash(record) == hash(cls(*full)) == hash(full)
    assert record != cls(*values[:-1], -1, *defaults.values())
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, -1)
    assert record == cls(*full)


def test_poly_document_keeps_its_dataclass_behaviour():
    assert PolyDocument._fields == ("sqrt_base", "kind", "poly", "length",
                                    "certificate", "metadata")
    doc = PolyDocument(0, "real", 2, 3, None, {})
    assert repr(doc) == ("PolyDocument(sqrt_base=0, kind='real', poly=2, length=3, "
                         "certificate=None, metadata={})")
    assert doc == PolyDocument(0, "real", 2, 3, None, {})
    assert doc != PolyDocument(0, "real", 2, 3, None, {"x": 1})
    # a document that holds a dict is unhashable, as every document was
    with pytest.raises(TypeError):
        hash(doc)
    for name in PolyDocument._fields:
        with pytest.raises(AttributeError):
            setattr(doc, name, -1)
        with pytest.raises(AttributeError):
            delattr(doc, name)
    assert doc.kind == "real"
