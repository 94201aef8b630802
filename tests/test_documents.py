import json

import pytest

from rrmf.catalog import quintic_right_cancellation
from rrmf.documents import (DocumentError, document_for, document_to_dict,
                            dumps_document, parse_document)
from rrmf.polynomials import QuatPoly, RealPoly
from rrmf.quaternions import Quaternion
from rrmf.scalars import Scalar

from conftest import rand_cpoly, rand_qpoly, rand_rpoly


def round_trip(doc):
    return parse_document(dumps_document(doc))


def test_quaternion_round_trip(rng):
    for _ in range(25):
        poly = rand_qpoly(rng, rng.randint(0, 3))
        doc = document_for(poly)
        back = round_trip(doc)
        assert back == doc
        assert back.to_poly() == poly


def test_complex_and_real_round_trip(rng):
    for _ in range(25):
        cpoly = rand_cpoly(rng, 2)
        assert round_trip(document_for(cpoly)).to_poly() == cpoly
        rpoly = rand_rpoly(rng, 3)
        assert round_trip(document_for(rpoly)).to_poly() == rpoly


def test_surd_document():
    poly = quintic_right_cancellation().generator
    doc = document_for(poly, certificate=quintic_right_cancellation().certificate)
    assert doc.sqrt_base == 15
    back = round_trip(doc)
    assert back.to_poly() == poly
    assert back.certificate == doc.certificate


def test_certificate_round_trip():
    poly = QuatPoly([Quaternion(1), Quaternion(0, 1)])
    cert = (RealPoly([1]), RealPoly([0, 1]))
    doc = document_for(poly, certificate=cert, metadata={"name": "line"})
    back = round_trip(doc)
    assert back.certificate == cert
    assert back.metadata == {"name": "line"}


def test_parse_errors():
    good = {"sqrt_base": 0, "kind": "quaternion",
            "coefficients": [["1", "0", "0", "0"]]}
    parse_document(json.dumps(good))
    for mutate in (
            {"kind": "octonion"},
            {"sqrt_base": 4},
            {"sqrt_base": "15"},
            {"coefficients": []},
            {"coefficients": [["1", "0", "0"]]},
            {"coefficients": [["1.5", "0", "0", "0"]]},
            {"coefficients": [["1", "0", "0", "sqrt(7)"]]},  # base mismatch
            {"coefficients": [["1/0", "0", "0", "0"]]},
            {"certificate": {"a": ["1"], "b": ["1/0"]}},
            {"certificate": {"a": ["1"]}},
            {"metadata": 7},
    ):
        bad = dict(good, **mutate)
        with pytest.raises(DocumentError):
            parse_document(json.dumps(bad))
    with pytest.raises(DocumentError):
        parse_document("{not json")
    with pytest.raises(DocumentError):
        parse_document(json.dumps([1, 2]))


def test_mixed_bases_rejected_on_serialize():
    poly = QuatPoly([Quaternion(Scalar(0, 1, 2)), Quaternion(Scalar(0, 1, 15))])
    with pytest.raises(DocumentError):
        document_for(poly)


def test_document_dict_shape():
    doc = document_for(QuatPoly([Quaternion(1)]))
    data = document_to_dict(doc)
    assert data["kind"] == "quaternion"
    assert data["coefficients"] == [["1/1", "0/1", "0/1", "0/1"]]
    assert "certificate" not in data
