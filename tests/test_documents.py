import json
from fractions import Fraction

import pytest

from rrmf.catalog import quintic_right_cancellation
from rrmf.documents import (MAX_DEGREE, MAX_DIGITS, DocumentError,
                            document_for, document_to_dict, dumps_document,
                            parse_document)
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


def test_degree_bound():
    def doc(rows, a=("1",), b=("0",)):
        return json.dumps({"sqrt_base": 0, "kind": "quaternion", "coefficients": rows,
                           "certificate": {"a": list(a), "b": list(b)}})

    row = ["1", "0", "0", "1"]
    at_bound = parse_document(doc([row] * (MAX_DEGREE + 1), a=["1"] * (MAX_DEGREE + 1),
                                  b=["2"] * (MAX_DEGREE + 1)))
    assert at_bound.to_poly().degree() == MAX_DEGREE
    assert [c.degree() for c in at_bound.certificate] == [MAX_DEGREE, MAX_DEGREE]
    above = ["1"] * (MAX_DEGREE + 2)
    for text, what in ((doc([row] * (MAX_DEGREE + 2)), "coefficients"),
                       (doc([row], a=above), "certificate a"),
                       (doc([row], b=above), "certificate b")):
        with pytest.raises(DocumentError, match=f"^{what}: at most {MAX_DEGREE + 1} "):
            parse_document(text)
    for cert in ({"a": "12", "b": ["1"]}, {"a": ["1"], "b": 7}):
        bad = {"sqrt_base": 0, "kind": "real", "coefficients": ["1"], "certificate": cert}
        with pytest.raises(DocumentError, match="certificate must be"):
            parse_document(json.dumps(bad))


def test_digit_bound():
    def doc(scalar, base=0, cert=("1",)):
        return json.dumps({"sqrt_base": base, "kind": "quaternion",
                           "coefficients": [["1", "0", "0", "0"], ["0", "0", scalar, "0"]],
                           "certificate": {"a": list(cert), "b": ["0"]}})

    n = "9" * MAX_DIGITS
    at_bound = parse_document(doc(f"-{n}/{n[:-1]}8+{n}/7*sqrt(15)", base=15, cert=[n]))
    assert at_bound.coefficients[1][2].a == Fraction(-int(n), int(n) - 1)
    assert at_bound.certificate[0].coeff(0) == int(n)
    over = "1" + "0" * MAX_DIGITS
    for text in (doc(over), doc(f"1/{over}"), doc(f"1+{over}*sqrt(15)", base=15),
                 doc(f"1+1/{over}*sqrt(15)", base=15), doc("1", cert=[over])):
        with pytest.raises(DocumentError, match=f"at most {MAX_DIGITS} digits"):
            parse_document(text)
    # an integer literal too long for Python to convert is a parse error too
    literal = '{"sqrt_base": 0, "kind": "real", "coefficients": [%s]}' % ("1" * 5000)
    with pytest.raises(DocumentError, match="invalid JSON"):
        parse_document(literal)
