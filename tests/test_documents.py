import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrmf.catalog import quintic_right_cancellation
from rrmf.documents import (KINDS, MAX_DEGREE, MAX_DIGITS, DocumentError,
                            document_for, document_to_dict, dumps_document,
                            parse_document)
from rrmf.polynomials import QuatPoly, RealPoly
from rrmf.quaternions import Quaternion
from rrmf.scalars import Scalar, SurdBaseMismatch

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
    # one polynomial cannot hold two surd bases: it is rejected when built
    with pytest.raises(SurdBaseMismatch):
        QuatPoly([Quaternion(Scalar(0, 1, 2)), Quaternion(Scalar(0, 1, 15))])
    # a document can: a certificate whose base differs from the polynomial's
    poly = QuatPoly([Quaternion(1), Quaternion(Scalar(0, 1, 15))])
    for certificate in ((RealPoly([Scalar(0, 1, 2)]), RealPoly([1])),
                        (RealPoly([1]), RealPoly([0, Scalar(1, 1, 2)]))):
        with pytest.raises(DocumentError, match=r"mixed surd bases \[2, 15\]"):
            document_for(poly, certificate=certificate)


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


# -- fuzzed documents ----------------------------------------------------------
# Documents of degree <= 6 with numbers of at most 30 digits over the bases
# 0, 2 and 15, with a field or a coefficient sometimes replaced by junk.

_INT = st.integers(-(10 ** 30) + 1, 10 ** 30 - 1)
_DEN = st.integers(1, 10 ** 30 - 1)
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 20), st.floats(), st.text(max_size=6),
    st.sampled_from(["1+sqrt(2)", "sqrt(15)", "1/0", "1.5", "x", "", "-0/7"]),
    st.lists(st.text(max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
_FIELDS = ("sqrt_base", "kind", "coefficients", "certificate", "metadata")


@st.composite
def _scalar_texts(draw, base):
    text = f"{draw(_INT)}/{draw(_DEN)}"
    if draw(st.sampled_from((0, base))):
        c = draw(_INT)
        text += f"{'+' if c >= 0 else '-'}{abs(c)}/{draw(_DEN)}*sqrt({base})"
    return text


@st.composite
def _documents(draw):
    base, kind = draw(st.sampled_from((0, 2, 15))), draw(st.sampled_from(KINDS))
    scalar = _scalar_texts(base)
    width = {"quaternion": 4, "complex": 2, "real": 1}[kind]
    row = scalar if width == 1 else st.lists(scalar, min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=1, max_size=7))
    doc = {"sqrt_base": base, "kind": kind, "coefficients": rows}
    if draw(st.booleans()):
        doc["certificate"] = {"a": draw(st.lists(scalar, max_size=7)),
                              "b": draw(st.lists(scalar, max_size=7))}
    if draw(st.booleans()):
        doc["metadata"] = {"name": draw(st.text(max_size=8))}
    if draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))] = draw(_JUNK)
    for key in draw(st.lists(st.sampled_from(_FIELDS), max_size=2)):
        doc[key] = draw(_JUNK)
    return json.dumps(doc)


def _serialized(doc):
    return dumps_document(document_for(doc.to_poly(), doc.certificate, doc.metadata))


@settings(max_examples=200, deadline=2000, derandomize=True, database=None)
@given(_documents())
def test_fuzzed_documents_parse_or_reject(text):
    try:
        doc = parse_document(text)
    except DocumentError:
        return
    once = _serialized(doc)
    assert _serialized(parse_document(once)) == once
