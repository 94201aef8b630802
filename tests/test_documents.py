import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrmf.catalog import quintic_right_cancellation
from rrmf.documents import (KINDS, MAX_DEGREE, MAX_DIGITS, DocumentError,
                            document_for, document_to_dict, dumps_document,
                            parse_document)
from rrmf.polynomials import ComplexPoly, QuatPoly, RealPoly
from rrmf.quaternions import Quaternion
from rrmf.scalars import MAX_BASE, Scalar, SurdBaseMismatch, parse_scalar

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


def test_surd_document_at_max_base_parses_fast():
    # the declared base is validated once, not once per scalar: trial
    # division up to sqrt(MAX_BASE) for each of 646 scalars took seconds
    surd = f"sqrt({MAX_BASE})"
    rows = [[f"{k}+{surd}", f"-{surd}", f"1/2*{surd}", f"{k}-3*{surd}"]
            for k in range(MAX_DEGREE + 1)]
    half = [f"{k}+{surd}" for k in range((MAX_DEGREE + 1) // 2 + 1)]
    text = json.dumps({"sqrt_base": MAX_BASE, "kind": "quaternion", "coefficients": rows,
                       "certificate": {"a": half, "b": half}})
    start = time.perf_counter()
    doc = parse_document(text)
    assert time.perf_counter() - start < 0.5
    assert sum(map(len, doc.coefficients)) + 2 * len(half) == 646
    assert doc.coefficients[3][2] == Scalar(0, Fraction(1, 2), MAX_BASE)
    assert doc.certificate[0].coeff(0) == Scalar(0, 1, MAX_BASE)


def test_invalid_and_foreign_bases_still_rejected():
    for scalar in ("sqrt(4)", "1+sqrt(1)", "sqrt(7)", "2*sqrt(0)"):
        text = json.dumps({"sqrt_base": 15, "kind": "real", "coefficients": [scalar]})
        with pytest.raises(DocumentError):
            parse_document(text)
    with pytest.raises(SurdBaseMismatch):
        parse_scalar("sqrt(7)", expected_base=15)
    with pytest.raises(ValueError, match="base 4 is not"):
        parse_scalar("sqrt(4)", expected_base=15)
    with pytest.raises(ValueError, match="irrational part requires a nonzero base"):
        parse_scalar("sqrt(0)", expected_base=0)
    # a zero surd part over the expected base normalises to base 0
    assert parse_scalar("3+0*sqrt(15)", expected_base=15).d == 0
    assert parse_scalar("sqrt(15)", expected_base=15) == Scalar(0, 1, 15)


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
    # a number split by spaces is one number once they are removed
    half = "1" * (MAX_DIGITS // 2)
    for text in (doc(over), doc(f"1/{over}"), doc(f"1+{over}*sqrt(15)", base=15),
                 doc(f"1+1/{over}*sqrt(15)", base=15), doc("1", cert=[over]),
                 doc(f"{half}1 {half}/1"), doc(f"1/{half} {half}1"),
                 doc("1" * 600 + " " + "1" * 600 + "/1")):
        with pytest.raises(DocumentError, match=f"at most {MAX_DIGITS} digits"):
            parse_document(text)
    split = parse_document(doc(f"{half} {half}/1"))
    assert split.coefficients[1][2] == int(half * 2)
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


# -- the parser against the Scalar path ------------------------------------------
# Documents of every kind over Q and Q(sqrt 15), whose scalars are written in
# the forms the grammar accepts: bare integers (as JSON numbers too), p/q
# unreduced (2/4) or signed zero (-0/3), sqrt(d) with or without a
# coefficient or a rational part, and spaces between the tokens; high-degree
# zero rows are written out.  The oracle builds the same values as Scalars
# and the polynomials by the constructor from coefficients.

_SMALL = st.integers(-30, 30)


@st.composite
def _written_scalar(draw, base):
    """(value, text) for one scalar over the base."""
    a = Fraction(draw(_SMALL), draw(st.integers(1, 12)))
    b = Fraction(draw(_SMALL), draw(st.integers(1, 12))) if base and draw(st.booleans()) else 0
    k = draw(st.integers(1, 3))
    tokens = []
    if b == 0 or a != 0 or draw(st.booleans()):
        if a.denominator == 1 and draw(st.booleans()):
            tokens += [str(a.numerator)]
        elif a == 0 and draw(st.booleans()):
            tokens += ["-0", "/", str(k)]
        else:
            tokens += [str(a.numerator * k), "/", str(a.denominator * k)]
    if b:
        tokens += ["-" if b < 0 else "+"] if tokens or b < 0 else []
        if abs(b) != 1 or draw(st.booleans()):
            tokens += [str(abs(b.numerator) * k), "/", str(b.denominator * k), "*"]
        tokens += ["sqrt(", str(base), ")"]
    elif base and draw(st.booleans()):
        tokens += ["+", "0", "/", str(k), "*", "sqrt(", str(base), ")"]
    text = "".join(token + draw(st.sampled_from(["", "", " "])) for token in tokens)
    if b == 0 and a.denominator == 1 and draw(st.booleans()):
        return Scalar(a), int(a)
    return Scalar(a, b, base if b else 0), draw(st.sampled_from(["", " "])) + text


def _oracle(kind, rows):
    cls = {"quaternion": QuatPoly, "complex": ComplexPoly, "real": RealPoly}[kind]
    return cls([cls.ring.from_parts(row) for row in rows])


@st.composite
def _written_documents(draw):
    base, kind = draw(st.sampled_from((0, 15))), draw(st.sampled_from(KINDS))
    width = {"quaternion": 4, "complex": 2, "real": 1}[kind]
    scalar = _written_scalar(base)
    zero = st.sampled_from([(Scalar(0), "0"), (Scalar(0), "-0/3"), (Scalar(0), 0)])
    rows = draw(st.lists(st.lists(scalar, min_size=width, max_size=width),
                         min_size=1, max_size=6))
    rows += draw(st.lists(st.lists(zero, min_size=width, max_size=width), max_size=2))
    cert = [draw(st.lists(scalar, max_size=4)) for _ in "ab"] if draw(st.booleans()) else None
    written = [[t for _, t in row] if width > 1 else row[0][1] for row in rows]
    doc = {"sqrt_base": base, "kind": kind, "coefficients": written}
    if cert is not None:
        doc["certificate"] = {part: [t for _, t in c] for part, c in zip("ab", cert)}
    values = [tuple(v for v, _ in row) for row in rows]
    certificate = None if cert is None else tuple(
        RealPoly([v for v, _ in c]) for c in cert)
    return json.dumps(doc), kind, values, certificate


def _stored(poly):
    return type(poly), poly.d, poly.rows, poly.den


@settings(max_examples=300, deadline=2000, derandomize=True, database=None)
@given(_written_documents())
def test_parser_matches_the_scalar_path(case):
    text, kind, values, certificate = case
    doc = parse_document(text)
    assert _stored(doc.to_poly()) == _stored(_oracle(kind, values))
    assert doc.coefficients == tuple(values)
    assert [list(map(Scalar.__repr__, row)) for row in doc.coefficients] == [
        list(map(Scalar.__repr__, row)) for row in values]
    if certificate is None:
        assert doc.certificate is None
    else:
        assert list(map(_stored, doc.certificate)) == list(map(_stored, certificate))


# malformed scalars and their messages, the same as before the parser read
# scalars into integers; in a real document over Q (over Q(sqrt 15) a surd
# over 15 is valid, and a foreign base is named against 15)
_LONG = f"scalar numbers have at most {MAX_DIGITS} digits (rrmf.documents.MAX_DIGITS), got "
_MALFORMED = [
    ("", "empty scalar"), ("   ", "empty scalar"), ("x", "cannot parse scalar 'x'"),
    ("1/0", "Fraction(1, 0)"), ("-5/0", "Fraction(-5, 0)"), ("+0/0", "Fraction(0, 0)"),
    ("-0/0", "Fraction(0, 0)"), ("3 / 0", "Fraction(3, 0)"), ("1/0+sqrt(4)", "Fraction(1, 0)"),
    ("2/0*sqrt(4)", "Fraction(2, 0)"), ("1+2/0*sqrt(15)", "Fraction(2, 0)"),
    ("1-0/0*sqrt(15)", "Fraction(0, 0)"), ("1.5", "cannot parse scalar '1.5'"),
    ("1e5", "cannot parse scalar '1e5'"), ("--1", "cannot parse scalar '--1'"),
    ("+", "cannot parse scalar '+'"), ("-", "cannot parse scalar '-'"),
    ("1/2/3", "cannot parse scalar '1/2/3'"), ("1/-2", "cannot parse scalar '1/-2'"),
    ("sqrt(", "cannot parse scalar 'sqrt('"), ("sqrt()", "cannot parse scalar 'sqrt()'"),
    ("sqrt(-1)", "cannot parse scalar 'sqrt(-1)'"),
    ("2*sqrt(16)", "base 16 is not 0 or a squarefree integer in [2, 2147483647]"),
    ("sqrt(4)", "base 4 is not 0 or a squarefree integer in [2, 2147483647]"),
    ("1+sqrt(1)", "base 1 is not 0 or a squarefree integer in [2, 2147483647]"),
    ("sqrt(7)", "scalar 'sqrt(7)' uses base 7, document declares 0"),
    ("1 - 2/3 * sqrt(7)", "scalar '1-2/3*sqrt(7)' uses base 7, document declares 0"),
    ("sqrt(0)", "irrational part requires a nonzero base"),
    ("-2*sqrt(0)", "irrational part requires a nonzero base"),
    ("3+0*sqrt(4)", "base 4 is not 0 or a squarefree integer in [2, 2147483647]"),
    ("sqrt(15)sqrt(15)", "cannot parse scalar 'sqrt(15)sqrt(15)'"),
    ("sqrt(15)+1", "cannot parse scalar 'sqrt(15)+1'"),
    ("*sqrt(15)", "scalar '*sqrt(15)' uses base 15, document declares 0"),
    ("1**sqrt(15)", "cannot parse scalar '1**sqrt(15)'"),
    ("1+*sqrt(15)", "scalar '1+*sqrt(15)' uses base 15, document declares 0"),
    ("1 2 3/0", "Fraction(123, 0)"),
    ("sqrt(" + "9" * 30 + ")",
     "base " + "9" * 30 + " is not 0 or a squarefree integer in [2, 2147483647]"),
    ("\u0663/0", "Fraction(3, 0)"), ("1\t+sqrt(15)", "cannot parse scalar '1\\t+sqrt(15)'"),
    ("7" * 1001, _LONG + "7" * 40 + "..."), ("1/" + "2" * 1001, _LONG + "1/" + "2" * 38 + "..."),
    ("x" + "7" * 1001, _LONG + "x" + "7" * 39 + "..."),
    ("1+" + "3" * 1001 + "*sqrt(15)", _LONG + "1+" + "3" * 38 + "..."),
    (None, "cannot parse scalar 'None'"), (True, "cannot parse scalar 'True'"),
    (2.5, "cannot parse scalar '2.5'"), ([], "cannot parse scalar '[]'"),
    ({"a": 1}, "cannot parse scalar \"{'a':1}\""), (10 ** 1001, _LONG + "1" + "0" * 39 + "..."),
]


@pytest.mark.parametrize("base", [0, 15])
def test_malformed_scalar_messages(base):
    for scalar, message in _MALFORMED:
        if base:
            if scalar in ("*sqrt(15)", "1+*sqrt(15)"):
                continue
            message = message.replace("document declares 0", "document declares 15")
        text = json.dumps({"sqrt_base": base, "kind": "real", "coefficients": [scalar]})
        with pytest.raises(DocumentError) as info:
            parse_document(text)
        assert str(info.value) == message, scalar
    # the surds over 15 that a document over Q rejects are valid over Q(sqrt 15)
    for scalar in ("*sqrt(15)", "1+*sqrt(15)"):
        text = json.dumps({"sqrt_base": 15, "kind": "real", "coefficients": [scalar]})
        assert parse_document(text).to_poly() == RealPoly([Scalar(int(scalar[0] == "1"), 1, 15)])
