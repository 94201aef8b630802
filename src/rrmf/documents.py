"""JSON document format for polynomials and certificates.

Coefficients are exchanged as exact scalar strings ("a/b" or
"a/b+c/e*sqrt(d)"), never floats, in ascending order: 4-component rows
for quaternion kind, 2-component rows for complex, bare strings for
real.  The surd base is declared once per document; scalars using any
other base are rejected.

Parsing reads each scalar by the one grammar of scalars.scalar_terms
into integers and builds the polynomial and the certificate's two
polynomials straight from them (scalars' ``_Exact.from_terms``, which
reads the base off the terms), with no Fraction or Scalar per
coefficient; writing reads each text from a column of the integer rows
(scalars.format_columns).  ``coefficients``, in ring parts, is built
from the polynomial on each read.
"""

from __future__ import annotations

import json
import re
from typing import Any, NamedTuple, Optional

from .polynomials import ComplexPoly, QuatPoly, RealPoly
from .scalars import MAX_BASE, Scalar, format_columns, is_valid_base, scalar_terms


class DocumentError(ValueError):
    """Malformed polynomial document."""


MAX_DEGREE = 128
"""Largest accepted degree of a document's polynomial and of each
certificate member.  The exact kernels grow faster than quadratically
in the degree; at this bound ``rrmf classify`` of a random integer
generator takes under a second (README, "Polynomial documents")."""

MAX_DIGITS = 1000
"""Most digits in one number (numerator, denominator or surd base) of a
scalar once its spaces are removed (README, "Polynomial documents").
Outputs outgrow their inputs and are printed in full, also beyond
Python's 4300-digit limit for converting an int, which load_json keeps
for JSON integer literals."""

# digit runs, whose lengths are checked: a search for too many digits backtracks
_DIGIT_RUN = re.compile(r"[0-9]+")

_POLY = {"quaternion": QuatPoly, "complex": ComplexPoly, "real": RealPoly}
KINDS = tuple(_POLY)


class PolyDocument(NamedTuple):
    """Parsed document: base, kind, its polynomial and the number of
    coefficient rows it writes, optional certificate and metadata."""

    sqrt_base: int
    kind: str
    poly: Any
    length: int
    certificate: Optional[tuple[RealPoly, RealPoly]] = None
    metadata: Optional[dict] = None

    def to_poly(self):
        return self.poly

    @property
    def coefficients(self) -> tuple:
        """The ``length`` coefficient rows, zero rows included, each the
        tuple of its ring parts (one Scalar per real component)."""
        return tuple(self.poly.coeff(k).parts for k in range(self.length))


def load_json(text):
    """json.loads, raising DocumentError on invalid JSON, on integer
    literals longer than Python converts and on nesting deeper than the
    decoder recurses."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc


def read_terms(value, base: int) -> tuple[int, int, int, int, int]:
    """The integers (p, q, r, s, d) of one scalar of a document, as
    scalars.scalar_terms reads them; raises DocumentError, also for a
    number of more than MAX_DIGITS digits once spaces are removed."""
    text = str(value)
    # a text no longer than the bound holds no number longer than it
    if len(text) > MAX_DIGITS and any(
            len(run) > MAX_DIGITS for run in _DIGIT_RUN.findall(text.replace(" ", ""))):
        raise DocumentError(
            f"scalar numbers have at most {MAX_DIGITS} digits "
            f"(rrmf.documents.MAX_DIGITS), got {text[:40]}...")
    try:
        return scalar_terms(text, base)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(str(exc)) from exc


def read_scalar(value, base: int) -> Scalar:
    """One scalar of a construction spec, as read_terms reads it."""
    return Scalar.from_terms([read_terms(value, base)])


def parse_base(value) -> int:
    """Validate a declared ``sqrt_base``; raises DocumentError."""
    # a JSON true or false is a bool, which is an int too
    if isinstance(value, bool) or not isinstance(value, int) or not is_valid_base(value):
        raise DocumentError(
            f"sqrt_base must be 0 or a squarefree integer in [2, {MAX_BASE}], "
            f"got {value!r}")
    return value


def parse_document(data) -> PolyDocument:
    """Parse a dict or JSON text; raises DocumentError on any defect."""
    if isinstance(data, (str, bytes)):
        data = load_json(data)
    if not isinstance(data, dict):
        raise DocumentError("document must be a JSON object")
    base = parse_base(data.get("sqrt_base", 0))
    kind = data.get("kind")
    if kind not in KINDS:
        raise DocumentError(f"kind must be one of {KINDS}, got {kind!r}")
    raw = data.get("coefficients")
    if not isinstance(raw, list) or not raw:
        raise DocumentError("coefficients must be a non-empty list")
    _check_degree("coefficients", raw)
    cls = _POLY[kind]
    width = cls.ring.width
    terms = []
    for entry in raw:
        if width == 1:
            entry = [entry]
        if not isinstance(entry, list) or len(entry) != width:
            raise DocumentError(
                f"each {kind} coefficient needs {width} component(s), got {entry!r}")
        terms += [read_terms(c, base) for c in entry]
    certificate = None
    if data.get("certificate") is not None:
        cert = data["certificate"]
        if not (isinstance(cert, dict) and isinstance(cert.get("a"), list)
                and isinstance(cert.get("b"), list)):
            raise DocumentError('certificate must be {"a": [...], "b": [...]}')
        _check_degree("certificate a", cert["a"])
        _check_degree("certificate b", cert["b"])
        certificate = tuple(RealPoly.from_terms([read_terms(c, base) for c in cert[part]])
                            for part in "ab")
    metadata = data.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise DocumentError("metadata must be an object")
    # an empty object is no metadata: dumps_document writes none for it
    return PolyDocument(base, kind, cls.from_terms(terms), len(raw),
                        certificate, metadata or None)


def _check_degree(what: str, rows: list) -> None:
    if len(rows) > MAX_DEGREE + 1:
        raise DocumentError(
            f"{what}: at most {MAX_DEGREE + 1} coefficients (degree {MAX_DEGREE}), "
            f"got {len(rows)}")


def document_for(poly, certificate: Optional[tuple[RealPoly, RealPoly]] = None,
                 metadata: Optional[dict] = None) -> PolyDocument:
    """Build a document from a polynomial of any kind."""
    kind = next((k for k, cls in _POLY.items() if isinstance(poly, cls)), None)
    if kind is None:
        raise DocumentError(f"cannot serialize {type(poly).__name__}")
    # each polynomial stores one base, 0 when it has no sqrt(d) part
    bases = {p.d for p in (poly, *(certificate or ())) if p.d}
    if len(bases) > 1:
        raise DocumentError(f"mixed surd bases {sorted(bases)} in one document")
    base = bases.pop() if bases else 0
    # the zero polynomial is written as one zero coefficient
    return PolyDocument(base, kind, poly, max(1, poly.degree() + 1), certificate,
                        metadata or None)


def certificate_to_dict(cert: tuple[RealPoly, RealPoly]) -> dict:
    """The certificate (a, b) as {"a": [...], "b": [...]} of scalar strings,
    read from the columns of each polynomial's integer rows over its den."""
    return {part: format_columns(poly, len(poly.rows[0]))[0] for part, poly in zip("ab", cert)}


def document_to_dict(doc: PolyDocument) -> dict:
    texts = format_columns(doc.poly, doc.length)
    coeffs: Any = texts[0] if _POLY[doc.kind].ring.width == 1 else list(map(list, zip(*texts)))
    out: dict = {"sqrt_base": doc.sqrt_base, "kind": doc.kind,
                 "coefficients": coeffs}
    if doc.certificate is not None:
        out["certificate"] = certificate_to_dict(doc.certificate)
    if doc.metadata:
        out["metadata"] = doc.metadata
    return out


def dumps_document(doc: PolyDocument) -> str:
    return json.dumps(document_to_dict(doc), indent=2)
