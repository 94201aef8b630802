"""JSON document format for polynomials and certificates.

Coefficients are exchanged as exact scalar strings ("a/b" or
"a/b+c/e*sqrt(d)"), never floats, in ascending order: 4-component rows
for quaternion kind, 2-component rows for complex, bare strings for
real.  The surd base is declared once per document; scalars using any
other base are rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from .polynomials import ComplexPoly, QuatPoly, RealPoly
from .quaternions import Quaternion
from .scalars import Scalar, format_scalar, is_valid_base, parse_scalar


class DocumentError(ValueError):
    """Malformed polynomial document."""


KINDS = ("quaternion", "complex", "real")
_WIDTH = {"quaternion": 4, "complex": 2, "real": 1}


@dataclass(frozen=True)
class PolyDocument:
    """Parsed document: base, kind, coefficient rows, optional certificate."""

    sqrt_base: int
    kind: str
    coefficients: tuple
    certificate: Optional[tuple[RealPoly, RealPoly]] = None
    metadata: dict = field(default_factory=dict)

    def to_poly(self):
        if self.kind == "quaternion":
            return QuatPoly([Quaternion(*row) for row in self.coefficients])
        if self.kind == "complex":
            return ComplexPoly.from_parts(
                RealPoly([row[0] for row in self.coefficients]),
                RealPoly([row[1] for row in self.coefficients]))
        return RealPoly([row[0] for row in self.coefficients])


def parse_document(data) -> PolyDocument:
    """Parse a dict or JSON text; raises DocumentError on any defect."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DocumentError("document must be a JSON object")
    base = data.get("sqrt_base", 0)
    if not isinstance(base, int) or not is_valid_base(base):
        raise DocumentError(f"sqrt_base must be 0 or a squarefree integer >= 2, got {base!r}")
    kind = data.get("kind")
    if kind not in KINDS:
        raise DocumentError(f"kind must be one of {KINDS}, got {kind!r}")
    raw = data.get("coefficients")
    if not isinstance(raw, list) or not raw:
        raise DocumentError("coefficients must be a non-empty list")
    width = _WIDTH[kind]
    rows = []
    for entry in raw:
        if width == 1:
            entry = [entry]
        if not isinstance(entry, list) or len(entry) != width:
            raise DocumentError(
                f"each {kind} coefficient needs {width} component(s), got {entry!r}")
        try:
            rows.append(tuple(parse_scalar(str(c), expected_base=base) for c in entry))
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(str(exc)) from exc
    certificate = None
    if data.get("certificate") is not None:
        cert = data["certificate"]
        if not isinstance(cert, dict) or "a" not in cert or "b" not in cert:
            raise DocumentError('certificate must be {"a": [...], "b": [...]}')
        try:
            certificate = (
                RealPoly([parse_scalar(str(c), expected_base=base) for c in cert["a"]]),
                RealPoly([parse_scalar(str(c), expected_base=base) for c in cert["b"]]))
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(str(exc)) from exc
    metadata = data.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise DocumentError("metadata must be an object")
    return PolyDocument(base, kind, tuple(rows), certificate, metadata)


def _poly_base(coefficients) -> int:
    bases = {s.d for row in coefficients for s in row if s.d != 0}
    if len(bases) > 1:
        raise DocumentError(f"mixed surd bases {sorted(bases)} in one document")
    return bases.pop() if bases else 0


def document_for(poly, certificate: Optional[tuple[RealPoly, RealPoly]] = None,
                 metadata: Optional[dict] = None) -> PolyDocument:
    """Build a document from a polynomial of any kind."""
    if isinstance(poly, QuatPoly):
        kind, rows = "quaternion", [q.components() for q in poly.coeffs]
    elif isinstance(poly, ComplexPoly):
        kind, rows = "complex", [(c.re, c.im) for c in poly.coeffs]
    elif isinstance(poly, RealPoly):
        kind, rows = "real", [(c,) for c in poly.coeffs]
    else:
        raise DocumentError(f"cannot serialize {type(poly).__name__}")
    if not rows:
        rows = [(Scalar(0),) * _WIDTH[kind]]
    all_rows = list(rows)
    if certificate is not None:
        all_rows += [(c,) for c in certificate[0].coeffs]
        all_rows += [(c,) for c in certificate[1].coeffs]
    base = _poly_base(all_rows)
    return PolyDocument(base, kind, tuple(rows), certificate, metadata or {})


def document_to_dict(doc: PolyDocument) -> dict:
    width = _WIDTH[doc.kind]
    if width == 1:
        coeffs: Any = [format_scalar(row[0]) for row in doc.coefficients]
    else:
        coeffs = [[format_scalar(c) for c in row] for row in doc.coefficients]
    out: dict = {"sqrt_base": doc.sqrt_base, "kind": doc.kind,
                 "coefficients": coeffs}
    if doc.certificate is not None:
        out["certificate"] = {
            "a": [format_scalar(c) for c in doc.certificate[0].coeffs],
            "b": [format_scalar(c) for c in doc.certificate[1].coeffs]}
    if doc.metadata:
        out["metadata"] = doc.metadata
    return out


def dumps_document(doc: PolyDocument) -> str:
    return json.dumps(document_to_dict(doc), indent=2)
