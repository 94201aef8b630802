"""Build ``bench/data/pool.json``: the benchmark's inputs and reference verdicts.

Usage, from the repository root::

    python3 bench/make_pool.py

The pool is generated once from a fixed seed and checked in.  A run of
the benchmark draws its operations from it with its own ``--seed``, so
every input a run can meet has a reference.  The reference verdict of
an item is the exact ``classify`` JSON the library printed when the
pool was made; the benchmark requires later versions to reproduce it
byte for byte.

Parts of the pool:

- ``fixture-cert`` / ``fixture-bare``: the three worked quintics from
  ``fixtures/``, with and without their certificates;
- ``family``: ``make_spatial_family(n)`` for n = 5..20;
- ``f-element``: ``make_f_element(core, delta)`` with a random coprime
  delta of degree 1-2 on the catalog cubic/quartics and family cores,
  certificate attached;
- ``random-q`` / ``random-s15``: random coprime quaternion polynomials
  of degree 4-6 over Q and over Q(sqrt(15));
- ``search-fe``: f-elements whose certificate (degree 1-3) is withheld;
- ``search-fixture``: the worked quintics with the certificate stripped;
- ``search-miss``: random coprime quartics over Q, which have no
  certificate of degree 1.
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
POOL_PATH = BENCH / "data" / "pool.json"
POOL_SEED = 1604

sys.path.insert(0, str(ROOT / "src"))

from rrmf.catalog import (nontrivial_cubic, nontrivial_quartic_dense,  # noqa: E402
                          nontrivial_quartic_sparse)
from rrmf.classify import classify  # noqa: E402
from rrmf.cli import classification_to_dict  # noqa: E402
from rrmf.construct import make_f_element, make_spatial_family  # noqa: E402
from rrmf.documents import document_for, dumps_document, parse_document  # noqa: E402
from rrmf.hodograph import has_coprime_components  # noqa: E402
from rrmf.polynomials import ComplexPoly, QuatPoly, gcd_real  # noqa: E402
from rrmf.quaternions import Quaternion  # noqa: E402
from rrmf.scalars import ComplexScalar, Scalar  # noqa: E402

FIXTURES = ("quintic-left-cancellation", "quintic-no-cancellation",
            "quintic-right-cancellation")


def _fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 1, 2, 3)))


def _scalar(rng: random.Random, base: int) -> Scalar:
    if base and rng.random() < 0.5:
        return Scalar(_fraction(rng), _fraction(rng), base)
    return Scalar(_fraction(rng))


def random_coprime_quat(rng: random.Random, degree: int, base: int) -> QuatPoly:
    """Quaternion polynomial of exact degree with coprime real components."""
    while True:
        coeffs = [Quaternion(*(_scalar(rng, base) for _ in range(4)))
                  for _ in range(degree + 1)]
        poly = QuatPoly(coeffs)
        if poly.degree() == degree and has_coprime_components(poly):
            return poly


def random_delta(rng: random.Random, degree: int) -> ComplexPoly:
    """Complex polynomial of exact degree with coprime real and imaginary parts."""
    while True:
        coeffs = [ComplexScalar(_fraction(rng), _fraction(rng)) for _ in range(degree)]
        coeffs.append(ComplexScalar(1, _fraction(rng)))
        delta = ComplexPoly(coeffs)
        re, im = delta.real_parts()
        if gcd_real(re, im).degree() == 0:
            return delta


def verdict_text(doc_text: str) -> str:
    """The verdicts workload's operation, as the benchmark times it."""
    doc = parse_document(doc_text)
    result = classify(QuatPoly.of(doc.to_poly()), doc.certificate)
    return json.dumps(classification_to_dict(result))


def _doc(poly: QuatPoly, certificate=None, name: str = "") -> str:
    return dumps_document(document_for(poly, certificate, {"name": name}))


def _strip_certificate(text: str) -> str:
    data = json.loads(text)
    data.pop("certificate", None)
    return json.dumps(data, indent=2)


def _f_element_cores() -> list[tuple[str, QuatPoly]]:
    cores = [("cubic", nontrivial_cubic()),
             ("quartic-sparse", nontrivial_quartic_sparse()),
             ("quartic-dense", nontrivial_quartic_dense())]
    cores += [(f"family{n}", make_spatial_family(n)) for n in range(3, 7)]
    return cores


def build_items(rng: random.Random) -> list[dict]:
    items: list[dict] = []

    def add(part: str, ident: str, text: str, **extra) -> None:
        items.append({"id": ident, "part": part, "doc": text, **extra})

    for name in FIXTURES:
        text = (ROOT / "fixtures" / f"{name}.json").read_text(encoding="utf-8")
        cert_degree = max(p.degree() for p in parse_document(text).certificate)
        add("fixture-cert", f"{name}", text, cert_degree=cert_degree)
        add("fixture-bare", f"{name}-bare", _strip_certificate(text))
        add("search-fixture", f"search-{name}", _strip_certificate(text),
            cert_degree=cert_degree)

    for n in range(5, 21):
        add("family", f"family-n{n:02d}", _doc(make_spatial_family(n), name=f"family-n{n}"),
            n=n)

    cores = _f_element_cores()
    for k in range(6 * len(cores)):
        core_name, core = cores[k % len(cores)]
        element = make_f_element(core, random_delta(rng, 1 + k % 2))
        cert = element.certificate.real_parts()
        ident = f"fe-{k:02d}-{core_name}"
        add("f-element", ident, _doc(element.poly, cert, ident),
            cert_degree=element.certificate.degree())

    for base, part in ((0, "random-q"), (15, "random-s15")):
        for degree in (4, 5, 6):
            for k in range(8):
                ident = f"{part}-d{degree}-{k}"
                add(part, ident, _doc(random_coprime_quat(rng, degree, base), name=ident),
                    degree=degree)

    # With the stripped fixtures, a search run of four rounds draws every
    # degree-2, degree-3 and miss item exactly once (see workloads.Search).
    search_cores = cores[:5]
    for cert_degree, count in ((1, 12), (2, 7), (3, 3)):
        for k in range(count):
            core_name, core = search_cores[k % len(search_cores)]
            element = make_f_element(core, random_delta(rng, cert_degree))
            ident = f"search-fe-c{cert_degree}-{k:02d}-{core_name}"
            add("search-fe", ident, _doc(element.poly, name=ident),
                cert_degree=element.certificate.degree())

    for k in range(8):
        ident = f"search-miss-{k:02d}"
        add("search-miss", ident, _doc(random_coprime_quat(rng, 4, 0), name=ident))
    return items


def main() -> int:
    rng = random.Random(POOL_SEED)
    items = build_items(rng)
    start = time.perf_counter()
    for item in items:
        if not item["part"].startswith("search-"):
            item["verdict"] = verdict_text(item["doc"])
    print(f"{len(items)} items, reference verdicts in "
          f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    POOL_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(POOL_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"pool_seed": POOL_SEED, "items": items}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
