"""A seeded census of degree-1 generators, checked against sympy.

Three hundred distinct generators A = A_0 + A_1 xi with every entry in
{-1, 0, 1} and A_1 != 0.  sympy alone decides whether the components
are coprime (the gcd of u, v, p, q) and whether the curve is spatial
(the rank of the coefficient vectors of A i A*, formed with
sympy.Quaternion).  A degree-1 generator gives a PH cubic, and no
spatial PH cubic has a rational RMF (Han 2008), so a coprime spatial
generator is never proven, even with a certificate search of degree 4;
a coprime planar one always is.
"""

import functools
import random

import pytest

from rrmf.classify import MembershipStatus, classify
from rrmf.polynomials import QuatPoly
from rrmf.quaternions import Quaternion

sympy = pytest.importorskip("sympy")

XI = sympy.Symbol("xi")
CENSUS_SIZE = 300


def _census() -> list[tuple[int, ...]]:
    """The entries (A_0, A_1) of the census generators, in draw order."""
    rng = random.Random(2016)
    drawn: dict = {}
    while len(drawn) < CENSUS_SIZE:
        entries = tuple(rng.choice((-1, 0, 1)) for _ in range(8))
        if any(entries[4:]):
            drawn.setdefault(entries, None)
    return list(drawn)


def _oracle(entries) -> tuple[bool, bool]:
    """(coprime, spatial) of the generator, from sympy."""
    u, v, p, q = (entries[k] + entries[k + 4] * XI for k in range(4))
    polys = [sympy.Poly(f, XI) for f in (u, v, p, q)]
    coprime = functools.reduce(sympy.gcd, polys).degree() == 0
    a = sympy.Quaternion(u, v, p, q)
    image = a * sympy.Quaternion(0, 1, 0, 0) * a.conjugate()
    vectors = [sympy.Poly(sympy.expand(c), XI).all_coeffs()[::-1]
               for c in (image.b, image.c, image.d)]
    rows = [[f[k] if k < len(f) else 0 for f in vectors] for k in range(3)]
    return coprime, sympy.Matrix(rows).rank() == 3


def test_degree_one_census():
    counts = {"spatial": 0, "planar": 0, "not coprime": 0}
    for entries in _census():
        a = QuatPoly([Quaternion(*entries[:4]), Quaternion(*entries[4:])])
        coprime, spatial = _oracle(entries)
        verdict = classify(a, search_degree=4)
        assert (verdict.in_widetilde, verdict.planar) == (coprime, not spatial), entries
        if not coprime:
            counts["not coprime"] += 1
            continue
        counts["spatial" if spatial else "planar"] += 1
        proven = verdict.membership.status is MembershipStatus.PROVEN
        assert proven is not spatial, (entries, verdict.membership)
    # the census reaches every case
    assert all(counts.values()), counts
