"""Constructors for generator families with vanishing rotation indicatrix.

Covers the planar (coset-plane) family, the complete degree-3 and
degree-4 families of spatial generators, a ready-made spatial family
for every degree >= 3, and products core * delta that generate curves
with rational rotation-minimizing frames together with a verifiable
certificate.  Every forced coefficient is the least-norm solution, by
Gram-Schmidt, of the coefficient conditions that are linear in it; the
monic cubic is the coefficient reversal of a generic one.
"""

from __future__ import annotations

from typing import NamedTuple

from .hodograph import GeneratorAnalysis
from .polynomials import (ComplexPoly, QuatPoly, RealPoly, exact_divide, gcd_complex,
                          gcd_real, vector_rank)
from .quaternions import I, Quaternion
from .scalars import Scalar


class ConstructionError(ValueError):
    """Constructor preconditions violated or result degenerate."""


def _jk_rank(*quats: Quaternion) -> int:
    """Rank of the (j, k) parts: that of the vectors (0, y, z)."""
    return vector_rank(RealPoly(), RealPoly([q.y for q in quats]),
                       RealPoly([q.z for q in quats]))


def _nonzero_left_factor(c: Quaternion) -> Quaternion:
    if c.is_zero():
        raise ConstructionError("left factor must be nonzero")
    return c


def _require_real_jk(a1: Quaternion, a2: Quaternion) -> None:
    if not (a1.x.is_zero() and a2.x.is_zero()):
        raise ConstructionError("A1 and A2 must lie in R + Rj + Rk")


def _coprime(poly: QuatPoly, message: str) -> QuatPoly:
    if poly.is_zero() or not GeneratorAnalysis(poly).coprime:
        raise ConstructionError(message)
    return poly


def make_trivial(left_factor: Quaternion, direction: Quaternion,
                 coeffs: list[tuple]) -> QuatPoly:
    """C * sum (x_m + y_m * u) xi^m for a plane direction u orthogonal to i.

    Always yields a vanishing indicatrix with a recoverable triviality
    witness; errors when the components of the result are not coprime.
    """
    c, u = Quaternion.of(left_factor), Quaternion.of(direction)
    _nonzero_left_factor(c)
    if u.is_zero() or not u.is_pure() or not u.inner(I).is_zero():
        raise ConstructionError(
            "direction must be a nonzero pure vector orthogonal to i")
    if not coeffs:
        raise ConstructionError("at least one coefficient required")
    quats = [Quaternion.of(Scalar.of(x)) + u.scale(Scalar.of(y))
             for x, y in coeffs]
    return _coprime(c * QuatPoly(quats),
                    "resulting components are not coprime")


def _conditions(lower: list[Quaternion]) -> list[tuple[Quaternion, Scalar]]:
    """The conditions c_(n-1+j) = 0 on A_n, j < n, as rows (A_j i, v_j) of
    _least_norm: their A_n terms add up to (j - n) <A_n, A_j i>, and the
    rest is coefficient n-1+j of <A'i, A> of the lower coefficients."""
    n = len(lower)
    rest = GeneratorAnalysis(QuatPoly(lower)).inner
    return [(a * I, rest.coeff(n - 1 + j) / (n - j)) for j, a in enumerate(lower)]


def _cubic_coeffs(a1: Quaternion, a2: Quaternion, s3: Scalar) -> list[Quaternion]:
    """1, A1, A2 and A3 = s3 + the vector that c_2 = c_3 = c_4 = 0 force.

    Their components are coprime, under any nonzero left factor and in
    either order: the i component is <A1, A2 i>/3 xi^3, nonzero after
    the span check, and the real one is 1 at xi = 0.
    """
    _require_real_jk(a1, a2)
    if _jk_rank(a1, a2) != 2:
        raise ConstructionError("degenerate span: 1, A1, A2 must span R+Rj+Rk")
    lower = [Quaternion(1), a1, a2]
    # the rows i, A1 i, A2 i are independent: the family is the scalar part
    vector, _ = _least_norm(_conditions(lower))
    return lower + [Quaternion.of(Scalar.of(s3)) + vector]


def make_cubic(a1: Quaternion, a2: Quaternion, s3: Scalar = Scalar(0),
               left_factor: Quaternion = Quaternion(1)) -> QuatPoly:
    """C (A3 xi^3 + A2 xi^2 + A1 xi + 1), the generic spatial cubic, for
    A1, A2 in R+Rj+Rk spanning it together with 1 and C = left_factor.

    The vector part of A3 is forced: parallel to (A1 i) x (A2 i) with
    i component <A1, A2 i>/3; only its scalar part s3 is free.
    """
    c = _nonzero_left_factor(Quaternion.of(left_factor))
    return c * QuatPoly(_cubic_coeffs(Quaternion.of(a1), Quaternion.of(a2), s3))


def make_cubic_monic(a1: Quaternion, a2: Quaternion,
                     s0: Scalar = Scalar(0)) -> QuatPoly:
    """xi^3 + A2 xi^2 + A1 xi + A0, the reversal of the generic cubic on A2, A1.

    A0's vector part is parallel to (A1 i) x (A2 i) with i component
    -<A1, A2 i>/3, a third of minus the j,k determinant: A0 is never 0.
    """
    coeffs = _cubic_coeffs(Quaternion.of(a2), Quaternion.of(a1), s0)
    return QuatPoly(coeffs[::-1])


class QuarticResult(NamedTuple):
    poly: QuatPoly
    non_trivial: bool
    family_dim: int


def _least_norm(rows) -> tuple[Quaternion, int] | None:
    """The least-norm x with <x, q> = v for each row (q, v), and the
    dimension of all solutions; None when the rows are inconsistent.
    Gram-Schmidt carries each value along with its row; x is the sum of
    (v_k / |e_k|^2) e_k over the orthogonal rows (e_k, v_k)."""
    basis = []
    for q, v in rows:
        for e, value, norm in basis:
            t = q.inner(e) / norm
            q, v = q - e.scale(t), v - t * value
        if not q.is_zero():
            basis.append((q, v, q.norm_sq()))
        elif not v.is_zero():
            return None
    return sum((e.scale(v / n) for e, v, n in basis), Quaternion(0)), 4 - len(basis)


def make_quartic(a1: Quaternion, a2: Quaternion, a3_j: Scalar = Scalar(0),
                 a3_k: Scalar = Scalar(0), s3: Scalar = Scalar(0),
                 left_factor: Quaternion = Quaternion(1)) -> QuarticResult:
    """C (A4 xi^4 + A3 xi^3 + A2 xi^2 + A1 xi + 1) with A4 solved exactly,
    for C = left_factor and A3 = s3 + a3_i i + a3_j j + a3_k k.

    The i part a3_i of A3 is forced: <A1, A2 i>/3 (c_2 = 0).  A4 obeys
    the four conditions c_3 = ... = c_6 = 0: <A4, i> = <A1, A3 i>/2,
    <A4, A1 i> = <A2, A3 i>/3, and orthogonality to A2 i and A3 i.
    The least-norm A4 is returned with the family dimension, 4 minus the
    number of independent rows.
    """
    a1, a2 = Quaternion.of(a1), Quaternion.of(a2)
    c = _nonzero_left_factor(Quaternion.of(left_factor))
    _require_real_jk(a1, a2)
    _, a3_i = _conditions([Quaternion(1), a1, a2])[0]
    a3 = Quaternion(s3, a3_i, a3_j, a3_k)
    solved = _least_norm(_conditions([Quaternion(1), a1, a2, a3]))
    if solved is None:
        raise ConstructionError("inconsistent linear conditions for A4")
    a4, family_dim = solved
    poly = _coprime(c * QuatPoly([Quaternion(1), a1, a2, a3, a4]),
                    "components of the result are not coprime")
    # rank 2 of (A1, A2), or rank 1 raised to 2 by A3
    non_trivial = _jk_rank(a1, a2) > 0 and _jk_rank(a1, a2, a3) == 2
    return QuarticResult(poly, non_trivial, family_dim)


def make_spatial_family(n: int) -> QuatPoly:
    """(n-2) i xi^n + n k xi^(n-1) + j xi + 1: spatial, zero indicatrix, any n >= 3."""
    if n < 3:
        raise ConstructionError("family defined for degree n >= 3")
    return QuatPoly([Quaternion(1),
                     Quaternion(0, 0, 1, 0),
                     *[Quaternion(0)] * (n - 3),
                     Quaternion(0, 0, 0, n),
                     Quaternion(0, n - 2, 0, 0)])


class FElement(NamedTuple):
    """Generator of an RRMF curve plus the certificate that proves it."""

    poly: QuatPoly
    certificate: ComplexPoly


def make_f_element(b0: QuatPoly, delta: ComplexPoly) -> FElement:
    """core(B0) * delta for B0 with vanishing indicatrix, with certificate.

    Writing B0 = core * mu, the certificate is conj(mu/g) * (delta/g)
    for g = gcd(mu, delta); the reduction of the output by it lands
    back in the vanishing-indicatrix class.  Its parts are coprime
    without a check: it has no roots z and conj(z) both, as delta has
    coprime parts, mu would otherwise put a real factor in B0, and
    conj(mu/g) and delta/g share no such pair by the choice of g.
    """
    b0 = QuatPoly.of(b0)
    delta = ComplexPoly.of(delta)
    analysis = GeneratorAnalysis.of(b0, "membership test on the zero polynomial")
    if not analysis.in_f0:
        raise ConstructionError("B0 must have a vanishing rotation indicatrix")
    dre, dim_ = delta.real_parts()
    if delta.is_zero() or gcd_real(dre, dim_).degree() != 0:
        raise ConstructionError("delta must have coprime real components")
    dec = analysis.core
    mu = dec.factor
    g = gcd_complex(mu, delta)
    nu = exact_divide(mu, g).conjugate() * exact_divide(delta, g)
    poly = _coprime(dec.core * delta.as_quat(), "product has non-coprime components")
    return FElement(poly, nu)
