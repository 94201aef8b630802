"""Membership and structure tests for quaternion polynomial generators.

A generator with coprime components has an identically vanishing
rotation indicatrix exactly when all its per-degree coefficient
conditions vanish; that class underlies every other verdict here:
triviality (coefficients confined to a left coset of a plane R + Ru
with u orthogonal to i), planarity of the generated curve, and
membership in the class of generators of curves with rational
rotation-minimizing frames, decided either through a supplied
certificate, the equal-degree divisibility criterion, or a certificate
of bounded degree constructed exactly from the residues of the reduced
Han fraction.  No false negatives are ever reported for the general
membership question: absent proof, the verdict is "unknown".
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .hodograph import core_of, has_coprime_components
from .indicatrix import han_fraction, inner_product_poly, rho_eta, verify_han
from .linalg import exact_rank
from .polynomials import (ComplexPoly, QuatPoly, RealPoly, exact_divide,
                          gcd_complex, gcd_real)
from .quaternions import Quaternion
from .scalars import ComplexScalar, Scalar

_I = Quaternion(0, 1)


def _require_nonzero_coprime(a: QuatPoly, what: str) -> QuatPoly:
    a = QuatPoly.of(a)
    if a.is_zero():
        raise ValueError(f"{what}: zero polynomial rejected")
    if not has_coprime_components(a):
        raise ValueError(f"{what}: components must be coprime")
    return a


@dataclass(frozen=True)
class IndicatrixCoefficients:
    """The 2n-1 real numbers whose vanishing characterizes a zero indicatrix."""

    values: tuple[Scalar, ...]

    def all_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)


def indicatrix_coefficients(a: QuatPoly) -> IndicatrixCoefficients:
    """c_m = sum_{k=0..m} (k+1) <A_{m-k}, A_{k+1} i> for m = 0 .. 2n-2.

    Computed from the quaternion coefficients directly, cross-checked
    against the coefficients of <A'i, A>, and validated against the
    degree-(n-1) truncation recursion.
    """
    a = QuatPoly.of(a)
    if a.is_zero():
        raise ValueError("coefficient conditions of the zero polynomial")
    n = a.degree()
    rotated = [c * _I for c in a.coeffs]
    values = tuple(_c_m(a.coeffs, rotated, m) for m in range(max(2 * n - 1, 1)))
    poly = inner_product_poly(a)
    if any(values[m] != poly.coeff(m) for m in range(len(values))):
        raise AssertionError("coefficient conditions disagree with <A'i, A>")
    _check_truncation_recursion(a, values)
    return IndicatrixCoefficients(values)


def _c_m(coeffs, rotated, m: int) -> Scalar:
    # rotated[k] is coeffs[k] * i, computed once by the caller
    acc = Scalar(0)
    for k in range(m + 1):
        lo, hi = m - k, k + 1
        if lo < len(coeffs) and hi < len(coeffs):
            acc = acc + coeffs[lo].inner(rotated[hi]) * Scalar.of(k + 1)
    return acc


def _check_truncation_recursion(a: QuatPoly, values) -> None:
    # c^(n)_m = c^(n-1)_m for m <= n-2, plus (2n-m-1)<A_{m+1-n}, A_n i>
    # from m = n-1 on; c^(n-1)_m vanishes for m > 2n-4 by degree count.
    n = a.degree()
    if n < 1:
        return
    trunc = list(a.coeffs[:-1])
    rotated = [c * _I for c in a.coeffs]
    for m in range(2 * n - 1):
        expected = _c_m(trunc, rotated, m)
        if m >= n - 1:
            step = trunc[m + 1 - n].inner(rotated[n])
            expected = expected + step * Scalar.of(2 * n - m - 1)
        if values[m] != expected:
            raise AssertionError("truncation recursion failed")


def has_vanishing_indicatrix(a: QuatPoly) -> bool:
    """Coprime components and identically zero <A'i, A>.

    The direct coefficient conditions, the expanded polynomial, and the
    complex-splitting identity <alpha'i, alpha> == <beta'i, beta> are
    all evaluated; disagreement is an internal error.
    """
    a = QuatPoly.of(a)
    if a.is_zero():
        raise ValueError("membership test on the zero polynomial")
    coprime = has_coprime_components(a)
    by_coeffs = indicatrix_coefficients(a).all_zero()
    by_poly = inner_product_poly(a).is_zero()
    alpha, beta = a.complex_split()
    by_split = (_complex_inner(alpha) == _complex_inner(beta))
    if not (by_coeffs == by_poly == by_split):
        raise AssertionError("vanishing-indicatrix paths disagree")
    return coprime and by_poly


def _complex_inner(gamma: ComplexPoly) -> RealPoly:
    """<gamma'i, gamma> for a complex polynomial gamma = a + bi."""
    re, im = gamma.real_parts()
    return -(im.derivative() * re - re.derivative() * im)


@dataclass(frozen=True)
class TrivialWitness:
    """Left factor C and plane direction u with A = C*(coefficients in R+Ru).

    The direction is stored unnormalized together with its squared norm,
    since unit normalization may leave the working field; all membership
    checks are homogeneous in u.
    """

    left_factor: Quaternion
    direction: Quaternion
    direction_norm_sq: Scalar

    def unit_direction_floats(self) -> tuple[float, float, float]:
        import math
        n = math.sqrt(float(self.direction_norm_sq))
        return (float(self.direction.x) / n, float(self.direction.y) / n,
                float(self.direction.z) / n)


def trivial_witness(a: QuatPoly) -> Optional[TrivialWitness]:
    """Witness (C, u) if every coefficient of C^-1 A lies in R + Ru, u _|_ i.

    C is the lowest-index nonzero coefficient; any nonzero element of
    the coset plane works, since right factors in R + Ru preserve it.
    Returns None when A is not of this form.
    """
    a = _require_nonzero_coprime(a, "triviality test")
    c = next(q for q in a.coeffs if not q.is_zero())
    c_inv = c.inverse()
    vectors = [(c_inv * q).vector_part() for q in a.coeffs]
    direction = next((v for v in vectors if not v.is_zero()), None)
    if direction is None:
        # constant (up to left factor): plane direction is conventional
        return TrivialWitness(c, Quaternion(0, 0, 1, 0), Scalar(1))
    if not direction.inner(_I).is_zero():
        return None
    for v in vectors:
        if not v.inner(_I).is_zero():
            return None
        if not v.cross(direction).is_zero():
            return None
    return TrivialWitness(c, direction, direction.norm_sq())


def hodograph_span_rank(a: QuatPoly) -> int:
    """Exact rank of the span of the vector coefficients of A i A*."""
    a = QuatPoly.of(a)
    if a.is_zero():
        raise ValueError("span rank of the zero polynomial")
    prod = a * QuatPoly([_I]) * a.conjugate()
    rows = []
    for b in prod.coeffs:
        if not b.scalar_part().is_zero():
            raise AssertionError("A i A* must have pure vector coefficients")
        rows.append([b.x, b.y, b.z])
    return exact_rank(rows)


def is_planar(a: QuatPoly) -> bool:
    """Whether the generated curve lies in a plane.

    Geometric test: the vector coefficients of A i A* span rank <= 2.
    For generators with vanishing indicatrix this must coincide with
    triviality; disagreement is an internal error.
    """
    a = _require_nonzero_coprime(a, "planarity test")
    planar = hodograph_span_rank(a) <= 2
    if has_vanishing_indicatrix(a):
        if planar != (trivial_witness(a) is not None):
            raise AssertionError("planarity and triviality verdicts disagree")
    return planar


def gcd_with_complex(a: QuatPoly, gamma: ComplexPoly) -> ComplexPoly:
    """Greatest common right divisor of A and a complex polynomial:
    gcd(alpha, conj(beta), gamma) on the complex splitting."""
    a = QuatPoly.of(a)
    gamma = ComplexPoly.of(gamma)
    if a.is_zero() or gamma.is_zero():
        raise ValueError("right gcd with a zero polynomial")
    alpha, beta = a.complex_split()
    return gcd_complex(alpha, beta.conjugate(), gamma)


@dataclass(frozen=True)
class ReducedForm:
    """A * conj(gamma) / |gcd(A, gamma)|^2, and whether it has zero indicatrix."""

    result: QuatPoly
    vanishing: bool


def cancel_indicatrix(a: QuatPoly, gamma: ComplexPoly) -> ReducedForm:
    """Multiply by the conjugate certificate and strip the forced real factor.

    The real content of A*conj(gamma) is exactly |gcd(A, gamma)|^2, so
    the division is always exact; a remainder signals corrupted inputs.
    The returned polynomial has vanishing indicatrix exactly when A and
    gamma share their indicatrix.
    """
    a = _require_nonzero_coprime(a, "indicatrix cancellation")
    gamma = ComplexPoly.of(gamma)
    gre, gim = gamma.real_parts()
    if gamma.is_zero() or gcd_real(gre, gim).degree() != 0:
        raise ValueError("certificate polynomial must have coprime components")
    weight = gcd_with_complex(a, gamma).norm_sq()
    product = a * gamma.conjugate().as_quat()
    reduced = exact_divide(product, weight.as_quat())
    return ReducedForm(reduced, has_vanishing_indicatrix(reduced))


class MembershipStatus(Enum):
    PROVEN = "proven"
    CERTIFICATE_REJECTED = "certificate-rejected"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Membership:
    """Outcome of the rational-RMF membership question."""

    status: MembershipStatus
    method: str
    gamma: Optional[ComplexPoly] = None
    reduced: Optional[QuatPoly] = None
    certificate: Optional[tuple[RealPoly, RealPoly]] = None


def rrmf_membership(a: QuatPoly, gamma: ComplexPoly | None = None, *,
                    search_degree: int | None = None,
                    search_budget: float = 10.0,
                    seed: int | None = None) -> Membership:
    """Three-valued verdict: proven / certificate-rejected / unknown.

    With a certificate the reduction test decides membership of that
    particular class.  Without one, a vanishing indicatrix or the
    equal-degree divisibility criterion prove membership; optionally
    search_certificate constructs a certificate of degree at most
    search_degree.  A false "not a member" is never returned.
    """
    a = _require_nonzero_coprime(a, "membership test")
    if gamma is not None:
        gamma = ComplexPoly.of(gamma)
        red = cancel_indicatrix(a, gamma)
        ga, gb = gamma.real_parts()
        if verify_han(a, ga, gb) != red.vanishing:
            raise AssertionError("certificate paths disagree")
        if red.vanishing:
            return Membership(MembershipStatus.PROVEN, "certificate",
                              gamma, red.result, (ga, gb))
        return Membership(MembershipStatus.CERTIFICATE_REJECTED, "certificate",
                          gamma, red.result)
    if has_vanishing_indicatrix(a):
        one = ComplexPoly.of(1)
        return Membership(MembershipStatus.PROVEN, "vanishing-indicatrix",
                          one, a, (RealPoly([1]), RealPoly()))
    if rho_eta(a).divisible:
        return Membership(MembershipStatus.PROVEN, "equal-degree-criterion")
    if search_degree is not None:
        found = search_certificate(a, search_degree, budget_seconds=search_budget,
                                   seed=seed)
        if found is not None:
            sa, sb = found
            return Membership(MembershipStatus.PROVEN, "search",
                              ComplexPoly.from_parts(sa, sb),
                              cancel_indicatrix(a, ComplexPoly.from_parts(sa, sb)).result,
                              (sa, sb))
    return Membership(MembershipStatus.UNKNOWN, "exhausted")


# -- certificate construction ------------------------------------------


def search_certificate(a: QuatPoly, max_degree: int, *,
                       budget_seconds: float = 10.0,
                       seed: int | None = None
                       ) -> Optional[tuple[RealPoly, RealPoly]]:
    """The certificate (a, b) of degree <= max_degree, built exactly, or None.

    For gamma = a + bi with coprime parts, (ab'-a'b)/(a^2+b^2) is
    Im(gamma'/gamma): it has a simple pole at each distinct root z of
    gamma, with residue m/2i for the multiplicity m of z, and one at
    conj(z) with residue -m/2i.  So when the reduced Han fraction P/D
    of A has a certificate, D is the product of |xi - z|^2 over the
    roots z of gamma, and the monic certificate is unique:
    gamma = prod_m G_m^m with G_m = gcd(D, 2iP - mD'), the roots of D
    with residue m/2i (Rothstein, Trager).  The result is returned only
    after verify_han has passed, jointly scaled so that the higher-degree
    member is monic.

    None proves that no certificate of degree <= max_degree exists,
    unless budget_seconds ran out between two gcds.  ``seed`` is
    accepted for compatibility and has no effect.
    """
    a = _require_nonzero_coprime(a, "certificate search")
    han = han_fraction(a)
    if han.is_zero():
        return (RealPoly([1]), RealPoly())
    deadline = time.monotonic() + budget_seconds
    poles = han.den.degree()
    if poles == 0 or poles % 2 or poles > 2 * max_degree:
        return None
    roots = poles // 2
    den = ComplexPoly.of(han.den)
    two_i_num = ComplexPoly.of(han.num).scale(ComplexScalar(0, 2))
    den_prime = ComplexPoly.of(han.den.derivative())
    gamma, found, degree, m = ComplexPoly.of(1), 0, 0, 1
    while found < roots:
        # every root still missing has multiplicity >= m
        if degree + m * (roots - found) > max_degree or time.monotonic() > deadline:
            return None
        g = gcd_complex(den, two_i_num - den_prime.scale(m))
        for _ in range(m):
            gamma = gamma * g
        found += g.degree()
        degree += m * g.degree()
        m += 1
    # P and D are real, so no root of D with residue m/2i is real or the
    # conjugate of another: the parts of gamma are coprime, and
    # verify_han checks that exactly before the identity itself
    ga, gb = gamma.real_parts()
    if not verify_han(a, ga, gb):
        return None
    return _normalize_certificate(ga, gb)


def _normalize_certificate(ra: RealPoly, rb: RealPoly
                           ) -> tuple[RealPoly, RealPoly]:
    """Joint real scaling: the higher-degree member becomes monic."""
    leader = ra if ra.degree() >= rb.degree() else rb
    inv = leader.leading().inverse()
    return ra.scale(inv), rb.scale(inv)


# -- aggregate verdict -------------------------------------------------


@dataclass
class Classification:
    """Full verdict record for one generator polynomial."""

    in_widetilde: bool
    in_f0: bool
    trivial: Optional[TrivialWitness]
    planar: bool
    primitive: bool
    core_degree: int
    membership: Membership
    han_certificate: Optional[tuple[RealPoly, RealPoly]] = None
    notes: str = ""


def classify(a: QuatPoly, certificate: tuple[RealPoly, RealPoly] | None = None,
             *, search_degree: int | None = None,
             search_budget: float = 10.0, seed: int | None = None
             ) -> Classification:
    """Aggregate all verdicts for one generator, certificate optional."""
    from .hodograph import is_primitive

    a = QuatPoly.of(a)
    if a.is_zero():
        raise ValueError("classification of the zero polynomial")
    notes = ["regularity over the reals (sigma having no real roots) not checked"]
    coprime = has_coprime_components(a)
    core = core_of(a)
    primitive = is_primitive(a)
    gamma = None
    if certificate is not None:
        ca, cb = RealPoly.of(certificate[0]), RealPoly.of(certificate[1])
        gamma = ComplexPoly.from_parts(ca, cb)
        certificate = (ca, cb)
    if coprime:
        in_f0 = has_vanishing_indicatrix(a)
        trivial = trivial_witness(a)
        planar = is_planar(a)
        membership = rrmf_membership(a, gamma, search_degree=search_degree,
                                     search_budget=search_budget, seed=seed)
    else:
        in_f0 = False
        trivial = None
        planar = hodograph_span_rank(a) <= 2
        membership = Membership(MembershipStatus.UNKNOWN, "components-not-coprime")
        notes.append("components share a real factor; membership tests skipped")
    if trivial is not None and not (in_f0 and planar and primitive):
        raise AssertionError("structural invariants violated")
    if membership.status is MembershipStatus.PROVEN:
        # for a proven member, the curve is planar exactly when the
        # core is trivial
        if planar != (trivial_witness(core.core) is not None):
            raise AssertionError("planarity disagrees with core triviality")
    return Classification(
        in_widetilde=coprime,
        in_f0=in_f0,
        trivial=trivial,
        planar=planar,
        primitive=primitive,
        core_degree=core.core.degree(),
        membership=membership,
        han_certificate=certificate,
        notes="; ".join(notes),
    )
