"""Membership and structure tests for quaternion polynomial generators.

A generator with coprime components has an identically vanishing
rotation indicatrix exactly when all its per-degree coefficient
conditions, the coefficients of <A'i, A>, vanish; that class underlies
every other verdict here: triviality (coefficients confined to a left
coset of a plane R + Ru with u orthogonal to i), planarity of the
generated curve, and membership in the class of generators of curves
with rational rotation-minimizing frames, decided either through a
supplied certificate, the equal-degree divisibility criterion, or a
certificate of bounded degree constructed exactly from the residues of
the reduced Han fraction.  No false negatives are ever reported for the
general membership question: absent proof, the verdict is "unknown".

Every fact of a generator, the coefficient conditions and the
equal-degree criterion included, is read from one
hodograph.GeneratorAnalysis, re-exported here with TrivialWitness.  Its
span rank and triviality witness are decided on the integer rows of the
polynomial kernel (polynomials.vector_rank and vector_part_rank); only
the witness's direction is one Quaternion product.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .hodograph import GeneratorAnalysis, TrivialWitness
from .indicatrix import require_certificate, verify_han
from .polynomials import (ComplexPoly, QuatPoly, RealPoly, exact_divide,
                          gcd_complex)
from .scalars import ComplexScalar, Scalar


def _require_nonzero_coprime(a: QuatPoly, what: str) -> GeneratorAnalysis:
    analysis = GeneratorAnalysis.of(a, f"{what}: zero polynomial rejected")
    if not analysis.coprime:
        raise ValueError(f"{what}: components must be coprime")
    return analysis


@dataclass(frozen=True)
class IndicatrixCoefficients:
    """The 2n-1 real numbers whose vanishing characterizes a zero indicatrix."""

    values: tuple[Scalar, ...]


def indicatrix_coefficients(a: QuatPoly) -> IndicatrixCoefficients:
    """c_m = sum_{k=0..m} (k+1) <A_{m-k}, A_{k+1} i> for m = 0 .. 2n-2 (one
    0 for a constant A): the coefficients of <A'i, A>, read from the
    analysis's one form pass, whether or not the components are coprime."""
    analysis = GeneratorAnalysis.of(a, "coefficient conditions of the zero polynomial")
    inner, n = analysis.inner, analysis.poly.degree()
    return IndicatrixCoefficients(tuple(map(inner.coeff, range(max(2 * n - 1, 1)))))


def has_vanishing_indicatrix(a: QuatPoly) -> bool:
    """Coprime components and identically zero <A'i, A>."""
    return GeneratorAnalysis.of(a, "membership test on the zero polynomial").in_f0


def trivial_witness(a: QuatPoly) -> Optional[TrivialWitness]:
    """Witness (C, u) if every coefficient of C^-1 A lies in R + Ru, u _|_ i.

    C is the lowest-index nonzero coefficient; any nonzero element of
    the coset plane works, since right factors in R + Ru preserve it.
    Returns None when A is not of this form.
    """
    return _require_nonzero_coprime(a, "triviality test").trivial


def hodograph_span_rank(a: QuatPoly) -> int:
    """Exact rank of the span of the vector coefficients of A i A*."""
    return GeneratorAnalysis.of(a, "span rank of the zero polynomial").span_rank


def is_planar(a: QuatPoly) -> bool:
    """Whether the generated curve lies in a plane.

    Geometric test: the vector coefficients of A i A* span rank <= 2.
    """
    return _require_nonzero_coprime(a, "planarity test").planar


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
    gamma share their indicatrix, that is when verify_han accepts the
    parts of gamma.
    """
    a = _require_nonzero_coprime(a, "indicatrix cancellation").poly
    gamma = ComplexPoly.of(gamma)
    require_certificate(*gamma.real_parts())
    weight = gcd_with_complex(a, gamma).norm_sq()
    reduced = exact_divide(a * gamma.conjugate().as_quat(), weight.as_quat())
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
    certificate: Optional[tuple[RealPoly, RealPoly]] = None


def rrmf_membership(a: QuatPoly, gamma: ComplexPoly | None = None, *,
                    search_degree: int | None = None,
                    search_budget: float = 10.0) -> Membership:
    """Three-valued verdict: proven / certificate-rejected / unknown.

    With a certificate gamma = a + bi, Han's identity decides membership
    of that particular class (verify_han).  Without one, a vanishing
    indicatrix or the equal-degree divisibility criterion prove
    membership; optionally search_certificate constructs a certificate
    of degree at most search_degree.  A false "not a member" is never
    returned.
    """
    analysis = _require_nonzero_coprime(a, "membership test")
    certificate = None if gamma is None else ComplexPoly.of(gamma).real_parts()
    return _membership(analysis, certificate, search_degree, search_budget)


def _membership(analysis: GeneratorAnalysis,
                certificate: tuple[RealPoly, RealPoly] | None,
                search_degree: int | None, search_budget: float) -> Membership:
    # rrmf_membership for a generator with coprime components
    if certificate is not None:
        if verify_han(analysis, *certificate):
            return Membership(MembershipStatus.PROVEN, "certificate", certificate)
        return Membership(MembershipStatus.CERTIFICATE_REJECTED, "certificate")
    if analysis.in_f0:
        return Membership(MembershipStatus.PROVEN, "vanishing-indicatrix",
                          (RealPoly([1]), RealPoly()))
    if analysis.equal_degree:
        return Membership(MembershipStatus.PROVEN, "equal-degree-criterion")
    if search_degree is not None:
        found = _search(analysis, search_degree, search_budget)
        if found is not None:
            return Membership(MembershipStatus.PROVEN, "search", found)
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
    return _search(_require_nonzero_coprime(a, "certificate search"),
                   max_degree, budget_seconds)


def _search(analysis: GeneratorAnalysis, max_degree: int, budget_seconds: float
            ) -> Optional[tuple[RealPoly, RealPoly]]:
    han = analysis.han
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
    # verify_han checks that exactly before the identity itself, reading
    # the facts of A from the analysis
    ga, gb = gamma.real_parts()
    if not verify_han(analysis, ga, gb):
        return None
    return _normalize_certificate(ga, gb)


def _normalize_certificate(ra: RealPoly, rb: RealPoly
                           ) -> tuple[RealPoly, RealPoly]:
    """Joint real scaling: the higher-degree member becomes monic."""
    leader = ra if ra.degree() >= rb.degree() else rb
    inv = leader.leading_inverse()
    return ra * inv, rb * inv


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
             search_budget: float = 10.0) -> Classification:
    """Aggregate all verdicts for one generator, certificate optional."""
    analysis = GeneratorAnalysis.of(a, "classification of the zero polynomial")
    notes = ["regularity over the reals (sigma having no real roots) not checked"]
    if certificate is not None:
        certificate = (RealPoly.of(certificate[0]), RealPoly.of(certificate[1]))
    if analysis.coprime:
        membership = _membership(analysis, certificate, search_degree, search_budget)
        trivial = analysis.trivial
    else:
        if certificate is not None:
            require_certificate(*certificate)
        membership = Membership(MembershipStatus.UNKNOWN, "components-not-coprime")
        trivial = None
        notes.append("components share a real factor; membership tests skipped")
    return Classification(
        in_widetilde=analysis.coprime,
        in_f0=analysis.in_f0,
        trivial=trivial,
        planar=analysis.planar,
        primitive=analysis.primitive,
        # deg A = deg core + deg chi: the core itself is not formed
        core_degree=analysis.poly.degree() - analysis.chi.degree(),
        membership=membership,
        han_certificate=certificate,
        notes="; ".join(notes),
    )
