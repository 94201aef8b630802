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
the reduced Han fraction, first in its prime image.  classify is the
one entry of that verdict, which _membership decides.  No false
negatives are ever reported for the general membership question:
absent proof, the verdict is "unknown".

Every fact of a generator, the coefficient conditions and the
equal-degree criterion included, is read from one
hodograph.GeneratorAnalysis, re-exported here with TrivialWitness.  Its
span rank and triviality witness are both decided by one rank on the
integer rows of the polynomial kernel, polynomials.vector_rank: of the
hodograph's components, and of the vector components of conj(c) A for
the lowest nonzero coefficient c of A.  search_certificate, the one
entry of the certificate search, takes the generator or its analysis.
"""
from __future__ import annotations

import time
from enum import Enum
from itertools import zip_longest
from typing import NamedTuple, Optional

from .hodograph import GeneratorAnalysis, TrivialWitness
from .indicatrix import _han_identity, require_certificate, verify_han
from .polynomials import (ComplexPoly, QuatPoly, RealPoly, _gcd_mod, _trim_mod,
                          exact_divide, gcd_complex, mul_mod,
                          rational_mod)
from .scalars import ComplexScalar, Scalar


def _require_nonzero_coprime(a: QuatPoly, what: str) -> GeneratorAnalysis:
    analysis = GeneratorAnalysis.of(a, f"{what}: zero polynomial rejected")
    if not analysis.coprime:
        raise ValueError(f"{what}: components must be coprime")
    return analysis


def indicatrix_coefficients(a: QuatPoly) -> tuple[Scalar, ...]:
    """The 2n-1 coefficients of <A'i, A>, whose vanishing characterizes a
    zero indicatrix: c_m = sum_{k=0..m} (k+1) <A_{m-k}, A_{k+1} i> for
    m = 0 .. 2n-2 (one 0 for a constant A), read from the analysis's one
    form pass, whether or not the components are coprime."""
    analysis = GeneratorAnalysis.of(a, "coefficient conditions of the zero polynomial")
    inner, n = analysis.inner, analysis.poly.degree()
    return tuple(map(inner.coeff, range(max(2 * n - 1, 1))))


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


class ReducedForm(NamedTuple):
    """A * conj(gamma) / |gcd(A, gamma)|^2, and whether it has zero indicatrix."""

    result: QuatPoly
    vanishing: bool


def cancel_indicatrix(a: QuatPoly, gamma: ComplexPoly) -> ReducedForm:
    """Multiply by the conjugate certificate and strip the forced real factor.

    The real content of A*conj(gamma) is exactly |gcd(A, gamma)|^2, so
    the division is always exact; a remainder signals corrupted inputs.
    The greatest common right divisor of A and gamma is gcd(chi, gamma),
    since chi = gcd(alpha, conj(beta)) is the analysis's maximal monic
    complex right divisor of A.
    The returned polynomial has vanishing indicatrix exactly when A and
    gamma share their indicatrix, that is when verify_han accepts the
    parts of gamma.
    """
    analysis = _require_nonzero_coprime(a, "indicatrix cancellation")
    gamma = ComplexPoly.of(gamma)
    require_certificate(*gamma.real_parts())
    weight = gcd_complex(analysis.chi, gamma).norm_sq()
    reduced = exact_divide(analysis.poly * gamma.conjugate().as_quat(), weight.as_quat())
    return ReducedForm(reduced, has_vanishing_indicatrix(reduced))


class MembershipStatus(Enum):
    PROVEN = "proven"
    CERTIFICATE_REJECTED = "certificate-rejected"
    UNKNOWN = "unknown"


class Membership(NamedTuple):
    """Outcome of the rational-RMF membership question, with the
    certificate the verdict read: the supplied one, or the one built."""

    status: MembershipStatus
    method: str
    certificate: Optional[tuple[RealPoly, RealPoly]] = None


def _membership(analysis: GeneratorAnalysis,
                certificate: tuple[RealPoly, RealPoly] | None,
                search_degree: int | None, search_budget: float) -> Membership:
    if not analysis.coprime:
        if certificate is not None:
            require_certificate(*certificate)
        return Membership(MembershipStatus.UNKNOWN, "components-not-coprime", certificate)
    if certificate is not None:
        status = (MembershipStatus.PROVEN if verify_han(analysis, *certificate)
                  else MembershipStatus.CERTIFICATE_REJECTED)
        return Membership(status, "certificate", certificate)
    if analysis.in_f0:
        return Membership(MembershipStatus.PROVEN, "vanishing-indicatrix",
                          (RealPoly([1]), RealPoly()))
    if analysis.equal_degree:
        return Membership(MembershipStatus.PROVEN, "equal-degree-criterion")
    if search_degree is not None:
        found = search_certificate(analysis, search_degree, budget_seconds=search_budget)
        if found is not None:
            return Membership(MembershipStatus.PROVEN, "search", found)
    return Membership(MembershipStatus.UNKNOWN, "exhausted")


# -- certificate construction ------------------------------------------


def search_certificate(a: QuatPoly | GeneratorAnalysis, max_degree: int, *,
                       budget_seconds: float = 10.0,
                       seed: int | None = None
                       ) -> Optional[tuple[RealPoly, RealPoly]]:
    """The certificate (a, b) of degree <= max_degree, built exactly, or None.

    For gamma = a + bi with coprime parts, (ab'-a'b)/(a^2+b^2) is
    Im(gamma'/gamma): it has a simple pole at each distinct root z of
    gamma, with residue m/2i for the multiplicity m of z, and one at
    conj(z) with residue -m/2i.  So when the reduced Han fraction P/D
    of A has a certificate, D is the product of |xi - z|^2 over the
    roots z of gamma, and the monic certificate is gamma = prod_m G_m^m
    with G_m = gcd(D, 2iP - mD'), the roots of D with residue m/2i
    (Rothstein, Trager).  It is unique: the quotient of two has a real
    logarithmic derivative, so it is a constant times a real f/g, and
    coprime parts make f and g constant.  It is returned only after Han's
    identity is proven for it, and it is monic by construction: gamma is
    a product of monic gcds, so a is monic and deg b < deg a.

    The prime image goes first: a nonzero P in han_image proves A not in
    F0, and more than 2 max_degree roots of its D prove None, since D has
    no fewer; otherwise gamma is built over F_p, over a surd base too,
    with parts reconstructed over Q and proven coprime in F_p
    (_image_certificate), and returned if verify_han's zero test accepts
    it.  In every other case, an irrational gamma included, the exact
    stage (_search_exact) builds gamma from the exact Han fraction and
    verify_han proves it; budget_seconds bounds that stage alone.
    None proves that no certificate of degree <= max_degree exists,
    unless the budget ran out between two of its gcds.  ``a`` is the
    generator or its GeneratorAnalysis, whose facts are then read rather
    than recomputed.  ``seed`` is accepted for compatibility and has no
    effect.  A budget that is not >= 0, NaN included, raises ValueError.
    """
    if not budget_seconds >= 0:
        raise ValueError(f"certificate search: budget {budget_seconds} is not >= 0")
    analysis = _require_nonzero_coprime(a, "certificate search")
    if max_degree < 0:
        return None
    image = analysis.han_image
    if (image is None or not image[0]) and analysis.in_f0:
        return (RealPoly([1]), RealPoly())
    if image is not None:
        if len(image[1]) - 1 > 2 * max_degree:
            return None
        found = _image_certificate(analysis, max_degree)
        if found is not None and _han_identity(analysis, *found):
            return found
    return _search_exact(analysis, max_degree, budget_seconds)


def _image_certificate(analysis: GeneratorAnalysis, max_degree: int
                       ) -> Optional[tuple[RealPoly, RealPoly]]:
    """The coprime parts of gamma over Q, reconstructed at p from its
    images at i -> r and i -> -r, which the residue loop builds from
    han_image; None for an odd or zero number of poles, when the loop
    stops, past max_degree, without a reconstruction or for parts with a
    common factor."""
    p, r, (num, den) = analysis.image.p, analysis.image.r, analysis.han_image
    roots, odd = divmod(len(den) - 1, 2)
    if odd or not roots:
        return None
    den_prime = [k * c % p for k, c in enumerate(den)][1:]

    def residue_gcd(i: int, m: int) -> list:
        """gcd(D, 2iP - mD') over F_p, for the image i of sqrt(-1)."""
        return _gcd_mod([den, _trim_mod([(2 * i * s - m * t) % p for s, t in zip_longest(
            num, den_prime, fillvalue=0)])], p)

    factors, found, degree, m = [], 0, 0, 1
    while found < roots:
        # the exact stage's bound: every root still missing has multiplicity
        # >= m; a multiplicity above the number of roots is left to the
        # exact stage, so that a large max_degree costs at most 2 roots gcds
        if degree + m * (roots - found) > max_degree or m > roots:
            return None
        g, h = residue_gcd(r, m), residue_gcd(-r, m)
        factors += [(g, h)] * m
        found, degree, m = found + len(g) - 1, degree + m * (len(g) - 1), m + 1
    (plus, minus), *rest = factors  # gamma = prod G_m^m at i -> r and i -> -r
    for g, h in rest:
        plus, minus = mul_mod(plus, g, p), mul_mod(minus, h, p)
    # plus, minus and two_bi are the images of a + bi, a - bi and 2bi; a
    # common factor of the monic a and b keeps its degree at p
    two_bi = _trim_mod([(s - t) % p for s, t in zip(plus, minus)])
    if len(plus) != len(minus) or degree > max_degree or len(_gcd_mod([two_bi, plus], p)) > 1:
        return None
    half, inv = (p + 1) // 2, pow(2 * r, -1, p)
    re = [rational_mod((s + t) * half, p) for s, t in zip(plus, minus)]
    im = [rational_mod(c * inv, p) for c in two_bi]
    # None by identity: `None in` would call Fraction.__eq__ on every part
    if any(c is None for c in re + im):
        return None
    return tuple(RealPoly.from_terms([(c.numerator, c.denominator, 0, 1, 0) for c in part])
                 for part in (re, im))


def _search_exact(analysis: GeneratorAnalysis, max_degree: int,
                  budget_seconds: float) -> Optional[tuple[RealPoly, RealPoly]]:
    """The exact stage of search_certificate, on the reduced Han fraction
    over Q(sqrt d)(i) within budget_seconds; None in F0 too."""
    han = analysis.han
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
    # the coprimality of A from the analysis
    ga, gb = gamma.real_parts()
    return (ga, gb) if verify_han(analysis, ga, gb) else None


# -- aggregate verdict -------------------------------------------------


class Classification(NamedTuple):
    """Full verdict record for one generator polynomial."""

    in_widetilde: bool
    in_f0: bool
    trivial: Optional[TrivialWitness]
    planar: bool
    primitive: bool
    core_degree: int
    membership: Membership
    notes: str = ""


def classify(a: QuatPoly, certificate: tuple[RealPoly, RealPoly] | None = None,
             *, search_degree: int | None = None,
             search_budget: float = 10.0) -> Classification:
    """Aggregate all verdicts for one generator, certificate optional.

    ``membership`` is the one rational-RMF verdict, three-valued: proven /
    certificate-rejected / unknown.  With a certificate (a, b), Han's
    identity decides membership of that particular class (verify_han).
    Without one, a vanishing indicatrix or the equal-degree divisibility
    criterion prove membership; optionally search_certificate constructs
    a certificate of degree at most search_degree.  Components that share
    a real factor give "unknown".  A false "not a member" is never
    returned.  A certificate (0, 0) or with non-coprime parts raises, and
    so does a search_budget that is not >= 0 once the search runs.
    """
    analysis = GeneratorAnalysis.of(a, "classification of the zero polynomial")
    notes = ["regularity over the reals (sigma having no real roots) not checked"]
    if certificate is not None:
        certificate = (RealPoly.of(certificate[0]), RealPoly.of(certificate[1]))
    if not analysis.coprime:
        notes.append("components share a real factor; membership tests skipped")
    return Classification(
        in_widetilde=analysis.coprime,
        in_f0=analysis.in_f0,
        trivial=analysis.trivial if analysis.coprime else None,
        planar=analysis.planar,
        primitive=analysis.primitive,
        # deg A = deg core + deg chi: neither chi nor the core is formed
        core_degree=analysis.poly.degree() - analysis.chi_degree,
        membership=_membership(analysis, certificate, search_degree, search_budget),
        notes="; ".join(notes),
    )
