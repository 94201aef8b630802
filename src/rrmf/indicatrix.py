"""The rotation indicatrix and Han's rational-RMF condition.

For A = u + vi + pj + qk the pointwise inner product <A'i, A> expands
to -(v'u - u'v - q'p + p'q); divided by sigma = |A|^2 it is the
rotation indicatrix of A.  Han's criterion asks for coprime real (a, b)
with (uv'-u'v-pq'+p'q)/sigma == (ab'-a'b)/(a^2+b^2); the left side is
exposed here as the Han fraction.  The two fractions differ exactly by
sign: indicatrix(A) == -han_fraction(A).  Both printed forms are kept,
with the exact relation checked in the tests, rather than silently
reconciling the orientation convention.  <A'i, A>, sigma, the Han
fraction, reduced once, and the equal-degree verdict are read from a
hodograph.GeneratorAnalysis, which verify_han and rho_eta also accept
in place of A.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hodograph import _INNER_FORM, GeneratorAnalysis
from .polynomials import (QuatPoly, RationalFunction, RealPoly, component_forms,
                          gcd_real, real_forms)


def inner_product_poly(a: QuatPoly) -> RealPoly:
    """<A'i, A> = -(v'u - u'v - q'p + p'q), as an exact real polynomial."""
    return component_forms(a, (_INNER_FORM,))[0]


def han_numerator(a: QuatPoly) -> RealPoly:
    """uv' - u'v - pq' + p'q, the numerator of Han's fraction."""
    return -inner_product_poly(a)


@dataclass(frozen=True)
class IndicatrixPair:
    """<A'i, A> together with sigma and their reduced ratio."""

    numerator_inner: RealPoly
    sigma: RealPoly
    reduced: RationalFunction

    @classmethod
    def of(cls, a: QuatPoly) -> "IndicatrixPair":
        analysis = GeneratorAnalysis.of(a, "indicatrix pair of the zero polynomial")
        return cls(analysis.inner, analysis.sigma, -analysis.han)


def rotation_indicatrix(a: QuatPoly) -> RationalFunction:
    """Normalized component of A'i along A; defined as 0 for A = 0."""
    a = QuatPoly.of(a)
    return RationalFunction.zero if a.is_zero() else -GeneratorAnalysis.of(a).han


def han_fraction(a: QuatPoly) -> RationalFunction:
    """(uv'-u'v-pq'+p'q)/(u^2+v^2+p^2+q^2), reduced.

    Equals the negation of the rotation indicatrix.
    """
    return GeneratorAnalysis.of(a, "Han fraction of the zero polynomial").han


def omega1(a: QuatPoly) -> RationalFunction:
    """Tangent component of the ERF angular velocity: twice the Han fraction."""
    han = GeneratorAnalysis.of(a, "angular velocity of the zero polynomial").han
    # twice a reduced fraction with monic denominator is still reduced
    return RationalFunction(han.num.scale(2), han.den, _reduced=True)


def require_certificate(a: RealPoly, b: RealPoly) -> tuple[RealPoly, RealPoly]:
    """The certificate (a, b) as real polynomials; raises ValueError
    unless they are nonzero and coprime."""
    a, b = RealPoly.of(a), RealPoly.of(b)
    if a.is_zero() and b.is_zero():
        raise ValueError("certificate (0, 0) is not allowed")
    if gcd_real(a, b).degree() != 0:
        raise ValueError("certificate polynomials must be coprime")
    return a, b


# a'b - ab' and a^2 + b^2 for the certificate parts a, b and their
# derivatives a', b', numbered 0 .. 3 as real_forms numbers them
_HAN_FORMS = (((1, 2, 1), (-1, 0, 3)), ((1, 0, 0), (1, 1, 1)))


def verify_han(a_poly, a: RealPoly, b: RealPoly) -> bool:
    """Exact cross-multiplied test of Han's condition for certificate (a, b).

    Requires coprime (a, b) and a generator with coprime components;
    never evaluates the rational functions, so no spurious cancellation
    decisions can occur.  The identity (a'b - ab') sigma = <A'i, A>
    (a^2 + b^2) takes both certificate forms from one integer pass over
    the rows of a and b, and two products.  ``a_poly`` is the generator
    or its GeneratorAnalysis, whose cached coprimality, <A'i, A> and
    sigma are then read rather than recomputed.
    """
    analysis = GeneratorAnalysis.of(
        a_poly, "certificate check against the zero polynomial")
    a, b = require_certificate(a, b)
    if not analysis.coprime:
        raise ValueError("generator components must be coprime")
    wronskian, norm = real_forms((a, b), _HAN_FORMS)
    return wronskian * analysis.sigma == analysis.inner * norm


@dataclass(frozen=True)
class RhoEta:
    """The equal-degree divisibility pair and the criterion verdict."""

    rho: RealPoly
    eta: RealPoly
    divisible: bool


def rho_eta(a) -> RhoEta:
    """Divisibility criterion for certificates with deg(a^2+b^2) = deg sigma.

    rho = (up'-u'p+vq'-v'q)^2 + (uq'-u'q-vp'+v'p)^2 and
    eta = (uu'+vv'+pp'+qq')^2 + (uv'-u'v-pq'+p'q)^2 satisfy
    rho + eta = sigma * (u'^2+v'^2+p'^2+q'^2), so sigma divides either
    both or neither.  The four bases are the components of conj(A) A',
    and the verdict is read from the analysis (GeneratorAnalysis.
    equal_degree); ``a`` is the generator or its GeneratorAnalysis.
    """
    analysis = GeneratorAnalysis.of(a, "criterion on the zero polynomial")
    e1, e2, r1, r2 = (analysis.poly.conjugate() * analysis.poly.derivative()).components()
    return RhoEta(r1 * r1 + r2 * r2, e1 * e1 + e2 * e2, analysis.equal_degree)
