"""The rotation indicatrix and Han's rational-RMF condition.

For A = u + vi + pj + qk the pointwise inner product <A'i, A> expands
to -(v'u - u'v - q'p + p'q); divided by sigma = |A|^2 it is the
rotation indicatrix of A.  Han's criterion asks for coprime real (a, b)
with (uv'-u'v-pq'+p'q)/sigma == (ab'-a'b)/(a^2+b^2); the left side is
the Han fraction, the negation of the indicatrix.  Each has one owner:
hodograph.GeneratorAnalysis forms <A'i, A> and sigma in one pass and
reduces the Han fraction once (.inner, .sigma, .han), and
rotation_indicatrix reads its negation, 0 for A = 0.  The analysis also
holds the equal-degree verdict, and verify_han and rho_eta accept it in
place of A.  verify_han forms none of them: it decides Han's identity
from the value of its two sides at one power of two.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .hodograph import _INNER_FORM, GeneratorAnalysis
from .polynomials import (QuatPoly, RationalFunction, RealPoly, component_forms,
                          gcd_real)
from .scalars import _REAL, _algebra, _form_loop, _pack, _stack


def inner_product_poly(a: QuatPoly) -> RealPoly:
    """<A'i, A> = -(v'u - u'v - q'p + p'q), as an exact real polynomial."""
    return component_forms(a, (_INNER_FORM,))[0]


def rotation_indicatrix(a: QuatPoly) -> RationalFunction:
    """Normalized component of A'i along A; defined as 0 for A = 0."""
    a = QuatPoly.of(a)
    return RationalFunction.zero if a.is_zero() else -GeneratorAnalysis.of(a).han


def require_certificate(a: RealPoly, b: RealPoly) -> tuple[RealPoly, RealPoly]:
    """The certificate (a, b) as real polynomials; raises ValueError
    unless they are nonzero and coprime."""
    a, b = RealPoly.of(a), RealPoly.of(b)
    if a.is_zero() and b.is_zero():
        raise ValueError("certificate (0, 0) is not allowed")
    if gcd_real(a, b).degree() != 0:
        raise ValueError("certificate polynomials must be coprime")
    return a, b


# sigma, <A'i, A>, a'b - ab' and a^2 + b^2 as (c, i, j) terms c f_i f_j
# over u, v, p, q, a, b (0 .. 5) and their derivatives (6 .. 11), then
# L = (a'b - ab') sigma - <A'i, A> (a^2 + b^2) over those four (12 .. 15)
_HAN_IDENTITY = (((1, 0, 0), (1, 1, 1), (1, 2, 2), (1, 3, 3)),
                 ((-1, 7, 0), (1, 6, 1), (1, 9, 2), (-1, 8, 3)),
                 ((1, 10, 5), (-1, 4, 11)), ((1, 4, 4), (1, 5, 5)),
                 ((1, 14, 12), (-1, 13, 15)))


def verify_han(a_poly, a: RealPoly, b: RealPoly) -> bool:
    """Exact test of Han's identity (a'b - ab') sigma = <A'i, A> (a^2 + b^2)
    for the certificate (a, b), by one evaluation at a power of two.

    Requires, and checks before its zero test (_han_identity), coprime
    (a, b) and a generator with coprime components.  On the integer rows
    of A over A.den and of a, b over their lcm denominator both sides
    carry one positive factor, so the identity is L = 0 over Z[sqrt d],
    for L of _HAN_IDENTITY.  ||f|| = sum |x_i| + s |y_i| for f = sum (x_i
    + y_i sqrt d) xi^i, s = isqrt(d) + 1 > sqrt d, is submultiplicative,
    ||f'|| <= deg(f) ||f||, and n coefficients of size at most c give f
    and f' norms at most M = n^2 (s + 1) c: sigma and <A'i, A> are at most
    4 M_A^2, a'b - ab' and a^2 + b^2 at most 2 M_c^2 (M_A over A, M_c over
    a, b), each part of each coefficient of L at most B = 16 M_A^2 M_c^2.
    At t = 2**k > B a nonzero part of L of degree e is at least t^e -
    B (t^e - 1)/(t - 1) > 0 in size, so L = 0 exactly when both parts of
    L(t) vanish.  ``a_poly`` is the generator or its GeneratorAnalysis,
    whose cached coprimality is then read.
    """
    analysis = GeneratorAnalysis.of(
        a_poly, "certificate check against the zero polynomial")
    a, b = require_certificate(a, b)
    if not analysis.coprime:
        raise ValueError("generator components must be coprime")
    return _han_identity(analysis, a, b)


def _han_identity(analysis: GeneratorAnalysis, a: RealPoly, b: RealPoly) -> bool:
    """The zero test of verify_han, for real a, b, not both zero, whose
    coprimality and that of the components of A the caller has proven; a, b
    over two surd bases raise SurdBaseMismatch.  Over a base other than
    A's, no one algebra holds both, and the sides are polynomial products,
    which raise SurdBaseMismatch unless a factor of each is rational."""
    poly, (d, _, cert) = analysis.poly, _stack((a, b))
    if d and poly.d and d != poly.d:
        return ((a.derivative() * b - a * b.derivative()) * analysis.sigma
                == analysis.inner * (a * a + b * b))
    d = d or poly.d
    comps = poly.component_rows() + cert
    s = math.isqrt(d) + 1
    m_a, m_c = (max(map(len, rows)) ** 2 * (s + 1) * max(abs(x) for row in rows for x in row)
                for rows in (poly.rows, cert[0] + cert[1]))
    k = (16 * m_a * m_a * m_c * m_c).bit_length()
    # the rows at t = 2**k over Q(sqrt d), a missing sqrt(d) row zero, then L(t)
    real = _algebra(_REAL, d)
    values = _pack([tuple(rows) + ((),) * (real.m - len(rows)) for rows in comps], k)
    return not any(_form_loop(real, values, _HAN_IDENTITY)[-real.m:])


class RhoEta(NamedTuple):
    """The equal-degree divisibility pair and the criterion verdict."""

    rho: RealPoly
    eta: RealPoly
    divisible: bool


def rho_eta(a) -> RhoEta:
    """Divisibility criterion for certificates with deg(a^2+b^2) = deg sigma.

    rho = (up'-u'p+vq'-v'q)^2 + (uq'-u'q-vp'+v'p)^2 and
    eta = (uu'+vv'+pp'+qq')^2 + (uv'-u'v-pq'+p'q)^2 satisfy
    rho + eta = sigma * (u'^2+v'^2+p'^2+q'^2), so sigma divides either
    both or neither.  One form pass over conj(A) A', whose components are
    the four bases, gives both; the verdict is read from the analysis
    (GeneratorAnalysis.equal_degree); ``a`` is the generator or its analysis.
    """
    analysis = GeneratorAnalysis.of(a, "criterion on the zero polynomial")
    rho, eta = component_forms(analysis.poly.conjugate() * analysis.poly.derivative(),
                               (((1, 2, 2), (1, 3, 3)), ((1, 0, 0), (1, 1, 1))))
    return RhoEta(rho, eta, analysis.equal_degree)
