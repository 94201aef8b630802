"""Shared deterministic generators for the property suites."""

import random
from fractions import Fraction

import pytest

from rrmf.hodograph import GeneratorAnalysis, has_coprime_components
from rrmf.indicatrix import inner_product_poly, require_certificate
from rrmf.polynomials import (ComplexPoly, QuatPoly, RationalFunction, RealPoly,
                              gcd_real, reduce_fraction)
from rrmf.quaternions import I, K, Quaternion
from rrmf.scalars import ComplexScalar, Scalar


def rand_fraction(rng: random.Random, span: int = 3,
                  denominators=(1, 1, 1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice(denominators))


def rand_scalar(rng: random.Random, base: int = 0) -> Scalar:
    if base and rng.random() < 0.5:
        return Scalar(rand_fraction(rng), rand_fraction(rng), base)
    return Scalar(rand_fraction(rng))


def rand_quat(rng: random.Random, base: int = 0) -> Quaternion:
    return Quaternion(*(rand_scalar(rng, base) for _ in range(4)))


def nonzero_quat(rng: random.Random, base: int = 0) -> Quaternion:
    while True:
        q = rand_quat(rng, base)
        if not q.is_zero():
            return q


def rand_qpoly(rng: random.Random, degree: int, base: int = 0) -> QuatPoly:
    coeffs = [rand_quat(rng, base) for _ in range(degree + 1)]
    return QuatPoly(coeffs)


def nonzero_qpoly(rng: random.Random, degree: int, base: int = 0) -> QuatPoly:
    while True:
        p = rand_qpoly(rng, degree, base)
        if not p.is_zero():
            return p


def rand_rpoly(rng: random.Random, degree: int) -> RealPoly:
    return RealPoly([rand_scalar(rng) for _ in range(degree + 1)])


def rand_cpoly(rng: random.Random, degree: int, base: int = 0) -> ComplexPoly:
    return ComplexPoly([ComplexScalar(rand_scalar(rng, base), rand_scalar(rng, base))
                        for _ in range(degree + 1)])


def coprime_cpoly(rng: random.Random, degree: int, base: int = 0) -> ComplexPoly:
    """Complex polynomial whose real and imaginary parts are coprime."""
    while True:
        p = rand_cpoly(rng, degree, base)
        re, im = p.real_parts()
        if p.is_zero() or (re.is_zero() and im.is_zero()):
            continue
        if gcd_real(re, im).degree() == 0:
            return p


def coprime_qpoly(rng: random.Random, degree: int, base: int = 0) -> QuatPoly:
    """Quaternion polynomial with coprime real components."""
    while True:
        p = rand_qpoly(rng, degree, base)
        if not p.is_zero() and has_coprime_components(p):
            return p


def verdict_generators(rng: random.Random, count: int = 10) -> list[QuatPoly]:
    """Nonzero generators of every span rank, over Q and Q(sqrt 15): random
    ones, trivial ones (make_trivial), planar ones with coefficients in
    C (R + Rj) and lines C (real coefficients), for random left factors C."""
    from rrmf.construct import ConstructionError, make_trivial

    out = []
    for base in (0, 15):
        for _ in range(count):
            degree = rng.randint(0, 5)
            out.append(rand_qpoly(rng, degree, base))
            u = Quaternion(0, 0, rand_scalar(rng, base), rand_scalar(rng, base))
            pairs = [(rand_scalar(rng, base), rand_scalar(rng, base))
                     for _ in range(degree + 1)]
            try:
                out.append(make_trivial(nonzero_quat(rng, base), u, pairs))
            except ConstructionError:
                pass
            c = nonzero_quat(rng, base)
            out.append(c * QuatPoly([Quaternion(x, 0, y, 0) for x, y in pairs]))
            out.append(c * QuatPoly([Quaternion(x) for x, _ in pairs]))
    return [a for a in out if not a.is_zero()]


def norm_poly(a: QuatPoly) -> RealPoly:
    """u^2 + v^2 + p^2 + q^2, the squared pointwise norm of A, from its
    components: the oracle of GeneratorAnalysis.sigma."""
    u, v, p, q = QuatPoly.of(a).components()
    return u * u + v * v + p * p + q * q


def indicatrix_pair(a: QuatPoly) -> tuple[RealPoly, RealPoly, RationalFunction]:
    """<A'i, A>, sigma and their reduced ratio, the rotation indicatrix,
    read from one GeneratorAnalysis of A."""
    analysis = GeneratorAnalysis.of(a, "indicatrix pair of the zero polynomial")
    return analysis.inner, analysis.sigma, -analysis.han


def fraction_sum(f: RationalFunction, g: RationalFunction) -> RationalFunction:
    """f + g reduced, by cross-multiplying: RationalFunction has no
    arithmetic of its own."""
    return reduce_fraction(f.num * g.den + g.num * f.den, f.den * g.den)


def qpoly_from_complex_pair(alpha: ComplexPoly, beta: ComplexPoly) -> QuatPoly:
    """alpha + beta j for complex polynomials alpha and beta."""
    return QuatPoly.from_components(*ComplexPoly.of(alpha).real_parts(),
                                    *ComplexPoly.of(beta).real_parts())


def quaternion_from_complex_pair(alpha: ComplexScalar, beta: ComplexScalar) -> Quaternion:
    """alpha + beta j, the standard complex splitting."""
    return Quaternion(alpha.re, alpha.im, beta.re, beta.im)


def complex_pair(q: Quaternion) -> tuple[ComplexScalar, ComplexScalar]:
    """(alpha, beta) with q = alpha + beta j."""
    return ComplexScalar(q.w, q.x), ComplexScalar(q.y, q.z)


def normalized_component(x: Quaternion, y: Quaternion) -> Scalar:
    """<x,y>/<y,y>: oriented length of the projection of x onto y in |y| units."""
    n = y.norm_sq()
    if n.is_zero():
        raise ZeroDivisionError("normalized component along the zero quaternion")
    return x.inner(y) / n


def all_zero(coefficients) -> bool:
    """Whether every coefficient condition of indicatrix_coefficients vanishes."""
    return all(v.is_zero() for v in coefficients)


def reference_verify_han(a_poly: QuatPoly, a: RealPoly, b: RealPoly) -> bool:
    """Han's identity (ab' - a'b) sigma = -<A'i, A> (a^2 + b^2) by plain
    polynomial products, with sigma and <A'i, A> formed from A directly:
    the oracle of verify_han, which checks its arguments the same way."""
    a, b = require_certificate(a, b)
    if not has_coprime_components(a_poly):
        raise ValueError("generator components must be coprime")
    lhs = (a * b.derivative() - a.derivative() * b) * norm_poly(a_poly)
    return lhs == -inner_product_poly(a_poly) * (a * a + b * b)


def reference_coefficient_conditions(a: QuatPoly) -> tuple[Scalar, ...]:
    """The paper's coefficient conditions in Scalar arithmetic on the
    quaternion coefficients of A, the oracle of rrmf's integer form pass:
    c_m = sum_{k=0..m} (k+1) <A_{m-k}, A_{k+1} i> for m = 0 .. 2n-2."""
    coeffs = a.coeffs
    rotated = [c * I for c in coeffs]
    values = []
    for m in range(max(2 * a.degree() - 1, 1)):
        acc = Scalar(0)
        for k in range(m + 1):
            lo, hi = m - k, k + 1
            if lo < len(coeffs) and hi < len(coeffs):
                acc = acc + coeffs[lo].inner(rotated[hi]) * Scalar.of(k + 1)
        values.append(acc)
    return tuple(values)


def indicatrix_product_residual(b: QuatPoly, a: QuatPoly) -> RealPoly:
    """Cross-multiplied residual of the product formula for indicatrices,
    the oracle for <A'i, A> of products:

    residual = <(BA)'i, BA> - [(|alpha|^2-|beta|^2)<B'i, B>
               - 2<B'(alpha beta)k, B> + <A'i, A>|B|^2]
    with A = alpha + beta j; identically zero for all nonzero A, B.
    """
    a, b = QuatPoly.of(a), QuatPoly.of(b)
    if a.is_zero() or b.is_zero():
        raise ValueError("product residual needs nonzero polynomials")
    ba = b * a
    lhs = (ba.derivative() * I).inner(ba)
    alpha, beta = a.complex_split()
    na = alpha.norm_sq()
    nb = beta.norm_sq()
    db = b.derivative()
    first = (db * I).inner(b) * (na - nb)
    mid = (db * (alpha * beta).as_quat() * K).inner(b).scale(2)
    last = inner_product_poly(a) * norm_poly(b)
    return lhs - (first - mid + last)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260811)


# Largest distance allowed between a sampled erf/rmf axis entry and the
# exact frame rounded to floats.  Measured: at most 1.7e-15 on the worked
# quintics and the families n = 3..12 over [-3, 3], and 2.3e-14 on the
# right-cancellation quintic's RMF near xi = 1.965, where its degree-5
# generator B is evaluated with cancellation.
FRAME_TOL = 4e-14

# Wall-clock bound for one verb on a long-coefficient document, process
# start included, and for one verify_han call on a long-coefficient
# f-element.  Measured on a 2-core VM (Python 3.11): 0.2 s for classify
# at degree 16 x 100 digits, 0.6 s at degree 8 x 1000 digits, 0.6 s at
# degree 64 x 300 digits and at degree 128 x 100 digits, 0.3 s for
# search-gamma --max-degree 8 at degree 8 x 100 digits, and 0.05 s per
# verify_han call on the f-element of family member 8 and a degree-4 delta
# with 100-digit p/q coefficients.
LONG_BOUND_S = 5
_UNITS = (Quaternion(0, 1), Quaternion(0, 0, 1), Quaternion(0, 0, 0, 1))


def exact_axes(b: QuatPoly, xi: float) -> tuple[tuple[float, ...], ...]:
    """(B i B*, B j B*, B k B*)/|B|^2 at Fraction(xi), in exact quaternion
    arithmetic, each entry rounded to a float at the end."""
    q = QuatPoly.of(b).evaluate(Fraction(xi))
    norm = q.norm_sq()
    return tuple(tuple(float(c / norm) for c in (q * e * q.conjugate()).components()[1:])
                 for e in _UNITS)
