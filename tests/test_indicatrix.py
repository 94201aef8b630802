import re
from fractions import Fraction

import pytest

from rrmf.catalog import (nontrivial_cubic, quintic_left_cancellation,
                          quintic_no_cancellation, quintic_right_cancellation)
from rrmf.construct import (CubicSpec, make_cubic, make_f_element,
                            make_spatial_family, make_trivial)
from rrmf.frames import certificate_generator
from rrmf.indicatrix import (IndicatrixPair, han_fraction, inner_product_poly,
                             omega1, rho_eta, rotation_indicatrix, verify_han)
from rrmf.hodograph import _IMAGE_FORMS, GeneratorAnalysis
from rrmf.polynomials import (ComplexPoly, QuatPoly, RealPoly, _embedding,
                              reduce_fraction)
from rrmf.quaternions import I, J, K, Quaternion
from rrmf.scalars import ComplexScalar, Scalar

from conftest import (coprime_cpoly, coprime_qpoly,
                      indicatrix_product_residual, nonzero_qpoly,
                      nonzero_quat, norm_poly, rand_fraction, rand_scalar,
                      reference_verify_han, verdict_generators)

IXP1 = QuatPoly([Quaternion(1), I])  # i xi + 1


def test_inner_product_poly_examples():
    assert inner_product_poly(QuatPoly([Quaternion(1), J])).is_zero()
    for n in range(3, 9):
        assert inner_product_poly(make_spatial_family(n)).is_zero()
    # hand expansion of -(v'u - u'v - q'p + p'q) for u=1, v=xi
    assert inner_product_poly(IXP1) == RealPoly([-1])


def test_indicatrix_pair_invariants(rng):
    for _ in range(50):
        a = nonzero_qpoly(rng, 3)
        pair = IndicatrixPair.of(a)
        u, v, p, q = a.components()
        du, dv, dp, dq = (t.derivative() for t in (u, v, p, q))
        assert pair.numerator_inner == -(dv * u - du * v - dq * p + dp * q)
        assert pair.reduced == reduce_fraction(pair.numerator_inner, pair.sigma)


def test_rotation_indicatrix_examples():
    assert rotation_indicatrix(QuatPoly()).is_zero()
    ex1 = quintic_left_cancellation().generator
    assert rotation_indicatrix(ex1) == -reduce_fraction(RealPoly([1]), RealPoly([5, -4, 1]))
    trivial = make_trivial(Quaternion(1, 2, 0, 1), K, [(1, 0), (2, 1), (0, 3)])
    assert rotation_indicatrix(trivial).is_zero()


def test_sign_bridge(rng):
    for _ in range(40):
        a = nonzero_qpoly(rng, 3)
        assert rotation_indicatrix(a) == -han_fraction(a)


def test_han_fraction_printed_values():
    ex1 = quintic_left_cancellation()
    assert han_fraction(ex1.generator) == reduce_fraction(RealPoly([1]), RealPoly([5, -4, 1]))
    ex2 = quintic_no_cancellation()
    assert han_fraction(ex2.generator) == reduce_fraction(
        RealPoly([14, -38, 4]), RealPoly([10, -44, 122, -172, 109]))
    ex3 = quintic_right_cancellation()
    assert han_fraction(ex3.generator) == reduce_fraction(
        RealPoly([35, -32, 8]), RealPoly([125, -180, 109, -32, 4]))


def test_verify_han_examples():
    ex1 = quintic_left_cancellation()
    assert verify_han(ex1.generator, RealPoly([-2, 1]), RealPoly([-1]))
    ex3 = quintic_right_cancellation()
    assert verify_han(ex3.generator, *ex3.certificate)
    ex2 = quintic_no_cancellation()
    assert not verify_han(ex2.generator, RealPoly([1]), RealPoly())


def test_verify_han_preconditions():
    ex1 = quintic_left_cancellation().generator
    with pytest.raises(ValueError):
        verify_han(ex1, RealPoly([0, 2]), RealPoly([0, 0, 2]))  # not coprime
    with pytest.raises(ValueError):
        verify_han(ex1, RealPoly(), RealPoly())
    shared = ex1 * RealPoly([0, 1]).as_quat()
    with pytest.raises(ValueError):
        verify_han(shared, RealPoly([-2, 1]), RealPoly([-1]))


SQRT15 = Scalar(0, 1, 15)
# a spatial cubic over Q(sqrt 15) with vanishing indicatrix
CUBIC15 = make_cubic(CubicSpec(Quaternion(SQRT15, 0, 0, 1), Quaternion(1, 0, SQRT15 / 2, 0),
                               s3=1 + SQRT15))


def _han_cases(rng, base: int) -> list[tuple[QuatPoly, RealPoly, RealPoly]]:
    """(A, a, b) for accepted and rejected certificates: f-elements with
    their certificates, the degree-0 certificates (1, 0) and (0, 1),
    perturbed and random certificates."""
    cores = [nontrivial_cubic(), make_spatial_family(4)]
    cores += [CUBIC15] if base else []
    elements = []
    for core in cores:
        for degree in (1, 2, 3):
            elements.append(make_f_element(core, coprime_cpoly(rng, degree, base)))
        # a certificate over Q for a generator over Q(sqrt 15) when the core
        # is CUBIC15; a = xi/3 and b = 1/2 have different denominators
        elements.append(make_f_element(core, ComplexPoly(
            [ComplexScalar(0, Fraction(1, 2)), Fraction(1, 3)])))
    cases = []
    for a in cores + [e.poly for e in elements]:
        cases += [(a, RealPoly([1]), RealPoly()), (a, RealPoly(), RealPoly([1]))]
    for e in elements:
        gamma = e.certificate
        for cert in (gamma, gamma + ComplexPoly.of(1), coprime_cpoly(rng, rng.randint(1, 3))):
            cases.append((e.poly, *cert.real_parts()))
        # parts with random, different denominators
        cases.append((e.poly, RealPoly([rand_fraction(rng, 5, (1, 2, 3, 7)) for _ in range(2)]),
                      RealPoly([rand_scalar(rng, base), rand_fraction(rng, 5, (1, 5))])))
    return cases


@pytest.mark.parametrize("base", [0, 15])
def test_verify_han_matches_reference_identity(rng, base):
    verdicts = []
    for a, ca, cb in _han_cases(rng, base):
        try:
            expected = reference_verify_han(a, ca, cb)
        except ValueError as error:
            with pytest.raises(ValueError, match=f"^{re.escape(str(error))}$"):
                verify_han(a, ca, cb)
            continue
        assert verify_han(a, ca, cb) is expected
        assert verify_han(GeneratorAnalysis.of(a), ca, cb) is expected
        verdicts.append(expected)
    assert set(verdicts) == {True, False}


def test_verify_han_special_certificates():
    # the degree-0 certificates of a generator with vanishing indicatrix
    for core in (make_spatial_family(4), CUBIC15):
        assert verify_han(core, RealPoly([1]), RealPoly())
        assert verify_han(core, RealPoly(), RealPoly([1]))
    # a = xi/3 and b = 1/2, over Q, certify the f-element over Q(sqrt 15)
    delta = ComplexPoly([ComplexScalar(0, Fraction(1, 2)), Fraction(1, 3)])
    element = make_f_element(CUBIC15, delta)
    assert element.poly.d == 15 and element.certificate == delta
    a, b = delta.real_parts()
    assert (a.den, b.den, a.d, b.d) == (3, 2, 0, 0)
    assert verify_han(element.poly, a, b) and reference_verify_han(element.poly, a, b)
    assert not verify_han(element.poly, RealPoly([1]), RealPoly())


def test_omega1():
    ex2 = quintic_no_cancellation().generator
    assert omega1(ex2) == reduce_fraction(
        RealPoly([28, -76, 8]), RealPoly([10, -44, 122, -172, 109]))
    assert omega1(ex2) == han_fraction(ex2) * 2
    assert omega1(nontrivial_cubic()).is_zero()
    # u=1, v=xi: twice 1/(xi^2+1), sign per the printed angular-velocity formula
    assert omega1(IXP1) == reduce_fraction(RealPoly([2]), RealPoly([1, 0, 1]))


def test_rho_eta_divisibility():
    ex2 = quintic_no_cancellation().generator
    assert rho_eta(ex2).divisible
    # complex generator: rho vanishes identically, so the criterion passes
    # (certificate (u, v) always works for a planar generator)
    result = rho_eta(IXP1)
    assert result.rho.is_zero()
    assert result.eta == RealPoly([1, 0, 1])
    assert result.divisible
    assert verify_han(IXP1, RealPoly([1]), RealPoly([0, 1]))
    # a genuinely failing case
    assert not rho_eta(QuatPoly([Quaternion(1), I, J])).divisible


def test_rho_eta_footnote_identity(rng):
    cases = [nonzero_qpoly(rng, 3) for _ in range(60)]
    cases += [quintic_no_cancellation().generator, IXP1]
    for a in cases:
        result = rho_eta(a)
        du, dv, dp, dq = (t.derivative() for t in a.components())
        assert result.rho + result.eta \
            == norm_poly(a) * (du * du + dv * dv + dp * dp + dq * dq)
        # so sigma divides rho exactly when it divides eta
        assert result.divisible == result.eta.divmod(norm_poly(a))[1].is_zero()


def _rho_eta_products(a):
    """rho and eta from the twenty component products of their definition."""
    u, v, p, q = a.components()
    du, dv, dp, dq = (u.derivative(), v.derivative(),
                      p.derivative(), q.derivative())
    r1 = u * dp - du * p + v * dq - dv * q
    r2 = u * dq - du * q - v * dp + dv * p
    e1 = u * du + v * dv + p * dp + q * dq
    e2 = u * dv - du * v - p * dq + dp * q
    return r1 * r1 + r2 * r2, e1 * e1 + e2 * e2


def _shifted(a: QuatPoly, k: int) -> QuatPoly:
    """A(xi + k), by Horner's rule in xi + k."""
    shift, out = QuatPoly([Quaternion(k), Quaternion(1)]), QuatPoly()
    for c in reversed(a.coeffs):
        out = out * shift + QuatPoly([c])
    return out


def test_rho_eta_matches_product_formula(rng):
    quintic = quintic_no_cancellation().generator
    cases = verdict_generators(rng)
    cases += [quintic, IXP1, quintic_right_cancellation().generator]
    # sigma divides rho for every left factor and shift of the quintic
    moved = [_shifted(quintic.left_scale(nonzero_quat(rng, base)), rng.randint(-3, 3))
             for base in (0, 15) for _ in range(4)]
    # sigma keeps no degree 2 deg A at the prime, so the exact remainder
    # decides: a leading coefficient divisible by the prime, and the left
    # factor r + i of norm r^2 + 1, for r the image of i
    prime, (_, r) = _embedding(2, 0)
    b = nonzero_qpoly(rng, 3)
    lead = QuatPoly(list(b.coeffs[:-1]) + [Quaternion(prime, 2 * prime, 0, prime)])
    moved.append(quintic.left_scale(Quaternion(r, 1)))
    for a in (lead, moved[-1]):
        sigma, = GeneratorAnalysis.of(a).image.forms(_IMAGE_FORMS[:1])
        assert len(sigma) <= 2 * a.degree()
    verdicts = set()
    for a in cases + moved + [lead]:
        result = rho_eta(a)
        assert (result.rho, result.eta) == _rho_eta_products(a)
        assert result.divisible == result.rho.divmod(norm_poly(a))[1].is_zero()
        verdicts.add(result.divisible)
    assert verdicts == {True, False}
    assert all(rho_eta(a).divisible for a in moved)


def test_product_residual(rng):
    for _ in range(60):
        a = nonzero_qpoly(rng, rng.randint(0, 3))
        b = nonzero_qpoly(rng, rng.randint(0, 3))
        assert indicatrix_product_residual(b, a).is_zero()


def test_product_residual_special_cases(rng):
    one = QuatPoly([Quaternion(1)])
    for _ in range(20):
        a = nonzero_qpoly(rng, 3)
        assert indicatrix_product_residual(one, a).is_zero()
        gamma = coprime_cpoly(rng, 2).as_quat()
        b = nonzero_qpoly(rng, 2)
        assert indicatrix_product_residual(b, gamma).is_zero()


def test_additivity_under_right_complex_multiplication(rng):
    for _ in range(60):
        b = coprime_qpoly(rng, rng.randint(1, 3))
        alpha = coprime_cpoly(rng, rng.randint(1, 2))
        assert han_fraction(b * alpha.as_quat()) \
            == han_fraction(b) + han_fraction(alpha.as_quat())


def test_conjugation_flips_sign(rng):
    for _ in range(60):
        delta = coprime_cpoly(rng, rng.randint(1, 3))
        d = delta.as_quat()
        dc = delta.conjugate().as_quat()
        assert rotation_indicatrix(dc) == -rotation_indicatrix(d)


def test_certificate_kills_generator_twist():
    for curve in (quintic_left_cancellation(), quintic_no_cancellation(),
                  quintic_right_cancellation()):
        a, b = curve.certificate
        assert verify_han(curve.generator, a, b)
        assert inner_product_poly(certificate_generator(curve.generator, a, b)).is_zero()


def test_identities_in_surd_field(rng):
    # sign bridge and product residual hold over Q(sqrt(5)) as well
    for _ in range(30):
        a = nonzero_qpoly(rng, rng.randint(1, 2), base=5)
        assert rotation_indicatrix(a) == -han_fraction(a)
        b = nonzero_qpoly(rng, rng.randint(0, 2), base=5)
        assert indicatrix_product_residual(b, a).is_zero()
