import math
import random

import pytest

from rrmf.catalog import (nontrivial_cubic, quintic_left_cancellation,
                          quintic_no_cancellation, quintic_right_cancellation)
from rrmf.hodograph import (_IMAGE_FORMS, Hodograph, core_of, float_images,
                            has_coprime_components, hodograph_of, integrate,
                            is_primitive)
from rrmf.polynomials import ComplexPoly, QuatPoly, RealPoly, gcd_real
from rrmf.quaternions import I, Quaternion
from rrmf.scalars import Scalar

from conftest import coprime_cpoly, nonzero_qpoly, nonzero_quat, norm_poly

XI_PLUS_I = ComplexPoly.from_parts(RealPoly([0, 1]), RealPoly([1]))


def test_printed_hodographs():
    for curve in (quintic_left_cancellation(), quintic_no_cancellation(),
                  quintic_right_cancellation()):
        h = hodograph_of(curve.generator)
        assert h.components() == curve.hodograph
        assert h.sigma == curve.sigma


def test_trivial_generator():
    h = hodograph_of(QuatPoly([Quaternion(1)]))
    assert h.components() == (RealPoly([1]), RealPoly(), RealPoly())
    assert h.sigma == RealPoly([1])


def test_surd_hodograph_values():
    h = hodograph_of(quintic_right_cancellation().generator)
    assert h.yp == RealPoly([Scalar(0, 960, 15), Scalar(0, -480, 15)])
    assert h.zp == RealPoly([Scalar(0, -870, 15), Scalar(0, 960, 15),
                             Scalar(0, -240, 15)])


def _assert_is_a_i_a_star(a, h):
    # hodograph_of reads the first basis image; check it against the product
    w, x, y, z = (a * QuatPoly([I]) * a.conjugate()).components()
    assert w.is_zero() and h.components() == (x, y, z)
    assert h.sigma == norm_poly(a)


def test_pythagorean_identity_random(rng):
    for _ in range(60):
        a = nonzero_qpoly(rng, rng.randint(0, 3))
        h = hodograph_of(a)
        assert h.xp * h.xp + h.yp * h.yp + h.zp * h.zp == h.sigma * h.sigma
        assert h.sigma.leading().sign() == 1
        _assert_is_a_i_a_star(a, h)


def test_hodograph_type_rejects_non_pythagorean(rng):
    with pytest.raises(AssertionError):
        Hodograph(RealPoly([1]), RealPoly([1]), RealPoly(), RealPoly([1]))
    # built by hand from A i A*, over Q and Q(sqrt 15), it passes the check;
    # with one coefficient moved it does not
    for base in (0, 15):
        h = hodograph_of(nonzero_qpoly(rng, 2, base))
        assert h.sigma.d == base
        parts = [h.xp, h.yp, h.zp, h.sigma]
        assert Hodograph(*parts).components() == h.components()
        for k in range(4):
            moved = list(parts)
            moved[k] = moved[k] + RealPoly([0, 1])
            with pytest.raises(AssertionError, match="Pythagorean identity violated"):
                Hodograph(*moved)
    # Pythagorean, but sigma = -1
    with pytest.raises(AssertionError, match="sigma must have nonnegative leading"):
        Hodograph(RealPoly([1]), RealPoly(), RealPoly(), RealPoly([-1]))


def test_left_rotation_covariance(rng):
    # sigma scales by |Q|^2; pairwise inner products of the vector
    # coefficients scale by |Q|^4
    i_poly = QuatPoly([I])
    for _ in range(50):
        a = nonzero_qpoly(rng, 2)
        q = nonzero_quat(rng)
        qa = q * a
        n = q.norm_sq()
        assert norm_poly(qa) == norm_poly(a).scale(n)
        b = (a * i_poly * a.conjugate()).coeffs
        bq = (qa * i_poly * qa.conjugate()).coeffs
        for l in range(len(b)):
            for m in range(len(b)):
                assert bq[l].inner(bq[m]) == b[l].inner(b[m]) * n * n


def test_is_primitive_examples():
    assert is_primitive(quintic_no_cancellation().generator)
    composite = QuatPoly([Quaternion(1, 0, 1, 0)]) * QuatPoly([I, Quaternion(1)])
    assert not is_primitive(composite)
    assert is_primitive(QuatPoly([Quaternion(1)]))
    with pytest.raises(ValueError):
        is_primitive(QuatPoly())


def test_core_examples():
    ex2 = quintic_no_cancellation().generator
    dec = core_of(ex2)
    assert dec.core == ex2 and dec.factor == ComplexPoly.of(1)

    cubic = nontrivial_cubic()
    prod = cubic * XI_PLUS_I.as_quat()
    dec = core_of(prod)
    assert dec.core == cubic and dec.factor == XI_PLUS_I

    const = QuatPoly([Quaternion(2, 1, 0, 3)])
    dec = core_of(const)
    assert dec.core == const and dec.factor == ComplexPoly.of(1)


def test_core_idempotent_and_factorization(rng):
    for _ in range(50):
        a = nonzero_qpoly(rng, 3)
        dec = core_of(a)
        assert dec.core * dec.factor.as_quat() == a
        again = core_of(dec.core)
        assert again.core == dec.core and again.factor == ComplexPoly.of(1)
        assert is_primitive(a) == (dec.factor.degree() == 0)


def test_coprime_components():
    assert has_coprime_components(QuatPoly([Quaternion(1), I]))
    shared = Quaternion(1) * QuatPoly([Quaternion(1), I]) \
        * RealPoly([0, 1]).as_quat()
    assert not has_coprime_components(shared)
    assert not has_coprime_components(QuatPoly())


def test_integrate_examples():
    h = hodograph_of(QuatPoly([Quaternion(1)]))
    pos = integrate(h)
    assert pos.x == RealPoly([0, 1]) and pos.arclen == RealPoly([0, 1])
    assert pos.y.is_zero() and pos.z.is_zero()

    ex2 = quintic_no_cancellation()
    pos = integrate(hodograph_of(ex2.generator))
    assert pos.x == RealPoly([0, 100, -220, 140, 10, -54])
    assert pos.x.derivative() == ex2.hodograph[0]
    assert pos.y.derivative() == ex2.hodograph[1]
    assert pos.z.derivative() == ex2.hodograph[2]
    assert pos.arclen.derivative() == ex2.sigma
    assert pos.x.coeff(0).is_zero() and pos.arclen.coeff(0).is_zero()


def test_pythagorean_identity_in_surd_field(rng):
    for _ in range(30):
        a = nonzero_qpoly(rng, rng.randint(0, 2), base=5)
        h = hodograph_of(a)
        assert h.xp * h.xp + h.yp * h.yp + h.zp * h.zp == h.sigma * h.sigma
        _assert_is_a_i_a_star(a, h)


def test_primitive_iff_hodograph_components_coprime(rng):
    # the real-gcd form of primitivity, independent of the complex split
    cases = [nonzero_qpoly(rng, rng.randint(0, 3), base) for base in (0, 15) * 10]
    cases += [curve.generator for curve in (quintic_left_cancellation(),
                                            quintic_no_cancellation(),
                                            quintic_right_cancellation())]
    cases += [a * coprime_cpoly(rng, rng.randint(1, 2)).as_quat()
              for a in cases[:12]]
    verdicts = set()
    for a in cases:
        primitive = is_primitive(a)
        assert primitive == (gcd_real(*hodograph_of(a).components()).degree() == 0)
        verdicts.add(primitive)
    assert verdicts == {True, False}


def test_float_images_walk_the_image_forms():
    # each sum starts from 0.0 and adds c (b_i b_j) in table order, so the
    # written-out forms round, overflow and sign zeros as the table does
    rng = random.Random(10)
    specials = (0.0, -0.0, 1.0, -1.0, 1e-170, -1e200, math.inf, -math.inf, math.nan)
    for _ in range(2000):
        b = [rng.choice(specials) if rng.random() < 0.3 else rng.uniform(-10, 10)
             for _ in range(4)]
        want = []
        for form in _IMAGE_FORMS:
            acc = 0.0
            for c, i, j in form:
                acc = acc + c * (b[i] * b[j])
            want.append(acc)
        # repr tells -0.0 from 0.0 and matches nan
        assert repr(float_images(*b)) == repr(tuple(want)), b
