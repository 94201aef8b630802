import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrmf.quaternions import I, J, K, ONE, Quaternion
from rrmf.scalars import ComplexScalar, Scalar

from conftest import (complex_pair, nonzero_quat, normalized_component,
                      quaternion_from_complex_pair, rand_quat, rand_scalar)


def test_defining_relations():
    # all 16 products of the basis (1, i, j, k), written out
    assert ONE * ONE == ONE and ONE * I == I and ONE * J == J and ONE * K == K
    assert I * ONE == I and J * ONE == J and K * ONE == K
    assert I * I == Quaternion(-1) and J * J == Quaternion(-1) and K * K == Quaternion(-1)
    assert I * J == K and J * I == -K
    assert J * K == I and K * J == -I
    assert K * I == J and I * K == -J


# -- reference test of the coefficient rings --------------------------------
# Products, conjugates, norms and inverses against the textbook formulas
# written out here, independently of the multiplication tables the classes
# and the polynomial kernel read.

_RINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
_scalars = st.builds(lambda a, b, d: Scalar(a, b if d else 0, d),
                     _fractions, _fractions, st.sampled_from((0, 15)))


@_RINGS
@given(st.lists(_scalars, min_size=8, max_size=8))
def test_quaternion_arithmetic_matches_written_formulas(parts):
    (a1, b1, c1, d1), (a2, b2, c2, d2) = parts[:4], parts[4:]
    p, q = Quaternion(a1, b1, c1, d1), Quaternion(a2, b2, c2, d2)
    assert (p * q).components() == (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)
    assert p.conjugate().components() == (a1, -b1, -c1, -d1)
    n = a1 * a1 + b1 * b1 + c1 * c1 + d1 * d1
    assert p.norm_sq() == n
    if n.is_zero():
        with pytest.raises(ZeroDivisionError):
            p.inverse()
    else:
        assert p.inverse().components() == (a1 / n, -b1 / n, -c1 / n, -d1 / n)


@_RINGS
@given(st.lists(_scalars, min_size=4, max_size=4))
def test_complex_scalar_arithmetic_matches_written_formulas(parts):
    a, b, c, d = parts
    x, y = ComplexScalar(a, b), ComplexScalar(c, d)
    product = x * y
    assert (product.re, product.im) == (a * c - b * d, a * d + b * c)
    assert (x.conjugate().re, x.conjugate().im) == (a, -b)
    n = a * a + b * b
    assert x.norm_sq() == n
    if n.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert (x.inverse().re, x.inverse().im) == (a / n, -b / n)


def test_cross_kind_equality_repr_and_hash():
    assert ComplexScalar(1) == Quaternion(1) and Quaternion(1) == ComplexScalar(1)
    assert Quaternion(2) == 2 and ComplexScalar(2) == Scalar(2) and Scalar(2) == Quaternion(2)
    assert Quaternion(1, 2) == ComplexScalar(1, 2) and ComplexScalar(1, 2) != Quaternion(1, 2, 3)
    q, c = Quaternion(1, 2, 3, Scalar(1, 1, 15)), ComplexScalar(-1, Scalar(0, 2, 15))
    assert repr(q) == "Quaternion(1/1, 2/1, 3/1, 1/1+1/1*sqrt(15))"
    assert repr(c) == "ComplexScalar(-1/1, 0/1+2/1*sqrt(15))"
    assert hash(q) == hash((q.w, q.x, q.y, q.z)) and hash(c) == hash((c.re, c.im))


RINGS = (Scalar, ComplexScalar, Quaternion)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
@pytest.mark.parametrize("right", RINGS)
@pytest.mark.parametrize("left", RINGS)
def test_mixed_ring_arithmetic_lifts_the_narrower_operand(rng, left, right, op):
    wide = left if left.width >= right.width else right
    for base in (0, 15):
        for _ in range(4):
            x, y = (ring.from_parts([rand_scalar(rng, base) for _ in range(ring.width)])
                    for ring in (left, right))
            result = op(x, y)
            assert type(result) is wide
            assert result == op(wide.of(x), wide.of(y))


def test_mixed_ring_examples_keep_the_operand_order():
    q = Quaternion(1, 2, 3, 4)
    assert Scalar(1) + ComplexScalar(1, 2) == ComplexScalar(2, 2)
    assert Scalar(2) * q == Quaternion(2, 4, 6, 8)
    assert ComplexScalar(1, 2) * q == Quaternion(1, 2, 0, 0) * q != q * Quaternion(1, 2)
    assert ComplexScalar(1, 2) - q == -(q - ComplexScalar(1, 2))
    for narrow, wide in ((Scalar, ComplexScalar(1)), (Scalar, Quaternion(1)),
                         (ComplexScalar, Quaternion(1))):
        with pytest.raises(TypeError):
            narrow.of(wide)


def test_equal_values_hash_alike_across_rings(rng):
    # the hash of the narrowest equal form, so that equal values of the
    # three rings (and rationals) are one set element
    assert len({Quaternion(1), ComplexScalar(1), Scalar(1), 1, Fraction(1)}) == 1
    assert len({Quaternion(1, 2), ComplexScalar(1, 2)}) == 1
    for base in (0, 15):
        for _ in range(10):
            s = rand_scalar(rng, base)
            c = ComplexScalar(rand_scalar(rng, base), rand_scalar(rng, base))
            equal = [s, ComplexScalar.of(s), Quaternion.of(s)] + ([s.a] if s.d == 0 else [])
            assert all(v == s for v in equal)
            assert {hash(v) for v in equal} == {hash(s)}
            assert c == Quaternion.of(c) and hash(c) == hash(Quaternion.of(c))


def test_norm_product_example():
    assert Quaternion(1, 0, 1, 0) * Quaternion(1, 0, -1, 0) == Quaternion(2)


def test_inner_examples():
    assert I.inner(I) == Scalar(1)
    assert K.inner(J * I) == Scalar(-1)
    assert Quaternion(1, 0, 2, 0).inner(Quaternion(0, 3, 0, 1)) == Scalar(0)


def test_normalized_component_examples():
    assert normalized_component(I.scale(2), I) == Scalar(2)
    assert normalized_component(I, J) == Scalar(0)
    assert normalized_component(Quaternion(1, 0, 1, 0), Quaternion(1, 0, -1, 0)) == Scalar(0)
    with pytest.raises(ZeroDivisionError):
        normalized_component(I, Quaternion(0))


def test_conjugation_antihomomorphism(rng):
    for _ in range(200):
        p, q = rand_quat(rng), rand_quat(rng)
        assert (p * q).conjugate() == q.conjugate() * p.conjugate()
        assert p.conjugate().conjugate() == p


def test_norm_multiplicative(rng):
    for _ in range(200):
        p, q = rand_quat(rng), rand_quat(rng)
        assert (p * q).norm_sq() == p.norm_sq() * q.norm_sq()


def test_multiplication_is_orthogonal(rng):
    # <UX, UY> = |U|^2 <X, Y> and <XU, YU> = <X, Y> |U|^2, unnormalized U
    for _ in range(200):
        u, x, y = nonzero_quat(rng), rand_quat(rng), rand_quat(rng)
        n = u.norm_sq()
        assert (u * x).inner(u * y) == x.inner(y) * n
        assert (x * u).inner(y * u) == x.inner(y) * n


def test_inverse(rng):
    for _ in range(50):
        q = nonzero_quat(rng)
        assert q * q.inverse() == ONE
        assert q.inverse() * q == ONE


def test_norm_positive_definite(rng):
    assert Quaternion(0).norm_sq() == Scalar(0)
    for _ in range(50):
        q = nonzero_quat(rng)
        assert q.norm_sq().sign() == 1


def test_complex_pair_round_trip(rng):
    for _ in range(50):
        q = rand_quat(rng)
        alpha, beta = complex_pair(q)
        assert quaternion_from_complex_pair(alpha, beta) == q


def test_cross_product():
    assert J.cross(K) == I
    assert I.cross(J) == K
    assert I.cross(I) == Quaternion(0)
