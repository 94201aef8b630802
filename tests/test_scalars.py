import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrmf.quaternions import Quaternion
from rrmf.scalars import (MAX_BASE, ComplexScalar, Scalar, SurdBaseMismatch,
                          format_scalar, is_valid_base, parse_scalar)

from conftest import rand_fraction, rand_scalar


def test_base_validation():
    assert is_valid_base(0) and is_valid_base(2) and is_valid_base(15)
    assert not is_valid_base(1) and not is_valid_base(4) and not is_valid_base(12)
    assert is_valid_base(MAX_BASE) and not is_valid_base(MAX_BASE + 2)  # 3 * 715827883
    with pytest.raises(ValueError, match="squarefree"):
        Scalar(0, 1, 10**30 + 57)
    with pytest.raises(ValueError):
        Scalar(1, 1, 4)
    with pytest.raises(ValueError):
        Scalar(0, 1, 0)
    with pytest.raises(TypeError, match="^use Scalar arithmetic, not nested construction$"):
        Scalar(Scalar(1))


def test_pure_rational_canonicalizes_base():
    assert Scalar(3, 0, 15) == Scalar(3)
    assert Scalar(3, 0, 15).d == 0


def test_mismatched_bases_reject():
    with pytest.raises(SurdBaseMismatch):
        Scalar(0, 1, 2) + Scalar(0, 1, 15)
    with pytest.raises(SurdBaseMismatch):
        Scalar(0, 1, 2) * Scalar(0, 1, 15)
    # a value of a wider ring holds one base, so its parts must agree
    with pytest.raises(SurdBaseMismatch):
        ComplexScalar(Scalar(0, 1, 2), Scalar(0, 1, 15))
    with pytest.raises(SurdBaseMismatch):
        Quaternion(1, Scalar(0, 1, 2), 0, Scalar(0, 1, 15))
    # rationals embed into any field
    assert Scalar(2) * Scalar(0, 1, 15) == Scalar(0, 2, 15)


def test_field_axioms_rational_and_surd():
    rng = random.Random(11)
    for base in (0, 5):
        for _ in range(200):
            a, b, c = (rand_scalar(rng, base) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a * a.inverse() == Scalar(1)
                assert a / a == Scalar(1)
    assert 1 / Scalar(2) == Scalar(Fraction(1, 2))


def test_exact_sign_against_float():
    rng = random.Random(12)
    for _ in range(300):
        s = rand_scalar(rng, 15)
        f = float(s)
        if abs(f) > 1e-9:
            assert s.sign() == (1 if f > 0 else -1)
        else:
            assert s.sign() == 0 or abs(f) < 1e-9
    # the close-call branches: compare a^2 with b^2 d
    assert Scalar(4, -1, 15).sign() == 1      # 16 > 15
    assert Scalar(-4, 1, 15).sign() == -1
    assert Scalar(3, -1, 15).sign() == -1     # 9 < 15
    assert Scalar(-3, 1, 15).sign() == 1
    # a zero rational or surd part, and equal signs
    assert Scalar(0).sign() == 0 and Scalar(Fraction(-1, 3)).sign() == -1
    assert Scalar(0, -1, 15).sign() == -1
    assert Scalar(-4, -1, 15).sign() == -1 and Scalar(Fraction(1, 2), 1, 15).sign() == 1


def test_comparisons():
    assert Scalar(0, 1, 2) < Scalar(3, 0, 2) + Scalar(0)
    assert Scalar(1) <= Scalar(1)
    assert Scalar(0, 2, 2) > Scalar(5, -1, 2) - Scalar(3)
    # the order read from __lt__ alone, against Scalars and ints
    assert Scalar(2) >= 2 and Scalar(2) >= Scalar(0, 1, 2) and not Scalar(1) >= Scalar(0, 1, 2)
    assert not Scalar(1) <= Scalar(0, 1, 3) - 1 and not Scalar(2) > 2


def test_pow():
    s = Scalar(1, 1, 2)
    assert s ** 2 == Scalar(3, 2, 2)
    assert s ** 0 == Scalar(1)
    assert s ** -1 == s.inverse()


def test_text_form_round_trip():
    rng = random.Random(13)
    for base in (0, 2, 15):
        for _ in range(100):
            s = rand_scalar(rng, base)
            assert parse_scalar(format_scalar(s)) == s


def test_text_form_examples():
    assert format_scalar(Scalar(Fraction(-1, 2))) == "-1/2"
    assert format_scalar(Scalar(2, Fraction(3, 4), 15)) == "2/1+3/4*sqrt(15)"
    assert format_scalar(Scalar(2, Fraction(-3, 4), 15)) == "2/1-3/4*sqrt(15)"
    assert parse_scalar("3") == Scalar(3)
    assert parse_scalar("sqrt(15)") == Scalar(0, 1, 15)
    assert parse_scalar("-2/3*sqrt(5)") == Scalar(0, Fraction(-2, 3), 5)


def test_parse_rejects_garbage():
    for bad in ("", "xi", "1.5", "1/0x", "sqrt(4)", "1+2"):
        with pytest.raises(ValueError):
            parse_scalar(bad)
    with pytest.raises(SurdBaseMismatch):
        parse_scalar("1/2+1/1*sqrt(5)", expected_base=15)


def test_float_conversion():
    assert math.isclose(float(Scalar(2, 3, 15)), 2 + 3 * math.sqrt(15))
    assert complex(ComplexScalar(1, Scalar(0, 1, 15))) == complex(1, math.sqrt(15))


def test_scalars_are_immutable_and_reject_foreign_operands():
    s = Scalar(1)
    with pytest.raises(AttributeError, match="Scalar is immutable"):
        s.d = 15
    with pytest.raises(TypeError):
        s + "x"


def test_complex_scalar_field():
    rng = random.Random(14)
    for _ in range(100):
        a = ComplexScalar(rand_scalar(rng), rand_scalar(rng))
        b = ComplexScalar(rand_scalar(rng), rand_scalar(rng))
        assert a * b == b * a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert a.norm_sq() == (a * a.conjugate()).re
        if not a.is_zero():
            assert a * a.inverse() == ComplexScalar(1)


# -- reference test of the arithmetic kernel ------------------------------
# Every result is compared with the textbook formula on (a, b, d) triples,
# built through the validating public constructor.

_KERNEL = settings(max_examples=300, deadline=None, derandomize=True,
                   database=None)
_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def _scalars(bases):
    return st.builds(lambda a, b, d: Scalar(a, b if d else 0, d),
                     _fractions, _fractions, st.sampled_from(bases))


def _triple(s):
    return s.a, s.b, s.d


def _ref_base(d1, d2):
    assert d1 == d2 or 0 in (d1, d2)
    return d1 or d2


def _ref_add(x, y):
    (a1, b1, d1), (a2, b2, d2) = x, y
    return a1 + a2, b1 + b2, _ref_base(d1, d2)


def _ref_neg(x):
    return -x[0], -x[1], x[2]


def _ref_mul(x, y):
    (a1, b1, d1), (a2, b2, d2) = x, y
    d = _ref_base(d1, d2)
    return a1 * a2 + b1 * b2 * d, a1 * b2 + b1 * a2, d


def _ref_inverse(x):
    a, b, d = x
    n = a * a - b * b * d
    return a / n, -b / n, d


def _ref_pow(x, n):
    if n < 0:
        x, n = _ref_inverse(x), -n
    result = (Fraction(1), Fraction(0), 0)
    for _ in range(n):
        result = _ref_mul(result, x)
    return result


def _assert_kernel_result(result, expected):
    assert type(result.a) is Fraction and type(result.b) is Fraction
    assert result.b != 0 or result.d == 0
    assert result == Scalar(*expected)


@_KERNEL
@given(_scalars((0, 2, 15)), _scalars((0, 2, 15)))
def test_kernel_matches_textbook_formulas(x, y):
    tx, ty = _triple(x), _triple(y)
    _assert_kernel_result(-x, _ref_neg(tx))
    if not x.is_zero():
        _assert_kernel_result(x.inverse(), _ref_inverse(tx))
    if 0 not in (x.d, y.d) and x.d != y.d:
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(SurdBaseMismatch):
                op(x, y)
        return
    _assert_kernel_result(x + y, _ref_add(tx, ty))
    _assert_kernel_result(x - y, _ref_add(tx, _ref_neg(ty)))
    _assert_kernel_result(x * y, _ref_mul(tx, ty))


@_KERNEL
@given(_scalars((0, 15)), st.integers(min_value=-3, max_value=5))
def test_kernel_pow_matches_repeated_product(x, n):
    if n < 0 and x.is_zero():
        return
    _assert_kernel_result(x ** n, _ref_pow(_triple(x), n))


@_KERNEL
@given(_scalars((0, 15)), _fractions)
def test_kernel_mixed_with_plain_rationals(x, q):
    tx, tq = _triple(x), (q, Fraction(0), 0)
    for left in (q, int(q)):
        tl = (Fraction(left), Fraction(0), 0)
        _assert_kernel_result(Scalar.of(left), tl)
        _assert_kernel_result(left + x, _ref_add(tl, tx))
        _assert_kernel_result(left - x, _ref_add(tl, _ref_neg(tx)))
        _assert_kernel_result(left * x, _ref_mul(tl, tx))
    _assert_kernel_result(x - q, _ref_add(tx, _ref_neg(tq)))
    _assert_kernel_result(x * q, _ref_mul(tx, tq))



def test_mul_of_a_rational_and_a_surd_matches_the_general_formula():
    # one operand rational (b = 0, d = 0), the other over Q(sqrt 15), in
    # both orders, including a zero rational whose product is rational
    rng = random.Random(15)
    for k in range(300):
        r = Scalar(0) if k % 50 == 0 else rand_scalar(rng)
        s = Scalar(rand_fraction(rng), rand_fraction(rng) or 1, 15)
        for x, y in ((r, s), (s, r), (s, r.a), (r.a, s)):
            _assert_kernel_result(x * y, _ref_mul(_triple(Scalar.of(x)), _triple(Scalar.of(y))))
    with pytest.raises(SurdBaseMismatch):
        Scalar(1, 1, 15) * Scalar(2, 1, 6)
