import math
from fractions import Fraction

import pytest

from rrmf.catalog import (quintic_left_cancellation, quintic_no_cancellation,
                          quintic_right_cancellation)
from rrmf.hodograph import Hodograph
from rrmf.indicatrix import inner_product_poly
from rrmf.linalg import exact_rank
from rrmf.polynomials import (ComplexPoly, InexactDivision, QuatPoly,
                              RationalFunction, RealPoly, component_forms, exact_divide,
                              gcd_complex, gcd_real, reduce_fraction,
                              vector_rank)
from rrmf.quaternions import I, J, K, Quaternion
from rrmf.scalars import ComplexScalar, Scalar, SurdBaseMismatch

from conftest import (coprime_cpoly, nonzero_qpoly, nonzero_quat, norm_poly,
                      qpoly_from_complex_pair, rand_cpoly, rand_qpoly,
                      rand_rpoly, rand_scalar)
from linalg_reference import gauss_jordan_rank

XI_PLUS_I = ComplexPoly.from_parts(RealPoly([0, 1]), RealPoly([1]))
XI_MINUS_I = ComplexPoly.from_parts(RealPoly([0, 1]), RealPoly([-1]))


def test_derivative_examples():
    assert RealPoly([5, -4, 1]).derivative() == RealPoly([-4, 2])
    assert RealPoly([7]).derivative() == RealPoly()
    family3 = QuatPoly([Quaternion(1), J, K.scale(3), I])
    assert family3.derivative() == QuatPoly([J, K.scale(6), I.scale(3)])


def test_antiderivative():
    p = RealPoly([100, -440, 420, 40, -270])
    anti = p.antiderivative()
    assert anti == RealPoly([0, 100, -220, 140, 10, -54])
    assert anti.derivative() == p


def test_quat_product_examples():
    xi_plus_i = QuatPoly([I, Quaternion(1)])
    xi_minus_i = QuatPoly([-I, Quaternion(1)])
    assert xi_plus_i * xi_minus_i == QuatPoly([Quaternion(1), Quaternion(0), Quaternion(1)])
    assert QuatPoly([J]) * xi_plus_i == QuatPoly([-K, J])


def test_complex_right_multiplication_identity(rng):
    # (alpha + beta j) gamma = alpha gamma + (beta gamma*) j
    for _ in range(100):
        a = rand_qpoly(rng, 3)
        gamma = rand_cpoly(rng, 2)
        alpha, beta = a.complex_split()
        lhs = a * gamma.as_quat()
        rhs = qpoly_from_complex_pair(alpha * gamma, beta * gamma.conjugate())
        assert lhs == rhs


def test_conjugation():
    p = QuatPoly.from_components(RealPoly([1, 2]), RealPoly([3]), RealPoly([0, 4]),
                                 RealPoly([5]))
    u, v, pp, q = p.conjugate().components()
    assert (u, v, pp, q) == (RealPoly([1, 2]), RealPoly([-3]), RealPoly([0, -4]),
                             RealPoly([-5]))
    real_embedded = RealPoly([1, -4, 5]).as_quat()
    assert real_embedded.conjugate() == real_embedded
    lhs = (QuatPoly([I, Quaternion(1)]) * QuatPoly([J, Quaternion(1)])).conjugate()
    rhs = QuatPoly([-J, Quaternion(1)]) * QuatPoly([-I, Quaternion(1)])
    assert lhs == rhs


def test_conjugation_antihomomorphism(rng):
    for _ in range(100):
        p, q = rand_qpoly(rng, 3), rand_qpoly(rng, 2)
        assert (p * q).conjugate() == q.conjugate() * p.conjugate()


def test_norm_poly_examples():
    one = QuatPoly([Quaternion(1)])
    assert norm_poly(one) == RealPoly([1])
    ex1 = quintic_left_cancellation()
    assert norm_poly(ex1.generator) == ex1.sigma
    ex2 = quintic_no_cancellation()
    assert norm_poly(ex2.generator) == RealPoly([100, -440, 1220, -1720, 1090])


def test_norm_poly_is_real_part_of_ppstar(rng):
    for _ in range(100):
        p = rand_qpoly(rng, 3)
        prod = p * p.conjugate()
        u, v, pp, q = prod.components()
        assert u == norm_poly(p)
        assert v.is_zero() and pp.is_zero() and q.is_zero()


def test_complex_norm_sq_is_gamma_times_conjugate(rng):
    for base in (0, 15):
        for degree in list(range(6)) * 3:
            gamma = ComplexPoly([ComplexScalar(rand_scalar(rng, base),
                                               rand_scalar(rng, base))
                                 for _ in range(degree + 1)])
            re, im = (gamma * gamma.conjugate()).real_parts()
            assert gamma.norm_sq() == re
            assert im.is_zero()
    # zero operands give the canonical zero polynomial
    a, zero = nonzero_qpoly(rng, 2, 15), RealPoly()
    for value in (ComplexPoly().norm_sq(), QuatPoly().inner(a), a.inner(QuatPoly())):
        assert type(value) is RealPoly
        assert (value.d, value.rows, value.den) == (zero.d, zero.rows, zero.den)


def test_norm_poly_multiplicative(rng):
    for _ in range(100):
        p, q = rand_qpoly(rng, 3), rand_qpoly(rng, 2)
        assert norm_poly(p * q) == norm_poly(p) * norm_poly(q)


def test_degree_additivity(rng):
    for _ in range(100):
        p, q = nonzero_qpoly(rng, 3), nonzero_qpoly(rng, 2)
        assert (p * q).degree() == p.degree() + q.degree()


def test_gcd_real_examples():
    ex1 = quintic_left_cancellation()
    h = ex1.hodograph
    assert gcd_real(*h) == RealPoly([1])
    p = RealPoly([3, 6])
    assert gcd_real(p, RealPoly()) == p.monic()
    left = gcd_real(-inner_product_poly(ex1.generator), ex1.sigma)
    assert left == RealPoly([6825, 2646, 441]).monic()
    assert left == RealPoly([Fraction(325, 21), 6, 1])
    with pytest.raises(ValueError):
        gcd_real(RealPoly(), RealPoly())


def test_gcd_real_divides_inputs(rng):
    for _ in range(50):
        a, b = rand_rpoly(rng, 4), rand_rpoly(rng, 3)
        if a.is_zero() and b.is_zero():
            continue
        g = gcd_real(a, b)
        assert g.is_zero() or g.leading() == Scalar(1)
        for p in (a, b):
            if not p.is_zero():
                assert p.divmod(g)[1].is_zero()


def test_gcd_complex_examples():
    assert gcd_complex(XI_PLUS_I, XI_MINUS_I) == ComplexPoly([ComplexScalar(1)])
    prod = XI_PLUS_I * ComplexPoly([ComplexScalar(-2), ComplexScalar(1)])
    assert gcd_complex(prod, XI_PLUS_I) == XI_PLUS_I


def test_gcd_complex_planted_factor(rng):
    chi = ComplexPoly([ComplexScalar(1, 1), ComplexScalar(0), ComplexScalar(1)])
    for _ in range(30):
        a = coprime_cpoly(rng, 2)
        b = coprime_cpoly(rng, 2)
        if gcd_complex(a, b).degree() != 0:
            continue
        g = gcd_complex(a * chi, b * chi)
        assert g == chi.monic()


def test_exact_divide_examples():
    xi2_plus_1 = ComplexPoly.from_parts(RealPoly([1, 0, 1]), RealPoly())
    assert exact_divide(xi2_plus_1, XI_PLUS_I) == XI_MINUS_I
    with pytest.raises(InexactDivision):
        exact_divide(RealPoly([1, 0, 1]), RealPoly([1, 1]))
    with pytest.raises(TypeError, match="^cannot divide int$"):
        exact_divide(3, RealPoly([1, 1]))


def test_exact_divide_round_trip(rng):
    for _ in range(50):
        a = nonzero_qpoly(rng, 3)
        chi = coprime_cpoly(rng, 2)
        if chi.degree() < 1:
            continue
        prod = a * chi.as_quat()
        assert exact_divide(prod, chi.as_quat()) == a


def test_right_divmod(rng):
    for _ in range(50):
        p = rand_qpoly(rng, 4)
        d = nonzero_qpoly(rng, 2)
        q, r = p.divmod(d)
        assert q * d + r == p
        assert r.degree() < d.degree()
    with pytest.raises(ZeroDivisionError, match="^polynomial division by zero$"):
        p.divmod(QuatPoly())


def schoolbook_product(a, b):
    """Coefficients of a b by convolution with the Hamilton product of
    Quaternion, left factor first.  Quaternion and the integer kernel read
    one table, so this checks the kernel's coordinates and convolution;
    tests/test_quaternions.py checks Quaternion against the written-out
    Hamilton formula."""
    out = [Quaternion(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for r, x in enumerate(a.coeffs):
        for s, y in enumerate(b.coeffs):
            out[r + s] = out[r + s] + x * y
    return tuple(out)


def schoolbook_divmod(p, d):
    """Coefficients of Q, R with p = Q d + R, by long division with the
    quaternion inverse of d's leading coefficient."""
    r = list(p.coeffs)
    q = [Quaternion(0)] * max(0, len(r) - len(d.coeffs) + 1)
    inv = d.coeffs[-1].inverse()
    while len(r) >= len(d.coeffs):
        k = len(r) - len(d.coeffs)
        q[k] = r[-1] * inv
        for s, ds in enumerate(d.coeffs):
            r[k + s] = r[k + s] - q[k] * ds
        r.pop()
        while r and r[-1].is_zero():
            r.pop()
    return tuple(q), tuple(r)


@pytest.mark.parametrize("base", [0, 15])
def test_quat_kernel_matches_schoolbook(rng, base):
    noncommuting = 0
    for _ in range(12):
        a = nonzero_qpoly(rng, rng.randint(0, 8), base)
        b = nonzero_qpoly(rng, rng.randint(0, 8), base)
        assert (a * b).coeffs == schoolbook_product(a, b)
        assert (b * a).coeffs == schoolbook_product(b, a)
        noncommuting += a * b != b * a
        p = a * b + nonzero_qpoly(rng, rng.randint(0, 12), base)
        q, r = p.divmod(b)
        assert (q.coeffs, r.coeffs) == schoolbook_divmod(p, b)
    assert noncommuting >= 10


def test_subresultant_sequence_is_the_textbook_one():
    # Knuth, TAOCP vol. 2, 4.6.1: the subresultants of these two are
    # 15x^4 - 3x^2 + 9, 65x^2 + 125x - 245, 9326x - 12300 and 260708 up
    # to sign; degree gaps of 2 exercise the h^delta division
    from rrmf.polynomials import _REAL, _algebra, _subresultants

    a = [[-5, 2, 8, -3, -3, 0, 1, 0, 1]]
    b = [[21, -9, -4, 0, 5, 0, 3]]
    sequence = list(_subresultants(_algebra(_REAL, 0), a, b))
    assert sequence == [b, [[-9, 0, 3, 0, -15]], [[-245, 125, 65]],
                        [[12300, -9326]], [[260708]]]


def test_mixed_surd_bases_raise_in_the_kernel():
    r15 = RealPoly([1, Scalar(0, 1, 15)])
    r5 = RealPoly([Scalar(0, 1, 5), 2])
    c15 = ComplexPoly.from_parts(r15, RealPoly([3]))
    c5 = ComplexPoly.from_parts(RealPoly([1]), r5)
    cases = ((r15, r5, gcd_real), (c15, c5, gcd_complex),
             (r15.as_quat(), r5.as_quat(), None))
    for x, y, gcd in cases:
        for op in (lambda: x * y, lambda: y * x, lambda: x.divmod(y),
                   lambda: y.divmod(x)):
            with pytest.raises(SurdBaseMismatch):
                op()
        if gcd is not None:
            with pytest.raises(SurdBaseMismatch):
                gcd(x, y)
            with pytest.raises(SurdBaseMismatch):
                gcd(RealPoly([1, 1]), x, y)
    # an inner product is one product and the Hodograph check one form pass,
    # so they raise too, even where every mixed product is rational (0, 15, 5)
    q15, q5 = Quaternion(Scalar(0, 1, 15)), Quaternion(0, Scalar(0, 1, 5))
    root15, root5 = RealPoly([Scalar(0, 1, 15)]), RealPoly([Scalar(0, 1, 5)])
    for op in (lambda: q15.inner(q5), lambda: q5.inner(q15),
               lambda: QuatPoly([q15]).inner(QuatPoly([q5])),
               lambda: Hodograph(root15, root5, RealPoly(), root5.scale(2))):
        with pytest.raises(SurdBaseMismatch):
            op()


# -- the stored form ---------------------------------------------------------
# Every operation reads and writes integer rows over one denominator; the
# references below redo each one on the Scalar coefficients.


def _trimmed(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return tuple(coeffs)


def _pointwise(x, y, op) -> tuple:
    n = max(len(x.coeffs), len(y.coeffs))
    return _trimmed(op(x.coeff(k), y.coeff(k)) for k in range(n))


def assert_stored_form(p):
    """Trimmed rows, gcd(den, every integer) = 1, base 0 without sqrt(d) part."""
    assert p.den > 0 and len({len(row) for row in p.rows}) == 1
    assert p.is_zero() or any(row[-1] for row in p.rows)
    assert math.gcd(p.den, *[v for row in p.rows for v in row]) == 1
    assert p.d == 0 or any(map(any, p.rows[1::2]))
    assert type(p)(p.coeffs) == p and hash(type(p)(p.coeffs)) == hash(p)


def test_every_small_base_has_a_screening_prime():
    from rrmf.polynomials import _embedding
    from rrmf.scalars import is_valid_base

    for d in filter(is_valid_base, range(0, 3000)):
        p, weights = _embedding(d)
        r = weights[len(weights) // 2]
        assert r * r % p == p - 1
        if d:
            assert d % p and weights[1] ** 2 % p == d


@pytest.mark.parametrize("base", [0, 15])
def test_equal_polynomials_hash_alike_across_kinds(rng, base):
    # the hash of the narrowest equal form: a lift's zero component rows
    # dropped, a constant hashed as its coefficient
    assert len({RealPoly([1, 2]), ComplexPoly.of(RealPoly([1, 2])),
                QuatPoly.of(RealPoly([1, 2]))}) == 1
    for degree in (0, 0, 1, 2, 3):
        real = RealPoly([rand_scalar(rng, base) for _ in range(degree + 1)])
        cpoly = ComplexPoly([ComplexScalar(rand_scalar(rng, base), rand_scalar(rng, base))
                             for _ in range(degree + 1)])
        groups = [[real, ComplexPoly.of(real), QuatPoly.of(real)],
                  [real, RationalFunction.of(real)], [cpoly, QuatPoly.of(cpoly)]]
        if real.degree() <= 0:
            groups.append([real, real.coeff(0), ComplexPoly.of(real), QuatPoly.of(real)])
        for group in groups:
            assert all(v == group[0] for v in group)
            assert {hash(v) for v in group} == {hash(group[0])}


@pytest.mark.parametrize("base", [0, 15])
def test_linear_operations_match_coefficientwise(rng, base):
    for _ in range(12):
        a = rand_qpoly(rng, rng.randint(0, 5), base)
        b = rand_qpoly(rng, rng.randint(0, 5), base)
        s, c = rand_scalar(rng, base), nonzero_quat(rng, base)
        x, y = a.components()[0], b.components()[2]
        alpha, beta = a.complex_split()
        results = [
            (a + b, _pointwise(a, b, lambda u, v: u + v)),
            (a - b, _pointwise(a, b, lambda u, v: u - v)),
            (x + y, _pointwise(x, y, lambda u, v: u + v)),
            (alpha - beta, _pointwise(alpha, beta, lambda u, v: u - v)),
            (-a, _trimmed(-q for q in a.coeffs)),
            (a.scale(s), _trimmed(q * s for q in a.coeffs)),
            (a.scale(c), _trimmed(q * c for q in a.coeffs)),
            (x.scale(s), _trimmed(q * s for q in x.coeffs)),
            (alpha.scale(s), _trimmed(q * s for q in alpha.coeffs)),
            (a.derivative(), _trimmed(q * k for k, q in enumerate(a.coeffs))[1:]),
            (x.derivative(), _trimmed(q * k for k, q in enumerate(x.coeffs))[1:]),
            (x.antiderivative(), _trimmed([Scalar(0)] + [q * Fraction(1, k + 1)
                                                         for k, q in enumerate(x.coeffs)])),
            (a.conjugate(), _trimmed(q.conjugate() for q in a.coeffs)),
            (alpha.conjugate(), _trimmed(q.conjugate() for q in alpha.coeffs)),
            (c * a, _trimmed(c * q for q in a.coeffs)),
        ]
        inner = [Scalar(0)] * max(0, len(a.coeffs) + len(b.coeffs) - 1)
        for r, ar in enumerate(a.coeffs):
            for t, bt in enumerate(b.coeffs):
                inner[r + t] = inner[r + t] + ar.inner(bt)
        results.append((a.inner(b), _trimmed(inner)))
        for p, expected in results:
            assert p.coeffs == expected
            assert_stored_form(p)
        for p in (a, x, alpha, a * b, a.monic(), x.monic()):
            assert_stored_form(p)


def test_equal_polynomials_store_alike():
    s = Scalar(0, 1, 15)
    real = RealPoly([1, Fraction(-2, 3), 5])
    # (built, built directly, stored base)
    routes = [
        # Fraction vs int coefficients
        (RealPoly([Fraction(4, 2), Fraction(3)]), RealPoly([2, 3]), 0),
        (QuatPoly([Quaternion(Fraction(6, 3), 1)]), QuatPoly([Quaternion(2, 1)]), 0),
        # Q(sqrt 15) coefficients whose surd parts vanish, vs base 0
        (RealPoly([s, 1]) * RealPoly([s, -1]), RealPoly([15, 0, -1]), 0),
        (RealPoly([Scalar(2, 1, 15) - s, s * s]), RealPoly([2, 15]), 0),
        (ComplexPoly([ComplexScalar(s, 1)]) * ComplexPoly([ComplexScalar(s, -1)]),
         ComplexPoly([ComplexScalar(16)]), 0),
        # Real -> Complex -> Quat lifts
        (QuatPoly.of(ComplexPoly.of(real)),
         QuatPoly([Quaternion(c) for c in real.coeffs]), 0),
        (real.as_quat(), QuatPoly.from_components(real, 0, 0, 0), 0),
        (ComplexPoly.of(RealPoly([s, 1])), ComplexPoly.from_parts(RealPoly([s, 1]), 0), 15),
        # a sum whose surd parts cancel
        (RealPoly([1, Scalar(2, 1, 15)]) + RealPoly([0, -s]), RealPoly([1, 2]), 0),
        (QuatPoly([Quaternion(s, 1)]) - QuatPoly([Quaternion(s)]),
         QuatPoly([Quaternion(0, 1)]), 0),
    ]
    for built, direct, base in routes:
        assert built == direct and hash(built) == hash(direct)
        assert (built.d, built.rows, built.den) == (direct.d, direct.rows, direct.den)
        assert built.d == base
        assert_stored_form(built)
    # the zero polynomial of every route stores empty rows over 1
    for zero in (RealPoly([s]) - RealPoly([s]), RealPoly([0, 0]), QuatPoly.of(RealPoly())):
        assert zero.rows[0] == () and (zero.d, zero.den) == (0, 1)


def _columns(vectors):
    return [RealPoly([v[w] for v in vectors]) for w in range(3)]


def test_vector_ranks_match_row_reduction(rng):
    s = Scalar(0, 1, 15)
    examples = [
        ([], 0),
        ([(0, 0, 0), (0, 0, 0)], 0),
        ([(1, 0, 3), (0, 0, 0), (2, 0, 6)], 1),
        # (s, 1, 0) and (15, s, 0) are parallel because s s = 15
        ([(s, 1, 0), (15, s, 0)], 1),
        ([(s, 1, 0), (15, s + 1, 0)], 2),
        ([(1, 0, s), (0, 1, 1), (s, 1, 16)], 2),
        ([(1, 0, s), (0, 1, 1), (s, 1, 15)], 3),
        ([(0, 0, 0), (Fraction(1, 3), 0, 0), (0, Fraction(2, 5), 0), (1, 1, 1)], 3),
    ]
    for vectors, rank in examples:
        assert vector_rank(*_columns(vectors)) == rank
    ranks = set()
    for base in (0, 15) * 15:
        spanning = [[rand_scalar(rng, base) for _ in range(3)]
                    for _ in range(rng.randint(1, 3))]
        vectors = []
        for _ in range(rng.randint(0, 5)):
            weights = [rand_scalar(rng, base) for _ in spanning]
            vectors.append([sum((w * x[i] for w, x in zip(weights, spanning)), Scalar(0))
                            for i in range(3)])
        rank = vector_rank(*_columns(vectors))
        assert rank == gauss_jordan_rank(vectors) == exact_rank(vectors)
        ranks.add(rank)
        # linalg.exact_rank pads narrower rows with zeros
        pairs = [v[:2] for v in vectors]
        assert exact_rank(pairs) == gauss_jordan_rank(pairs)
    assert ranks == {0, 1, 2, 3}
    with pytest.raises(ValueError, match="at most three"):
        exact_rank([[1, 0, 0, 0]])


def test_reduce_fraction_examples():
    assert reduce_fraction(RealPoly([0, 2]), RealPoly([0, 0, 4])) \
        == RationalFunction(RealPoly([Fraction(1, 2)]), RealPoly([0, 1]), _reduced=True)
    ex1 = quintic_left_cancellation()
    assert reduce_fraction(-inner_product_poly(ex1.generator), ex1.sigma) \
        == reduce_fraction(RealPoly([1]), RealPoly([5, -4, 1]))
    zero = reduce_fraction(RealPoly(), RealPoly([3, 1]))
    assert zero.is_zero() and zero.den == RealPoly([1])
    with pytest.raises(ZeroDivisionError):
        reduce_fraction(RealPoly([1]), RealPoly())


def test_zero_polynomials_text_forms_and_rational_functions():
    with pytest.raises(ValueError, match="no leading coefficient"):
        RealPoly().leading()
    assert str(RealPoly()) == "0"
    assert repr(ComplexPoly([ComplexScalar(1, 2), ComplexScalar(0, Scalar(0, 1, 15))])) \
        == "ComplexPoly([('1/1', '2/1'), ('0/1', '0/1+1/1*sqrt(15)')])"
    assert repr(QuatPoly([Quaternion(1), Quaternion(0, 1, 0, 2)])) \
        == "QuatPoly((Quaternion(1/1, 0/1, 0/1, 0/1), Quaternion(0/1, 1/1, 0/1, 2/1)))"
    assert component_forms(QuatPoly(), ((1, 0, 0), (1, 1, 5))) == [RealPoly(), RealPoly()]
    f = reduce_fraction(RealPoly([0, 2]), RealPoly([1, 0, 4]))
    with pytest.raises(AttributeError, match="RationalFunction is immutable"):
        f.num = RealPoly()
    assert RationalFunction.of(f) is f
    assert (f == "x") is False
    assert not RationalFunction.zero and f
    assert repr(f) == "RationalFunction(((1/2)*xi) / (1/4 + (1/1)*xi^2))"


def test_reduced_fraction_invariants(rng):
    for _ in range(50):
        n, d = rand_rpoly(rng, 3), rand_rpoly(rng, 3)
        if d.is_zero():
            continue
        f = reduce_fraction(n, d)
        assert f.den.leading() == Scalar(1)
        assert gcd_real(f.num, f.den).degree() == 0 or f.num.is_zero()
        # equality of fractions is cross multiplication
        assert f.num * d == n * f.den


def test_component_round_trips(rng):
    for _ in range(50):
        a = rand_qpoly(rng, 3)
        u, v, p, q = a.components()
        assert QuatPoly.from_components(u, v, p, q) == a
        alpha, beta = a.complex_split()
        assert qpoly_from_complex_pair(alpha, beta) == a
        assert (alpha.real_parts(), beta.real_parts()) == ((u, v), (p, q))


def test_surd_coefficients_flow_through():
    ex3 = quintic_right_cancellation()
    sigma = norm_poly(ex3.generator)
    assert sigma == RealPoly([25, -16, 4]) * RealPoly([5, -4, 1]) * 80
    assert sigma.coeffs[0] == Scalar(10000)


def test_evaluation():
    p = RealPoly([5, -4, 1])
    assert p.evaluate(Scalar(2)) == Scalar(1)
    assert p.evaluate_float(2.0) == 1.0
    q = QuatPoly([Quaternion(1), I])
    assert q.evaluate(Scalar(2)) == Quaternion(1, 2)
    # a ratio whose reduced denominator has the coefficient 3/7 10**400
    big = 10**400
    f = reduce_fraction(RealPoly([big, 1]), RealPoly([3 * big, 7]))
    for xi in (0.5, -2.0, 3.25):
        x = Fraction(xi)
        want = float((big + x) / (3 * big + 7 * x))
        assert abs(f.evaluate_float(xi) - want) <= 1e-15 * abs(want)


def test_division_and_gcd_over_surd_field(rng):
    # the whole Euclidean stack runs inside Q(sqrt(5))
    for _ in range(40):
        a = rand_rpoly_surd(rng, 3)
        b = rand_rpoly_surd(rng, 2)
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree() < b.degree()
        if a.is_zero():
            continue
        g = gcd_real(a, b)
        assert a.divmod(g)[1].is_zero() and b.divmod(g)[1].is_zero()


def rand_rpoly_surd(rng, degree):
    from conftest import rand_scalar

    return RealPoly([rand_scalar(rng, base=5) for _ in range(degree + 1)])


@pytest.mark.parametrize("base", [0, 15])
def test_integer_scale_stores_the_product_form(rng, base):
    # scale(int) scales the rows; the product by the constant polynomial
    # must store the same (d, rows, den)
    for _ in range(20):
        degree = rng.randint(0, 6)
        a = rand_qpoly(rng, degree, base)
        polys = (a.components()[1], a.complex_split()[0], a)
        for p in polys + tuple(type(q)() for q in polys):
            for s in (0, 1, -1, 4, -6, 2 ** 70, rng.randint(-50, 50)):
                got, want = p.scale(s), p * type(p)([s])
                assert (got.d, got.rows, got.den) == (want.d, want.rows, want.den), (p, s)


def test_narrower_kind_rejects_a_wider_polynomial():
    # a wider kind names both kinds, as the rings do, rather than being
    # read as an iterable of coefficients
    quat = QuatPoly([Quaternion(0, 1, 0, 0), 1])
    for narrow, wide in ((RealPoly, ComplexPoly.of(quat.complex_split()[0])),
                         (RealPoly, quat), (ComplexPoly, quat)):
        with pytest.raises(TypeError, match=f"{type(wide).__name__} to {narrow.__name__}"):
            narrow.of(wide)
