from fractions import Fraction

import numpy as np
import pytest

from rrmf.catalog import (nontrivial_cubic, nontrivial_quartic_dense,
                          nontrivial_quartic_sparse, quintic_left_cancellation)
from rrmf.classify import (MembershipStatus, cancel_indicatrix,
                           has_vanishing_indicatrix, indicatrix_coefficients,
                           rrmf_membership, trivial_witness)
from rrmf.construct import (ConstructionError, CubicSpec, QuarticSpec,
                            _conditions, _least_norm, make_cubic,
                            make_cubic_monic, make_f_element, make_quartic,
                            make_spatial_family, make_trivial)
from rrmf.hodograph import core_of
from rrmf.indicatrix import inner_product_poly
from rrmf.polynomials import ComplexPoly, QuatPoly, RealPoly, gcd_real
from rrmf.quaternions import I, J, K, Quaternion
from rrmf.scalars import Scalar

from conftest import all_zero, nonzero_quat, rand_quat, rand_scalar
from linalg_reference import min_norm_solution

XI_PLUS_I = ComplexPoly.from_parts(RealPoly([0, 1]), RealPoly([1]))


def assert_certified(element):
    """The certificate of an f-element cancels its indicatrix and proves it."""
    assert cancel_indicatrix(element.poly, element.certificate).vanishing
    m = rrmf_membership(element.poly, element.certificate)
    assert m.status is MembershipStatus.PROVEN


def rand_jk(rng):
    return Quaternion(rng.randint(-3, 3), 0, rng.randint(-3, 3), rng.randint(-3, 3))


def test_make_trivial_examples():
    poly = make_trivial(Quaternion(1), J, [(1, 0), (0, 1)])
    assert poly == QuatPoly([Quaternion(1), J])
    assert has_vanishing_indicatrix(poly)
    assert trivial_witness(poly) is not None

    deg2 = make_trivial(Quaternion(1, 1, 0, 0), K, [(1, 0), (2, 1), (0, 3)])
    assert has_vanishing_indicatrix(deg2)
    assert trivial_witness(deg2) is not None


def test_make_trivial_errors():
    with pytest.raises(ConstructionError):
        make_trivial(Quaternion(0), J, [(1, 0)])
    with pytest.raises(ConstructionError):
        make_trivial(Quaternion(1), I, [(1, 0), (0, 1)])  # direction along i
    with pytest.raises(ConstructionError):
        make_trivial(Quaternion(1), Quaternion(1, 0, 1, 0), [(1, 0)])  # not pure
    with pytest.raises(ConstructionError):
        # components (1 + 2 xi, 0, 0, 0) share the factor 1 + 2 xi
        make_trivial(Quaternion(1), J, [(1, 0), (2, 0)])


def test_make_cubic_reproduces_catalog():
    assert make_cubic(CubicSpec(K, J)) == nontrivial_cubic()


def test_make_cubic_random_specs(rng):
    # the generic cubic and its monic mirror on the same A1, A2
    built = 0
    while built < 30:
        a1, a2 = rand_jk(rng), rand_jk(rng)
        s3 = Scalar(rng.randint(-2, 2))
        c = nonzero_quat(rng)
        try:
            polys = (make_cubic(CubicSpec(a1, a2, s3, c)), make_cubic_monic(a1, a2, s3))
        except ConstructionError:
            continue
        built += 1
        for poly in polys:
            assert all_zero(indicatrix_coefficients(poly))
            assert has_vanishing_indicatrix(poly)
            assert trivial_witness(poly) is None


def test_cubic_constructors_give_coprime_components(rng):
    # the constructors do not check it: construct._cubic_coeffs says why
    built = 0
    for base in (0, 15) * 40:
        a1, a2 = _sparse_jk(rng, base), _sparse_jk(rng, base)
        s = rand_scalar(rng, base)
        try:
            polys = (make_cubic(CubicSpec(a1, a2, s, nonzero_quat(rng, base))),
                     make_cubic_monic(a1, a2, s))
        except ConstructionError:
            continue
        built += 1
        for poly in polys:
            assert gcd_real(*poly.components(), screen=False).degree() == 0
    assert built >= 20


def test_make_cubic_errors():
    with pytest.raises(ConstructionError):
        make_cubic(CubicSpec(J, J.scale(2)))  # rank-2 span
    with pytest.raises(ConstructionError):
        make_cubic(CubicSpec(I, J))  # A1 outside R+Rj+Rk
    with pytest.raises(ConstructionError):
        make_cubic(CubicSpec(K, J, left_factor=Quaternion(0)))


def test_make_cubic_monic_sign():
    poly = make_cubic_monic(K, J)
    assert poly.coeffs[3] == Quaternion(1)
    assert poly.coeffs[0] == Quaternion(0, Fraction(1, 3))  # sign flip vs non-monic
    assert has_vanishing_indicatrix(poly)
    assert trivial_witness(poly) is None
    with pytest.raises(ConstructionError):
        make_cubic_monic(Quaternion(0), J)


def test_make_quartic_reproduces_sparse():
    result = make_quartic(QuarticSpec(J, Quaternion(0), a3_k=Scalar(4)))
    assert result.poly == nontrivial_quartic_sparse()
    assert result.non_trivial
    assert result.family_dim == 1  # A2 = 0 leaves the scalar part free


def test_make_quartic_reproduces_dense():
    result = make_quartic(QuarticSpec(J, K, a3_j=Scalar(1)))
    assert result.poly == nontrivial_quartic_dense()
    assert result.non_trivial
    assert result.family_dim == 0


def test_make_quartic_random_specs(rng):
    built = 0
    while built < 30:
        spec = QuarticSpec(rand_jk(rng), rand_jk(rng),
                           Scalar(rng.randint(-2, 2)), Scalar(rng.randint(-2, 2)),
                           Scalar(rng.randint(-2, 2)))
        try:
            result = make_quartic(spec)
        except ConstructionError:
            continue
        built += 1
        assert has_vanishing_indicatrix(result.poly)
        assert (trivial_witness(result.poly) is None) == result.non_trivial


def test_make_quartic_rank_deficient():
    result = make_quartic(QuarticSpec(Quaternion(0), Quaternion(0),
                                      a3_j=Scalar(1)))
    assert result.family_dim == 2
    assert not result.non_trivial
    assert has_vanishing_indicatrix(result.poly)
    # A1 = 1 repeats the row i, with <A2, A3 i>/3 = 1/3 against <A1, A3 i>/2 = 0
    with pytest.raises(ConstructionError, match="inconsistent linear conditions for A4"):
        make_quartic(QuarticSpec(Quaternion(1), J, a3_k=Scalar(1)))


def _rand_system(rng, base):
    """Four quaternion rows spanning a random number of dimensions, so that
    rows are dependent below four, with values that either some x meets
    or that are drawn at random."""
    spanning = [nonzero_quat(rng, base) for _ in range(rng.randint(0, 4))]
    rows = [sum((q.scale(rand_scalar(rng, base)) for q in spanning), Quaternion(0))
            for _ in range(4)]
    if rng.random() < 0.5:
        x = rand_quat(rng, base)
        return rows, [q.inner(x) for q in rows]
    return rows, [rand_scalar(rng, base) for _ in rows]


def test_least_norm_solve_matches_gauss_jordan(rng):
    # make_quartic's Gram-Schmidt solve against elimination in Scalars and
    # a Gram system on the nullspace
    nullities, inconsistent = set(), 0
    for base in (0, 15) * 100:
        rows, values = _rand_system(rng, base)
        solved = _least_norm(list(zip(rows, values)))
        reference = min_norm_solution([q.components() for q in rows], values)
        if reference is None:
            assert solved is None
            inconsistent += 1
        else:
            x, nullity = reference
            assert solved == (Quaternion(*x), nullity)
            nullities.add(nullity)
    assert nullities == {0, 1, 2, 3, 4} and inconsistent >= 20


# The forced coefficients derived by hand, the cubic's by a cross product
# and the quartic's A4 from four written-out conditions: the oracles of
# test_forced_coefficients_match_hand_derived_formulas.
def forced_vector(a1, a2, i_component):
    """The pure vector parallel to (A1 i) x (A2 i) with the given i part."""
    w = (a1 * I).cross(a2 * I)
    return w.scale(i_component / w.x)


def quartic_rows(a1, a2, a3):
    """<A4, i> = <A1, A3 i>/2, <A4, A1 i> = <A2, A3 i>/3, and A4
    orthogonal to A2 i and A3 i."""
    return [(I, a1.inner(a3 * I) / 2), (a1 * I, a2.inner(a3 * I) / 3),
            (a2 * I, Scalar(0)), (a3 * I, Scalar(0))]


def _sparse_jk(rng, base):
    """A quaternion in R + Rj + Rk whose parts are each 0 two times in five."""
    x, y, z = (rand_scalar(rng, base) if rng.random() < 0.6 else Scalar(0)
               for _ in range(3))
    return Quaternion(x, 0, y, z)


def _built_or_message(build):
    try:
        return build()
    except ConstructionError as exc:
        return str(exc)


def test_forced_coefficients_match_hand_derived_formulas(rng):
    cubics, messages, nullities, inconsistent = 0, set(), set(), 0
    for base in (0, 15) * 100:
        a1, a2 = _sparse_jk(rng, base), _sparse_jk(rng, base)
        if rng.random() < 0.2:
            a2 = a1.scale(rand_scalar(rng, base))
        if rng.random() < 0.1:
            a1 = a1 + I  # off the plane, which every constructor refuses first
        s, a3_j, a3_k = (rand_scalar(rng, base) for _ in range(3))
        generic = _built_or_message(lambda: make_cubic(CubicSpec(a1, a2, s)))
        swapped = _built_or_message(lambda: make_cubic(CubicSpec(a2, a1, s)))
        monic = _built_or_message(lambda: make_cubic_monic(a1, a2, s))
        det = a1.inner(a2 * I)
        if isinstance(swapped, str):
            # the monic cubic fails as the swapped generic one does
            assert monic == swapped == generic
            messages.add(monic)
        else:
            cubics += 1
            assert generic.coeffs[3] - Quaternion.of(s) == forced_vector(a1, a2, det / 3)
            assert monic == QuatPoly(swapped.coeffs[::-1])
            assert monic.coeffs[0] - Quaternion.of(s) == forced_vector(a1, a2, -det / 3)
        a3 = Quaternion(s, det / 3, a3_j, a3_k)
        rows = quartic_rows(a1, a2, a3)
        assert _conditions([Quaternion(1), a1, a2, a3]) == rows
        solved = _least_norm(rows)
        quartic = _built_or_message(
            lambda: make_quartic(QuarticSpec(a1, a2, a3_j, a3_k, s)))
        if not a1.x.is_zero():
            assert quartic == "A1 and A2 must lie in R + Rj + Rk"
        elif solved is None:
            assert quartic == "inconsistent linear conditions for A4"
            inconsistent += 1
        elif isinstance(quartic, str):
            assert quartic == "components of the result are not coprime"
        else:
            a4, family_dim = solved
            assert quartic.poly == QuatPoly([Quaternion(1), a1, a2, a3, a4])
            assert quartic.family_dim == family_dim
            nullities.add(family_dim)
    assert cubics >= 50 and messages == {
        "A1 and A2 must lie in R + Rj + Rk",
        "degenerate span: 1, A1, A2 must span R+Rj+Rk"}
    assert nullities >= {0, 1, 2} and inconsistent >= 20, (nullities, inconsistent)


def test_make_spatial_family():
    assert make_spatial_family(3) == QuatPoly([Quaternion(1), J, K.scale(3), I])
    n5 = make_spatial_family(5)
    assert n5.coeffs[5] == Quaternion(0, 3) and n5.coeffs[4] == Quaternion(0, 0, 0, 5)
    assert inner_product_poly(n5).is_zero()
    with pytest.raises(ConstructionError):
        make_spatial_family(2)


def test_make_f_element_primitive_base():
    cubic = nontrivial_cubic()
    element = make_f_element(cubic, ComplexPoly.of(1))
    assert element.poly == cubic
    assert element.certificate == ComplexPoly.of(1)
    assert_certified(element)

    element = make_f_element(cubic, XI_PLUS_I)
    assert element.poly == cubic * XI_PLUS_I.as_quat()
    assert element.certificate == XI_PLUS_I
    assert_certified(element)


def test_make_f_element_exercises_gcd_weight():
    # base with vanishing indicatrix but a nontrivial core factor mu:
    # ex1-generator * ((xi-2) + i) cancels the indicatrix of the quintic
    ex1 = quintic_left_cancellation().generator
    mu = ComplexPoly.from_parts(RealPoly([-2, 1]), RealPoly([1]))
    b0 = ex1 * mu.as_quat()
    assert has_vanishing_indicatrix(b0)
    dec = core_of(b0)
    assert dec.core == ex1 and dec.factor == mu.monic()

    delta = XI_PLUS_I
    element = make_f_element(b0, delta)
    assert element.poly == ex1 * delta.as_quat()
    assert_certified(element)

    # delta sharing a factor with mu exercises the gcd weight
    element = make_f_element(b0, mu.monic())
    assert element.certificate.degree() == 0
    assert_certified(element)


def test_make_f_element_requires_vanishing_base():
    with pytest.raises(ConstructionError):
        make_f_element(QuatPoly([Quaternion(1), I]), XI_PLUS_I)


def test_trivial_family_dimension_counts():
    # numeric rank of the parametrization jacobian: 2n + 5 at degree n
    for n, expected in ((3, 11), (4, 13)):
        rank = _trivial_family_jacobian_rank(n, seed=5)
        assert rank == expected


def _hamilton(a, b):
    return np.array([
        a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3],
        a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2],
        a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1],
        a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0],
    ])


def _trivial_family_jacobian_rank(n: int, seed: int) -> int:
    rng = np.random.RandomState(seed)
    point = rng.standard_normal(5 + 2 * (n + 1))

    def embed(params):
        c = params[:4]
        t = params[4]
        out = []
        for m in range(n + 1):
            x, y = params[5 + 2 * m], params[6 + 2 * m]
            coeff = np.array([x, 0.0, y * np.cos(t), y * np.sin(t)])
            out.extend(_hamilton(c, coeff))
        return np.array(out)

    h = 1e-6
    cols = []
    for idx in range(len(point)):
        e = np.zeros(len(point))
        e[idx] = h
        cols.append((embed(point + e) - embed(point - e)) / (2 * h))
    jac = np.stack(cols, axis=1)
    singular = np.linalg.svd(jac, compute_uv=False)
    return int(np.sum(singular > 1e-8))
