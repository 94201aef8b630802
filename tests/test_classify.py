import inspect
from fractions import Fraction

import pytest

from rrmf.catalog import (nontrivial_cubic, nontrivial_quartic_dense,
                          nontrivial_quartic_sparse, quintic_left_cancellation,
                          quintic_no_cancellation, quintic_right_cancellation)
from rrmf.classify import (MembershipStatus, cancel_indicatrix, classify,
                           gcd_with_complex, has_vanishing_indicatrix,
                           hodograph_span_rank, indicatrix_coefficients,
                           is_planar, rrmf_membership, search_certificate,
                           trivial_witness)
from rrmf.construct import make_spatial_family, make_trivial
from rrmf.hodograph import core_of
from rrmf.indicatrix import inner_product_poly, rho_eta, verify_han
from rrmf.polynomials import (ComplexPoly, QuatPoly, RealPoly, exact_divide,
                              gcd_real)
from rrmf.quaternions import I, J, K, Quaternion
from rrmf.scalars import Scalar

from conftest import coprime_cpoly, coprime_qpoly, nonzero_quat

IXP1 = QuatPoly([Quaternion(1), I])
UNKNOWN_FIXTURE = QuatPoly([Quaternion(1), I, J])  # j xi^2 + i xi + 1


def witness_is_valid(a, witness):
    """Independent check: all coefficients of C^-1 A lie in R + Ru, u _|_ i."""
    c_inv = witness.left_factor.inverse()
    u = witness.direction
    if u.is_zero() or not u.is_pure() or not u.inner(I).is_zero():
        return False
    for coeff in a.coeffs:
        v = (c_inv * coeff).vector_part()
        if not v.cross(u).is_zero() or not v.inner(I).is_zero():
            return False
    return True


def test_coefficient_condition_examples():
    assert [str(v) for v in indicatrix_coefficients(QuatPoly([Quaternion(1), J])).values] \
        == ["0/1"]
    cubic = nontrivial_cubic()
    assert indicatrix_coefficients(cubic).all_zero()
    assert len(indicatrix_coefficients(cubic).values) == 5
    assert indicatrix_coefficients(IXP1).values == (Scalar(-1),)


def test_coefficient_conditions_match_polynomial(rng):
    for _ in range(60):
        a = coprime_qpoly(rng, rng.randint(1, 4))
        values = indicatrix_coefficients(a).values
        poly = inner_product_poly(a)
        assert len(values) == 2 * a.degree() - 1
        for m, v in enumerate(values):
            assert v == poly.coeff(m)
        assert poly.degree() < len(values)


def test_vanishing_indicatrix_examples():
    for n in range(3, 9):
        assert has_vanishing_indicatrix(make_spatial_family(n))
    assert has_vanishing_indicatrix(nontrivial_quartic_sparse())
    assert has_vanishing_indicatrix(nontrivial_quartic_dense())
    assert not has_vanishing_indicatrix(IXP1)
    with pytest.raises(ValueError):
        has_vanishing_indicatrix(QuatPoly())


def test_left_constant_invariance(rng):
    members = [nontrivial_cubic(), make_spatial_family(4),
               nontrivial_quartic_sparse()]
    outsiders = [IXP1, UNKNOWN_FIXTURE, quintic_no_cancellation().generator]
    for _ in range(30):
        q = nonzero_quat(rng)
        for a in members:
            assert has_vanishing_indicatrix(a.left_scale(q))
        for a in outsiders:
            assert not has_vanishing_indicatrix(a.left_scale(q))


def test_trivial_witness_examples():
    w = trivial_witness(QuatPoly([Quaternion(1), K]))
    assert w is not None and w.left_factor == Quaternion(1) and w.direction == K
    assert trivial_witness(nontrivial_cubic()) is None
    # coefficients 1, k, j span three dimensions: not a coset of a plane
    c = Quaternion(1, 1, 0, 0)
    not_planar = QuatPoly([Quaternion(1), K, J]).left_scale(c)
    assert trivial_witness(not_planar) is None
    # a genuine left-translated plane family
    planar = QuatPoly([Quaternion(1), Quaternion(2, 0, 1, 0), J]).left_scale(c)
    w = trivial_witness(planar)
    assert w is not None and witness_is_valid(planar, w)
    assert w.direction.cross(J).is_zero()


def test_trivial_witness_of_constant():
    w = trivial_witness(QuatPoly([Quaternion(2, 1, 1, 1)]))
    assert w is not None and w.direction == J  # direction is conventional


def test_trivial_direction_not_orthogonal_to_i():
    assert trivial_witness(IXP1) is None


def test_trivial_implies_structure(rng):
    for _ in range(40):
        coeffs = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
        u = Quaternion(0, 0, rng.randint(-2, 2), rng.randint(-2, 2))
        c = nonzero_quat(rng)
        if u.is_zero():
            continue
        try:
            a = make_trivial(c, u, coeffs)
        except Exception:
            continue
        w = trivial_witness(a)
        assert w is not None and witness_is_valid(a, w)
        assert has_vanishing_indicatrix(a)
        dec = core_of(a)
        assert dec.core == a and dec.factor.degree() == 0
        assert is_planar(a)


def test_planarity_examples():
    assert is_planar(QuatPoly([Quaternion(1), J]))
    assert not is_planar(quintic_no_cancellation().generator)
    assert is_planar(QuatPoly([Quaternion(2, 1, 3, 4)]))
    assert hodograph_span_rank(QuatPoly([Quaternion(2, 1, 3, 4)])) == 1


def test_planar_hodograph_by_hand():
    # j xi + 1 generates ((1 - xi^2), 0, -2 xi): the xz-plane
    from rrmf.hodograph import hodograph_of

    h = hodograph_of(QuatPoly([Quaternion(1), J]))
    assert h.xp == RealPoly([1, 0, -1])
    assert h.yp.is_zero()
    assert h.zp == RealPoly([0, -2])


def test_gcd_with_complex():
    cubic = nontrivial_cubic()
    gamma = ComplexPoly.from_parts(RealPoly([0, 1]), RealPoly([1]))  # xi + i
    assert gcd_with_complex(cubic, gamma) == ComplexPoly.of(1)
    assert gcd_with_complex(cubic, ComplexPoly.of(1)) == ComplexPoly.of(1)
    planted = cubic * gamma.as_quat()
    g = gcd_with_complex(planted, gamma * ComplexPoly.from_parts(RealPoly([1]), RealPoly([1])))
    assert g == gamma.monic()


def test_cancel_indicatrix_round_trip(rng):
    cubic = nontrivial_cubic()
    for _ in range(25):
        gamma = coprime_cpoly(rng, rng.randint(1, 2)).monic()
        re, im = gamma.real_parts()
        if gcd_real(re, im).degree() != 0:
            continue
        a = cubic * gamma.as_quat()
        red = cancel_indicatrix(a, gamma)
        assert red.result == cubic
        assert red.vanishing


def test_cancel_indicatrix_scaling_for_nonmonic_certificate(rng):
    # the right divisor is monic-normalized, so a non-monic certificate
    # returns |lc(gamma)|^2 times the original generator
    cubic = nontrivial_cubic()
    for _ in range(10):
        gamma = coprime_cpoly(rng, rng.randint(1, 2))
        if gamma.degree() < 1:
            continue
        a = cubic * gamma.as_quat()
        red = cancel_indicatrix(a, gamma)
        scale = gamma.leading().norm_sq()
        assert red.result == cubic * RealPoly([scale]).as_quat()
        assert red.vanishing


def test_cancel_indicatrix_identity_certificate():
    a = quintic_no_cancellation().generator
    red = cancel_indicatrix(a, ComplexPoly.of(1))
    assert red.result == a and not red.vanishing


def test_cancel_indicatrix_with_printed_certificate():
    ex1 = quintic_left_cancellation()
    gamma = ComplexPoly.from_parts(*ex1.certificate)  # (xi - 2) - i
    red = cancel_indicatrix(ex1.generator, gamma)
    assert red.vanishing
    assert has_vanishing_indicatrix(red.result)


def test_membership_verdicts():
    ex3 = quintic_right_cancellation()
    gamma = ComplexPoly.from_parts(*ex3.certificate)
    m = rrmf_membership(ex3.generator, gamma)
    assert m.status is MembershipStatus.PROVEN and m.method == "certificate"

    m = rrmf_membership(nontrivial_cubic())
    assert m.status is MembershipStatus.PROVEN
    assert m.method == "vanishing-indicatrix"

    m = rrmf_membership(UNKNOWN_FIXTURE)
    assert m.status is MembershipStatus.UNKNOWN

    wrong = ComplexPoly.of(1)
    m = rrmf_membership(quintic_no_cancellation().generator, wrong)
    assert m.status is MembershipStatus.CERTIFICATE_REJECTED

    m = rrmf_membership(quintic_no_cancellation().generator)
    assert m.status is MembershipStatus.PROVEN
    assert m.method == "equal-degree-criterion"


def test_membership_never_claims_nonmembership():
    m = rrmf_membership(UNKNOWN_FIXTURE, search_degree=1, search_budget=2.0, seed=1)
    assert m.status is MembershipStatus.UNKNOWN  # absence of proof only


def test_search_f0_is_instant():
    a, b = search_certificate(nontrivial_cubic(), 0, budget_seconds=1.0, seed=0)
    assert a == RealPoly([1]) and b.is_zero()


def test_search_recovers_linear_certificate():
    found = search_certificate(quintic_left_cancellation().generator, 1,
                               budget_seconds=10.0, seed=0)
    assert found is not None
    assert found == (RealPoly([-2, 1]), RealPoly([-1]))


def test_search_recovers_cubic_certificate_in_surd_field():
    # no equal-degree certificate exists here (rho/eta fails), but the
    # degree-3 search lands on the catalog certificate, jointly scaled
    # so the higher-degree member is monic
    ex3 = quintic_right_cancellation()
    assert not rho_eta(ex3.generator).divisible
    found = search_certificate(ex3.generator, 3, budget_seconds=30.0, seed=0)
    assert found is not None
    a, b = ex3.certificate
    quarter = Scalar(Fraction(1, 4))
    assert found == (a.scale(quarter), b.scale(quarter))


def test_search_recovers_quadratic_certificate_up_to_rotation():
    ex2 = quintic_no_cancellation()
    found = search_certificate(ex2.generator, 2, budget_seconds=10.0, seed=0)
    assert found is not None
    assert verify_han(ex2.generator, *found)
    # equal to the catalog certificate up to a constant complex factor
    printed = ComplexPoly.from_parts(*ex2.certificate)
    gamma = ComplexPoly.from_parts(*found)
    quotient = exact_divide(gamma, printed.monic())
    assert quotient.degree() == 0


def test_classification_aggregate():
    c = classify(nontrivial_cubic())
    assert c.in_widetilde and c.in_f0 and c.trivial is None
    assert not c.planar and c.primitive and c.core_degree == 3
    assert c.membership.status is MembershipStatus.PROVEN

    c = classify(QuatPoly([Quaternion(1), J]))
    assert c.in_f0 and c.trivial is not None and c.planar

    ex2 = quintic_no_cancellation()
    c = classify(ex2.generator, certificate=ex2.certificate)
    assert not c.planar and c.membership.status is MembershipStatus.PROVEN
    assert c.han_certificate == ex2.certificate

    shared = nontrivial_cubic() * RealPoly([0, 1]).as_quat()
    c = classify(shared)
    assert not c.in_widetilde and not c.in_f0
    assert "non-coprime" in c.notes or "share" in c.notes


def test_zero_rejected_everywhere():
    zero = QuatPoly()
    for fn in (trivial_witness, is_planar, indicatrix_coefficients,
               has_vanishing_indicatrix):
        with pytest.raises(ValueError):
            fn(zero)
    with pytest.raises(ValueError):
        classify(zero)


def test_package_does_not_shadow_classify_module():
    import rrmf
    import rrmf.classify as classify_module

    assert inspect.ismodule(classify_module)
    assert rrmf.classify is classify_module
    assert classify_module.classify is classify
