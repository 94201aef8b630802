import inspect
import time
from fractions import Fraction

import pytest

from rrmf.catalog import (nontrivial_cubic, nontrivial_quartic_dense,
                          nontrivial_quartic_sparse, quintic_left_cancellation,
                          quintic_no_cancellation, quintic_right_cancellation)
from rrmf.classify import (GeneratorAnalysis, MembershipStatus,
                           cancel_indicatrix, classify,
                           gcd_with_complex, has_vanishing_indicatrix,
                           hodograph_span_rank, indicatrix_coefficients,
                           is_planar, rrmf_membership, search_certificate,
                           trivial_witness)
from rrmf.construct import make_f_element, make_spatial_family, make_trivial
from rrmf.hodograph import (basis_images, core_of, has_coprime_components,
                            hodograph_of)
from rrmf.indicatrix import inner_product_poly, rho_eta, verify_han
from rrmf.polynomials import (ComplexPoly, QuatPoly, RealPoly, exact_divide,
                              gcd_real)
from rrmf.quaternions import I, J, K, Quaternion
from rrmf.scalars import ComplexScalar, Scalar

from conftest import (all_zero, coprime_cpoly, coprime_qpoly, nonzero_qpoly,
                      nonzero_quat, reference_coefficient_conditions,
                      verdict_generators)
from linalg_reference import gauss_jordan_rank

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
    assert all_zero(indicatrix_coefficients(cubic))
    assert len(indicatrix_coefficients(cubic).values) == 5
    assert indicatrix_coefficients(IXP1).values == (Scalar(-1),)


def test_coefficient_conditions_match_polynomial(rng):
    # the conditions and <A'i, A> both come from the integer form pass; the
    # Scalar loop over the quaternion coefficients is their oracle, also
    # when the components share a real factor
    shared = 0
    for base in (0, 15):
        for degree in range(6):
            for _ in range(6):
                a = nonzero_qpoly(rng, degree, base)
                if degree and rng.random() < 0.5:
                    h = RealPoly([rng.randint(-3, 3), 1])
                    a = nonzero_qpoly(rng, degree - 1, base) * h.as_quat()
                    assert not has_coprime_components(a)
                    shared += 1
                reference = reference_coefficient_conditions(a)
                assert len(reference) == max(2 * a.degree() - 1, 1)
                assert indicatrix_coefficients(a).values == reference
                poly = inner_product_poly(a)
                assert poly.degree() < len(reference)
                assert tuple(map(poly.coeff, range(len(reference)))) == reference
    assert shared >= 20
    with pytest.raises(ValueError, match="^coefficient conditions of the zero polynomial$"):
        indicatrix_coefficients(QuatPoly())


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
    m = rrmf_membership(UNKNOWN_FIXTURE, search_degree=1, search_budget=2.0)
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


def _linear(re, im):
    """xi - (re + im i) as a complex polynomial."""
    return ComplexPoly([ComplexScalar(-Scalar.of(re), -Scalar.of(im)), 1])


SQRT15 = Scalar(0, 1, 15)
CONSTRUCTION_DELTAS = {
    "double root": _linear(2, 1) * _linear(2, 1),
    "double and simple root": _linear(0, 1) * _linear(0, 1) * _linear(-1, 2),
    "surd linear": _linear(SQRT15, 1),
    "surd quadratic": _linear(0, SQRT15) * _linear(-1, -1),
}


@pytest.mark.parametrize("delta", CONSTRUCTION_DELTAS.values(),
                         ids=list(CONSTRUCTION_DELTAS))
@pytest.mark.parametrize("core", [nontrivial_cubic(), nontrivial_quartic_sparse(),
                                  nontrivial_quartic_dense(), make_spatial_family(3)],
                         ids=["cubic", "quartic-sparse", "quartic-dense", "family3"])
def test_search_constructs_certificate_of_f_element(core, delta):
    element = make_f_element(core, delta)
    assert cancel_indicatrix(element.poly, element.certificate).vanishing
    found = search_certificate(element.poly, delta.degree(), budget_seconds=10.0)
    # the real part of delta.monic() is monic of top degree: already normalised
    assert found == delta.monic().real_parts()
    assert search_certificate(element.poly, delta.degree() - 1) is None


@pytest.mark.parametrize("max_degree", [1, 2, 3, 4])
def test_search_misses_unknown_fixture(max_degree):
    assert search_certificate(UNKNOWN_FIXTURE, max_degree, budget_seconds=10.0) is None


def test_search_misses_random_quartics_quickly(rng):
    # the former numeric search never got through degree 6 in 10 s here
    for _ in range(5):
        a = coprime_qpoly(rng, 4)
        t0 = time.monotonic()
        assert search_certificate(a, 6, budget_seconds=10.0) is None
        assert time.monotonic() - t0 < 1.0


def _complex_inner(gamma):
    """<gamma'i, gamma> for a complex polynomial gamma = a + bi."""
    re, im = gamma.real_parts()
    return -(im.derivative() * re - re.derivative() * im)


SURD_QUAT = Quaternion(1, SQRT15, 2, Scalar(1, 1, 15))


def test_indicatrix_forms_agree(rng):
    # <A'i, A> = 0, its per-degree coefficient conditions, and the complex
    # splitting identity <alpha'i, alpha> == <beta'i, beta> are equivalent
    members = [nontrivial_cubic(), nontrivial_quartic_sparse(),
               nontrivial_quartic_dense(), QuatPoly([Quaternion(1), J]),
               *(make_spatial_family(n) for n in range(3, 7))]
    members += [m.left_scale(SURD_QUAT) for m in members]
    outsiders = [IXP1, UNKNOWN_FIXTURE, quintic_no_cancellation().generator,
                 make_f_element(nontrivial_cubic(), _linear(SQRT15, 1)).poly]
    outsiders += [coprime_qpoly(rng, rng.randint(1, 4), base)
                  for base in (0, 15) * 10]
    for a, vanishing in [(m, True) for m in members] + [(o, False) for o in outsiders]:
        alpha, beta = a.complex_split()
        assert (_complex_inner(alpha) == _complex_inner(beta)) is vanishing
        assert inner_product_poly(a).is_zero() is vanishing
        assert all_zero(indicatrix_coefficients(a)) is vanishing


def _classified(rng):
    """(generator, classification) over every generator kind."""
    curves = (quintic_left_cancellation(), quintic_no_cancellation(),
              quintic_right_cancellation())
    records = [(c.generator, classify(c.generator, certificate=c.certificate))
               for c in curves]
    trivial_cores = [QuatPoly([Quaternion(1), J]),
                     make_trivial(Quaternion(1, 1, 0, 2), K, [(1, 0), (0, 1), (2, -1)])]
    plain = [c.generator for c in curves] + trivial_cores
    plain += [nontrivial_cubic(), nontrivial_quartic_sparse(), nontrivial_quartic_dense(),
              IXP1, UNKNOWN_FIXTURE]
    plain += [make_spatial_family(n) for n in range(3, 9)]
    plain += [coprime_qpoly(rng, rng.randint(1, 4), base) for base in (0, 15) * 4]
    plain.append(nontrivial_cubic() * RealPoly([1, 1]).as_quat())  # shared factor
    records += [(a, classify(a)) for a in plain]
    for core in (nontrivial_cubic(), make_spatial_family(3), *trivial_cores):
        for delta in CONSTRUCTION_DELTAS.values():
            element = make_f_element(core, delta)
            records.append((element.poly, classify(
                element.poly, certificate=element.certificate.real_parts())))
    return records


def test_classification_structure(rng):
    proven_planar = proven_spatial = trivial = 0
    for a, c in _classified(rng):
        if c.trivial is not None:
            trivial += 1
            assert c.in_f0 and c.planar and c.primitive
        if c.membership.status is MembershipStatus.PROVEN:
            # for a proven member the curve is planar exactly when the core is trivial
            assert c.planar == (trivial_witness(core_of(a).core) is not None)
            proven_planar += c.planar
            proven_spatial += not c.planar
    assert trivial and proven_planar and proven_spatial


def test_verify_han_agrees_with_reduction(rng):
    curves = (quintic_left_cancellation(), quintic_no_cancellation(),
              quintic_right_cancellation())
    cases = [(c.generator, ComplexPoly.from_parts(*c.certificate)) for c in curves]
    for core in (nontrivial_cubic(), make_spatial_family(3)):
        for delta in CONSTRUCTION_DELTAS.values():
            element = make_f_element(core, delta)
            cases.append((element.poly, element.certificate))
    # rejected: perturbed, unit and random certificates
    for a, gamma in list(cases):
        cases.append((a, gamma + ComplexPoly.of(1)))
        cases.append((a, ComplexPoly.of(1)))
        cases.append((a, coprime_cpoly(rng, rng.randint(1, 3))))
    accepted = set()
    for a, gamma in cases:
        ga, gb = gamma.real_parts()
        if gcd_real(ga, gb).degree() != 0:
            continue
        vanishing = cancel_indicatrix(a, gamma).vanishing
        assert verify_han(a, ga, gb) == vanishing
        # classify decides a supplied certificate by verify_han
        status = classify(a, certificate=(ga, gb)).membership.status
        assert (status is MembershipStatus.PROVEN) == vanishing
        accepted.add(vanishing)
    assert accepted == {True, False}


def _reference_witness(a):
    """The triviality witness in Scalar arithmetic: the vector parts of
    c^-1 q for the lowest nonzero coefficient c, as (C, u, |u|^2)."""
    c = next(q for q in a.coeffs if not q.is_zero())
    c_inv = c.inverse()
    vectors = [(c_inv * q).vector_part() for q in a.coeffs]
    direction = next((v for v in vectors if not v.is_zero()), None)
    if direction is None:
        return c, J, Scalar(1)
    if not direction.inner(I).is_zero():
        return None
    if any(not v.cross(direction).is_zero() for v in vectors):
        return None
    return c, direction, direction.norm_sq()


def test_verdict_facts_match_scalar_oracles(rng):
    # the span rank, the triviality witness and the hodograph are decided
    # on integer rows; Gauss-Jordan elimination in Scalars, c^-1 q products
    # and the ten image products give the same facts
    ranks, witnesses = set(), 0
    for a in verdict_generators(rng):
        analysis = GeneratorAnalysis.of(a)
        h = hodograph_of(a)
        sigma, (tangent, *_) = basis_images(a)
        assert (h.sigma, h.components()) == (sigma, tangent)
        rows = [[c.coeff(k) for c in h.components()]
                for k in range(h.sigma.degree() + 1)]
        assert analysis.span_rank == gauss_jordan_rank(rows)
        ranks.add(analysis.span_rank)
        reference = _reference_witness(a)
        w = analysis.trivial
        assert (w is None) == (reference is None)
        if w is not None:
            assert (w.left_factor, w.direction, w.direction_norm_sq) == reference
            witnesses += 1
        if analysis.coprime:
            assert trivial_witness(a) == w
            assert hodograph_span_rank(a) == analysis.span_rank
    assert ranks == {1, 2, 3} and witnesses >= 20
