"""Acceptance suite: one test per criterion, one printed verdict line each.

Exact checks admit zero tolerance; numeric checks state theirs inline.
Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import random
import time

from rrmf.catalog import (nontrivial_cubic, nontrivial_quartic_dense,
                          nontrivial_quartic_sparse, quintic_left_cancellation,
                          quintic_no_cancellation, quintic_right_cancellation)
from rrmf.classify import (cancel_indicatrix, has_vanishing_indicatrix,
                           indicatrix_coefficients, is_planar,
                           search_certificate, trivial_witness)
from rrmf.construct import (ConstructionError, make_cubic, make_quartic,
                            make_spatial_family, make_trivial)
from rrmf.frames import erf_symbolic, rmf_symbolic, sample_frames
from rrmf.hodograph import GeneratorAnalysis, core_of, has_coprime_components, hodograph_of
from rrmf.indicatrix import inner_product_poly, rho_eta, rotation_indicatrix, verify_han
from rrmf.polynomials import (ComplexPoly, QuatPoly, RealPoly, exact_divide,
                              gcd_real, reduce_fraction)
from rrmf.quaternions import I, J, K, Quaternion
from rrmf.scalars import Scalar

from conftest import (coprime_cpoly, coprime_qpoly, fraction_sum,
                      indicatrix_product_residual, nonzero_qpoly,
                      nonzero_quat, norm_poly, reference_coefficient_conditions)
from frame_reference import finite_difference_twist, tangent_twist, verify_orthonormal

N_IDENTITY = 200
N_STRUCTURAL = 100
N_FRAMES = 25


def report(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_quintic_left_cancellation():
    curve = quintic_left_cancellation()
    h = hodograph_of(curve.generator)
    ok = h.components() == curve.hodograph
    ok &= h.sigma == RealPoly([325, 126, 21]) * RealPoly([5, -4, 1]) * 21
    left = gcd_real(-inner_product_poly(curve.generator), h.sigma)
    ok &= left == RealPoly([6825, 2646, 441]).monic()
    ok &= GeneratorAnalysis.of(curve.generator).han == reduce_fraction(
        RealPoly([1]), RealPoly([5, -4, 1]))
    ok &= verify_han(curve.generator, RealPoly([-2, 1]), RealPoly([-1]))
    report("criterion 1: left-cancellation quintic regression (exact)", ok)


def test_criterion_2_quintic_no_cancellation():
    curve = quintic_no_cancellation()
    h = hodograph_of(curve.generator)
    ok = h.components() == curve.hodograph
    ok &= h.sigma == RealPoly([100, -440, 1220, -1720, 1090])
    ok &= gcd_real(-inner_product_poly(curve.generator), h.sigma).degree() == 0
    a, b = curve.certificate
    ok &= gcd_real(a * b.derivative() - a.derivative() * b, a * a + b * b).degree() == 0
    ok &= GeneratorAnalysis.of(curve.generator).han == reduce_fraction(
        RealPoly([14, -38, 4]), RealPoly([10, -44, 122, -172, 109]))
    ok &= verify_han(curve.generator, a, b)
    result = rho_eta(curve.generator)
    ok &= result.divisible
    ok &= result.rho.divmod(h.sigma)[1].is_zero()
    ok &= result.eta.divmod(h.sigma)[1].is_zero()
    report("criterion 2: no-cancellation quintic regression (exact)", ok)


def test_criterion_3_quintic_right_cancellation_surd():
    curve = quintic_right_cancellation()
    h = hodograph_of(curve.generator)
    ok = h.components() == curve.hodograph
    ok &= h.xp == RealPoly([8650, -14400, 8720, -2560, 320])
    ok &= h.yp == RealPoly([Scalar(0, 960, 15), Scalar(0, -480, 15)])
    ok &= h.sigma == RealPoly([25, -16, 4]) * RealPoly([5, -4, 1]) * 80
    a, b = curve.certificate
    right = gcd_real(a * b.derivative() - a.derivative() * b, a * a + b * b)
    ok &= right == RealPoly([25, -16, 4]).monic()
    ok &= GeneratorAnalysis.of(curve.generator).han == reduce_fraction(
        RealPoly([35, -32, 8]), RealPoly([125, -180, 109, -32, 4]))
    ok &= verify_han(curve.generator, a, b)
    report("criterion 3: right-cancellation surd quintic regression (exact)", ok)


def test_criterion_4_low_degree_catalog():
    ok = True
    for poly in (nontrivial_cubic(), nontrivial_quartic_dense(),
                 nontrivial_quartic_sparse(),
                 *(make_spatial_family(n) for n in range(3, 13))):
        ok &= has_vanishing_indicatrix(poly)
        ok &= trivial_witness(poly) is None
    ok &= make_cubic(K, J, Scalar(0)) == nontrivial_cubic()
    quartic = make_quartic(J, Quaternion(0), a3_k=Scalar(4))
    ok &= quartic.poly == nontrivial_quartic_sparse()
    report("criterion 4: low-degree catalog reproduced (exact)", ok)


def _random_trivial(rng):
    while True:
        c = nonzero_quat(rng)
        u = Quaternion(0, 0, rng.randint(-2, 2), rng.randint(-2, 2))
        if u.is_zero():
            continue
        coeffs = [(rng.randint(-3, 3), rng.randint(-3, 3))
                  for _ in range(rng.randint(2, 4))]
        try:
            return make_trivial(c, u, coeffs)
        except ConstructionError:
            continue


def _random_nontrivial(rng):
    while True:
        kind = rng.randint(0, 2)
        try:
            if kind == 0:
                a1 = Quaternion(rng.randint(-3, 3), 0, rng.randint(-3, 3),
                                rng.randint(-3, 3))
                a2 = Quaternion(rng.randint(-3, 3), 0, rng.randint(-3, 3),
                                rng.randint(-3, 3))
                poly = make_cubic(a1, a2, Scalar(rng.randint(-2, 2)), nonzero_quat(rng))
            elif kind == 1:
                result = make_quartic(
                    Quaternion(rng.randint(-3, 3), 0, rng.randint(-3, 3),
                               rng.randint(-3, 3)),
                    Quaternion(rng.randint(-3, 3), 0, rng.randint(-3, 3),
                               rng.randint(-3, 3)),
                    Scalar(rng.randint(-2, 2)), Scalar(rng.randint(-2, 2)))
                if not result.non_trivial:
                    continue
                poly = result.poly
            else:
                poly = nonzero_quat(rng) * make_spatial_family(rng.randint(3, 6))
            return poly
        except ConstructionError:
            continue


def _random_certified(rng, base_pool):
    """A = B0 * gamma with monic gamma of degree 1 and its certificate."""
    while True:
        b0 = base_pool[rng.randrange(len(base_pool))]
        gamma = coprime_cpoly(rng, 1).monic()
        re, im = gamma.real_parts()
        if gamma.degree() < 1 or gcd_real(re, im).degree() != 0:
            continue
        a = b0 * gamma.as_quat()
        if not has_coprime_components(a):
            continue
        return a, gamma, b0


def test_criterion_5_identity_suite():
    rng = random.Random(501)
    i_poly = QuatPoly([I])
    ok_pythag = ok_footnote = ok_add = ok_conj = ok_resid = True
    ok_coeffs = ok_recursion = ok_left = True
    for _ in range(N_IDENTITY):
        a = nonzero_qpoly(rng, rng.randint(0, 3))
        h = hodograph_of(a)
        ok_pythag &= (h.xp * h.xp + h.yp * h.yp + h.zp * h.zp
                      == h.sigma * h.sigma)
        result = rho_eta(a)
        du, dv, dp, dq = (t.derivative() for t in a.components())
        ok_footnote &= (result.rho + result.eta
                        == norm_poly(a) * (du * du + dv * dv + dp * dp + dq * dq))
    report("criterion 5a: Pythagorean identity, 200 random (exact)", ok_pythag)
    report("criterion 5b: rho+eta factorization, 200 random (exact)", ok_footnote)
    for _ in range(N_IDENTITY):
        b = coprime_qpoly(rng, rng.randint(1, 3))
        alpha = coprime_cpoly(rng, rng.randint(1, 2))
        ok_add &= (GeneratorAnalysis.of(b * alpha.as_quat()).han
                   == fraction_sum(GeneratorAnalysis.of(b).han,
                                   GeneratorAnalysis.of(alpha.as_quat()).han))
        delta = coprime_cpoly(rng, rng.randint(1, 3))
        ok_conj &= (rotation_indicatrix(delta.conjugate().as_quat())
                    == -rotation_indicatrix(delta.as_quat()))
    report("criterion 5c: indicatrix additivity, 200 random (exact)", ok_add)
    report("criterion 5d: conjugation sign flip, 200 random (exact)", ok_conj)
    for _ in range(N_IDENTITY):
        a = nonzero_qpoly(rng, rng.randint(0, 2))
        b = nonzero_qpoly(rng, rng.randint(0, 2))
        ok_resid &= indicatrix_product_residual(b, a).is_zero()
    report("criterion 5e: product-formula residual, 200 random (exact)", ok_resid)
    for _ in range(N_IDENTITY):
        a = coprime_qpoly(rng, rng.randint(1, 3))
        values = indicatrix_coefficients(a)  # recursion checked below
        poly = inner_product_poly(a)
        reference = reference_coefficient_conditions(a)
        ok_coeffs &= values == reference
        ok_coeffs &= tuple(map(poly.coeff, range(len(values)))) == reference
        n = a.degree()
        trunc = list(a.coeffs[:-1])
        lead = a.coeffs[-1]
        for m, v in enumerate(values):
            prev = Scalar(0)
            for k in range(m + 1):
                lo, hi = m - k, k + 1
                if lo < len(trunc) and hi < len(trunc):
                    prev = prev + trunc[lo].inner(trunc[hi] * I) * Scalar.of(k + 1)
            if m >= n - 1:
                prev = prev + trunc[m + 1 - n].inner(lead * I) * Scalar.of(2 * n - m - 1)
            ok_recursion &= (v == prev)
    report("criterion 5f: coefficient conditions vs the Scalar oracle, 200 random (exact)",
           ok_coeffs)
    report("criterion 5g: degree-truncation recursion, 200 random (exact)",
           ok_recursion)
    members = [nontrivial_cubic(), make_spatial_family(4)]
    outsiders = [QuatPoly([Quaternion(1), I]), quintic_no_cancellation().generator]
    for _ in range(N_IDENTITY):
        q = nonzero_quat(rng)
        ok_left &= all(has_vanishing_indicatrix(q * m) for m in members)
        ok_left &= not any(has_vanishing_indicatrix(q * o)
                           for o in outsiders)
    report("criterion 5h: left-constant invariance, 200 random (exact)", ok_left)


def test_criterion_6_structural_suite():
    rng = random.Random(601)
    ok_trivial = ok_nontrivial = ok_core = ok_round = ok_frames = True
    for _ in range(N_STRUCTURAL):
        t = _random_trivial(rng)
        ok_trivial &= has_vanishing_indicatrix(t)
        ok_trivial &= trivial_witness(t) is not None
        ok_trivial &= is_planar(t)
        dec = core_of(t)
        ok_core &= dec.core == t and dec.factor.degree() == 0
    report("criterion 6a: 100 trivial samples: in class, planar, own core (exact)",
           ok_trivial and ok_core)
    for _ in range(N_STRUCTURAL):
        nt = _random_nontrivial(rng)
        ok_nontrivial &= has_vanishing_indicatrix(nt)
        ok_nontrivial &= trivial_witness(nt) is None
        ok_nontrivial &= not is_planar(nt)
    report("criterion 6b: 100 non-trivial samples: planar iff trivial (exact)",
           ok_nontrivial)
    base_pool = [nontrivial_cubic(), make_spatial_family(3),
                 nontrivial_quartic_sparse()]
    for _ in range(N_STRUCTURAL):
        a, gamma, b0 = _random_certified(rng, base_pool)
        red = cancel_indicatrix(a, gamma)
        ok_round &= red.result == b0 and red.vanishing
    report("criterion 6c: 100 reduction round trips B0*gamma -> B0 (exact)",
           ok_round)
    for _ in range(N_FRAMES):
        a, gamma, b0 = _random_certified(rng, base_pool)
        ga, gb = gamma.real_parts()
        rmf = rmf_symbolic(a, ga, gb)
        erf = erf_symbolic(cancel_indicatrix(a, gamma).result)
        for x, y in zip(rmf.f1 + rmf.f2 + rmf.f3, erf.f1 + erf.f2 + erf.f3):
            ok_frames &= (x == y)
    report("criterion 6d: 25 frame equalities after reduction (9 exact identities)",
           ok_frames)


def test_criterion_7_frames():
    rng = random.Random(701)
    ok_sym = True
    curves = [quintic_left_cancellation(), quintic_no_cancellation(),
              quintic_right_cancellation()]
    for curve in curves:
        frame = rmf_symbolic(curve.generator, *curve.certificate)
        verify_orthonormal(frame)  # six reduced identities, exact
        ok_sym &= tangent_twist(frame).is_zero()
    base_pool = [nontrivial_cubic(), make_spatial_family(3)]
    for _ in range(N_FRAMES):
        a, gamma, _ = _random_certified(rng, base_pool)
        ga, gb = gamma.real_parts()
        frame = rmf_symbolic(a, ga, gb)  # builds the frame without checking it
        verify_orthonormal(frame)
        ok_sym &= tangent_twist(frame).is_zero()
    report("criterion 7a: symbolic orthonormality and zero twist, "
           "3 worked + 25 random certified (exact)", ok_sym)

    ex2 = quintic_no_cancellation()
    xis = [k / 999 for k in range(1000)]
    samples, warnings = sample_frames(ex2.generator, "rmf", xis,
                                      certificate=ex2.certificate)
    ok_num = not warnings and len(samples) == 1000
    for s in samples[::37]:
        axes = (s.f1, s.f2, s.f3)
        for i in range(3):
            ok_num &= abs(sum(c * c for c in axes[i]) - 1.0) <= 1e-12
            for j in range(i + 1, 3):
                ok_num &= abs(sum(x * y for x, y in zip(axes[i], axes[j]))) <= 1e-12
    report("criterion 7b: numeric samples orthonormal (tol 1e-12)", ok_num)
    twist = max(abs(t) for t in finite_difference_twist(samples))
    report("criterion 7c: sampled twist of the minimizing frame (tol 1e-6)",
           twist < 1e-6, f"max |twist| = {twist:.3e}")


def test_criterion_8_search():
    t0 = time.monotonic()
    found = search_certificate(quintic_left_cancellation().generator, 1,
                               budget_seconds=10.0, seed=0)
    t1 = time.monotonic() - t0
    ok = found == (RealPoly([-2, 1]), RealPoly([-1])) and t1 < 10.0
    report("criterion 8a: search recovers the linear certificate (10 s budget)",
           ok, f"{t1:.2f}s")

    ex2 = quintic_no_cancellation()
    t0 = time.monotonic()
    found = search_certificate(ex2.generator, 2, budget_seconds=10.0, seed=0)
    t2 = time.monotonic() - t0
    ok = found is not None and verify_han(ex2.generator, *found) and t2 < 10.0
    if ok:
        printed = ComplexPoly.from_parts(*ex2.certificate)
        quotient = exact_divide(ComplexPoly.from_parts(*found), printed.monic())
        ok &= quotient.degree() == 0
    report("criterion 8b: search recovers the quadratic certificate up to "
           "a constant complex factor (10 s budget)", ok, f"{t2:.2f}s")

    ok = True
    t0 = time.monotonic()
    for fixture in (nontrivial_cubic(), make_spatial_family(5),
                    nontrivial_quartic_sparse()):
        found = search_certificate(fixture, 3, budget_seconds=10.0, seed=0)
        ok &= found == (RealPoly([1]), RealPoly())
    t3 = time.monotonic() - t0
    report("criterion 8c: unit certificate returned instantly for "
           "vanishing-indicatrix fixtures", ok and t3 < 1.0, f"{t3:.3f}s")


def test_criterion_9_family_dimension():
    from test_construct import _trivial_family_jacobian_rank

    ok = True
    detail = []
    for n in (3, 4):
        rank = _trivial_family_jacobian_rank(n, seed=9 + n)
        detail.append(f"n={n}: rank {rank}")
        ok &= rank == 2 * n + 5
    report("criterion 9: planar-family parametrization rank 2n+5 "
           "(singular values < 1e-8 treated as zero)", ok, "; ".join(detail))
