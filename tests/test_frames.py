import math

import pytest

from rrmf.catalog import (nontrivial_cubic, quintic_left_cancellation,
                          quintic_no_cancellation, quintic_right_cancellation)
from rrmf.classify import cancel_indicatrix
from rrmf.construct import make_spatial_family
from rrmf.frames import (CSV_HEADER, CertificateError, erf_symbolic,
                         finite_difference_twist, rmf_symbolic, rotate_frame,
                         sample_frames, write_frames_csv)
from rrmf.indicatrix import omega1
from rrmf.polynomials import QuatPoly, RationalFunction, RealPoly
from rrmf.quaternions import Quaternion

from conftest import coprime_cpoly, coprime_qpoly

EX2 = quintic_no_cancellation()


def frames_equal(f, g):
    return all(x == y for a, b in ((f.f1, g.f1), (f.f2, g.f2), (f.f3, g.f3))
               for x, y in zip(a, b))


def test_erf_of_constant_is_standard_basis():
    frame = erf_symbolic(QuatPoly([Quaternion(1)]))
    expect = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for axis, row in zip((frame.f1, frame.f2, frame.f3), expect):
        assert tuple(RationalFunction.of(v) for v in row) == axis


def test_erf_tangent_matches_hodograph():
    from rrmf.hodograph import hodograph_of
    from rrmf.polynomials import reduce_fraction

    a = EX2.generator
    frame = erf_symbolic(a)
    h = hodograph_of(a)
    for rf, comp in zip(frame.f1, h.components()):
        assert rf == reduce_fraction(comp, h.sigma)


def test_erf_twist_is_angular_velocity(rng):
    # <e3, e2'> is exactly the printed tangent angular velocity
    for _ in range(25):
        a = coprime_qpoly(rng, rng.randint(1, 2))
        assert erf_symbolic(a).tangent_twist() == omega1(a)


def test_erf_zero_twist_for_vanishing_indicatrix():
    for poly in (nontrivial_cubic(), make_spatial_family(4)):
        assert erf_symbolic(poly).tangent_twist().is_zero()


def test_rmf_reduces_to_erf_with_unit_certificate():
    cubic = nontrivial_cubic()
    assert frames_equal(rmf_symbolic(cubic, RealPoly([1]), RealPoly()),
                        erf_symbolic(cubic))


def test_rmf_requires_valid_certificate():
    with pytest.raises(CertificateError):
        rmf_symbolic(EX2.generator, RealPoly([1]), RealPoly())


def test_rmf_symbolic_worked_examples():
    for curve in (quintic_left_cancellation(), EX2, quintic_right_cancellation()):
        frame = rmf_symbolic(curve.generator, *curve.certificate)
        assert frame.tangent_twist().is_zero()  # orthonormality checked on build
    frame = rmf_symbolic(EX2.generator, *EX2.certificate)
    assert frame.evaluate(0.0) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_rotate_frame_identity_and_half_turn():
    cubic = nontrivial_cubic()
    erf = erf_symbolic(cubic)
    f2, f3 = rotate_frame(cubic, RealPoly([1]), RealPoly())
    assert f2 == erf.f2 and f3 == erf.f3
    f2, f3 = rotate_frame(cubic, RealPoly(), RealPoly([1]))
    assert f2 == tuple(-c for c in erf.f2) and f3 == tuple(-c for c in erf.f3)
    with pytest.raises(ValueError):
        rotate_frame(cubic, RealPoly(), RealPoly())
    with pytest.raises(ValueError):
        rotate_frame(cubic, RealPoly([0, 2]), RealPoly([0, 0, 2]))


def test_rotate_frame_matches_rmf():
    frame = rmf_symbolic(EX2.generator, *EX2.certificate)
    f2, f3 = rotate_frame(EX2.generator, *EX2.certificate)
    assert f2 == frame.f2 and f3 == frame.f3


def test_rmf_equals_erf_of_reduction(rng):
    # frame of a member of a certificate class coincides with the
    # Euler-Rodrigues frame of its reduction
    base = nontrivial_cubic()
    checked = 0
    while checked < 10:
        gamma = coprime_cpoly(rng, 1)
        if gamma.degree() < 1:
            continue
        a = base * gamma.as_quat()
        from rrmf.hodograph import has_coprime_components
        if not has_coprime_components(a):
            continue
        ga, gb = gamma.real_parts()
        rmf = rmf_symbolic(a, ga, gb)
        reduced = cancel_indicatrix(a, gamma).result
        assert frames_equal(rmf, erf_symbolic(reduced))
        checked += 1


def test_sample_frames_orthonormal_and_right_handed():
    xis = [k / 20 for k in range(21)]
    samples, warnings = sample_frames(EX2.generator, "rmf", xis,
                                      certificate=EX2.certificate)
    assert not warnings and len(samples) == 21
    for s in samples:
        for axis in (s.f1, s.f2, s.f3):
            assert abs(sum(c * c for c in axis) - 1.0) <= 1e-12
        cross = (s.f1[1] * s.f2[2] - s.f1[2] * s.f2[1],
                 s.f1[2] * s.f2[0] - s.f1[0] * s.f2[2],
                 s.f1[0] * s.f2[1] - s.f1[1] * s.f2[0])
        assert all(abs(c - f) < 1e-12 for c, f in zip(cross, s.f3))


def test_sample_frames_rejects_nan_parameter():
    for kind in ("erf", "rmf"):
        with pytest.raises(AssertionError, match="frame axis not unit"):
            sample_frames(EX2.generator, kind, [float("nan")],
                          certificate=EX2.certificate)


def test_sample_frames_positions():
    samples, _ = sample_frames(EX2.generator, "erf", [0.0, 1.0])
    assert samples[0].position == (0.0, 0.0, 0.0)
    # antiderivative of the printed hodograph at 1
    assert math.isclose(samples[1].position[0], -54 + 10 + 140 - 220 + 100)


def test_sample_frames_skips_speed_roots():
    # generator xi has sigma = xi^2, vanishing at 0
    samples, warnings = sample_frames(RealPoly([0, 1]).as_quat(), "erf",
                                      [0.0, 1.0])
    assert len(samples) == 1 and len(warnings) == 1
    assert "speed" in warnings[0]


def test_frenet_on_straight_line_reports_errors():
    samples, warnings = sample_frames(QuatPoly([Quaternion(1)]), "frenet",
                                      [0.0, 0.5])
    assert not samples and len(warnings) == 2
    assert "curvature" in warnings[0]


def test_frenet_on_space_curve():
    samples, warnings = sample_frames(EX2.generator, "frenet", [0.1, 0.4])
    assert not warnings
    for s in samples:
        for axis in (s.f1, s.f2, s.f3):
            assert abs(sum(c * c for c in axis) - 1.0) <= 1e-9


def test_rmf_certificate_defaults_to_unit_for_vanishing_indicatrix():
    samples, _ = sample_frames(nontrivial_cubic(), "rmf", [0.0, 0.5])
    assert len(samples) == 2
    with pytest.raises(CertificateError):
        sample_frames(EX2.generator, "rmf", [0.0])


def test_normal_rotation_option():
    half_turn, _ = sample_frames(EX2.generator, "rmf", [0.25],
                                 certificate=EX2.certificate,
                                 normal_rotation=math.pi)
    plain, _ = sample_frames(EX2.generator, "rmf", [0.25],
                             certificate=EX2.certificate)
    assert all(math.isclose(a, -b, abs_tol=1e-12)
               for a, b in zip(half_turn[0].f2, plain[0].f2))
    assert half_turn[0].f1 == plain[0].f1


def test_finite_difference_twist_discriminates():
    xis = [k / 999 for k in range(1000)]
    rmf_samples, _ = sample_frames(EX2.generator, "rmf", xis,
                                   certificate=EX2.certificate)
    assert max(abs(t) for t in finite_difference_twist(rmf_samples)) < 1e-6
    erf_samples, _ = sample_frames(EX2.generator, "erf", xis)
    assert max(abs(t) for t in finite_difference_twist(erf_samples)) > 1e-2


def test_erf_of_spatial_family_has_no_sampled_twist():
    # vanishing indicatrix: the Euler-Rodrigues frame is already minimizing
    xis = [k / 999 for k in range(1000)]
    samples, _ = sample_frames(make_spatial_family(3), "erf", xis)
    assert max(abs(t) for t in finite_difference_twist(samples)) < 1e-6


def test_csv_round_trip(tmp_path):
    xis = [k / 4 for k in range(5)]
    samples, _ = sample_frames(EX2.generator, "rmf", xis,
                               certificate=EX2.certificate)
    path = tmp_path / "frames.csv"
    write_frames_csv(samples, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 6
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
    # shortest round-trip formatting reproduces the exact doubles
    for line, sample in zip(lines[1:], samples):
        values = [float(v) for v in line.split(",")]
        assert values[0] == sample.xi and tuple(values[1:4]) == sample.position
