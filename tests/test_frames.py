import math
from fractions import Fraction

import pytest

from rrmf import frames
from rrmf.catalog import (nontrivial_cubic, quintic_left_cancellation,
                          quintic_no_cancellation, quintic_right_cancellation)
from rrmf.classify import cancel_indicatrix, has_vanishing_indicatrix
from rrmf.construct import make_spatial_family
from rrmf.frames import (CSV_HEADER, CertificateError, FrameSample,
                         basis_images, erf_symbolic, frame_sampler, rmf_symbolic,
                         rotate_frame, sample_frames, write_frames_csv)
from rrmf.hodograph import GeneratorAnalysis, hodograph_of, integrate
from rrmf.indicatrix import verify_han
from rrmf.polynomials import (ComplexPoly, QuatPoly, RationalFunction, RealPoly, gcd_real,
                              reduce_fraction)
from rrmf.quaternions import Quaternion

from conftest import (FRAME_TOL, coprime_cpoly, coprime_qpoly, exact_axes, nonzero_qpoly,
                      norm_poly)
from frame_reference import (finite_difference_twist, rotate_reference, tangent_twist,
                             verify_orthonormal)

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

    a = EX2.generator
    frame = erf_symbolic(a)
    h = hodograph_of(a)
    for rf, comp in zip(frame.f1, h.components()):
        assert rf == reduce_fraction(comp, h.sigma)


def test_erf_twist_is_angular_velocity(rng):
    # <e3, e2'> is exactly the printed tangent angular velocity, twice
    # the Han fraction
    for _ in range(25):
        a = coprime_qpoly(rng, rng.randint(1, 2))
        han = GeneratorAnalysis.of(a).han
        assert tangent_twist(erf_symbolic(a)) == reduce_fraction(han.num.scale(2), han.den)


def test_erf_zero_twist_for_vanishing_indicatrix():
    for poly in (nontrivial_cubic(), *map(make_spatial_family, (4, 12, 30))):
        assert tangent_twist(erf_symbolic(poly)).is_zero()


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
        verify_orthonormal(frame)
        assert tangent_twist(frame).is_zero()
    frame = rmf_symbolic(EX2.generator, *EX2.certificate)
    assert frame.evaluate(0.0) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_rotate_frame_identity_and_half_turn():
    cubic = nontrivial_cubic()
    erf = erf_symbolic(cubic)
    f2, f3 = rotate_frame(cubic, RealPoly([1]), RealPoly())
    assert f2 == erf.f2 and f3 == erf.f3
    f2, f3 = rotate_frame(cubic, RealPoly(), RealPoly([1]))
    assert f2 == tuple(-c for c in erf.f2) and f3 == tuple(-c for c in erf.f3)
    with pytest.raises(ValueError, match=r"certificate \(0, 0\) is not allowed"):
        rotate_frame(cubic, RealPoly(), RealPoly())
    with pytest.raises(ValueError, match="certificate polynomials must be coprime"):
        rotate_frame(cubic, RealPoly([0, 2]), RealPoly([0, 0, 2]))


def test_rotate_frame_matches_rmf():
    frame = rmf_symbolic(EX2.generator, *EX2.certificate)
    f2, f3 = rotate_frame(EX2.generator, *EX2.certificate)
    assert f2 == frame.f2 and f3 == frame.f3


@pytest.mark.parametrize("base", [0, 15])
def test_rotate_frame_matches_the_turned_erf(rng, base):
    # every fourth pair is a certificate, gamma of A = C gamma for the
    # cubic C with vanishing indicatrix; the others are random pairs
    cubic, certificates = nontrivial_cubic(), 0
    for k in range(40):
        gamma = coprime_cpoly(rng, rng.randint(0, 2), base)
        ca, cb = gamma.real_parts()
        if k % 4:
            a = nonzero_qpoly(rng, rng.randint(1, 3), base)
        else:
            a = cubic * gamma.as_quat()
            assert verify_han(a, ca, cb)
            certificates += 1
        assert rotate_frame(a, ca, cb) == rotate_reference(a, ca, cb), k
    assert certificates == 10


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
        assert rotate_frame(a, ga, gb) == (rmf.f2, rmf.f3)
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
    for kind in ("erf", "rmf", "frenet"):
        with pytest.raises(AssertionError, match="frame axis not unit"):
            sample_frames(EX2.generator, kind, [float("nan")],
                          certificate=EX2.certificate)


def test_sample_frames_names_the_first_failing_parameter(monkeypatch):
    # f2 replaced by f1 at xi = 0.5: unit axes that are not orthogonal
    image_axes = frames._image_axes

    def skewed(rows, x):
        (f1, f2, f3), flat, values = image_axes(rows, x)
        return (f1, f1 if x == 0.5 else f2, f3), flat, values

    monkeypatch.setattr(frames, "_image_axes", skewed)
    for xis in ([0.25, 0.5, float("nan")], [0.5, 0.75]):
        with pytest.raises(AssertionError, match=r"^frame axes not orthogonal at xi=0\.5$"):
            sample_frames(EX2.generator, "erf", xis)
    with pytest.raises(AssertionError, match=r"^frame axis not unit at xi=nan$"):
        sample_frames(EX2.generator, "erf", [float("nan"), 0.5])


def test_sample_frames_converts_every_parameter_before_checking(monkeypatch):
    # a parameter that is not a real number raises TypeError even after
    # a sample that would fail the orthonormality check
    image_axes = frames._image_axes

    def skewed(rows, x):
        (f1, f2, f3), flat, values = image_axes(rows, x)
        return (f1, f1, f3), flat, values

    monkeypatch.setattr(frames, "_image_axes", skewed)
    with pytest.raises(TypeError):
        sample_frames(EX2.generator, "erf", [0.5, 1j])


def test_orthonormality_check_names_the_first_failing_gram_entry():
    # entries in the order (f1, f1), (f1, f2), (f1, f3), (f2, f2), (f2, f3), (f3, f3)
    e1, e2, e3 = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
    cases = [((e1, e2, e3), None),
             (((1.0, 1e-9, 0.0), e2, e3), "frame axes not orthogonal"),
             (((1 + 1e-9, 1e-9, 0.0), e2, e3), "frame axis not unit"),
             ((e1, e2, (1e-9, 0.0, 1.0)), "frame axes not orthogonal"),
             ((e1, (0.0, 1 + 1e-9, 0.0), e3), "frame axis not unit"),
             ((e1, e2, (0.0, 1e-9, 1.0)), "frame axes not orthogonal"),
             ((e1, e2, (0.0, 0.0, 1 + 1e-9)), "frame axis not unit"),
             ((e1, e2, (0.0, 0.0, math.nan)), "frame axes not orthogonal"),
             (((math.nan, 0.0, 0.0), e2, e3), "frame axis not unit"),
             ((e1, e2, (0.0, 0.0, -1.0)), None)]
    for axes, check in cases:
        assert frames._orthonormality_failure(axes) == check, axes


def test_frame_set_up_rejects_a_zero_generator_and_an_unknown_kind():
    with pytest.raises(ValueError, match="^frame of the zero polynomial$"):
        erf_symbolic(QuatPoly())
    with pytest.raises(ValueError, match="^unknown frame kind 'xyz'$"):
        frame_sampler(EX2.generator, "xyz")


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


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_normal_rotation_must_be_finite(angle):
    with pytest.raises(ValueError, match="finite"):
        sample_frames(EX2.generator, "erf", [0.25], normal_rotation=angle)


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


def test_basis_images_equal_quaternion_products(rng):
    # the component formula replaces the products B e B*; each is a pure vector
    cases = [coprime_qpoly(rng, rng.randint(0, 3), base) for base in (0, 0, 15)]
    cases += [quintic_right_cancellation().generator, make_spatial_family(5)]
    for b in cases:
        den, raw = basis_images(b)
        assert den == norm_poly(b)
        for e, vector in zip((Quaternion(0, 1), Quaternion(0, 0, 1),
                              Quaternion(0, 0, 0, 1)), raw):
            u, x, y, z = (b * QuatPoly([e]) * b.conjugate()).components()
            assert u.is_zero()
            assert (x, y, z) == vector
        # orthonormality before reduction: sum_c v_a,c v_b,c == delta_ab |B|^4
        for a in range(3):
            for c in range(a, 3):
                dot = sum((x * y for x, y in zip(raw[a], raw[c])), RealPoly())
                assert dot == (den * den if a == c else RealPoly()), (a, c)


def test_symbolic_frame_keeps_images_and_reduces_views(rng):
    # W and N_e are stored as basis_images returns them; f_e is N_e/W in
    # lowest terms, and evaluate divides N_e by W at a float, also where
    # the coefficients of a scaled B lie beyond the float range
    cases = [coprime_qpoly(rng, rng.randint(1, 3)) for _ in range(4)]
    cases += [EX2.generator, make_spatial_family(5)]
    cases += [make_spatial_family(5).scale(s) for s in (10**400, Fraction(1, 10**400))]
    for b in cases:
        frame = erf_symbolic(b)
        den, raw = basis_images(b)
        assert (frame.denominator, frame.images) == (den, tuple(raw))
        for axis, image in zip((frame.f1, frame.f2, frame.f3), frame.images):
            for f, n in zip(axis, image):
                assert f.num * den == n * f.den
                assert f.den.leading() == 1
                assert f.is_zero() or gcd_real(f.num, f.den).degree() == 0
        for xi in (-1.5, 0.25, 2.0):
            got = frame.evaluate(xi)
            assert all(abs(x - y) <= FRAME_TOL for row, want in zip(got, exact_axes(b, xi))
                       for x, y in zip(row, want)), xi


def _reference_samples(a, kind, xis, certificate=None, normal_rotation=0.0):
    """sample_frames one parameter at a time.

    The skips, the position and the Frenet frame use scalar float
    evaluation; the erf/rmf axes are the exact frame of B (A for erf,
    A (a - b i) for rmf) at Fraction(xi), rounded to floats.
    """
    a = QuatPoly.of(a)
    position = integrate(hodograph_of(a))
    sigma = norm_poly(a)
    b = a
    if kind == "rmf":
        if certificate is None:
            if not has_vanishing_indicatrix(a):
                raise CertificateError("rotation-minimizing frame requires a certificate")
            certificate = (RealPoly([1]), RealPoly())
        rmf_symbolic(a, *certificate)  # raises for an invalid certificate
        ca, cb = certificate
        b = a * ComplexPoly.from_parts(ca, -cb).as_quat()
    scale = max(abs(c) for c in sigma.float_coeffs())
    samples, warnings = [], []
    for xi in xis:
        if abs(sigma.evaluate_float(xi)) < 1e-12 * max(scale, 1.0):
            warnings.append(f"xi={xi!r}: parametric speed vanishes, skipped")
            continue
        pos = position.evaluate_float(xi)
        if kind == "frenet":
            h = hodograph_of(a)
            rp = [c.evaluate_float(xi) for c in h.components()]
            rpp = [c.derivative().evaluate_float(xi) for c in h.components()]
            s = h.sigma.evaluate_float(xi)
            sp = h.sigma.derivative().evaluate_float(xi)
            d = [s * cpp - sp * cp for cpp, cp in zip(rpp, rp)]
            norm = math.sqrt(sum(c * c for c in d))
            if norm <= 1e-12 * max(math.sqrt(sum(c * c for c in rp))
                                   * (abs(s) + abs(sp) + 1.0), 1.0):
                warnings.append(f"xi={xi!r}: curvature vanishes, skipped")
                continue
            f1 = tuple(c / s for c in rp)
            f2 = tuple(c / norm for c in d)
            f3 = (f1[1] * f2[2] - f1[2] * f2[1], f1[2] * f2[0] - f1[0] * f2[2],
                  f1[0] * f2[1] - f1[1] * f2[0])
            if not all(math.isfinite(c) for c in f1 + f2 + f3):
                raise AssertionError(f"frame axis not unit at xi={xi}")
        elif not math.isfinite(xi):
            raise AssertionError(f"frame axis not unit at xi={xi}")
        else:
            f1, f2, f3 = exact_axes(b, xi)
        if normal_rotation:
            c, s = math.cos(normal_rotation), math.sin(normal_rotation)
            f2, f3 = (tuple(c * x - s * y for x, y in zip(f2, f3)),
                      tuple(s * x + c * y for x, y in zip(f2, f3)))
        samples.append(FrameSample(xi, pos, f1, f2, f3))
    return samples, warnings


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (AssertionError, ValueError) as exc:
        return type(exc), str(exc)


def test_sampling_matches_exact_frame_and_scalar_evaluation():
    # 1.75 to 2.5 lie where the reduced rational entries once drifted
    # past the 1e-12 unit check on the right-cancellation RMF
    xis = [k / 16 for k in range(17)] + [-0.75, 1.25, 0, 1.75, 1.965, 2.5]
    curves = [(c.generator, c.certificate)
              for c in (quintic_left_cancellation(), EX2, quintic_right_cancellation())]
    curves += [(make_spatial_family(5), None),
               (RealPoly([0, 1]).as_quat(), None),          # sigma root at 0
               (QuatPoly([Quaternion(1), Quaternion(0, 0, 1, 0)]), None),  # planar
               (QuatPoly([Quaternion(1, 2, 0, 1)]), None)]  # a line, no curvature
    for a, cert in curves:
        for kind in ("erf", "rmf", "frenet"):
            for rotation in (0.0, 0.7):
                for params in (xis, [0.5, float("nan")]):
                    case = (kind, rotation, params)
                    want = _outcome(_reference_samples, a, kind, params, cert, rotation)
                    got = _outcome(sample_frames, a, kind, params,
                                   certificate=cert, normal_rotation=rotation)
                    if not isinstance(want[0], list):
                        assert got == want, case  # the same error and message
                        continue
                    assert isinstance(got[0], list), (case, got)
                    (got_samples, got_warnings), (want_samples, want_warnings) = got, want
                    assert got_warnings == want_warnings, case
                    assert len(got_samples) == len(want_samples), case
                    for g, w in zip(got_samples, want_samples):
                        # repr tells -0.0 from 0.0
                        assert repr((g.xi, g.position)) == repr((w.xi, w.position)), case
                        got_axes, want_axes = g.f1 + g.f2 + g.f3, w.f1 + w.f2 + w.f3
                        if kind == "frenet":
                            assert repr(got_axes) == repr(want_axes), case
                        else:
                            assert all(type(v) is float for v in got_axes), case
                            assert all(abs(x - y) <= FRAME_TOL
                                       for x, y in zip(got_axes, want_axes)), (case, g.xi)
    # the comparison above covers both skip paths
    _, warnings = sample_frames(RealPoly([0, 1]).as_quat(), "erf", xis)
    assert warnings == ["xi=0.0: parametric speed vanishes, skipped",
                        "xi=0: parametric speed vanishes, skipped"]
    _, warnings = sample_frames(curves[-1][0], "frenet", [0.5])
    assert warnings == ["xi=0.5: curvature vanishes, skipped"]
