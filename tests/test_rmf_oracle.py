"""Sampled rotation-minimizing frames checked against a numeric oracle.

The double-reflection method (Wang, Juttler, Zheng & Liu 2008,
"Computation of rotation minimizing frames", ACM TOG) propagates a
normal vector along sampled points and unit tangents by two
reflections per step; its global error is O(h^4).  It is independent
of the exact frame construction: it reads only the curve's points and
tangents, evaluated here with numpy from the hodograph.  An exact RMF
differs from it by one constant normal-plane angle; a frame with
tangent twist (the Euler-Rodrigues frame of a generator whose
indicatrix does not vanish) drifts away from it.
"""

import numpy as np

from rrmf.catalog import (quintic_left_cancellation, quintic_no_cancellation,
                          quintic_right_cancellation)
from rrmf.construct import make_spatial_family
from rrmf.frames import sample_frames
from rrmf.hodograph import hodograph_of, integrate

STEPS = 1000
# measured worst case 3e-12 at 1000 steps (no-cancellation quintic),
# falling 16-fold per halving of the step as O(h^4) predicts
ANGLE_TOL = 1e-9
XS = np.linspace(0.0, 1.0, STEPS + 1)


def _polyval(p, xs):
    return np.polynomial.polynomial.polyval(xs, p.float_coeffs() or [0.0])


def points_and_tangents(a):
    h = hodograph_of(a)
    pos = integrate(h)
    points = np.stack([_polyval(c, XS) for c in (pos.x, pos.y, pos.z)], axis=1)
    tangents = np.stack([_polyval(c, XS) for c in h.components()], axis=1)
    return points, tangents / np.linalg.norm(tangents, axis=1)[:, None]


def double_reflection(points, tangents, r0):
    r = np.empty_like(points)
    r[0] = r0
    for i in range(len(points) - 1):
        v1 = points[i + 1] - points[i]
        c1 = v1 @ v1
        r_left = r[i] - (2 / c1) * (v1 @ r[i]) * v1
        t_left = tangents[i] - (2 / c1) * (v1 @ tangents[i]) * v1
        v2 = tangents[i + 1] - t_left
        c2 = v2 @ v2
        r[i + 1] = r_left - (2 / c2) * (v2 @ r_left) * v2
    return r


def angle_drift(a, kind, certificate=None):
    """Largest normal-plane angle between the oracle and the sampled frame."""
    samples, warnings = sample_frames(a, kind, XS.tolist(), certificate=certificate)
    assert not warnings and len(samples) == len(XS)
    f2 = np.array([s.f2 for s in samples])
    f3 = np.array([s.f3 for s in samples])
    points, tangents = points_and_tangents(a)
    assert np.max(np.abs(tangents - np.array([s.f1 for s in samples]))) < 1e-12
    r = double_reflection(points, tangents, f2[0])
    angle = np.arctan2(np.sum(r * f3, axis=1), np.sum(r * f2, axis=1))
    return float(np.max(np.abs(angle - angle[0])))


FIXTURES = (quintic_left_cancellation(), quintic_no_cancellation(),
            quintic_right_cancellation())


def test_exact_rmf_matches_double_reflection():
    for curve in FIXTURES:
        assert angle_drift(curve.generator, "rmf", curve.certificate) <= ANGLE_TOL


def test_erf_with_twist_does_not_match_double_reflection():
    for curve in FIXTURES:
        assert angle_drift(curve.generator, "erf") > 0.5


def test_erf_of_vanishing_indicatrix_matches_double_reflection():
    family = make_spatial_family(5)
    assert angle_drift(family, "erf") <= ANGLE_TOL
    assert angle_drift(family, "rmf") <= ANGLE_TOL
