"""Symbolic adapted frames and numeric sampling.

The Euler-Rodrigues frame of a generator B is the rational orthonormal
triple (B i B*, B j B*, B k B*)/|B|^2, read off the ten products of
B's components by hodograph.basis_images; with a verified certificate
(a, b) the rotation-minimizing frame is the same construction applied
to B = A (a - b i).  SymbolicFrame holds the nine entries as reduced
rational functions; the orthonormality identities hold exactly (the
tests check them on the unreduced images and on the reduced entries).
Sampling does not reduce them: at each parameter on its own it
evaluates B's four components in Python floats, forms the same ten
products (hodograph.float_images), checks the sample to be orthonormal
to 1e-12, and also offers a numeric Frenet frame for comparison plots.
The float operations are those of RealPoly.evaluate_float and IEEE
division, so a zero divisor gives inf or nan and fails the check
rather than raising ZeroDivisionError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal, Optional

from .hodograph import GeneratorAnalysis, basis_images, float_images
from .indicatrix import require_certificate, verify_han
from .polynomials import (ComplexPoly, QuatPoly, RationalFunction, RealPoly,
                          reduce_fraction)

Vector = tuple[RationalFunction, RationalFunction, RationalFunction]


class CertificateError(ValueError):
    """A rotation-minimizing frame was requested with an invalid certificate."""


@dataclass(frozen=True)
class SymbolicFrame:
    """Nine reduced rational functions forming an exact orthonormal frame."""

    f1: Vector
    f2: Vector
    f3: Vector
    denominator: RealPoly

    @classmethod
    def from_generator(cls, b: QuatPoly) -> "SymbolicFrame":
        b = QuatPoly.of(b)
        if b.is_zero():
            raise ValueError("frame of the zero polynomial")
        # each entry of the images B e B* over |B|^2
        den, raw = basis_images(b)
        vectors = [tuple(reduce_fraction(c, den) for c in row) for row in raw]
        return cls(vectors[0], vectors[1], vectors[2], den)

    def tangent_twist(self) -> RationalFunction:
        """<f3, f2'>: the tangent component of the frame angular velocity."""
        acc = RationalFunction.zero
        for c3, c2 in zip(self.f3, self.f2):
            acc = acc + c3 * c2.derivative()
        return acc

    def evaluate(self, xi: float):
        """The nine entries at the float xi."""
        return tuple(tuple(rf.evaluate_float(xi) for rf in axis)
                     for axis in (self.f1, self.f2, self.f3))


def erf_symbolic(a: QuatPoly) -> SymbolicFrame:
    """Euler-Rodrigues frame (A i A*, A j A*, A k A*)/|A|^2."""
    return SymbolicFrame.from_generator(a)


def certificate_generator(a: QuatPoly, ca: RealPoly, cb: RealPoly) -> QuatPoly:
    """B = A (a - b i), whose Euler-Rodrigues frame is the rational RMF."""
    gamma_conj = ComplexPoly.from_parts(RealPoly.of(ca), -RealPoly.of(cb))
    return QuatPoly.of(a) * gamma_conj.as_quat()


def _rmf_generator(a, ca: RealPoly, cb: RealPoly) -> QuatPoly:
    """B = A (a - b i) once Han's identity verifies (a, b); ``a`` may be
    an analysis."""
    analysis = GeneratorAnalysis.of(a, "certificate check against the zero polynomial")
    if not verify_han(analysis, ca, cb):
        raise CertificateError("certificate does not satisfy the frame condition")
    return certificate_generator(analysis.poly, ca, cb)


def rmf_symbolic(a: QuatPoly, ca: RealPoly, cb: RealPoly) -> SymbolicFrame:
    """Rational RMF for a verified certificate (a, b); ``a`` may be an analysis."""
    return SymbolicFrame.from_generator(_rmf_generator(a, ca, cb))


def rotate_frame(a: QuatPoly, ca: RealPoly, cb: RealPoly) -> tuple[Vector, Vector]:
    """Normal-plane rotation of the ERF by angle -2*atan(b/a).

    Rotation matrix ((a^2-b^2, -2ab), (2ab, a^2-b^2))/(a^2+b^2) applied
    to (e2, e3); for a verified certificate this reproduces the RMF
    normal-plane vectors exactly.
    """
    ca, cb = require_certificate(ca, cb)
    erf = erf_symbolic(a)
    den = ca * ca + cb * cb
    cos_term = reduce_fraction(ca * ca - cb * cb, den)
    sin_term = reduce_fraction((ca * cb).scale(2), den)
    f2 = tuple(cos_term * e2 - sin_term * e3 for e2, e3 in zip(erf.f2, erf.f3))
    f3 = tuple(sin_term * e2 + cos_term * e3 for e2, e3 in zip(erf.f2, erf.f3))
    return f2, f3


@dataclass(frozen=True)
class FrameSample:
    """One sampled frame: parameter, position, and the three axes."""

    xi: float
    position: tuple[float, float, float]
    f1: tuple[float, float, float]
    f2: tuple[float, float, float]
    f3: tuple[float, float, float]


FrameKind = Literal["erf", "rmf", "frenet"]

_ORTHO_TOL = 1e-12


def sample_frames(a: QuatPoly, kind: FrameKind, xi_values: Iterable[float],
                  certificate: Optional[tuple[RealPoly, RealPoly]] = None,
                  normal_rotation: float = 0.0
                  ) -> tuple[list[FrameSample], list[str]]:
    """Evaluate the requested frame at the given parameters.

    Samples at parametric-speed roots (and, for the Frenet frame,
    vanishing-curvature points), and samples at which an evaluation
    overflows, are skipped and reported as warnings.
    The rotation-minimizing frame needs a certificate unless the
    generator already has a vanishing indicatrix, where (1, 0) is used.
    An optional constant normal-plane rotation picks a different member
    of the one-parameter frame family; it must be finite.

    The parameters are converted to floats up front, so a parameter that
    is not a real number raises before any sample is checked.  Each is
    then evaluated on its own in Python floats, so memory beyond the
    parameters and the returned samples does not grow with their number.  The
    erf and rmf axes are B e B* over |B|^2 formed in floats from the four
    components of B (A for erf, A (a - b i) for rmf); no rational entry
    is reduced.  Every kept sample is checked to be orthonormal to 1e-12
    (erf, rmf) or finite (frenet); the first failing parameter raises
    AssertionError.
    """
    analysis = GeneratorAnalysis.of(a, "sampling the zero polynomial")
    if not math.isfinite(normal_rotation):
        raise ValueError(f"normal rotation must be finite, got {normal_rotation}")
    if kind not in ("erf", "rmf", "frenet"):
        raise ValueError(f"unknown frame kind {kind!r}")
    h, b = analysis.hodograph, analysis.poly
    if kind == "rmf":
        if certificate is None:
            if not analysis.in_f0:
                raise CertificateError(
                    "rotation-minimizing frame requires a certificate")
            certificate = (RealPoly([1]), RealPoly())
        b = _rmf_generator(analysis, *certificate)

    # sigma and the position r with r(0) = 0
    curve = _horner_rows((h.sigma, *(c.antiderivative() for c in h.components())))
    if kind == "frenet":
        axes_at, failure = _frenet_axes, _nonfinite_failure
        rows = (_horner_rows((*h.components(), h.sigma.derivative())),
                _horner_rows((*(c.derivative() for c in h.components()), h.sigma)))
    else:
        axes_at, failure = _image_axes, _orthonormality_failure
        rows = _horner_rows(b.components())
    scale = max(abs(c) for c in h.sigma.float_coeffs())
    slow = 1e-12 * max(scale, 1.0)
    cos, sin = math.cos(normal_rotation), math.sin(normal_rotation)
    samples, warnings = [], []
    xis = list(xi_values)
    for xi, x in zip(xis, [float(xi) for xi in xis]):
        sigma, px, py, pz = _horner4(curve, x)
        axes, flat, values = axes_at(rows, x)
        # a finite sum shows every value finite (a sum of finite values can overflow)
        if (math.isfinite(x) and not math.isfinite(sigma + px + py + pz + sum(values))
                and not all(map(math.isfinite, (sigma, px, py, pz, *values)))):
            warnings.append(f"xi={xi!r}: evaluation overflows, skipped")
        elif abs(sigma) < slow:
            warnings.append(f"xi={xi!r}: parametric speed vanishes, skipped")
        elif flat:
            warnings.append(f"xi={xi!r}: curvature vanishes, skipped")
        else:
            message = failure(axes)
            if message:
                raise AssertionError(f"{message} at xi={xi}")
            f1, f2, f3 = axes
            if normal_rotation:
                f2, f3 = (tuple(cos * u - sin * w for u, w in zip(f2, f3)),
                          tuple(sin * u + cos * w for u, w in zip(f2, f3)))
            samples.append(FrameSample(xi, (px, py, pz), f1, f2, f3))
    return samples, warnings


def _horner_rows(polys) -> list[tuple[float, ...]]:
    """The float coefficients of the polynomials as rows from the top
    power down, one entry per polynomial, zero above a degree."""
    coeffs = [p.float_coeffs() for p in polys]
    n = max(map(len, coeffs))
    return list(zip(*(c + [0.0] * (n - len(c)) for c in coeffs)))[::-1]


def _horner4(rows, x: float) -> tuple[float, float, float, float]:
    """The four polynomials of ``rows`` at x, as RealPoly.evaluate_float
    forms each: a zero row above a degree leaves 0.0 for a finite x."""
    a = b = c = d = 0.0
    for ca, cb, cc, cd in rows:
        a = a * x + ca
        b = b * x + cb
        c = c * x + cc
        d = d * x + cd
    return a, b, c, d


def _image_axes(rows, x: float):
    """The erf/rmf axes at x: B e B* over |B|^2 from the components of B,
    whose Horner rows are ``rows``.  Also returns that no curvature test
    applies, and the values the axes are formed from."""
    values = float_images(*_horner4(rows, x))
    den, a, b, c, d, e, f, g, h, i = values
    return (_over(a, b, c, den), _over(d, e, f, den), _over(g, h, i, den)), False, values


def _frenet_axes(rows, x: float):
    """Numeric Frenet frame: f1 = r'/sigma, f2 along sigma r'' - sigma' r'.

    ``rows`` holds the Horner rows of (x', y', z', sigma') and of
    (x'', y'', z'', sigma).  Also returns whether the curvature vanishes
    at x (the axes are then meaningless) and the values the axes are
    formed from, for the overflow check.
    """
    (*rp, sp), (*rpp, s) = _horner4(rows[0], x), _horner4(rows[1], x)
    d = [s * cpp - sp * cp for cpp, cp in zip(rpp, rp)]
    norm = math.sqrt(_fdot(d, d))
    scale = math.sqrt(_fdot(rp, rp)) * (abs(s) + abs(sp) + 1.0)
    flat = norm <= 1e-12 * max(scale, 1.0)
    f1, f2 = _over(*rp, s), _over(*d, norm)
    return (f1, f2, _fcross(f1, f2)), flat, (*rp, *rpp, s, sp, norm, scale)


def _over(x: float, y: float, z: float, den: float) -> tuple[float, float, float]:
    """The triple (x, y, z) divided by den, where a zero den gives inf
    or nan as IEEE division does, not ZeroDivisionError."""
    if den:
        return (x / den, y / den, z / den)
    sign = math.copysign(1.0, den)
    return tuple(math.nan if c != c or not c else math.copysign(math.inf, c) * sign
                 for c in (x, y, z))


def _orthonormality_failure(axes) -> Optional[str]:
    """The check of the first Gram entry that is off the identity by
    more than 1e-12, or None.  The entries are checked in the order
    (f1, f1), (f1, f2), (f1, f3), (f2, f2), (f2, f3), (f3, f3), each
    as "<=" so that a NaN entry fails."""
    (a, b, c), (d, e, f), (g, h, i) = axes
    tol = _ORTHO_TOL
    if not abs(a * a + b * b + c * c - 1.0) <= tol:
        return "frame axis not unit"
    if not abs(a * d + b * e + c * f) <= tol:
        return "frame axes not orthogonal"
    if not abs(a * g + b * h + c * i) <= tol:
        return "frame axes not orthogonal"
    if not abs(d * d + e * e + f * f - 1.0) <= tol:
        return "frame axis not unit"
    if not abs(d * g + e * h + f * i) <= tol:
        return "frame axes not orthogonal"
    if not abs(g * g + h * h + i * i - 1.0) <= tol:
        return "frame axis not unit"
    return None


def _nonfinite_failure(axes) -> Optional[str]:
    """The Frenet check, that the axes are finite: a NaN parameter
    passes the curvature test with NaN axes."""
    if all(map(math.isfinite, (*axes[0], *axes[1], *axes[2]))):
        return None
    return "frame axis not unit"


def _fdot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _fcross(a, b) -> tuple[float, float, float]:
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


CSV_HEADER = "xi,px,py,pz,f1x,f1y,f1z,f2x,f2y,f2z,f3x,f3y,f3z"


def write_frames_csv(samples: list[FrameSample], path) -> None:
    """Write the header and the samples' rows to a new file at path."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        write_frame_rows(samples, fh)


def write_frame_rows(samples: list[FrameSample], fh) -> None:
    """Append one CSV row per sample, shortest round-trip float formatting."""
    fh.writelines(",".join(map(repr, map(float, (s.xi, *s.position, *s.f1, *s.f2, *s.f3))))
                  + "\n" for s in samples)
