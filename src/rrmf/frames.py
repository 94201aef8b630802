"""Symbolic adapted frames and numeric sampling.

The Euler-Rodrigues frame of a generator B is the rational orthonormal
triple (B i B*, B j B*, B k B*)/|B|^2, read off the ten products of
B's components by hodograph.basis_images; with a verified certificate
(a, b) the rotation-minimizing frame is the same construction applied
to B = A (a - b i).  All nine entries are reduced rational functions;
the orthonormality identities hold exactly (the tests check them on
the unreduced images and on the reduced entries).  Sampling evaluates the exact entries in floating point
at all parameters in one pass (orthonormal to 1e-12 by construction,
checked per sample) and also offers a numeric Frenet frame for
comparison plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal, Optional

import numpy as np

from .hodograph import (Hodograph, Images, basis_images, hodograph_of,
                        hodograph_of_images, integrate)
from .indicatrix import verify_han
from .classify import has_vanishing_indicatrix
from .polynomials import (ComplexPoly, QuatPoly, RationalFunction, RealPoly,
                          gcd_real, reduce_fraction)

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
        return cls.from_images(basis_images(b))

    @classmethod
    def from_images(cls, images: Images) -> "SymbolicFrame":
        """The frame of basis_images(B): each image entry over |B|^2."""
        den, raw = images
        vectors = [tuple(reduce_fraction(c, den) for c in row) for row in raw]
        return cls(vectors[0], vectors[1], vectors[2], den)

    def verify_orthonormal(self) -> None:
        """Recheck the six identities on the reduced entries."""
        axes = (self.f1, self.f2, self.f3)
        for a in range(3):
            for b in range(a, 3):
                expect = RationalFunction.of(1 if a == b else 0)
                if _dot(axes[a], axes[b]) != expect:
                    raise AssertionError("frame orthonormality violated")

    def tangent_twist(self) -> RationalFunction:
        """<f3, f2'>: the tangent component of the frame angular velocity."""
        acc = RationalFunction.zero
        for c3, c2 in zip(self.f3, self.f2):
            acc = acc + c3 * c2.derivative()
        return acc

    def evaluate(self, xi):
        """The nine entries at xi, a float or an ndarray of parameters."""
        return tuple(tuple(rf.evaluate_float(xi) for rf in axis)
                     for axis in (self.f1, self.f2, self.f3))


def _dot(a: Vector, b: Vector) -> RationalFunction:
    acc = RationalFunction.zero
    for x, y in zip(a, b):
        acc = acc + x * y
    return acc


def erf_symbolic(a: QuatPoly) -> SymbolicFrame:
    """Euler-Rodrigues frame (A i A*, A j A*, A k A*)/|A|^2."""
    return SymbolicFrame.from_generator(a)


def certificate_generator(a: QuatPoly, ca: RealPoly, cb: RealPoly) -> QuatPoly:
    """B = A (a - b i), whose Euler-Rodrigues frame is the rational RMF."""
    gamma_conj = ComplexPoly.from_parts(RealPoly.of(ca), -RealPoly.of(cb))
    return QuatPoly.of(a) * gamma_conj.as_quat()


def rmf_symbolic(a: QuatPoly, ca: RealPoly, cb: RealPoly) -> SymbolicFrame:
    """Rational rotation-minimizing frame for a verified certificate (a, b)."""
    a = QuatPoly.of(a)
    ca, cb = RealPoly.of(ca), RealPoly.of(cb)
    if not verify_han(a, ca, cb):
        raise CertificateError("certificate does not satisfy the frame condition")
    return SymbolicFrame.from_generator(certificate_generator(a, ca, cb))


def rotate_frame(a: QuatPoly, ca: RealPoly, cb: RealPoly) -> tuple[Vector, Vector]:
    """Normal-plane rotation of the ERF by angle -2*atan(b/a).

    Rotation matrix ((a^2-b^2, -2ab), (2ab, a^2-b^2))/(a^2+b^2) applied
    to (e2, e3); for a verified certificate this reproduces the RMF
    normal-plane vectors exactly.
    """
    ca, cb = RealPoly.of(ca), RealPoly.of(cb)
    if ca.is_zero() and cb.is_zero():
        raise ValueError("rotation with a = b = 0")
    if gcd_real(ca, cb).degree() != 0:
        raise ValueError("rotation polynomials must be coprime")
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
    vanishing-curvature points) are skipped and reported as warnings.
    The rotation-minimizing frame needs a certificate unless the
    generator already has a vanishing indicatrix, where (1, 0) is used.
    An optional constant normal-plane rotation picks a different member
    of the one-parameter frame family; it must be finite.

    Every polynomial is evaluated once over the array of all parameters
    (memory linear in their number); its Horner steps run in the scalar
    order, so each value is the same double as a one-parameter
    evaluation.  Each kept sample is then checked to be orthonormal to
    1e-12 (erf, rmf) or finite (frenet); the first failing parameter
    raises AssertionError.
    """
    a = QuatPoly.of(a)
    if a.is_zero():
        raise ValueError("sampling the zero polynomial")
    if not math.isfinite(normal_rotation):
        raise ValueError(f"normal rotation must be finite, got {normal_rotation}")
    warnings: list[str] = []
    samples: list[FrameSample] = []

    if kind not in ("erf", "rmf", "frenet"):
        raise ValueError(f"unknown frame kind {kind!r}")
    frame = None
    if kind == "erf":
        # the hodograph is the frame's first image: form the images once
        images = basis_images(a)
        h, frame = hodograph_of_images(images), SymbolicFrame.from_images(images)
    else:
        h = hodograph_of(a)
    if kind == "rmf":
        if certificate is None:
            if has_vanishing_indicatrix(a):
                certificate = (RealPoly([1]), RealPoly())
            else:
                raise CertificateError(
                    "rotation-minimizing frame requires a certificate")
        frame = rmf_symbolic(a, certificate[0], certificate[1])

    xis = list(xi_values)
    xs = np.asarray(xis, dtype=float)
    # overflow and 0/0 at skipped or non-finite samples stay silent here;
    # the row loop below skips or rejects those rows
    with np.errstate(all="ignore"):
        sigma = h.sigma.evaluate_float(xs)
        position = integrate(h).evaluate_float(xs)
        if kind == "frenet":
            axes, flat = _frenet_axes(h, xs)
        else:
            axes, flat = frame.evaluate(xs), np.zeros(xs.shape, dtype=bool)
    columns = np.broadcast_arrays(sigma, *position, *axes[0], *axes[1], *axes[2])
    rows = np.stack(columns, axis=1).tolist()
    flat = flat.tolist()

    scale = max(abs(c) for c in h.sigma.float_coeffs())
    for xi, (s, *row), is_flat in zip(xis, rows, flat):
        if abs(s) < 1e-12 * max(scale, 1.0):
            warnings.append(f"xi={xi!r}: parametric speed vanishes, skipped")
            continue
        pos, f1, f2, f3 = (tuple(row[k:k + 3]) for k in range(0, 12, 3))
        if kind == "frenet":
            if is_flat:
                warnings.append(f"xi={xi!r}: curvature vanishes, skipped")
                continue
            # a NaN parameter passes the curvature test with NaN axes
            if not all(math.isfinite(c) for c in row[3:]):
                raise AssertionError(f"frame axis not unit at xi={xi}")
        else:
            _check_orthonormal((f1, f2, f3), xi)
        if normal_rotation:
            f2, f3 = _apply_normal_rotation(f2, f3, normal_rotation)
        samples.append(FrameSample(xi, pos, f1, f2, f3))
    return samples, warnings


def _check_orthonormal(axes, xi: float) -> None:
    # written as "not <=" so that a NaN entry fails the check
    for i in range(3):
        if not abs(_fdot(axes[i], axes[i]) - 1.0) <= _ORTHO_TOL:
            raise AssertionError(f"frame axis not unit at xi={xi}")
        for j in range(i + 1, 3):
            if not abs(_fdot(axes[i], axes[j])) <= _ORTHO_TOL:
                raise AssertionError(f"frame axes not orthogonal at xi={xi}")


def _fdot(a, b) -> float:
    return sum(x * y for x, y in zip(a, b))


def _fcross(a, b) -> tuple[float, float, float]:
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _apply_normal_rotation(f2, f3, angle: float):
    c, s = math.cos(angle), math.sin(angle)
    new2 = tuple(c * x - s * y for x, y in zip(f2, f3))
    new3 = tuple(s * x + c * y for x, y in zip(f2, f3))
    return new2, new3


def _frenet_axes(h: Hodograph, xs: np.ndarray):
    """Numeric Frenet frame: f1 = r'/sigma, f2 along sigma r'' - sigma' r'.

    Evaluated at every parameter at once; also returns where the
    curvature vanishes (those axes are meaningless).
    """
    rp = [c.evaluate_float(xs) for c in h.components()]
    rpp = [c.derivative().evaluate_float(xs) for c in h.components()]
    s = h.sigma.evaluate_float(xs)
    sp = h.sigma.derivative().evaluate_float(xs)
    f1 = tuple(c / s for c in rp)
    d = tuple(s * cpp - sp * cp for cpp, cp in zip(rpp, rp))
    norm = np.sqrt(_fdot(d, d))
    scale = np.sqrt(_fdot(rp, rp)) * (abs(s) + abs(sp) + 1.0)
    flat = norm <= 1e-12 * np.maximum(scale, 1.0)
    f2 = tuple(c / norm for c in d)
    f3 = _fcross(f1, f2)
    return (f1, f2, f3), flat


def finite_difference_twist(samples: list[FrameSample]) -> list[float]:
    """Finite-difference estimate of the twist rate <f3, f2'> at interior samples.

    Fourth-order central stencil on a uniform grid, so the estimate is
    zero to discretization order for a rotation-minimizing frame and
    clearly nonzero for a frame with tangent rotation.
    """
    out = []
    for k in range(2, len(samples) - 2):
        h = samples[k + 1].xi - samples[k].xi
        d2 = tuple((-a2 + 8 * a1 - 8 * b1 + b2) / (12 * h)
                   for a2, a1, b1, b2 in zip(samples[k + 2].f2, samples[k + 1].f2,
                                             samples[k - 1].f2, samples[k - 2].f2))
        out.append(_fdot(d2, samples[k].f3))
    return out


CSV_HEADER = "xi,px,py,pz,f1x,f1y,f1z,f2x,f2y,f2z,f3x,f3y,f3z"


def write_frames_csv(samples: list[FrameSample], path) -> None:
    """Write samples with shortest round-trip float formatting."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for s in samples:
            row = [s.xi, *s.position, *s.f1, *s.f2, *s.f3]
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
