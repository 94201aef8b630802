"""Symbolic adapted frames and numeric sampling.

The Euler-Rodrigues frame of a generator B is the rational orthonormal
triple (B i B*, B j B*, B k B*)/|B|^2, read off the ten products of
B's components by hodograph.basis_images; with a verified certificate
(a, b) the rotation-minimizing frame is the same construction applied
to B = A (a - b i).  SymbolicFrame holds the nine entries as reduced
rational functions; the orthonormality identities hold exactly (the
tests check them on the unreduced images and on the reduced entries).
Sampling does not reduce them: it evaluates B's four components over
the array of all parameters, forms the same ten products in floats
(hodograph.float_images), checks the kept samples to be orthonormal to
1e-12 in one array pass, and also offers a numeric Frenet frame for
comparison plots.

Sampling is the package's only use of numpy, and it imports numpy on
its first call: importing rrmf, and every exact computation, leaves
numpy unloaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal, Optional

from .hodograph import (GeneratorAnalysis, Hodograph, basis_images,
                        float_images, integrate)
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

    def evaluate(self, xi):
        """The nine entries at xi, a float or an ndarray of parameters."""
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

    Every polynomial is evaluated once over the array of all parameters
    (memory linear in their number).  The erf and rmf axes are B e B*
    over |B|^2 formed in floats from the four components of B (A for
    erf, A (a - b i) for rmf); no rational entry is reduced.  The kept
    samples are checked in one array pass to be orthonormal to 1e-12
    (erf, rmf) or finite (frenet); the first failing parameter raises
    AssertionError.
    """
    import numpy as np

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

    xis = list(xi_values)
    xs = np.asarray(xis, dtype=float)
    # overflow and 0/0 at skipped or non-finite samples stay silent here;
    # the checks below skip or reject those rows
    with np.errstate(all="ignore"):
        sigma = h.sigma.evaluate_float(xs)
        position = integrate(h).evaluate_float(xs)
        if kind == "frenet":
            axes, flat, values = _frenet_axes(h, xs)
        else:
            den, images = float_images(b, xs)
            axes = tuple(tuple(e / den for e in row) for row in images)
            flat = np.zeros(xs.shape, dtype=bool)
            values = (den, *images[0], *images[1], *images[2])
        # position and the three axes, one row per parameter
        table = np.stack(np.broadcast_arrays(*position, *axes[0], *axes[1], *axes[2]),
                         axis=1)
        # a finite parameter at which a polynomial or product overflowed
        # (xs gives the columns their shape where a value is a constant)
        evaluated = np.stack(np.broadcast_arrays(xs, sigma, *position, *values), axis=1)
        overflow = np.isfinite(xs) & ~np.isfinite(evaluated).all(axis=1)
        scale = max(abs(c) for c in h.sigma.float_coeffs())
        slow = ~overflow & (abs(sigma) < 1e-12 * max(scale, 1.0))
        kept = ~(overflow | slow | flat)
        if kind == "frenet":
            # a NaN parameter passes the curvature test with NaN axes
            checks = [("frame axis not unit", ~np.isfinite(table[:, 3:]).all(axis=1))]
        else:
            checks = list(_orthonormality_checks(axes))
        failed = kept & np.logical_or.reduce([bad for _, bad in checks])
        if normal_rotation:
            c, s = math.cos(normal_rotation), math.sin(normal_rotation)
            f2, f3 = table[:, 6:9], table[:, 9:12]
            table[:, 6:] = np.hstack((c * f2 - s * f3, s * f2 + c * f3))
    if failed.any():
        k = int(np.flatnonzero(failed)[0])
        raise AssertionError(next(f"{message} at xi={xis[k]}"
                                  for message, bad in checks if bad[k]))

    reasons = [(overflow, "evaluation overflows"), (slow, "parametric speed vanishes"),
               (flat, "curvature vanishes")]
    warnings = [f"xi={xis[k]!r}: {next(r for mask, r in reasons if mask[k])}, skipped"
                for k in np.flatnonzero(~kept).tolist()]
    samples = [FrameSample(xis[k], tuple(row[0:3]), tuple(row[3:6]),
                           tuple(row[6:9]), tuple(row[9:12]))
               for k, row in zip(np.flatnonzero(kept).tolist(), table[kept].tolist())]
    return samples, warnings


def _orthonormality_checks(axes):
    """(message, failed) for each Gram entry of the axes, arrays over the
    parameters, in the order a sample is checked."""
    # written as "not <=" so that a NaN entry fails the check
    for i in range(3):
        yield "frame axis not unit", ~(abs(_fdot(axes[i], axes[i]) - 1.0) <= _ORTHO_TOL)
        for j in range(i + 1, 3):
            yield "frame axes not orthogonal", ~(abs(_fdot(axes[i], axes[j])) <= _ORTHO_TOL)


def _fdot(a, b) -> float:
    return sum(x * y for x, y in zip(a, b))


def _fcross(a, b) -> tuple[float, float, float]:
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _frenet_axes(h: Hodograph, xs):
    """Numeric Frenet frame: f1 = r'/sigma, f2 along sigma r'' - sigma' r'.

    Evaluated at every parameter of the ndarray xs at once; also returns
    where the curvature vanishes (those axes are meaningless) and the
    values the axes are formed from, for the overflow check.
    """
    import numpy as np

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
    return (f1, f2, f3), flat, (*rp, *rpp, s, sp, norm, scale)


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
