"""Symbolic adapted frames and numeric sampling.

The Euler-Rodrigues frame of a generator B is the rational orthonormal
triple (B i B*, B j B*, B k B*)/|B|^2; with a verified certificate
(a, b) the rotation-minimizing frame is the same construction applied
to B = A (a - b i).  All nine entries are reduced rational functions
and the orthonormality identities are verified exactly on
construction.  Sampling evaluates the exact entries in floating point
(orthonormal to 1e-12 by construction) and also offers a numeric
Frenet frame for comparison plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal, Optional

from .hodograph import hodograph_of, integrate
from .indicatrix import inner_product_poly, verify_han
from .classify import has_vanishing_indicatrix
from .polynomials import (ComplexPoly, QuatPoly, RationalFunction, RealPoly,
                          gcd_real, reduce_fraction)
from .quaternions import Quaternion

_BASIS = (Quaternion(0, 1), Quaternion(0, 0, 1), Quaternion(0, 0, 0, 1))

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
        den = b.norm_poly()
        bc = b.conjugate()
        raw = []
        for e in _BASIS:
            prod = b * QuatPoly([e]) * bc
            u, x, y, z = prod.components()
            if not u.is_zero():
                raise AssertionError("B e B* must be a pure vector")
            raw.append((x, y, z))
        # orthonormality before reduction: sum_c v_a,c v_b,c == delta_ab den^2
        den_sq = den * den
        for a in range(3):
            for b_ in range(a, 3):
                dot = sum((x * y for x, y in zip(raw[a], raw[b_])), RealPoly())
                if dot != (den_sq if a == b_ else RealPoly()):
                    raise AssertionError("frame orthonormality violated")
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

    def evaluate(self, xi: float) -> tuple[tuple[float, ...], ...]:
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
    b = certificate_generator(a, ca, cb)
    if not inner_product_poly(b).is_zero():
        raise AssertionError("certified generator must have zero twist numerator")
    return SymbolicFrame.from_generator(b)


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
    of the one-parameter frame family.
    """
    a = QuatPoly.of(a)
    if a.is_zero():
        raise ValueError("sampling the zero polynomial")
    position = integrate(hodograph_of(a))
    sigma = a.norm_poly()
    warnings: list[str] = []
    samples: list[FrameSample] = []

    frame = None
    if kind == "erf":
        frame = erf_symbolic(a)
    elif kind == "rmf":
        if certificate is None:
            if has_vanishing_indicatrix(a):
                certificate = (RealPoly([1]), RealPoly())
            else:
                raise CertificateError(
                    "rotation-minimizing frame requires a certificate")
        frame = rmf_symbolic(a, certificate[0], certificate[1])
    elif kind != "frenet":
        raise ValueError(f"unknown frame kind {kind!r}")

    scale = max(abs(c) for c in sigma.float_coeffs())
    for xi in xi_values:
        s = sigma.evaluate_float(xi)
        if abs(s) < 1e-12 * max(scale, 1.0):
            warnings.append(f"xi={xi!r}: parametric speed vanishes, skipped")
            continue
        pos = position.evaluate_float(xi)
        if kind == "frenet":
            axes = _frenet_axes(a, xi)
            if axes is None:
                warnings.append(f"xi={xi!r}: curvature vanishes, skipped")
                continue
        else:
            axes = frame.evaluate(xi)
            _check_orthonormal(axes, xi)
        f1, f2, f3 = axes
        if normal_rotation:
            f2, f3 = _apply_normal_rotation(f2, f3, normal_rotation)
        samples.append(FrameSample(xi, pos, tuple(f1), tuple(f2), tuple(f3)))
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


def _frenet_axes(a: QuatPoly, xi: float):
    """Numeric Frenet frame: f1 = r'/sigma, f2 along sigma r'' - sigma' r'."""
    h = hodograph_of(a)
    rp = tuple(c.evaluate_float(xi) for c in h.components())
    rpp = tuple(c.derivative().evaluate_float(xi) for c in h.components())
    s = h.sigma.evaluate_float(xi)
    sp = h.sigma.derivative().evaluate_float(xi)
    f1 = tuple(c / s for c in rp)
    d = tuple(s * cpp - sp * cp for cpp, cp in zip(rpp, rp))
    norm = math.sqrt(_fdot(d, d))
    scale = math.sqrt(_fdot(rp, rp)) * (abs(s) + abs(sp) + 1.0)
    if norm <= 1e-12 * max(scale, 1.0):
        return None
    f2 = tuple(c / norm for c in d)
    f3 = _fcross(f1, f2)
    return f1, f2, f3


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
