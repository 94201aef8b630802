"""Symbolic adapted frames and numeric sampling.

The Euler-Rodrigues frame of a generator B is the rational orthonormal
triple (B i B*, B j B*, B k B*)/|B|^2, read off the ten products of
B's components by hodograph.basis_images in erf_symbolic, the one
constructor of a SymbolicFrame; with a verified certificate (a, b) the
rotation-minimizing frame is erf_symbolic of B = A (a - b i), and
rotate_frame reads its f2 and f3 for any nonzero coprime (a, b).  In
F0 (vanishing indicatrix) the rational RMF is the ERF of A itself.
SymbolicFrame holds W = |B|^2 and the images N_e = B e B* unreduced,
so its identities are polynomial: N_e . N_f = delta_ef W^2, and the
tangent twist <f3, f2'> = (N3 . N2')/W^2 is twice the Han fraction
(the tests check both).  An entry is reduced only when it is read;
sampling reduces none.  frame_sampler sets up B once, and the
generator function it returns takes each parameter on its own: it
evaluates B's four components in Python floats, forms the same ten
products (hodograph.float_images), checks the sample to be orthonormal
to 1e-12, and also offers a numeric Frenet frame for comparison plots.
The float operations are those of RealPoly.evaluate_float and IEEE
division, so a zero divisor gives inf or nan and fails the check
rather than raising ZeroDivisionError.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Iterable, Iterator, Literal, NamedTuple, Optional

from .hodograph import GeneratorAnalysis, basis_images, float_images
from .indicatrix import require_certificate, verify_han
from .polynomials import (ComplexPoly, QuatPoly, RationalFunction, RealPoly,
                          float_shift, reduce_fraction)

Vector = tuple[RationalFunction, RationalFunction, RationalFunction]


class CertificateError(ValueError):
    """A rotation-minimizing frame was requested with an invalid certificate."""


class SymbolicFrame(NamedTuple):
    """An exact orthonormal frame: the images N1, N2, N3 over the
    denominator W, as hodograph.basis_images returns them."""

    denominator: RealPoly
    images: tuple[tuple[RealPoly, ...], ...]

    def _axis(self, e: int) -> Vector:
        return tuple(reduce_fraction(c, self.denominator) for c in self.images[e])

    f1 = property(lambda self: self._axis(0), doc="N1/W, reduced.")
    f2 = property(lambda self: self._axis(1), doc="N2/W, reduced.")
    f3 = property(lambda self: self._axis(2), doc="N3/W, reduced.")

    def evaluate(self, xi: float):
        """The nine entries N_e/W at the float xi, each polynomial divided
        by one power of two (polynomials.float_shift)."""
        shift = float_shift((self.denominator, *(c for row in self.images for c in row)))
        w = self.denominator.evaluate_float(xi, shift)
        return tuple(tuple(c.evaluate_float(xi, shift) / w for c in row)
                     for row in self.images)


def erf_symbolic(a: QuatPoly) -> SymbolicFrame:
    """Euler-Rodrigues frame (A i A*, A j A*, A k A*)/|A|^2."""
    a = QuatPoly.of(a)
    if a.is_zero():
        raise ValueError("frame of the zero polynomial")
    den, raw = basis_images(a)
    return SymbolicFrame(den, tuple(raw))


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
    return erf_symbolic(_rmf_generator(a, ca, cb))


def rotate_frame(a: QuatPoly, ca: RealPoly, cb: RealPoly) -> tuple[Vector, Vector]:
    """f2 and f3 of the ERF of B = A (a - b i), for nonzero coprime (a, b).

    As (a - bi) j (a + bi) = (a^2-b^2) j - 2ab k, (a - bi) k (a + bi) =
    2ab j + (a^2-b^2) k and |B|^2 = (a^2+b^2) W, this is the ERF's (N2, N3)
    turned by -2*atan(b/a) in the normal plane; for a verified
    certificate, the RMF normal-plane vectors.
    """
    frame = erf_symbolic(certificate_generator(a, *require_certificate(ca, cb)))
    return frame.f2, frame.f3


class FrameSample(NamedTuple):
    """One sampled frame: parameter, position, and the three axes."""

    xi: float
    position: tuple[float, float, float]
    f1: tuple[float, float, float]
    f2: tuple[float, float, float]
    f3: tuple[float, float, float]


FrameKind = Literal["erf", "rmf", "frenet"]

_ORTHO_TOL = 1e-12


def frame_sampler(a: QuatPoly, kind: FrameKind,
                  certificate: Optional[tuple[RealPoly, RealPoly]] = None,
                  normal_rotation: float = 0.0
                  ) -> Callable[..., Iterator[FrameSample]]:
    """The sampler of the requested frame, checked and set up once.

    The returned generator function ``samples(pairs, warnings)`` runs
    over (xi, float(xi)) pairs.  It yields the sample of each kept
    parameter and appends to ``warnings`` a line for each one skipped:
    at a parametric-speed root (for the Frenet frame also where the
    curvature vanishes) or where an evaluation overflows.
    The rotation-minimizing frame needs a certificate unless the
    generator already has a vanishing indicatrix, where it is the ERF.
    An optional constant normal-plane rotation picks a different member
    of the one-parameter frame family; it must be finite.

    Each parameter is evaluated on its own in Python floats, so memory
    does not grow with their number.  The erf and rmf axes are B e B*
    over |B|^2 formed in floats from the four components of B (A for
    erf, and for rmf without a certificate; A (a - b i) for rmf with
    one); no rational entry is reduced.  Every kept sample is checked
    to be orthonormal to 1e-12 (erf, rmf) or finite (frenet); the first
    failing parameter raises AssertionError.  A coefficient beyond the
    float range raises ValueError at set-up.
    """
    analysis = GeneratorAnalysis.of(a, "sampling the zero polynomial")
    if not math.isfinite(normal_rotation):
        raise ValueError(f"normal rotation must be finite, got {normal_rotation}")
    if kind not in ("erf", "rmf", "frenet"):
        raise ValueError(f"unknown frame kind {kind!r}")
    h, b = analysis.hodograph, analysis.poly
    if kind == "rmf":
        if certificate is not None:
            b = _rmf_generator(analysis, *certificate)
        elif not analysis.in_f0:
            raise CertificateError("rotation-minimizing frame requires a certificate")

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

    def samples(pairs, warnings):
        for xi, x in pairs:
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
                yield FrameSample(xi, (px, py, pz), f1, f2, f3)
    return samples


def sample_frames(a: QuatPoly, kind: FrameKind, xi_values: Iterable[float],
                  certificate: Optional[tuple[RealPoly, RealPoly]] = None,
                  normal_rotation: float = 0.0
                  ) -> tuple[list[FrameSample], list[str]]:
    """The samples of frame_sampler at the given parameters, as a list
    of samples and a list of warnings.  The parameters are converted to
    floats up front, so a parameter that is not a real number raises
    before any sample is checked."""
    samples = frame_sampler(a, kind, certificate, normal_rotation)
    xis = list(xi_values)
    warnings: list[str] = []
    return list(samples(zip(xis, [float(xi) for xi in xis]), warnings)), warnings


def _horner_rows(polys) -> list[tuple[float, ...]]:
    """The float coefficients of the polynomials as rows from the top
    power down, one entry per polynomial, zero above a degree; ValueError
    for a coefficient beyond the float range."""
    try:
        coeffs = [p.float_coeffs() for p in polys]
    except OverflowError:
        raise ValueError("a coefficient of the frame lies beyond the float range "
                         f"(about {sys.float_info.max:.3g}), so it cannot be sampled") from None
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


def write_frames_csv(samples: Iterable[FrameSample], path) -> None:
    """Write the header and one row per sample, shortest round-trip float
    formatting, to a new file at path (or file descriptor); each row is
    written as its sample is drawn."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.writelines(",".join(map(repr, map(float, (s.xi, *s.position, *s.f1, *s.f2, *s.f3))))
                      + "\n" for s in samples)
