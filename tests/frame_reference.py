"""Reference checks of sampled and symbolic frames for the tests.

verify_orthonormal rechecks the six orthonormality identities
N_e . N_f = delta_ef W^2 on a SymbolicFrame's unreduced images, which
hold by construction; tangent_twist forms the twist rate <f3, f2'>
exactly from the images, independently of the Han fraction that the
library reads from GeneratorAnalysis (for an ERF it is twice that
fraction, the paper's omega_1), and finite_difference_twist estimates
it from samples; rotate_reference turns the ERF of A in its normal
plane, independently of rotate_frame, which reads the ERF of A (a - b i).
"""

from rrmf.frames import FrameSample, SymbolicFrame, erf_symbolic
from rrmf.polynomials import RealPoly, reduce_fraction


def verify_orthonormal(frame: SymbolicFrame) -> None:
    """Recheck the six polynomial identities on the images."""
    images, w = frame.images, frame.denominator
    for a in range(3):
        for b in range(a, 3):
            dot = sum((x * y for x, y in zip(images[a], images[b])), RealPoly())
            if dot != (w * w if a == b else RealPoly()):
                raise AssertionError("frame orthonormality violated")


def tangent_twist(frame: SymbolicFrame):
    """<f3, f2'>: the tangent component of the frame's angular velocity,
    (N3 . N2')/W^2, reduced, since N2 . N3 = 0."""
    _, n2, n3 = frame.images
    dot = sum((c3 * c2.derivative() for c3, c2 in zip(n3, n2)), RealPoly())
    return reduce_fraction(dot, frame.denominator * frame.denominator)


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
        out.append(sum(x * y for x, y in zip(d2, samples[k].f3)))
    return out


def rotate_reference(a, ca: RealPoly, cb: RealPoly):
    """(f2, f3): (N2, N3) of the ERF of A turned by the matrix
    ((a^2 - b^2, -2ab), (2ab, a^2 - b^2)) over (a^2 + b^2) W, reduced."""
    erf = erf_symbolic(a)
    _, n2, n3 = erf.images
    den = (ca * ca + cb * cb) * erf.denominator
    cos, sin = ca * ca - cb * cb, (ca * cb).scale(2)
    f2 = tuple(reduce_fraction(cos * e2 - sin * e3, den) for e2, e3 in zip(n2, n3))
    f3 = tuple(reduce_fraction(sin * e2 + cos * e3, den) for e2, e3 in zip(n2, n3))
    return f2, f3
