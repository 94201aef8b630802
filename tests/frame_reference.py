"""Reference checks of sampled and symbolic frames for the tests.

verify_orthonormal rechecks the six orthonormality identities on a
SymbolicFrame's reduced entries, which hold by construction;
finite_difference_twist estimates the twist rate <f3, f2'> from
samples, independently of SymbolicFrame.tangent_twist.
"""

from rrmf.frames import FrameSample, SymbolicFrame
from rrmf.polynomials import RationalFunction


def _dot(a, b) -> RationalFunction:
    acc = RationalFunction.zero
    for x, y in zip(a, b):
        acc = acc + x * y
    return acc


def verify_orthonormal(frame: SymbolicFrame) -> None:
    """Recheck the six identities on the reduced entries."""
    axes = (frame.f1, frame.f2, frame.f3)
    for a in range(3):
        for b in range(a, 3):
            expect = RationalFunction.of(1 if a == b else 0)
            if _dot(axes[a], axes[b]) != expect:
                raise AssertionError("frame orthonormality violated")


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
