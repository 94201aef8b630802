"""From generator polynomial to Pythagorean hodograph, speed, and core.

A quaternion polynomial A maps to the hodograph r' = A i A*, whose
components always satisfy x'^2 + y'^2 + z'^2 = sigma^2 with parametric
speed sigma = |A|^2.  hodograph_of forms |A|^2 and the three entries of
A i A*, the first four image forms, in one integer pass of the
polynomial kernel; basis_images, the frames' kernel, forms all ten
component products of B for the three images B e B*.  The core of A is A stripped of its maximal monic
complex right divisor; A generates a primitive hodograph exactly when
it coincides with its core.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polynomials import (ComplexPoly, QuatPoly, RealPoly, component_forms,
                          exact_divide, gcd_complex, gcd_real)


@dataclass(frozen=True)
class Hodograph:
    """Derivative components (x', y', z') and parametric speed sigma.

    Built by hand, it checks the Pythagorean identity and the sign of
    sigma's leading coefficient; hodograph_of and hodograph_of_images
    build it unchecked, since A i A* and |A|^2 satisfy both by
    construction.
    """

    xp: RealPoly
    yp: RealPoly
    zp: RealPoly
    sigma: RealPoly

    def __post_init__(self):
        lhs = self.xp * self.xp + self.yp * self.yp + self.zp * self.zp
        if lhs != self.sigma * self.sigma:
            raise AssertionError("Pythagorean identity violated")
        if not self.sigma.is_zero() and self.sigma.leading().sign() < 0:
            raise AssertionError("sigma must have nonnegative leading coefficient")

    def components(self) -> tuple[RealPoly, RealPoly, RealPoly]:
        return (self.xp, self.yp, self.zp)


@dataclass(frozen=True)
class CurvePosition:
    """Antiderivatives with r(0) = 0 and the polynomial arc length."""

    x: RealPoly
    y: RealPoly
    z: RealPoly
    arclen: RealPoly

    def evaluate_float(self, xi: float) -> tuple[float, float, float]:
        return (self.x.evaluate_float(xi), self.y.evaluate_float(xi),
                self.z.evaluate_float(xi))


@dataclass(frozen=True)
class CoreDecomposition:
    """core * factor = A, with factor the maximal monic complex right divisor."""

    core: QuatPoly
    factor: ComplexPoly


_U, _V, _P, _Q = range(4)
# |B|^2, then B i B*, B j B*, B k B* as (c, i, j) terms c b_i b_j
_IMAGE_FORMS = (
    ((1, _U, _U), (1, _V, _V), (1, _P, _P), (1, _Q, _Q)),
    ((1, _U, _U), (1, _V, _V), (-1, _P, _P), (-1, _Q, _Q)),
    ((2, _U, _Q), (2, _V, _P)),
    ((2, _V, _Q), (-2, _U, _P)),
    ((2, _V, _P), (-2, _U, _Q)),
    ((1, _U, _U), (-1, _V, _V), (1, _P, _P), (-1, _Q, _Q)),
    ((2, _P, _Q), (2, _U, _V)),
    ((2, _V, _Q), (2, _U, _P)),
    ((2, _P, _Q), (-2, _U, _V)),
    ((1, _U, _U), (-1, _V, _V), (-1, _P, _P), (1, _Q, _Q)),
)

Images = tuple[RealPoly, list[tuple[RealPoly, ...]]]


def basis_images(b: QuatPoly) -> Images:
    """|B|^2 and (B i B*, B j B*, B k B*) as unreduced real triples.

    The columns of the rotation B e B* read off the ten products of
    B = u + v i + p j + q k, formed once each in one integer pass.
    """
    sigma, *entries = component_forms(b, _IMAGE_FORMS)
    return sigma, [tuple(entries[k:k + 3]) for k in range(0, 9, 3)]


def hodograph_of_images(images: Images) -> Hodograph:
    """r' = B i B*, the first basis image, with speed |B|^2."""
    sigma, (tangent, *_) = images
    h = object.__new__(Hodograph)
    # A i A* and |A|^2 satisfy the Hodograph identities by construction
    h.__dict__.update(xp=tangent[0], yp=tangent[1], zp=tangent[2], sigma=sigma)
    return h


def hodograph_of(a: QuatPoly) -> Hodograph:
    """r' = A i A* with speed |A|^2, from the first four image forms only."""
    a = QuatPoly.of(a)
    if a.is_zero():
        raise ValueError("hodograph of the zero polynomial")
    sigma, *tangent = component_forms(a, _IMAGE_FORMS[:4])
    return hodograph_of_images((sigma, [tangent]))


def has_coprime_components(a: QuatPoly) -> bool:
    """Whether gcd of the four real components is 1."""
    a = QuatPoly.of(a)
    if a.is_zero():
        return False
    return gcd_real(*a.components()).degree() == 0


def is_primitive(a: QuatPoly) -> bool:
    """Whether the generated hodograph has coprime components.

    Tested as gcd(alpha, conj(beta)) = 1 on the complex splitting: A has
    no nonconstant complex right divisor, so it coincides with its core.
    """
    a = QuatPoly.of(a)
    if a.is_zero():
        raise ValueError("primitivity of the zero polynomial")
    return core_of(a).factor.degree() == 0


def core_of(a: QuatPoly) -> CoreDecomposition:
    """Strip the maximal monic complex right divisor gcd(alpha, conj(beta))."""
    a = QuatPoly.of(a)
    if a.is_zero():
        raise ValueError("core of the zero polynomial")
    alpha, beta = a.complex_split()
    chi = gcd_complex(alpha, beta.conjugate())
    # chi is monic: of degree 0 it is 1, and A is its own core
    core = a if chi.degree() == 0 else exact_divide(a, chi.as_quat())
    return CoreDecomposition(core, chi)


def integrate(h: Hodograph) -> CurvePosition:
    """Exact antiderivatives with zero integration constants."""
    return CurvePosition(h.xp.antiderivative(), h.yp.antiderivative(),
                         h.zp.antiderivative(), h.sigma.antiderivative())
