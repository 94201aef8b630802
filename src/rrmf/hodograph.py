"""From generator polynomial to Pythagorean hodograph, speed, and core.

A quaternion polynomial A maps to the hodograph r' = A i A*, whose
components always satisfy x'^2 + y'^2 + z'^2 = sigma^2 with parametric
speed sigma = |A|^2.  GeneratorAnalysis owns every fact of A: one
integer pass of the polynomial kernel forms sigma, A i A* and <A'i, A>,
and hodograph_of and is_primitive read a fresh analysis.  The analysis
forms one prime image of A (polynomials.ComponentImage) and asks it
first: it can prove the components coprime, chi = 1 (the core is then
A), <A'i, A> nonzero at a point (not in F0) and span rank 3 (not
planar).  An image proves only those answers, and the exact kernel
(the gcds without a second screen, the form pass, vector_rank) runs
whenever it cannot; has_coprime_components and core_of read a fresh
analysis too.  basis_images forms all ten component products of
B for the three images B e B*, exactly for the symbolic frames and in
floats (float_images) for sampling.  The core of A is A stripped of its maximal monic complex
right divisor; A generates a primitive hodograph exactly when it
coincides with its core.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .polynomials import (ComplexPoly, ComponentImage, QuatPoly,
                          RationalFunction, RealPoly, component_forms,
                          exact_divide, gcd_complex, gcd_real, reduce_fraction,
                          vector_part_rank, vector_rank)
from .quaternions import Quaternion
from .scalars import Scalar


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


# the components of A and their derivatives, as component_forms numbers them
_U, _V, _P, _Q, _DU, _DV, _DP, _DQ = range(8)
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
# <A'i, A> = -(v'u - u'v - q'p + p'q)
_INNER_FORM = ((-1, _DV, _U), (1, _DU, _V), (1, _DQ, _P), (-1, _DP, _Q))
# the one form pass of an analysis: |A|^2, A i A*, then <A'i, A>
_ANALYSIS_FORMS = _IMAGE_FORMS[:4] + (_INNER_FORM,)

Images = tuple[RealPoly, list[tuple[RealPoly, ...]]]
# fixed points of F_p at which an analysis evaluates the image of A
_POINTS = (0x2545F491, 0x1B873593, 0x3C6EF372)
_ONE = ComplexPoly([1])


def basis_images(b: QuatPoly) -> Images:
    """|B|^2 and (B i B*, B j B*, B k B*) as unreduced real triples.

    The columns of the rotation B e B* read off the ten products of
    B = u + v i + p j + q k, formed once each in one integer pass.
    """
    sigma, *entries = component_forms(b, _IMAGE_FORMS)
    return sigma, [tuple(entries[k:k + 3]) for k in range(0, 9, 3)]


def float_images(b: QuatPoly, xs):
    """basis_images(B) evaluated in floats at xs, a float or an ndarray.

    B's four components are evaluated once and each of the ten
    products is formed once, by the same table as basis_images.
    """
    comps = [c.evaluate_float(xs) for c in QuatPoly.of(b).components()]
    products: dict = {}
    values = []
    for form in _IMAGE_FORMS:
        acc = 0.0
        for c, i, j in form:
            if (i, j) not in products:
                products[i, j] = comps[i] * comps[j]
            acc = acc + c * products[i, j]
        values.append(acc)
    sigma, *entries = values
    return sigma, [tuple(entries[k:k + 3]) for k in range(0, 9, 3)]


def hodograph_of_images(images: Images) -> Hodograph:
    """r' = B i B*, the first basis image, with speed |B|^2."""
    sigma, (tangent, *_) = images
    h = object.__new__(Hodograph)
    # A i A* and |A|^2 satisfy the Hodograph identities by construction
    h.__dict__.update(xp=tangent[0], yp=tangent[1], zp=tangent[2], sigma=sigma)
    return h


def hodograph_of(a: QuatPoly) -> Hodograph:
    """r' = A i A* with speed |A|^2, read from a fresh analysis of A."""
    return GeneratorAnalysis.of(a, "hodograph of the zero polynomial").hodograph


def has_coprime_components(a: QuatPoly) -> bool:
    """Whether gcd of the four real components is 1, read from a fresh
    analysis of A; False for the zero polynomial."""
    a = QuatPoly.of(a)
    return not a.is_zero() and GeneratorAnalysis(a).coprime


def is_primitive(a: QuatPoly) -> bool:
    """Whether the generated hodograph has coprime components.

    Tested as gcd(alpha, conj(beta)) = 1 on the complex splitting: A has
    no nonconstant complex right divisor, so it coincides with its core.
    """
    return GeneratorAnalysis.of(a, "primitivity of the zero polynomial").primitive


def core_of(a: QuatPoly) -> CoreDecomposition:
    """Strip the maximal monic complex right divisor gcd(alpha, conj(beta)),
    read from a fresh analysis of A."""
    return GeneratorAnalysis.of(a, "core of the zero polynomial").core


@dataclass(frozen=True)
class TrivialWitness:
    """Left factor C and plane direction u with A = C*(coefficients in R+Ru).

    The direction is stored unnormalized together with its squared norm,
    since unit normalization may leave the working field; all membership
    checks are homogeneous in u.
    """

    left_factor: Quaternion
    direction: Quaternion
    direction_norm_sq: Scalar


@dataclass(frozen=True)
class GeneratorAnalysis:
    """The facts of one nonzero generator A, each computed once, on first use.

    sigma, the hodograph and <A'i, A> come from one form pass over A.
    classify reads every verdict from one analysis, verify_han and
    rho_eta accept one, and each public verdict function reads its fact
    from a fresh one, so every fact has a single implementation.
    """

    poly: QuatPoly

    @classmethod
    def of(cls, a, zero_message: str = "analysis of the zero polynomial"
           ) -> "GeneratorAnalysis":
        """The analysis of the generator a; an analysis is returned as is."""
        if isinstance(a, cls):
            return a
        a = QuatPoly.of(a)
        if a.is_zero():
            raise ValueError(zero_message)
        return cls(a)

    @cached_property
    def image(self) -> Optional[ComponentImage]:
        """A's components at one prime, read by every screen below; None
        when no listed prime fits the base, and then every fact is exact."""
        return ComponentImage.of(self.poly)

    @cached_property
    def coprime(self) -> bool:
        """Whether the four real components of A are coprime."""
        if self.image is not None and self.image.coprime():
            return True
        # the image has been screened: the exact gcd runs without it
        return gcd_real(*self.poly.components(), screen=False).degree() == 0

    @cached_property
    def _forms(self) -> list[RealPoly]:
        return component_forms(self.poly, _ANALYSIS_FORMS)

    @cached_property
    def sigma(self) -> RealPoly:
        """|A|^2, the parametric speed."""
        return self._forms[0]

    @cached_property
    def inner(self) -> RealPoly:
        """<A'i, A>, the numerator of the rotation indicatrix."""
        return self._forms[4]

    @cached_property
    def hodograph(self) -> Hodograph:
        """r' = A i A* with speed |A|^2."""
        return hodograph_of_images((self.sigma, [tuple(self._forms[1:4])]))

    @cached_property
    def in_f0(self) -> bool:
        """Coprime components and identically zero <A'i, A>; an image of
        <A'i, A> that is nonzero at one point rules it out."""
        if (self.image is not None
                and self.image.form_values((_INNER_FORM,), _POINTS[0])[0]):
            return False
        return self.coprime and self.inner.is_zero()

    @cached_property
    def core(self) -> CoreDecomposition:
        """A stripped of chi = gcd(alpha, conj(beta)), its maximal monic
        complex right divisor; A itself when the image proves chi = 1."""
        if self.image is not None and self.image.split_coprime():
            return CoreDecomposition(self.poly, _ONE)
        alpha, beta = self.poly.complex_split()
        chi = gcd_complex(alpha, beta.conjugate(), screen=False)
        # chi is monic: of degree 0 it is 1, and A is its own core
        core = self.poly if chi.degree() == 0 else exact_divide(self.poly, chi.as_quat())
        return CoreDecomposition(core, chi)

    @cached_property
    def primitive(self) -> bool:
        """Whether A i A* has coprime components: chi is constant."""
        return self.core.factor.degree() == 0

    @cached_property
    def image_spatial(self) -> bool:
        """Whether the image of A i A* proves span rank 3 at _POINTS."""
        return self.image is not None and self.image.spans(_IMAGE_FORMS[1:4], _POINTS)

    @cached_property
    def span_rank(self) -> int:
        """Rank over the field of the vector coefficients of A i A*."""
        return 3 if self.image_spatial else vector_rank(*self.hodograph.components())

    @cached_property
    def planar(self) -> bool:
        """Whether the generated curve lies in a plane: span rank <= 2."""
        return self.span_rank <= 2

    @cached_property
    def trivial(self) -> Optional[TrivialWitness]:
        """The witness of trivial_witness; meaningful for coprime components.
        None when the image proves A spatial, since trivial implies planar."""
        if self.image_spatial:
            return None
        # an iterator: coefficients are built only as far as c and the direction
        coeffs = map(self.poly.coeff, range(self.poly.degree() + 1))
        c = next(q for q in coeffs if q)
        # conj(c) A = |c|^2 c^-1 A with |c|^2 > 0: the vector parts of its
        # coefficients are parallel, and orthogonal to i, exactly when
        # those of c^-1 A are
        rank = vector_part_rank(self.poly, c.conjugate())
        if rank == 0:
            # constant (up to left factor): plane direction is conventional
            return TrivialWitness(c, Quaternion(0, 0, 1, 0), Scalar(1))
        if rank > 1:
            return None
        c_inv = c.inverse()
        vectors = ((c_inv * q).vector_part() for q in coeffs if q)
        direction = next(v for v in vectors if v)
        if not direction.x.is_zero():
            return None
        return TrivialWitness(c, direction, direction.norm_sq())

    @cached_property
    def han(self) -> RationalFunction:
        """The reduced Han fraction -<A'i, A>/|A|^2 of A."""
        return reduce_fraction(-self.inner, self.sigma)


def integrate(h: Hodograph) -> CurvePosition:
    """Exact antiderivatives with zero integration constants."""
    return CurvePosition(h.xp.antiderivative(), h.yp.antiderivative(),
                         h.zp.antiderivative(), h.sigma.antiderivative())
