"""From generator polynomial to Pythagorean hodograph, speed, and core.

A quaternion polynomial A maps to the hodograph r' = A i A*, whose
components always satisfy x'^2 + y'^2 + z'^2 = sigma^2 with parametric
speed sigma = |A|^2.  GeneratorAnalysis owns every fact of A and forms
each only for its readers, in two integer passes of the polynomial
kernel: sigma with <A'i, A> for the verdicts, and sigma with A i A*,
from which the analysis alone builds the Hodograph record.
hodograph_of, is_primitive, has_coprime_components and core_of read a
fresh analysis.  The equal-degree criterion sigma | rho is sigma |
sigma'^2 + 4 <A'i, A>^2, one form (_FOUR_ETA) in F_p and over Q.  Each
fact screens A's one polynomials.PrimeImage (its four components in
F_p) first: it can prove the components coprime, chi = 1 (the core is
then A), <A'i, A> nonzero at a point (not in F0), span rank 3 (not
planar) and sigma not dividing rho.  The analysis also holds the Han
fraction reduced over F_p (han_image), where the certificate search
starts.  An image proves only those answers, and the exact kernel (the
private polynomials._gcd without a second screen, the form passes,
vector_rank) runs whenever it cannot; the gcd of the split images at
the prime is formed once, for chi and chi_degree.  The triviality
witness is one product conj(c) A, for the lowest nonzero coefficient
c, whose vector components vector_rank ranks.  basis_images forms all
ten component products of B for the three images B e B*, exactly for
the symbolic frames; float_images forms them in floats from B's values
at one parameter, for sampling.  The core of A is A stripped of chi =
gcd(alpha, conj(beta)), its maximal monic complex right divisor; A
generates a primitive hodograph exactly when chi = 1.  A verdict reads
deg chi alone, which the image, and the same record over further
primes, prove over Q (chi_degree); only core_of divides A by chi.
"""
from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Optional

from .polynomials import (ComplexPoly, PrimeImage, QuatPoly, RationalFunction, RealPoly, _gcd,
                          _gcd_mod, component_forms, divmod_mod, exact_divide, forms_mod,
                          images_coprime, reduce_fraction, vector_rank)
from .quaternions import Quaternion
from .scalars import Scalar


class Hodograph:
    """Derivative components (x', y', z') and parametric speed sigma.

    A plain class, compared by identity.  Built by hand, it checks the
    Pythagorean identity and the sign of sigma's leading coefficient;
    GeneratorAnalysis.hodograph, which hodograph_of reads, builds it
    unchecked, since A i A* and |A|^2 satisfy both by construction.
    """

    def __init__(self, xp: RealPoly, yp: RealPoly, zp: RealPoly, sigma: RealPoly):
        if component_forms(QuatPoly.from_components(sigma, xp, yp, zp), (_PYTHAGOREAN,))[0]:
            raise AssertionError("Pythagorean identity violated")
        if not sigma.is_zero() and sigma.leading().sign() < 0:
            raise AssertionError("sigma must have nonnegative leading coefficient")
        self.xp, self.yp, self.zp, self.sigma = xp, yp, zp, sigma

    def components(self) -> tuple[RealPoly, RealPoly, RealPoly]:
        return (self.xp, self.yp, self.zp)


class CurvePosition(NamedTuple):
    """Antiderivatives with r(0) = 0 and the polynomial arc length."""

    x: RealPoly
    y: RealPoly
    z: RealPoly
    arclen: RealPoly

    def evaluate_float(self, xi: float) -> tuple[float, float, float]:
        return (self.x.evaluate_float(xi), self.y.evaluate_float(xi),
                self.z.evaluate_float(xi))


class CoreDecomposition(NamedTuple):
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
# the form pass of the verdicts: |A|^2, then <A'i, A>
_SPEED_INNER = (_IMAGE_FORMS[0], _INNER_FORM)
# sigma'^2 + 4 <A'i, A>^2 = 4 eta over (sigma, <A'i, A>, 0, 0), read in F_p and over Q
_FOUR_ETA = ((1, _DU, _DU), (4, _V, _V))
# sigma^2 - x'^2 - y'^2 - z'^2 over (sigma, x', y', z'), zero for a hodograph
_PYTHAGOREAN = ((1, _U, _U), (-1, _V, _V), (-1, _P, _P), (-1, _Q, _Q))

Images = tuple[RealPoly, list[tuple[RealPoly, ...]]]
# fixed points of F_p at which an analysis evaluates the image of A
_POINTS = (0x2545F491, 0x1B873593, 0x3C6EF372)
_ONE = ComplexPoly([1])


def basis_images(b: QuatPoly) -> Images:
    """|B|^2 and (B i B*, B j B*, B k B*) as unreduced real triples.

    The columns of the rotation B e B* read off the ten products of
    B = u + v i + p j + q k, in one packed pass of component_forms.
    """
    sigma, *entries = component_forms(b, _IMAGE_FORMS)
    return sigma, [tuple(entries[k:k + 3]) for k in range(0, 9, 3)]


def float_images(u: float, v: float, p: float, q: float) -> tuple[float, ...]:
    """basis_images(B) at one parameter, in floats, from the values of
    B = u + v i + p j + q k there: |B|^2, then the entries of B i B*,
    B j B*, B k B* in turn.

    The ten sums of _IMAGE_FORMS written out: each product is formed
    once, scaled by its integer, and each sum starts from 0.0, so that
    -0.0 terms sum to 0.0.
    """
    uu, vv, pp, qq = u * u, v * v, p * p, q * q
    uv, up, uq = 2 * (u * v), 2 * (u * p), 2 * (u * q)
    vp, vq, pq = 2 * (v * p), 2 * (v * q), 2 * (p * q)
    return (0.0 + uu + vv + pp + qq,
            0.0 + uu + vv - pp - qq, 0.0 + uq + vp, 0.0 + vq - up,
            0.0 + vp - uq, 0.0 + uu - vv + pp - qq, 0.0 + pq + uv,
            0.0 + vq + up, 0.0 + pq - uv, 0.0 + uu - vv - pp + qq)


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


class TrivialWitness(NamedTuple):
    """Left factor C and plane direction u with A = C*(coefficients in R+Ru).

    The direction is stored unnormalized together with its squared norm,
    since unit normalization may leave the working field; all membership
    checks are homogeneous in u.
    """

    left_factor: Quaternion
    direction: Quaternion
    direction_norm_sq: Scalar


class GeneratorAnalysis:
    """The facts of one nonzero generator A, each computed once, on first use.

    sigma and <A'i, A> come from one form pass over A, which F0, the
    equal-degree criterion and the Han fraction read (Han's identity reads
    the rows of A); the hodograph comes from a second pass, sigma with
    A i A*, which only hodograph_of, span rank and frame sampling read.
    primitive and classify's core degree read chi_degree; only core
    divides A by chi.  classify reads every verdict from one analysis,
    verify_han and rho_eta accept one, and each public verdict function reads its
    fact from a fresh one, so every fact has a single implementation.
    """

    def __init__(self, poly: QuatPoly):
        self.poly = poly

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
    def image(self) -> Optional[PrimeImage]:
        """A over F_p for every screen below; without one, every fact is exact."""
        return PrimeImage.of(self.poly)

    @cached_property
    def coprime(self) -> bool:
        """Whether the four real components of A are coprime."""
        image = self.image
        if image is not None and images_coprime(image.comps, image.degrees, image.p):
            return True
        # the image has been screened: the exact gcd runs without it
        return _gcd(RealPoly, self.poly.components(), False).degree() == 0

    @cached_property
    def _speed_inner(self) -> list[RealPoly]:
        return component_forms(self.poly, _SPEED_INNER)

    @cached_property
    def sigma(self) -> RealPoly:
        """|A|^2, the parametric speed."""
        return self._speed_inner[0]

    @cached_property
    def inner(self) -> RealPoly:
        """<A'i, A>, the numerator of the rotation indicatrix."""
        return self._speed_inner[1]

    @cached_property
    def hodograph(self) -> Hodograph:
        """r' = A i A* with speed |A|^2, from a pass of its own, unchecked:
        both satisfy the Hodograph identities by construction."""
        h = object.__new__(Hodograph)
        h.sigma, h.xp, h.yp, h.zp = component_forms(self.poly, _IMAGE_FORMS[:4])
        return h

    @cached_property
    def in_f0(self) -> bool:
        """Coprime components and identically zero <A'i, A>; an image of
        <A'i, A> that is nonzero at one point rules it out."""
        if self.image is not None and self.image.values((_INNER_FORM,), _POINTS[0])[0]:
            return False
        return self.coprime and self.inner.is_zero()

    @cached_property
    def _split_degree(self) -> Optional[int]:
        """The split images' gcd degree at the analysis prime, or None."""
        return None if self.image is None else self.image.split_gcd_degree()

    @cached_property
    def chi(self) -> ComplexPoly:
        """gcd(alpha, conj(beta)), the maximal monic complex right divisor
        of A, for alpha + beta j = (u + v i) + (p + q i) j; 1 when the
        image proves it."""
        if self._split_degree == 0:
            return _ONE
        alpha, beta = self.poly.complex_split()
        return _gcd(ComplexPoly, (alpha, beta.conjugate()), False)

    @cached_property
    def chi_degree(self) -> int:
        """deg chi, the least j whose principal subresultant coefficient
        psc_j of alpha and conj(beta) is nonzero, proven over Q in images:
        at primes p where both keep their degrees n and m, an image gcd of
        degree k makes p divide each |psc_j|^2, j < k, which is at most
        B^2 = |alpha|^2m |beta|^2n (Hadamard, on the integer rows).  Past
        B^2 these psc_j are 0 for the least k, and deg chi <= k (Brown
        1971).  The exact chi decides over Q(sqrt d), or if the primes
        cannot pass B^2."""
        k = self._split_degree
        if k == 0:
            return 0
        wide = None if k is None or self.poly.d else self.image.composite(self.poly.rows)
        degree = None if wide is None else wide.split_gcd_degree()
        return self.chi.degree() if degree is None else min(k, degree)

    @cached_property
    def core(self) -> CoreDecomposition:
        """A stripped of chi by the one exact division of the analysis;
        A itself when chi, which is monic, has degree 0."""
        chi = self.chi
        core = self.poly if chi.degree() == 0 else exact_divide(self.poly, chi.as_quat())
        return CoreDecomposition(core, chi)

    @cached_property
    def primitive(self) -> bool:
        """Whether A i A* has coprime components: chi is constant."""
        return self.chi_degree == 0

    @cached_property
    def image_spatial(self) -> bool:
        """Whether the image of A i A* proves span rank 3: its values at
        _POINTS are independent over F_p, so its coefficient vectors are."""
        if self.image is None:
            return False
        (a, b, c), (d, e, f), (g, h, k) = (self.image.values(_IMAGE_FORMS[1:4], t)
                                           for t in _POINTS)
        det = a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)
        return det % self.image.p != 0

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
        # coefficients are built only as far as c
        c = next(q for q in map(self.poly.coeff, range(self.poly.degree() + 1)) if q)
        # conj(c) A = |c|^2 c^-1 A with |c|^2 > 0: the vector parts of its
        # coefficients are parallel, and orthogonal to i, exactly when
        # those of c^-1 A are
        _, x, y, z = (c.conjugate() * self.poly).components()
        rank = vector_rank(x, y, z)
        if rank == 0:
            # constant (up to left factor): plane direction is conventional
            return TrivialWitness(c, Quaternion(0, 0, 1, 0), Scalar(1))
        if rank > 1 or not x.is_zero():
            return None
        # the first nonzero vector part of c^-1 A, that of conj(c) A over |c|^2
        k = next(k for k in range(self.poly.degree() + 1) if y.coeff(k) or z.coeff(k))
        norm = c.norm_sq()
        direction = Quaternion(0, 0, y.coeff(k) / norm, z.coeff(k) / norm)
        return TrivialWitness(c, direction, direction.norm_sq())

    @cached_property
    def equal_degree(self) -> bool:
        """The equal-degree criterion sigma | rho, decided as sigma |
        sigma'^2 + 4 <A'i, A>^2 (_FOUR_ETA, in F_p and over Q), which is
        4 eta as rho + eta = sigma |A'|^2.  If sigma keeps its degree 2 deg A
        in the image, a nonzero remainder over F_p proves it no divisor."""
        if self._speed_inner_image is not None:
            p, (sigma, inner) = self.image.p, self._speed_inner_image
            four_eta, = forms_mod([sigma, inner, [], []], (_FOUR_ETA,), p)
            if divmod_mod(four_eta, sigma, p)[1]:
                return False
        pair = QuatPoly.from_components(self.sigma, self.inner, 0, 0)
        four_eta, = component_forms(pair, (_FOUR_ETA,))
        return four_eta.divmod(self.sigma)[1].is_zero()

    @cached_property
    def _speed_inner_image(self) -> Optional[list[list[int]]]:
        """Images of sigma and <A'i, A>, if sigma keeps its degree 2 deg A."""
        if self.image is not None:
            forms = forms_mod(self.image.comps, _SPEED_INNER, self.image.p)
            if len(forms[0]) == 2 * self.poly.degree() + 1:
                return forms
        return None

    @cached_property
    def han_image(self) -> Optional[tuple[list[int], list[int]]]:
        """(P, D): -<A'i, A>/sigma reduced over F_p, D monic, so P != 0
        proves A not in F0; None unless sigma keeps its degree, which makes
        deg D <= deg han.den (Brown 1971)."""
        if self._speed_inner_image is None:
            return None
        p, (sigma, inner) = self.image.p, self._speed_inner_image
        g = _gcd_mod([sigma, inner], p)
        num, den = (divmod_mod(f, g, p)[0] for f in (inner, sigma))
        inv = pow(den[-1], -1, p)
        return [-c * inv % p for c in num], [c * inv % p for c in den]

    @cached_property
    def han(self) -> RationalFunction:
        """The reduced Han fraction -<A'i, A>/|A|^2 of A."""
        return reduce_fraction(-self.inner, self.sigma)


def integrate(h: Hodograph) -> CurvePosition:
    """Exact antiderivatives with zero integration constants."""
    return CurvePosition(h.xp.antiderivative(), h.yp.antiderivative(),
                         h.zp.antiderivative(), h.sigma.antiderivative())
