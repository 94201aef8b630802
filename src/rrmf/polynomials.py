"""Univariate polynomials over the exact scalar field.

One dense core, ``_DensePoly``, stores a polynomial as the tuple of its
coefficients in ascending order with no trailing zeros, so the zero
polynomial is the empty tuple and ``degree() == -1`` for it.  The core
multiplies coefficients in order, left operand first, so the same
arithmetic serves the commutative rings and the quaternions; for
quaternion polynomials ``divmod`` is therefore right division.  The
three kinds ``RealPoly``, ``ComplexPoly`` and ``QuatPoly`` name their
coefficient ring, the constants they accept and the smaller kinds they
lift from (Real -> Complex -> Quat), and add only what is particular to
their ring.  Real and complex polynomials form Euclidean domains with
monic gcds.  Reduced ratios of real polynomials (monic denominator,
coprime parts) provide the canonical form for every rational function
in the package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .quaternions import Quaternion
from .scalars import ComplexScalar, Scalar


class InexactDivision(ArithmeticError):
    """Division that was required to be exact left a remainder."""


def _trim(coeffs: list) -> tuple:
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return tuple(coeffs)


def _convolve(a: Sequence, b: Sequence, zero):
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for r, ar in enumerate(a):
        for s, bs in enumerate(b):
            out[r + s] = out[r + s] + ar * bs
    return out


def _term_str(c, k: int) -> str:
    if k == 0:
        return f"{c}"
    xi = "xi" if k == 1 else f"xi^{k}"
    return f"({c})*{xi}"


class _DensePoly:
    """Immutable dense polynomial over the coefficient ring ``ring``.

    A subclass sets ``ring`` and its ``zero_coeff``, the ``constants``
    it accepts as degree-0 polynomials, and the polynomial kinds it
    ``lifts`` coefficientwise into its ring.
    """

    __slots__ = ("coeffs",)
    lifts: tuple = ()

    def __init__(self, coeffs: Iterable = ()):
        object.__setattr__(self, "coeffs", _trim([self.ring.of(c) for c in coeffs]))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def of(cls, value):
        if isinstance(value, cls):
            return value
        if isinstance(value, cls.lifts):
            return cls(value.coeffs)
        if isinstance(value, cls.constants):
            return cls([value])
        return cls(value)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self.zero_coeff

    def __add__(self, other):
        other = self.of(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return type(self)([self.coeff(k) + other.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return type(self)([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self.of(other))

    def __rsub__(self, other):
        return (-self) + self.of(other)

    def __mul__(self, other):
        """Coefficient convolution with ordered coefficient products."""
        other = self.of(other)
        return type(self)(_convolve(self.coeffs, other.coeffs, self.zero_coeff))

    def __rmul__(self, other):
        return self.of(other) * self

    def scale(self, s):
        """Every coefficient multiplied on the right by the constant s."""
        s = self.ring.of(s)
        return type(self)([c * s for c in self.coeffs])

    def derivative(self):
        return type(self)([self.coeffs[k] * k for k in range(1, len(self.coeffs))])

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.leading().inverse())

    def divmod(self, divisor):
        """Q, R with self = Q*divisor + R and deg R < deg divisor."""
        divisor = self.of(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [self.zero_coeff] * max(0, self.degree() - divisor.degree() + 1)
        r = list(self.coeffs)
        inv_lead = divisor.leading().inverse()
        dd = divisor.degree()
        while True:
            r = list(_trim(r))
            if len(r) - 1 < dd:
                break
            c = r[-1] * inv_lead
            k = len(r) - 1 - dd
            q[k] = q[k] + c
            for s, ds in enumerate(divisor.coeffs):
                r[k + s] = r[k + s] - c * ds
        return type(self)(q), type(self)(r)

    def evaluate(self, xi):
        x = self.ring.of(Scalar.of(xi))
        acc = self.zero_coeff
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def as_quat(self) -> "QuatPoly":
        return QuatPoly.of(self)

    def __eq__(self, other) -> bool:
        if isinstance(other, self.constants + self.lifts):
            other = self.of(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return not self.is_zero()


class RealPoly(_DensePoly):
    """Polynomial with Scalar coefficients, ascending order."""

    __slots__ = ()
    ring, zero_coeff = Scalar, Scalar(0)
    constants = (Scalar, Fraction, int)

    def antiderivative(self) -> "RealPoly":
        """Termwise antiderivative with zero constant term."""
        out = [Scalar(0)]
        out += [c * Fraction(1, k + 1) for k, c in enumerate(self.coeffs)]
        return RealPoly(out)

    def evaluate_float(self, xi: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * xi + float(c)
        return acc

    def float_coeffs(self) -> list[float]:
        return [float(c) for c in self.coeffs]

    def __repr__(self):
        return f"RealPoly({[str(c) for c in self.coeffs]})"

    def __str__(self):
        if self.is_zero():
            return "0"
        return " + ".join(_term_str(c, k)
                          for k, c in enumerate(self.coeffs) if not c.is_zero())


class ComplexPoly(_DensePoly):
    """Polynomial with ComplexScalar coefficients."""

    __slots__ = ()
    ring, zero_coeff = ComplexScalar, ComplexScalar(0)
    constants = (ComplexScalar, Scalar, Fraction, int)
    lifts = (RealPoly,)

    @classmethod
    def from_parts(cls, re: RealPoly, im: RealPoly) -> "ComplexPoly":
        re, im = RealPoly.of(re), RealPoly.of(im)
        n = max(len(re.coeffs), len(im.coeffs))
        return cls([ComplexScalar(re.coeff(k), im.coeff(k)) for k in range(n)])

    def real_parts(self) -> tuple[RealPoly, RealPoly]:
        return (RealPoly([c.re for c in self.coeffs]),
                RealPoly([c.im for c in self.coeffs]))

    def conjugate(self) -> "ComplexPoly":
        return ComplexPoly([c.conjugate() for c in self.coeffs])

    def norm_sq(self) -> RealPoly:
        """|gamma|^2 = gamma * conj(gamma) as a real polynomial."""
        prod = self * self.conjugate()
        re, im = prod.real_parts()
        if not im.is_zero():
            raise AssertionError("norm of a complex polynomial must be real")
        return re

    def __repr__(self):
        return f"ComplexPoly({[(str(c.re), str(c.im)) for c in self.coeffs]})"


class QuatPoly(_DensePoly):
    """Quaternion polynomial u + v*i + p*j + q*k with ordered products."""

    __slots__ = ()
    ring, zero_coeff = Quaternion, Quaternion(0)
    constants = (Quaternion, ComplexScalar, Scalar, Fraction, int)
    lifts = (RealPoly, ComplexPoly)

    @classmethod
    def from_components(cls, u, v, p, q) -> "QuatPoly":
        u, v = RealPoly.of(u), RealPoly.of(v)
        p, q = RealPoly.of(p), RealPoly.of(q)
        n = max(len(u.coeffs), len(v.coeffs), len(p.coeffs), len(q.coeffs))
        return cls([Quaternion(u.coeff(k), v.coeff(k), p.coeff(k), q.coeff(k))
                    for k in range(n)])

    @classmethod
    def from_complex_pair(cls, alpha: ComplexPoly, beta: ComplexPoly) -> "QuatPoly":
        """alpha + beta*j."""
        ar, ai = ComplexPoly.of(alpha).real_parts()
        br, bi = ComplexPoly.of(beta).real_parts()
        return cls.from_components(ar, ai, br, bi)

    def components(self) -> tuple[RealPoly, RealPoly, RealPoly, RealPoly]:
        """(u, v, p, q) with self = u + v*i + p*j + q*k."""
        return (RealPoly([c.w for c in self.coeffs]),
                RealPoly([c.x for c in self.coeffs]),
                RealPoly([c.y for c in self.coeffs]),
                RealPoly([c.z for c in self.coeffs]))

    def complex_split(self) -> tuple[ComplexPoly, ComplexPoly]:
        """(alpha, beta) with self = alpha + beta*j."""
        u, v, p, q = self.components()
        return (ComplexPoly.from_parts(u, v), ComplexPoly.from_parts(p, q))

    # kept in this class body: bench/tracing.py wraps QuatPoly.__mul__ on its class
    __mul__ = _DensePoly.__mul__
    # ordered coefficient products make divmod the right division
    right_divmod = _DensePoly.divmod

    def left_scale(self, c: Quaternion) -> "QuatPoly":
        c = Quaternion.of(c)
        return QuatPoly([c * a for a in self.coeffs])

    def conjugate(self) -> "QuatPoly":
        return QuatPoly([c.conjugate() for c in self.coeffs])

    def norm_poly(self) -> RealPoly:
        """u^2 + v^2 + p^2 + q^2, the squared pointwise norm."""
        u, v, p, q = self.components()
        return u * u + v * v + p * p + q * q

    def inner(self, other: "QuatPoly") -> RealPoly:
        """Pointwise Euclidean inner product, as a real polynomial."""
        other = QuatPoly.of(other)
        if self.is_zero() or other.is_zero():
            return RealPoly()
        out = [Scalar(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for r, ar in enumerate(self.coeffs):
            for s, bs in enumerate(other.coeffs):
                out[r + s] = out[r + s] + ar.inner(bs)
        return RealPoly(out)

    def __repr__(self):
        return f"QuatPoly({self.coeffs!r})"


def _gcd(cls, polys):
    """Monic gcd of polynomials of a commutative kind, by Euclid's algorithm."""
    polys = [cls.of(p) for p in polys]
    if all(p.is_zero() for p in polys):
        raise ValueError("gcd of all-zero polynomials is undefined")
    g = cls()
    for b in polys:
        while not b.is_zero():
            g, b = b, g.divmod(b)[1]
    return g.monic()


def gcd_real(*polys) -> RealPoly:
    """Monic gcd of real polynomials via the Euclidean algorithm."""
    return _gcd(RealPoly, polys)


def gcd_complex(*polys) -> ComplexPoly:
    """Monic gcd of complex polynomials via the Euclidean algorithm."""
    return _gcd(ComplexPoly, polys)


def exact_divide(p, divisor):
    """Quotient of an exact division; raises InexactDivision on remainder.

    Quaternion polynomials divide on the right: returns Q with p = Q*divisor.
    """
    if not isinstance(p, _DensePoly):
        raise TypeError(f"cannot divide {type(p).__name__}")
    q, r = p.divmod(divisor)
    if not r.is_zero():
        raise InexactDivision(f"remainder {r!r} in exact division")
    return q


class RationalFunction:
    """Reduced ratio of real polynomials: monic denominator, coprime parts."""

    __slots__ = ("num", "den")

    def __init__(self, num: RealPoly, den: RealPoly, _reduced: bool = False):
        num, den = RealPoly.of(num), RealPoly.of(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not _reduced:
            if num.is_zero():
                num, den = RealPoly(), RealPoly([1])
            else:
                g = gcd_real(num, den)
                num = exact_divide(num, g)
                den = exact_divide(den, g)
                lead = den.leading().inverse()
                num, den = num.scale(lead), den.scale(lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def of(cls, value) -> "RationalFunction":
        if isinstance(value, RationalFunction):
            return value
        return cls(RealPoly.of(value), RealPoly([1]))

    zero: "RationalFunction"

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other) -> "RationalFunction":
        other = RationalFunction.of(other)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den, _reduced=True)

    def __sub__(self, other) -> "RationalFunction":
        return self + (-RationalFunction.of(other))

    def __rsub__(self, other) -> "RationalFunction":
        return (-self) + RationalFunction.of(other)

    def __mul__(self, other) -> "RationalFunction":
        other = RationalFunction.of(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = RationalFunction.of(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den)

    def evaluate_float(self, xi: float) -> float:
        return self.num.evaluate_float(xi) / self.den.evaluate_float(xi)

    def evaluate(self, xi) -> Scalar:
        return self.num.evaluate(xi) / self.den.evaluate(xi)

    def __eq__(self, other) -> bool:
        if isinstance(other, (RealPoly, Scalar, Fraction, int)):
            other = RationalFunction.of(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"RationalFunction(({self.num}) / ({self.den}))"


RationalFunction.zero = RationalFunction(RealPoly(), RealPoly([1]), _reduced=True)


def reduce_fraction(num, den) -> RationalFunction:
    """Canonical reduced form of num/den; errors on a zero denominator."""
    return RationalFunction(RealPoly.of(num), RealPoly.of(den))
