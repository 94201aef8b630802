"""Exact arithmetic in the quadratic field Q(sqrt(d)).

Every symbolic computation in this package runs over a field Q(sqrt(d))
for a fixed squarefree base d.  A value is stored as ``a + b*sqrt(d)``
with exact ``Fraction`` parts, so equality is structural and sign
determination never touches floating point.  Pure rationals are
canonicalized to base 0 and combine freely with values of any base;
combining two genuinely irrational values of different bases is an
error rather than an implicit field extension.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction
from typing import Union

ScalarLike = Union["Scalar", Fraction, int]


class SurdBaseMismatch(ValueError):
    """Raised when two values from different quadratic fields are combined."""


MAX_BASE = 2**31 - 1
"""Largest accepted base.  Squarefreeness is decided by trial division
up to sqrt(d), so an unbounded base could stall parsing; at this bound
the division makes at most 46 341 steps."""


def is_valid_base(d: int) -> bool:
    """A base is 0 (pure rational) or a squarefree integer in [2, MAX_BASE]."""
    if d == 0:
        return True
    if d < 2 or d > MAX_BASE:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


def _merge_bases(d1: int, d2: int) -> int:
    if d1 == d2:
        return d1
    if d1 == 0:
        return d2
    if d2 == 0:
        return d1
    raise SurdBaseMismatch(f"cannot combine sqrt({d1}) with sqrt({d2})")


class Scalar:
    """An element a + b*sqrt(d) of Q(sqrt(d)), immutable.

    Invariants: ``a`` and ``b`` are Fractions (lowest terms, positive
    denominator, maintained by the Fraction type); ``d`` is 0 or a
    squarefree integer in [2, MAX_BASE]; and ``b == 0`` implies ``d == 0``.

    Validation happens at the edges: the public constructor checks its
    arguments, and ``parse_scalar`` goes through it for any base but the
    expected one its caller has validated.  Arithmetic results
    (``+``, ``-``, ``*``, ``inverse`` and what is built from them) are
    assembled without re-validation, because their parts are Fraction
    operations on valid operands and their base is one of the operands'
    bases; only the ``b == 0 => d == 0`` normalisation runs on them.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: ScalarLike = 0, b: ScalarLike = 0, d: int = 0):
        if isinstance(a, Scalar) or isinstance(b, Scalar):
            raise TypeError("use Scalar arithmetic, not nested construction")
        if not is_valid_base(d):
            raise ValueError(
                f"base {d} is not 0 or a squarefree integer in [2, {MAX_BASE}]")
        a = Fraction(a)
        b = Fraction(b)
        if b == 0:
            d = 0
        elif d == 0:
            raise ValueError("irrational part requires a nonzero base")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def of(cls, value: ScalarLike) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return _unchecked(Fraction(value), _F0, 0)

    @classmethod
    def surd(cls, coefficient: ScalarLike, d: int) -> "Scalar":
        """The value coefficient * sqrt(d)."""
        return cls(0, Fraction(coefficient), d)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d): compares a^2 against b^2*d."""
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: the larger of a^2 and b^2*d decides
        if a * a > b * b * d:
            return 1 if a > 0 else -1
        if a * a < b * b * d:
            return 1 if b > 0 else -1
        return 0  # unreachable for squarefree d >= 2, kept as a guard

    # -- arithmetic ----------------------------------------------------
    # Rational operands (d == 0, hence b == 0) take one Fraction
    # operation; surd operands take the Q(sqrt(d)) formula.

    def __add__(self, other) -> "Scalar":
        other = Scalar.of(other)
        if self.d == 0 and other.d == 0:
            return _unchecked(self.a + other.a, _F0, 0)
        d = _merge_bases(self.d, other.d)
        return _unchecked(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _unchecked(-self.a, -self.b, self.d)

    def __sub__(self, other) -> "Scalar":
        other = Scalar.of(other)
        if self.d == 0 and other.d == 0:
            return _unchecked(self.a - other.a, _F0, 0)
        d = _merge_bases(self.d, other.d)
        return _unchecked(self.a - other.a, self.b - other.b, d)

    def __rsub__(self, other) -> "Scalar":
        return Scalar.of(other) - self

    def __mul__(self, other) -> "Scalar":
        other = Scalar.of(other)
        if self.d == 0 and other.d == 0:
            return _unchecked(self.a * other.a, _F0, 0)
        d = _merge_bases(self.d, other.d)
        a = self.a * other.a + self.b * other.b * d
        b = self.a * other.b + self.b * other.a
        return _unchecked(a, b, d)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        if self.b == 0:
            return _unchecked(1 / self.a, _F0, 0)
        # (a + b sqrt d)^-1 = (a - b sqrt d) / (a^2 - b^2 d); the norm is
        # nonzero because sqrt(d) is irrational for squarefree d >= 2
        n = self.a * self.a - self.b * self.b * self.d
        return _unchecked(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other) -> "Scalar":
        return self * Scalar.of(other).inverse()

    def __rtruediv__(self, other) -> "Scalar":
        return Scalar.of(other) * self.inverse()

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inverse() ** (-n)
        result = Scalar(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.of(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __lt__(self, other) -> bool:
        return (self - Scalar.of(other)).sign() < 0

    def __le__(self, other) -> bool:
        return (self - Scalar.of(other)).sign() <= 0

    def __gt__(self, other) -> bool:
        return (self - Scalar.of(other)).sign() > 0

    def __ge__(self, other) -> bool:
        return (self - Scalar.of(other)).sign() >= 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- conversion / text form ----------------------------------------

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self) -> str:
        return f"Scalar({self})"

    def __str__(self) -> str:
        return format_scalar(self)


_F0 = Fraction(0)
_new_scalar = object.__new__
_set_a, _set_b, _set_d = Scalar.a.__set__, Scalar.b.__set__, Scalar.d.__set__


def _unchecked(a: Fraction, b: Fraction, d: int) -> Scalar:
    """Build an arithmetic result from parts already known to be valid:
    Fractions ``a`` and ``b`` and a base ``d`` taken from an operand.
    Skips base validation and Fraction re-wrapping; keeps the
    ``b == 0 => d == 0`` normalisation."""
    s = _new_scalar(Scalar)
    _set_a(s, a)
    _set_b(s, b)
    _set_d(s, d if b else 0)
    return s


def _ratio(q: Fraction) -> str:
    # Decimal converts an int of any length, where str() stops at the
    # interpreter's int-string limit (4300 digits by default); the limit
    # itself stays in force for parsing
    return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


def format_scalar(s: Scalar) -> str:
    """Canonical text form: "a/b" or "a/b+c/e*sqrt(d)" (ASCII, no spaces)."""
    a = _ratio(s.a)
    if s.b == 0:
        return a
    sign = "+" if s.b > 0 else "-"
    return f"{a}{sign}{_ratio(abs(s.b))}*sqrt({s.d})"


_RAT = r"[+-]?\d+(?:/\d+)?"
_SCALAR_RE = re.compile(
    rf"^(?P<a>{_RAT})?(?:(?P<sign>(?<=.)[+-]|^[+-]?)(?P<c>\d+(?:/\d+)?)?\*?sqrt\((?P<d>\d+)\))?$"
)


def parse_scalar(text: str, expected_base: int | None = None) -> Scalar:
    """Parse the canonical text form, tolerating bare integers and
    a missing rational part ("sqrt(15)", "-3/2*sqrt(5)").  A surd over
    ``expected_base``, which the caller has validated (documents.parse_base),
    is built unchecked; any other base goes through the constructor."""
    text = text.strip().replace(" ", "")
    if not text:
        raise ValueError("empty scalar")
    m = _SCALAR_RE.match(text)
    if not m or (m.group("a") is None and m.group("d") is None):
        raise ValueError(f"cannot parse scalar {text!r}")
    a = Fraction(m.group("a")) if m.group("a") is not None else _F0
    if m.group("d") is None:
        return _unchecked(a, _F0, 0)
    d = int(m.group("d"))
    c = Fraction(m.group("c")) if m.group("c") else Fraction(1)
    if m.group("sign") == "-":
        c = -c
    if d and d == expected_base:
        return _unchecked(a, c, d)
    result = Scalar(a, c, d)
    if expected_base is not None and result.d not in (0, expected_base):
        raise SurdBaseMismatch(
            f"scalar {text!r} uses base {result.d}, document declares {expected_base}"
        )
    return result


class ComplexScalar:
    """An element of Q(sqrt(d))(i), the coefficient field of complex polynomials."""

    __slots__ = ("re", "im")

    def __init__(self, re: ScalarLike = 0, im: ScalarLike = 0):
        object.__setattr__(self, "re", Scalar.of(re))
        object.__setattr__(self, "im", Scalar.of(im))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexScalar is immutable")

    @classmethod
    def of(cls, value) -> "ComplexScalar":
        if isinstance(value, ComplexScalar):
            return value
        return cls(Scalar.of(value))

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def conjugate(self) -> "ComplexScalar":
        return ComplexScalar(self.re, -self.im)

    def norm_sq(self) -> Scalar:
        return self.re * self.re + self.im * self.im

    def __add__(self, other) -> "ComplexScalar":
        other = ComplexScalar.of(other)
        return ComplexScalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "ComplexScalar":
        return ComplexScalar(-self.re, -self.im)

    def __sub__(self, other) -> "ComplexScalar":
        return self + (-ComplexScalar.of(other))

    def __rsub__(self, other) -> "ComplexScalar":
        return (-self) + ComplexScalar.of(other)

    def __mul__(self, other) -> "ComplexScalar":
        other = ComplexScalar.of(other)
        return ComplexScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "ComplexScalar":
        n = self.norm_sq()
        if n.is_zero():
            raise ZeroDivisionError("inverse of zero complex scalar")
        return ComplexScalar(self.re / n, -self.im / n)

    def __truediv__(self, other) -> "ComplexScalar":
        return self * ComplexScalar.of(other).inverse()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Scalar)):
            other = ComplexScalar.of(other)
        if not isinstance(other, ComplexScalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ComplexScalar({self.re}, {self.im})"
