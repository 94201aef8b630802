"""Exact arithmetic in the quadratic field Q(sqrt(d)).

Every symbolic computation in this package runs over a field Q(sqrt(d))
for a fixed squarefree base d.  A value is stored as ``a + b*sqrt(d)``
with exact ``Fraction`` parts, so equality is structural and sign
determination never touches floating point.  Pure rationals are
canonicalized to base 0 and combine freely with values of any base;
combining two genuinely irrational values of different bases is an
error rather than an implicit field extension.

Scalar, ComplexScalar and rrmf.quaternions.Quaternion are the
coefficient rings of polynomials.  Each exposes ``width``, a value's
Scalar ``parts``, ``from_parts`` and ``table``, the one statement of its
multiplication rule.  ComplexScalar and Quaternion multiply by the table
through their common base _Hypercomplex; rrmf.polynomials' kernel too.
"""

from __future__ import annotations

import math
import operator
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


# The multiplication rule of each coefficient ring, as rows (i, j, k, sign)
# for e_i e_j = sign e_k on its basis: here the reals, below the complex
# numbers, and the Hamilton product in rrmf.quaternions.
_REAL = ((0, 0, 0, 1),)


class Scalar:
    """An element a + b*sqrt(d) of Q(sqrt(d)), immutable.

    Invariants: ``a`` and ``b`` are Fractions (lowest terms, positive
    denominator, maintained by the Fraction type); ``d`` is 0 or a
    squarefree integer in [2, MAX_BASE]; and ``b == 0`` implies ``d == 0``.

    Validation happens at the edges: the public constructor checks its
    arguments, and ``parse_scalar`` checks a parsed base the same way,
    unless it is the expected one its caller has validated.  Arithmetic results
    (``+``, ``-``, ``*``, ``inverse`` and what is built from them) are
    assembled without re-validation, because their parts are Fraction
    operations on valid operands and their base is one of the operands'
    bases; only the ``b == 0 => d == 0`` normalisation runs on them.

    As a coefficient ring it has ``width`` 1: its ``parts`` are ``(self,)``.
    """

    __slots__ = ("a", "b", "d")
    width, table = 1, _REAL

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
        if isinstance(value, _Hypercomplex):
            raise TypeError(f"cannot convert {type(value).__name__} to Scalar")
        return _unchecked(Fraction(value), _F0, 0)

    @classmethod
    def surd(cls, coefficient: ScalarLike, d: int) -> "Scalar":
        """The value coefficient * sqrt(d)."""
        return cls(0, Fraction(coefficient), d)

    @classmethod
    def from_terms(cls, p: int, q: int, r: int, s: int, d: int) -> "Scalar":
        """p/q + r/s*sqrt(d) for the integers scalar_terms reads: q, s > 0,
        and d valid, or 0 when r = 0."""
        return _unchecked(Fraction(p, q), Fraction(r, s) if r else _F0, d)

    parts = property(lambda self: (self,))
    from_parts = staticmethod(operator.itemgetter(0))

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
    # operation; surd operands take the Q(sqrt(d)) formula, of which a
    # product with one rational operand forms only the two nonzero
    # terms.  With a ComplexScalar or Quaternion operand the wider
    # ring's reflected operation runs, on this value lifted into that ring.

    def __add__(self, other) -> "Scalar":
        if isinstance(other, _Hypercomplex):
            return NotImplemented
        other = Scalar.of(other)
        if self.d == 0 and other.d == 0:
            return _unchecked(self.a + other.a, _F0, 0)
        d = _merge_bases(self.d, other.d)
        return _unchecked(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _unchecked(-self.a, -self.b, self.d)

    def __sub__(self, other) -> "Scalar":
        if isinstance(other, _Hypercomplex):
            return NotImplemented
        other = Scalar.of(other)
        if self.d == 0 and other.d == 0:
            return _unchecked(self.a - other.a, _F0, 0)
        d = _merge_bases(self.d, other.d)
        return _unchecked(self.a - other.a, self.b - other.b, d)

    def __rsub__(self, other) -> "Scalar":
        return Scalar.of(other) - self

    def __mul__(self, other) -> "Scalar":
        if isinstance(other, _Hypercomplex):
            return NotImplemented
        other = Scalar.of(other)
        if self.d == 0:
            if other.d == 0:
                return _unchecked(self.a * other.a, _F0, 0)
            return _unchecked(self.a * other.a, self.a * other.b, other.d)
        if other.d == 0:
            return _unchecked(self.a * other.a, self.b * other.a, self.d)
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
        # a rational value hashes as its Fraction, which it equals
        return hash((self.a, self.b, self.d)) if self.d else hash(self.a)

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


# one grammar for every scalar read: p/q, then the surd term r/s*sqrt(d),
# in ASCII digits; a missing q or s is 1, a missing r is 1 after a sqrt
# sign, a "*" stands only after r or r/s, and the rational term may be
# missing too ("sqrt(15)", "-3/2*sqrt(5)")
_SCALAR_RE = re.compile(
    r"^(?:(?P<p>[+-]?[0-9]+)(?:/(?P<q>[0-9]+))?)?"
    r"(?:(?P<sign>(?<=.)[+-]|^[+-]?)(?:(?P<r>[0-9]+)(?:/(?P<s>[0-9]+))?\*?)?sqrt\((?P<d>[0-9]+)\))?$"
)


def scalar_terms(text: str, expected_base: int | None = None
                 ) -> tuple[int, int, int, int, int]:
    """The integers (p, q, r, s, d) of the text form p/q + r/s*sqrt(d),
    unreduced, with q, s > 0, and r = 0, s = 1 and d = 0 for a rational
    value.  Spaces anywhere and whitespace at either end are ignored.

    A surd over ``expected_base``, which the caller has validated
    (documents.parse_base), is taken as is; any other base is checked as
    the Scalar constructor checks it, and then must not differ from a
    given ``expected_base``.  Raises ValueError (SurdBaseMismatch for a
    foreign base) or ZeroDivisionError, with Fraction's message, for a
    zero denominator.
    """
    text = text.strip().replace(" ", "")
    if not text:
        raise ValueError("empty scalar")
    m = _SCALAR_RE.match(text)
    if m is None or m.group("p") is None and m.group("d") is None:
        raise ValueError(f"cannot parse scalar {text!r}")
    p, q, sign, r, s, d = m.groups()
    p = int(p) if p else 0
    q = int(q) if q else 1
    if not q:
        raise ZeroDivisionError(f"Fraction({p}, 0)")
    if d is None:
        return p, q, 0, 1, 0
    d = int(d)
    r = int(r) if r else 1
    s = int(s) if s else 1
    if not s:
        raise ZeroDivisionError(f"Fraction({r}, 0)")
    if sign == "-":
        r = -r
    if not (d and d == expected_base):
        if not is_valid_base(d):
            raise ValueError(
                f"base {d} is not 0 or a squarefree integer in [2, {MAX_BASE}]")
        if r and not d:
            raise ValueError("irrational part requires a nonzero base")
        if r and expected_base is not None:
            raise SurdBaseMismatch(
                f"scalar {text!r} uses base {d}, document declares {expected_base}")
    return (p, q, r, s, d) if r else (p, q, 0, 1, 0)


def parse_scalar(text: str, expected_base: int | None = None) -> Scalar:
    """The Scalar of the text form, as ``scalar_terms`` reads it."""
    return Scalar.from_terms(*scalar_terms(text, expected_base))


class _Hypercomplex:
    """An immutable element of a ring of ``width`` Scalar ``parts`` that
    multiply by ``table``.  A value of a narrower ring is lifted by zero
    parts, and ``==`` and ``hash`` compare across rings that way.  With
    an operand of a wider ring, ``+``, ``-`` and ``*`` return
    NotImplemented, so that ring's reflected operation lifts this value
    and keeps the operand order.
    """

    __slots__ = ("parts",)
    width: int
    table: tuple

    def __init__(self, *parts: ScalarLike):
        _set_parts(self, tuple(map(Scalar.of, parts)))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def from_parts(cls, parts):
        """The element with the given ``width`` Scalar coordinates."""
        z = object.__new__(cls)
        _set_parts(z, tuple(parts))
        return z

    @classmethod
    def of(cls, value):
        if isinstance(value, cls):
            return value
        if not isinstance(value, (Scalar, _Hypercomplex)):
            value = Scalar.of(value)
        if value.width > cls.width:
            raise TypeError(f"cannot convert {type(value).__name__} to {cls.__name__}")
        return cls.from_parts(value.parts + (_ZERO,) * (cls.width - value.width))

    def is_zero(self) -> bool:
        return not any(self.parts)

    def __add__(self, other):
        if _wider(other, self):
            return NotImplemented
        return self.from_parts(map(operator.add, self.parts, self.of(other).parts))

    __radd__ = __add__

    def __neg__(self):
        return self.from_parts(-p for p in self.parts)

    def __sub__(self, other):
        if _wider(other, self):
            return NotImplemented
        return self.from_parts(map(operator.sub, self.parts, self.of(other).parts))

    def __rsub__(self, other):
        return self.of(other) - self

    def __mul__(self, other):
        """The product by ``table``, self the left factor."""
        if _wider(other, self):
            return NotImplemented
        x, y = self.parts, self.of(other).parts
        out = [None] * self.width
        for i, j, k, sign in self.table:
            t = x[i] * y[j]
            if out[k] is None:
                out[k] = t if sign > 0 else -t
            else:
                out[k] = out[k] + t if sign > 0 else out[k] - t
        return self.from_parts(out)

    def __rmul__(self, other):
        return self.of(other) * self

    def scale(self, s: ScalarLike):
        """Every part multiplied by the scalar s."""
        s = Scalar.of(s)
        return self.from_parts(p * s for p in self.parts)

    def conjugate(self):
        """The real part kept, every other part negated."""
        real, *rest = self.parts
        return self.from_parts((real, *(-p for p in rest)))

    def norm_sq(self) -> Scalar:
        return sum((p * p for p in self.parts), _ZERO)

    def inverse(self):
        n = self.norm_sq()
        if n.is_zero():
            raise ZeroDivisionError(f"inverse of zero {type(self).__name__}")
        return self.conjugate().scale(n.inverse())

    def __truediv__(self, other):
        return self * self.of(other).inverse()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.of(other)
        if not isinstance(other, (Scalar, _Hypercomplex)) or other.width > self.width:
            return NotImplemented
        return self.parts == self.of(other).parts

    def __hash__(self):
        # the narrowest equal value: trailing zero parts dropped, and a
        # single part hashed as the Scalar it equals
        parts = list(self.parts)
        while len(parts) > 1 and not parts[-1]:
            parts.pop()
        return hash(parts[0]) if len(parts) == 1 else hash(tuple(parts))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(str, self.parts))})"


_set_parts = _Hypercomplex.parts.__set__


def _wider(value, ring) -> bool:
    """Whether value belongs to a ring wider than ring's."""
    return isinstance(value, _Hypercomplex) and value.width > ring.width


_ZERO = Scalar(0)

# e_i e_j = sign e_k on the basis (1, i)
_COMPLEX = ((0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, -1))


class ComplexScalar(_Hypercomplex):
    """re + im*i in Q(sqrt(d))(i), the coefficient field of complex polynomials."""

    __slots__ = ()
    width, table = 2, _COMPLEX
    re = property(lambda self: self.parts[0])
    im = property(lambda self: self.parts[1])

    def __init__(self, re: ScalarLike = 0, im: ScalarLike = 0):
        super().__init__(re, im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))
