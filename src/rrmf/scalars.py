"""Exact arithmetic in the quadratic field Q(sqrt(d)) and its rings.

Every symbolic computation in this package runs over a field Q(sqrt(d))
for a fixed squarefree base d.  A value is stored as ``a + b*sqrt(d)``
with exact ``Fraction`` parts, so equality is structural and sign
determination never touches floating point.  Pure rationals are
canonicalized to base 0 and combine freely with values of any base;
combining two genuinely irrational values of different bases is an
error rather than an implicit field extension.

Scalar, ComplexScalar and rrmf.quaternions.Quaternion are the
coefficient rings of polynomials.  Each states its multiplication rule
once, as its ``table``, and stores a value in the layout of the integer
kernel of rrmf.polynomials: Fraction coordinates, part s (0 rational,
1 sqrt(d)) of real component w at w*P + s, with P = 2 over a surd base
and 1 over Q.  Their common base _Ring adds and subtracts coordinate by
coordinate and multiplies by _Algebra, the table expanded over the
coordinates, which the polynomial kernel runs on integers.
"""

from __future__ import annotations

import math
import operator
import re
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
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


def _base(values) -> int:
    """The common surd base of ring values or polynomials, or SurdBaseMismatch."""
    d = 0
    for v in values:
        if v.d and v.d != d:
            if d:
                raise SurdBaseMismatch(f"cannot combine sqrt({d}) with sqrt({v.d})")
            d = v.d
    return d


# The multiplication rule of each coefficient ring, as rows (i, j, k, sign)
# for e_i e_j = sign e_k on its basis: the reals, the complex numbers on
# the basis (1, i), and the Hamilton product in rrmf.quaternions.
_REAL = ((0, 0, 0, 1),)
_COMPLEX = ((0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, -1))


class _Algebra:
    """The coordinates of a coefficient ring over the base d.

    ``terms`` are the ring's ``table`` over the coordinates (i, j, k, c):
    coordinate i of a left factor times coordinate j of a right factor
    adds c times their product to coordinate k.  The coordinates are
    ints in the polynomial kernel and Fractions in the rings.
    """

    def __init__(self, table: tuple, d: int):
        self.d = d
        self.width = 1 + max(k for _, _, k, _ in table)
        self.parts = p = 2 if d else 1
        self.m = m = self.width * p
        self.terms = tuple((i * p + s, j * p + t, k * p + (s + t) % 2,
                            sign * (d if s and t else 1))
                           for i, j, k, sign in table
                           for s in range(p) for t in range(p))
        self.one = (1,) + (0,) * (m - 1)
        self.conj = tuple(1 if w == 0 else -1 for w in range(self.width)
                          for _ in range(p))

    def mul(self, x: tuple, y: tuple, zero=0) -> tuple:
        """x y, with ``zero`` in the coordinates no term reaches."""
        out = [zero] * self.m
        for i, j, k, c in self.terms:
            if x[i] and y[j]:
                out[k] += c * x[i] * y[j]
        return tuple(out)

    def power(self, x: tuple, n: int) -> tuple:
        out = self.one
        for _ in range(n):
            out = self.mul(out, x)
        return out

    def adjugate(self, x: tuple) -> tuple:
        """(y, n) with y x = x y = n, the rational coordinate of a norm,
        which is nonzero unless x is zero.

        y is the conjugate of x, times the Galois conjugate of the norm
        x conj(x) when that norm has a sqrt(d) part.
        """
        y, norm = self.one, x
        if self.width > 1:
            y = tuple(s * v for s, v in zip(self.conj, x))
            norm = self.mul(x, y)
        if self.parts == 2 and norm[1]:
            galois = (norm[0], -norm[1]) + (0,) * (self.m - 2)
            y, norm = self.mul(y, galois), self.mul(norm, galois)
        return y, norm[0]

    def inverse_parts(self, x: tuple) -> tuple[tuple, int]:
        """(y, n) for integer coordinates x: y x = x y = n, a positive
        integer, so x^-1 = y/n, with the content of y and n removed."""
        y, n = self.adjugate(x)
        g = math.gcd(n, *y)
        if n < 0:
            g = -g
        return tuple(v // g for v in y), n // g

    def divide(self, x: tuple, y: tuple) -> tuple:
        """x / y for a y that divides x in the ring."""
        inv, n = self.inverse_parts(y)
        return tuple(v // n for v in self.mul(x, inv))

    def left_scale(self, x: tuple, rows: list) -> list:
        """The rows of x P for the polynomial P with rows ``rows``."""
        n = len(rows[0])
        out = [[0] * n for _ in range(self.m)]
        for i, j, k, c in self.terms:
            f = x[i]
            if f:
                f *= c
                out[k] = [a + f * v for a, v in zip(out[k], rows[j])]
        return out


@lru_cache(maxsize=64)
def _algebra(table: tuple, d: int) -> _Algebra:
    return _Algebra(table, d)


_F0 = Fraction(0)


class _Ring:
    """An immutable value of a coefficient ring of ``width`` real
    components over Q(sqrt(d)) that multiply by ``table``.

    Stored as the base ``d`` and the Fraction ``coords`` in the layout of
    the module docstring; d is 0 when no sqrt(d) coordinate is nonzero,
    so ``==`` compares the stored pair.  A value of a narrower ring is
    lifted by zero components, and ``==`` and ``hash`` compare across
    rings that way.  With an operand of a wider ring, ``+``, ``-`` and
    ``*`` return NotImplemented, so that ring's reflected operation lifts
    this value and keeps the operand order.
    """

    __slots__ = ("d", "coords")
    width: int
    table: tuple

    def __init__(self, *parts: ScalarLike):
        self._set(*_join(map(Scalar.of, parts)))

    def _set(self, d: int, coords: tuple) -> None:
        if d and not any(coords[1::2]):
            d, coords = 0, coords[::2]
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _from_coords(cls, d: int, coords: tuple):
        """The value with the Fraction coordinates ``coords`` over the base d."""
        value = object.__new__(cls)
        value._set(d, coords)
        return value

    @classmethod
    def from_parts(cls, parts):
        """The value with the given ``width`` Scalar components."""
        return cls._from_coords(*_join(parts))

    @classmethod
    def of(cls, value):
        if isinstance(value, cls):
            return value
        if not isinstance(value, _Ring):
            return cls._from_coords(0, (Fraction(value),) + (_F0,) * (cls.width - 1))
        if value.width > cls.width:
            raise TypeError(f"cannot convert {type(value).__name__} to {cls.__name__}")
        pad = (cls.width - value.width) * (2 if value.d else 1)
        return cls._from_coords(value.d, value.coords + (_F0,) * pad)

    def _over(self, d: int) -> tuple:
        """The coordinates over the base d, which is self.d or self.d = 0."""
        if d == self.d:
            return self.coords
        return tuple(v for c in self.coords for v in (c, _F0))

    def _part(self, w: int) -> "Scalar":
        p = 2 if self.d else 1
        return Scalar._from_coords(self.d, self.coords[w * p:(w + 1) * p])

    @property
    def parts(self) -> tuple:
        """The ``width`` real components, as Scalars."""
        return tuple(map(self._part, range(self.width)))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def _binary(self, other, op):
        d = _base((self, other))
        return self._from_coords(d, tuple(map(op, self._over(d), other._over(d))))

    def __add__(self, other):
        if _wider(other, self):
            return NotImplemented
        return self._binary(self.of(other), operator.add)

    __radd__ = __add__

    def __neg__(self):
        return self._from_coords(self.d, tuple(-v for v in self.coords))

    def __sub__(self, other):
        if _wider(other, self):
            return NotImplemented
        return self._binary(self.of(other), operator.sub)

    def __rsub__(self, other):
        return self.of(other) - self

    def __mul__(self, other):
        """The product by ``table``, self the left factor."""
        if _wider(other, self):
            return NotImplemented
        other = self.of(other)
        d = _base((self, other))
        mul = _algebra(self.table, d).mul
        return self._from_coords(d, mul(self._over(d), other._over(d), _F0))

    def __rmul__(self, other):
        return self.of(other) * self

    def scale(self, s: ScalarLike):
        """Every component multiplied by the scalar s."""
        return self * self.of(Scalar.of(s))

    def conjugate(self):
        """The real component kept, every other component negated."""
        p = 2 if self.d else 1
        return self._from_coords(self.d, self.coords[:p] + tuple(-v for v in self.coords[p:]))

    def norm_sq(self) -> "Scalar":
        return sum((p * p for p in self.parts), Scalar(0))

    def inverse(self):
        y, n = _algebra(self.table, self.d).adjugate(self.coords)
        if not n:
            raise ZeroDivisionError(f"inverse of zero {type(self).__name__}")
        return self._from_coords(self.d, tuple(v / n for v in y))

    def __truediv__(self, other):
        return self * self.of(other).inverse()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.of(other)
        if not isinstance(other, _Ring) or other.width > self.width:
            return NotImplemented
        other = self.of(other)
        return self.d == other.d and self.coords == other.coords

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


def _join(parts) -> tuple[int, tuple]:
    """(d, coords) of the Scalars ``parts`` over their common base."""
    parts = tuple(parts)
    d = _base(parts)
    return d, tuple(v for s in parts for v in s._over(d))


def _wider(value, ring) -> bool:
    """Whether value belongs to a ring wider than ring's."""
    return isinstance(value, _Ring) and value.width > ring.width


class Scalar(_Ring):
    """An element a + b*sqrt(d) of Q(sqrt(d)), immutable.

    Invariants: ``a`` and ``b`` are Fractions (lowest terms, positive
    denominator, maintained by the Fraction type); ``d`` is 0 or a
    squarefree integer in [2, MAX_BASE]; and ``b == 0`` implies ``d == 0``.

    Validation happens at the edges: the public constructor checks its
    arguments, and ``parse_scalar`` checks a parsed base the same way,
    unless it is the expected one its caller has validated.  Arithmetic
    results are assembled without re-validation, because their
    coordinates are Fraction operations on valid operands and their base
    is one of the operands' bases; only the ``b == 0 => d == 0``
    normalisation runs on them.

    As a coefficient ring it has ``width`` 1: its ``parts`` are ``(self,)``
    and its coordinates ``(a,)`` over Q, ``(a, b)`` over Q(sqrt(d)).
    """

    __slots__ = ()
    width, table = 1, _REAL

    def __init__(self, a: ScalarLike = 0, b: ScalarLike = 0, d: int = 0):
        if isinstance(a, Scalar) or isinstance(b, Scalar):
            raise TypeError("use Scalar arithmetic, not nested construction")
        if not is_valid_base(d):
            raise ValueError(
                f"base {d} is not 0 or a squarefree integer in [2, {MAX_BASE}]")
        a = Fraction(a)
        b = Fraction(b)
        if b and not d:
            raise ValueError("irrational part requires a nonzero base")
        self._set(d, (a, b) if d else (a,))

    a = property(lambda self: self.coords[0])
    b = property(lambda self: self.coords[1] if self.d else _F0)
    parts = property(lambda self: (self,))

    # -- constructors -------------------------------------------------

    @classmethod
    def surd(cls, coefficient: ScalarLike, d: int) -> "Scalar":
        """The value coefficient * sqrt(d)."""
        return cls(0, Fraction(coefficient), d)

    @classmethod
    def from_terms(cls, p: int, q: int, r: int, s: int, d: int) -> "Scalar":
        """p/q + r/s*sqrt(d) for the integers scalar_terms reads: q, s > 0,
        and d valid, or 0 when r = 0."""
        return cls._from_coords(d, (Fraction(p, q), Fraction(r, s)) if d else (Fraction(p, q),))

    # -- predicates ----------------------------------------------------

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

    # -- conversion / text form ----------------------------------------

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self) -> str:
        return f"Scalar({self})"

    def __str__(self) -> str:
        return format_scalar(self)


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


class ComplexScalar(_Ring):
    """re + im*i in Q(sqrt(d))(i), the coefficient field of complex polynomials."""

    __slots__ = ()
    width, table = 2, _COMPLEX
    re = property(lambda self: self._part(0))
    im = property(lambda self: self._part(1))

    def __init__(self, re: ScalarLike = 0, im: ScalarLike = 0):
        super().__init__(re, im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))
