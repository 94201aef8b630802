"""Exact arithmetic in the quadratic field Q(sqrt(d)) and its rings.

Every symbolic computation in this package runs over a field Q(sqrt(d))
for a fixed squarefree base d.  A Scalar is ``a + b*sqrt(d)``, whose
parts read as exact Fractions, so equality is structural and sign
determination never touches floating point.  Pure rationals are
canonicalized to base 0 and combine freely with values of any base;
combining two genuinely irrational values of different bases is an
error rather than an implicit field extension.

Scalar, ComplexScalar and rrmf.quaternions.Quaternion are the
coefficient rings of polynomials.  Each states its multiplication rule
once, as its ``table``.  Their values and the polynomials of
rrmf.polynomials share one stored form and one base, _Exact: integer
coordinate rows over one positive denominator and the base d, part s
(0 rational, 1 sqrt(d)) of real component w in row w*P + s, with P = 2
over a surd base and 1 over Q, in ascending degree.  A ring value is a
constant, whose rows have length at most 1.  One constructor,
_Exact.from_terms, builds a value of any kind from the integers that
scalar_terms reads off its text.  The base adds, subtracts and
conjugates row by row.  Every sum of products, from a product, inner
product or squared norm (the real part of one product) to the forms of
polynomials.component_forms and forms_mod and verify_han's identity,
runs in one kernel over _Algebra, the table expanded over the
coordinates: a product of constants by _Algebra.mul, any other packed,
each coordinate row into its value at a power of two (Kronecker
substitution, Schoenhage 1982), one integer product per term, with the
signed slots of the sums as the coefficients.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache, total_ordering
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


def _check_base(d: int, irrational) -> None:
    """Raise ValueError unless d is a valid base, and a nonzero one when
    the value has a nonzero ``irrational`` part."""
    if not is_valid_base(d):
        raise ValueError(f"base {d} is not 0 or a squarefree integer in [2, {MAX_BASE}]")
    if irrational and not d:
        raise ValueError("irrational part requires a nonzero base")


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
    """The integer coordinates of a coefficient ring over the base d.

    ``terms`` are the ring's ``table`` over the coordinates (i, j, k, c):
    coordinate i of a left factor times coordinate j of a right factor
    adds c times their product to coordinate k.
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
        # the largest sum of |c| over the terms into one coordinate
        self.load = max(sum(abs(c) for *_, k, c in self.terms if k == w) for w in range(m))
        self.conj = tuple(1 if w == 0 else -1 for w in range(self.width)
                          for _ in range(p))

    def mul(self, x: tuple, y: tuple) -> tuple:
        out = [0] * self.m
        for i, j, k, c in self.terms:
            if x[i] and y[j]:
                out[k] += c * x[i] * y[j]
        return tuple(out)

    def power(self, x: tuple, n: int) -> tuple:
        out = self.one
        for _ in range(n):
            out = self.mul(out, x)
        return out

    def inverse_parts(self, x: tuple) -> tuple[tuple, int]:
        """(y, n) for nonzero integer coordinates x: y x = x y = n, a
        positive integer, so x^-1 = y/n, with the content of y and n removed.

        y is the conjugate of x, times the Galois conjugate of the norm
        x conj(x) when that norm has a sqrt(d) part; n is then the
        rational coordinate of the norm, nonzero unless x is zero.
        """
        y, norm = self.one, x
        if self.width > 1:
            y = tuple(s * v for s, v in zip(self.conj, x))
            norm = self.mul(x, y)
        if self.parts == 2 and norm[1]:
            galois = (norm[0], -norm[1]) + (0,) * (self.m - 2)
            y, norm = self.mul(y, galois), self.mul(norm, galois)
        g = math.gcd(norm[0], *y)
        if norm[0] < 0:
            g = -g
        return tuple(v // g for v in y), norm[0] // g

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


# -- the integer kernel ----------------------------------------------------
#
# A value is its m coordinate rows of ints in ascending degree over one
# denominator, in the layout of the module docstring: tuples as stored,
# lists while the kernel rewrites them.  A ring value is a constant, with
# rows of length at most 1.


def _kernel(*values: "_Exact") -> _Algebra:
    """The algebra of the values' ring over their common surd base."""
    return _algebra(values[0].table, _base(values))


def _stack(values, n: int = 0) -> tuple:
    """(d, den, rows): the common base, the lcm of the denominators, and
    per value its rows over both, padded to one length of at least n."""
    d = _base(values)
    den = math.lcm(*(v.den for v in values))
    n = max([n] + [len(v.rows[0]) for v in values])
    return d, den, [[[x * (den // v.den) for x in row] + [0] * (n - len(row))
                     for row in v._rows_over(d)] for v in values]


def _at_power(row, w: int) -> tuple[int, int]:
    """(f(t), f'(t)) at t = 2**w for the integer coefficients of f,
    ascending, by Horner's rule on shifts and adds: f and f' packed into
    w-bit slots in one pass."""
    f = df = 0
    for c in reversed(row):
        df = (df << w) + f
        f = (f << w) + c
    return f, df


def _pack(comps, w: int) -> list:
    """The coordinates at 2**w of b_i with rows comps[i], m each, then of the
    derivatives b_len(comps)+i: coordinate s of b_i at i m + s (_form_loop)."""
    values, slopes = zip(*[_at_power(row, w) for comp in comps for row in comp])
    return [*values, *slopes]


def _unpack(x: int, w: int, n: int) -> list:
    """The n signed slots v_r in [-2**(w-1), 2**(w-1)) of x = sum v_r 2**(w r)."""
    half, mask, out = 1 << (w - 1), (1 << w) - 1, []
    for _ in range(n):
        x += half
        out.append((x & mask) - half)
        x >>= w
    return out


def _form_loop(alg: _Algebra, values: list, forms) -> list:
    """values, extended per form ((c, i, j), ...) by the coordinates of
    sum c v_i v_j over alg, for v_i the value with coordinate s at
    values[i alg.m + s]; a form may read the results of those before it."""
    m, terms = alg.m, alg.terms
    for form in forms:
        acc = [0] * m
        for c, i, j in form:
            i, j = i * m, j * m
            for s, t, k, e in terms:
                # x * x is the faster square when both are one object
                acc[k] += c * e * (values[i + s] * values[j + t])
        values += acc
    return values


@lru_cache(maxsize=256)
def _form_weight(forms, count: int, n: int) -> int:
    """The largest sum over a form ((c, i, j), ...) of |c| D_i D_j, with
    D_i = n - 1 for a derivative (i >= count), else 1."""
    return max(sum(abs(c) * (n - 1 if i >= count else 1) * (n - 1 if j >= count else 1)
                   for c, i, j in form) for form in forms)


def _packed_forms(alg: _Algebra, comps: list, forms, top: int) -> list:
    """Per form ((c, i, j), ...), the coordinate rows of sum c b_i b_j over
    alg, for b_i the value with rows comps[i], of at most n coefficients
    of size at most top, and b_len(comps)+i its derivative.  A slot adds
    at most n products per term, each at most alg.load |c| top^2 times
    n - 1 per derivative factor, and takes one sign bit more."""
    n = max(len(comp[0]) for comp in comps)
    w = (alg.load * n * top * top * _form_weight(forms, len(comps), n)).bit_length() + 1
    values, m = _form_loop(alg, _pack(comps, w), forms), alg.m
    return [[_unpack(v, w, 2 * n - 1) for v in values[k:k + m]]
            for k in range(len(values) - m * len(forms), len(values), m)]


def _top(rows) -> int:
    """The largest size of an integer in the rows, all nonempty."""
    return max(max(map(abs, row)) for row in rows)


# the one form of a product, left operand first
_PRODUCT = (((1, 0, 1),),)


def _mul_rows(alg: _Algebra, x: list, y: list) -> list:
    """Rows of the product, left operand first, of nonzero values with rows
    x, y; of constants by alg.mul, else packed: a slot adds at most
    min(n_x, n_y) products per term, at most alg.load top(x) top(y) in all."""
    nx, ny = len(x[0]), len(y[0])
    if nx == ny == 1:
        return [[v] for v in alg.mul([r[0] for r in x], [r[0] for r in y])]
    w = (alg.load * min(nx, ny) * _top(x) * _top(y)).bit_length() + 1
    values = _form_loop(alg, _pack([x, y], w), _PRODUCT)
    return [_unpack(v, w, nx + ny - 1) for v in values[4 * alg.m:]]


def _leading(rows: list) -> tuple:
    return tuple(row[-1] for row in rows)


def _trim_rows(rows: list) -> list:
    """The rows without their all-zero top columns.  Rows whose top column
    is nonzero, or that are empty, come back as given and are not copied;
    a single row is scanned by a plain loop."""
    n = len(rows[0])
    if len(rows) == 1:
        row = rows[0]
        while n and not row[n - 1]:
            n -= 1
    else:
        while n and not any(row[n - 1] for row in rows):
            n -= 1
    return rows if n == len(rows[0]) else [row[:n] for row in rows]


def _shaped(d: int, rows: list) -> tuple:
    """(d, rows) with the rows trimmed, and base 0 without sqrt(d) part."""
    rows = _trim_rows(rows)
    if d and not any(map(any, rows[1::2])):
        d, rows = 0, rows[::2]
    return d, rows


def _canonical(d: int, rows: list, den: int) -> tuple:
    """(d, rows, den) in the stored form, for a positive den: rows trimmed
    into tuples, gcd(den, every integer) = 1, base 0 without sqrt(d) part.

    The gcd is skipped over den = 1, and otherwise folded row by row and
    stopped at the first row that brings it to 1.  The row lists passed
    in belong to the callee, which may keep or rewrite them: the caller
    must not mutate them afterwards."""
    d, rows = _shaped(d, rows)
    g = den
    for row in rows:
        if g == 1:
            break
        g = math.gcd(g, *row)
    if g != 1:
        rows = [[v // g for v in row] for row in rows]
    return d, tuple(map(tuple, rows)), den // g


class _Exact:
    """An immutable exact value: a ring value or a polynomial over a ring
    of ``width`` real components that multiply by ``table``.

    Stored as the base ``d``, the integer coordinate ``rows`` and one
    positive denominator ``den`` in the canonical form of _canonical, so
    ``==`` compares the stored triple.  A value lifts into a kind of at
    least its ring's width, by zero components, and a ring value lifts
    into a polynomial kind as a constant, but not back; ints and
    Fractions lift into every kind, so ``hash`` drops the zero rows a
    lift appends, and a rational constant hashes as its Fraction.  An
    operand that does not lift into this kind makes ``+``, ``-``, ``*``
    and ``==`` return NotImplemented, so that its own reflected operation
    lifts this value and keeps the operand order.
    """

    __slots__ = ("d", "rows", "den")
    width: int
    table: tuple
    _poly = False

    def _set(self, d: int, rows: tuple, den: int) -> None:
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _new(cls, d: int, rows: tuple, den: int):
        """The value with the stored form (d, rows, den), taken as is."""
        value = object.__new__(cls)
        value._set(d, rows, den)
        return value

    @classmethod
    def _from_rows(cls, d: int, rows: list, den: int):
        """The value with coordinate rows / den over the base d, den > 0;
        the row lists belong to it from then on (_canonical)."""
        return cls._new(*_canonical(d, rows, den))

    @classmethod
    def from_terms(cls, terms: list):
        """The value whose real components, in ascending degree and each
        coefficient's ``width`` components in order, are p/q + r/s*sqrt(d)
        for the integers (p, q, r, s, d) of ``terms`` as scalar_terms reads
        them; its base is that of every term with r != 0, or 0.

        Each p/q and r/s is reduced first, and den is the lcm of the
        reduced denominators.  The rows are then content-free with den:
        for each prime power l^e exactly dividing den, a reduced q carries
        l^e and p (den/q) is prime to l.  So the stored form takes no gcd
        over every integer, which costs seconds at long coefficients."""
        d = next((t[4] for t in terms if t[2]), 0)
        reduced = []
        for p, q, r, s, _ in terms:
            g, h = math.gcd(p, q), math.gcd(r, s)
            reduced.append((p // g, q // g, r // h, s // h))
        den = math.lcm(*[t[1] for t in reduced], *[t[3] for t in reduced])
        rows = []
        for w in range(cls.width):
            column = reduced[w::cls.width]
            rows.append([p * (den // q) for p, q, _, _ in column])
            if d:
                rows.append([r * (den // s) for _, _, r, s in column])
        return cls._new(d, tuple(map(tuple, _trim_rows(rows))), den)

    @classmethod
    def _lift(cls, value):
        """value as a value of cls, or None when it does not lift."""
        if isinstance(value, cls):
            return value
        if isinstance(value, _Exact):
            if value.width > cls.width or value._poly > cls._poly:
                return None
            pad = (cls.width - value.width) * (2 if value.d else 1)
            return cls._new(value.d, value.rows + ((0,) * len(value.rows[0]),) * pad,
                            value.den)
        if isinstance(value, (int, Fraction)):
            return cls._from_rows(0, [[value.numerator]] + [[0]] * (cls.width - 1),
                                  value.denominator)
        return None

    @classmethod
    def of(cls, value):
        lifted = cls._lift(value)
        if lifted is None:
            raise TypeError(f"cannot convert {type(value).__name__} to {cls.__name__}")
        return lifted

    def _rows_over(self, d: int):
        """The stored rows over the base d, which is self.d or self.d = 0."""
        if d == self.d:
            return self.rows
        zero = (0,) * len(self.rows[0])
        return [r for row in self.rows for r in (row, zero)]

    @classmethod
    def _join(cls, values):
        """The value whose real components are those of values, in order."""
        d, den, rows = _stack(tuple(values))
        return cls._from_rows(d, [row for part in rows for row in part], den)

    def _split(self, kind) -> tuple:
        """The real components of self, grouped into values of kind."""
        k = kind.width * (2 if self.d else 1)
        return tuple(kind._from_rows(self.d, self.rows[i:i + k], self.den)
                     for i in range(0, len(self.rows), k))

    def is_zero(self) -> bool:
        return not self.rows[0]

    def __bool__(self) -> bool:
        return bool(self.rows[0])

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        d, den, (x, y) = _stack((self, other))
        return self._from_rows(d, [[u + v for u, v in zip(a, b)] for a, b in zip(x, y)], den)

    __radd__ = __add__

    def __neg__(self):
        return self._new(self.d, tuple(tuple(-v for v in row) for row in self.rows), self.den)

    def __sub__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else other + -self

    def __mul__(self, other):
        """The product by ``table``, self the left factor, in the integer kernel."""
        other = self._lift(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return self._new(0, ((),) * self.width, 1)
        alg = _kernel(self, other)
        x, y = self._rows_over(alg.d), other._rows_over(alg.d)
        return self._from_rows(alg.d, _mul_rows(alg, x, y), self.den * other.den)

    def __rmul__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else other * self

    def scale(self, s):
        """self multiplied on the right by s, a value that lifts into its
        kind; an int scales the integer rows, and 1 returns self."""
        if isinstance(s, int):
            if s == 1:
                return self
            return self._from_rows(self.d, [[v * s for v in row] for row in self.rows],
                                   self.den)
        return self * self.of(s)

    def conjugate(self):
        """The real component kept, every other component negated."""
        p = 2 if self.d else 1
        return self._new(self.d, self.rows[:p] + tuple(
            tuple(-v for v in row) for row in self.rows[p:]), self.den)

    def _lead_inverse(self):
        """The constant 1/lead(self), for a nonzero self."""
        if self.is_zero():
            raise ZeroDivisionError(f"inverse of zero {type(self).__name__}")
        inv, n = _algebra(self.table, self.d).inverse_parts(_leading(self.rows))
        return self._from_rows(self.d, [[self.den * v] for v in inv], n)

    def __eq__(self, other) -> bool:
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return (self.d, self.rows, self.den) == (other.d, other.rows, other.den)

    def __hash__(self):
        # equal values of two kinds differ only by the all-zero rows a lift appends
        rows = self.rows
        while len(rows) > 1 and not any(rows[-1]):
            rows = rows[:-1]
        if len(rows) == 1 and len(rows[0]) <= 1:
            return hash(Fraction(rows[0][0], self.den)) if rows[0] else 0
        return hash((self.d, rows, self.den))


_F0 = Fraction(0)


class _Ring(_Exact):
    """A value of a coefficient ring: a constant, whose rows have length <= 1."""

    __slots__ = ()

    def __init__(self, *parts: ScalarLike):
        value = self.from_parts(parts)
        self._set(value.d, value.rows, value.den)

    @classmethod
    def from_parts(cls, parts):
        """The value with the given ``width`` Scalar components."""
        return cls._join(map(Scalar.of, parts))

    @property
    def parts(self) -> tuple:
        """The ``width`` real components, as Scalars."""
        return self._split(Scalar)

    def norm_sq(self) -> "Scalar":
        return (self * self.conjugate()).parts[0]

    inverse = _Exact._lead_inverse

    def __truediv__(self, other):
        return self * self.of(other).inverse()

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(str, self.parts))})"


@total_ordering
class Scalar(_Ring):
    """An element a + b*sqrt(d) of Q(sqrt(d)), immutable.

    Stored as the integer row (A,) over Q, (A, B) over Q(sqrt(d)), and
    one positive denominator den; ``a`` = A/den and ``b`` = B/den are
    Fraction views of that row, not stored Fractions.  ``d`` is 0 or a
    squarefree integer in [2, MAX_BASE], and ``b == 0`` implies ``d == 0``.
    As a coefficient ring it has ``width`` 1 and ``parts`` ``(self,)``.

    Validation happens at the edges: the public constructor checks its
    arguments, and ``parse_scalar`` checks a parsed base the same way,
    unless it is the expected one its caller has validated.  Arithmetic
    results are assembled without re-validation, because their
    coordinates are integer operations on valid operands and their base
    is one of the operands' bases; only the ``b == 0 => d == 0``
    normalisation runs on them.
    """

    __slots__ = ()
    width, table = 1, _REAL

    def __init__(self, a: ScalarLike = 0, b: ScalarLike = 0, d: int = 0):
        if isinstance(a, Scalar) or isinstance(b, Scalar):
            raise TypeError("use Scalar arithmetic, not nested construction")
        _check_base(d, b)
        a = Fraction(a)
        b = Fraction(b)
        value = self.from_terms([(a.numerator, a.denominator, b.numerator, b.denominator, d)])
        self._set(value.d, value.rows, value.den)

    a = property(lambda self: Fraction(self.rows[0][0], self.den) if self.rows[0] else _F0)
    b = property(lambda self: Fraction(self.rows[1][0], self.den) if self.d else _F0)
    parts = property(lambda self: (self,))

    # -- predicates ----------------------------------------------------

    def sign(self) -> int:
        """Exact sign of (A + B*sqrt(d))/den: that of A when B = 0 or A, B
        agree in sign, else of the larger of A^2 and B^2*d (never equal)."""
        a = self.rows[0][0] if self.rows[0] else 0
        b = self.rows[1][0] if self.d else 0
        if not b or (a > 0 and b > 0) or (a < 0 and b < 0):
            return (a > 0) - (a < 0)
        return 1 if (a if a * a > b * b * self.d else b) > 0 else -1

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

    def __lt__(self, other) -> bool:
        return (self - Scalar.of(other)).sign() < 0

    # -- conversion / text form ----------------------------------------

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self) -> str:
        return f"Scalar({self})"

    def __str__(self) -> str:
        return format_scalar(self)


def _ratio(n: int, m: int) -> str:
    # n/m, m > 0, in lowest terms by one gcd
    g = math.gcd(n, m)
    # Decimal converts an int of any length, where str() stops at the
    # interpreter's int-string limit (4300 digits by default); the limit
    # itself stays in force for parsing
    return f"{Decimal(n // g)}/{Decimal(m // g)}"


def format_terms(p: int, r: int, den: int, d: int) -> str:
    """The text form of (p + r*sqrt(d))/den, den > 0, from its integers:
    "a/b", or "a/b+c/e*sqrt(d)" when r != 0, each part in lowest terms."""
    if not r:
        return _ratio(p, den)
    return f"{_ratio(p, den)}{'+' if r > 0 else '-'}{_ratio(abs(r), den)}*sqrt({d})"


def format_scalar(s: Scalar) -> str:
    """Canonical text form: "a/b" or "a/b+c/e*sqrt(d)" (ASCII, no spaces)."""
    return format_terms(s.rows[0][0] if s.rows[0] else 0, s.rows[1][0] if s.d else 0,
                        s.den, s.d)


def format_columns(value: _Exact, length: int) -> list[list[str]]:
    """Per real component of a value, the format_terms texts of the first
    ``length`` columns of its integer rows over its den, 0/1 past them."""
    rows = [list(row) + [0] * (length - len(row)) for row in value.rows]
    pairs = zip(rows[::2], rows[1::2]) if value.d else ((row, [0] * length) for row in rows)
    return [[format_terms(p, r, value.den, value.d) for p, r in zip(*pair)] for pair in pairs]


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
        _check_base(d, r)
        if r and expected_base is not None:
            raise SurdBaseMismatch(
                f"scalar {text!r} uses base {d}, document declares {expected_base}")
    return (p, q, r, s, d) if r else (p, q, 0, 1, 0)


def parse_scalar(text: str, expected_base: int | None = None) -> Scalar:
    """The Scalar of the text form, as ``scalar_terms`` reads it."""
    return Scalar.from_terms([scalar_terms(text, expected_base)])


class ComplexScalar(_Ring):
    """re + im*i in Q(sqrt(d))(i), the coefficient field of complex polynomials."""

    __slots__ = ()
    width, table = 2, _COMPLEX
    re = property(lambda self: self.parts[0])
    im = property(lambda self: self.parts[1])

    def __init__(self, re: ScalarLike = 0, im: ScalarLike = 0):
        super().__init__(re, im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))
