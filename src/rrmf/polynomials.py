"""Univariate polynomials over the exact scalar field.

One dense core, ``_DensePoly``, stores every polynomial as integer rows
over one positive denominator and a surd base d.  A coefficient is a
vector of integer coordinates, the rational and sqrt(d) parts of each
real component (one component for real, re/im for complex, four for
quaternion coefficients); the rows hold them in ascending degree.  The
form is canonical: rows trimmed (the zero polynomial has empty rows and
``degree() == -1``), the gcd of the denominator and every integer 1,
and base 0 when no sqrt(d) row is nonzero, so ``==`` compares the
stored triple; ``hash`` reads the narrowest equal value (a constant as
its coefficient, without the zero rows a lift appends), so equal
polynomials of different kinds hash alike.  Coefficients are converted
only at the edges: the constructor from coefficients turns them into
rows, which raises SurdBaseMismatch for two different surd bases,
``from_terms`` builds the rows from a parsed document's integers, and
``coeffs``, ``coeff``, ``leading``, ``evaluate`` and the text forms
build Scalars on access.  The kinds ``RealPoly``, ``ComplexPoly`` and ``QuatPoly`` name
their coefficient ring, the constants they accept and the smaller kinds
they lift from (Real -> Complex -> Quat).  The ring (rrmf.scalars) gives
its width, the parts of a coefficient and its multiplication table.

Every operation reads the stored rows.  Sums, derivatives, conjugates,
splits into and joins of components are row slicing or stacking over
one lcm of denominators.  Products, division and gcds run in one
fraction-free integer kernel: the ring's table (the one the coefficient
class multiplies by) acts on the rows in operand order, so ``divmod`` of
quaternion polynomials is right division.  Division is
pseudo-division scaled by the integer norm of the divisor's leading
coefficient; the gcd of real or complex polynomials is the subresultant
remainder sequence over Z, Z[sqrt d], Z[i] or Z[sqrt d][i], made monic
in the field.  The rank of the vector parts of a quaternion
polynomial's coefficients is decided on the same rows by cross and
triple products.  Reduced ratios of real polynomials (monic
denominator, coprime parts) are the canonical rational functions.

A prime image screens the yes/no questions before the exact kernel
runs.  It maps the stored integer rows to F_p at the first prime of a
fixed list of sixteen primes p = 1 (mod 4) below 2^30 that does not
divide the base d and at which d is a square: sqrt(d) -> s and i -> r
with s^2 = d and r^2 = -1, a prime of degree 1 of Q(sqrt d)(i).  On the
elements that are integral at p the map is a ring homomorphism, so it
can only lower a rank, and it can only raise the degree of a gcd of
polynomials one of which keeps its degree (Brown 1971).  Each image
answer is therefore one-sided: a constant image gcd proves the gcd 1
(``images_coprime``; ``gcd_real`` and ``gcd_complex`` then return 1
without a subresultant sequence), a nonzero image proves a polynomial
nonzero, three independent image vectors prove rank 3.  Any other image
answer proves nothing, and the exact kernel decides; so does it when no
listed prime fits d.  ComponentImage holds the four real components of
a quaternion polynomial at that prime, for the screens of
hodograph.GeneratorAnalysis.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import Iterable, Optional

from .quaternions import Quaternion
from .scalars import _REAL, ComplexScalar, Scalar, _merge_bases, _unchecked


class InexactDivision(ArithmeticError):
    """Division that was required to be exact left a remainder."""


# -- the integer kernel ----------------------------------------------------
#
# A coefficient is a vector of m integer coordinates: part s (0 rational,
# 1 sqrt(d)) of real component w sits at w*P + s, with P = 2 over a surd
# base d and P = 1 over Q.  A polynomial is its m coordinate rows of ints
# in ascending degree over one denominator: tuples as stored, lists while
# the kernel rewrites them.

_F0 = Fraction(0)


class _Algebra:
    """Integer coordinates of a coefficient ring over the base d.

    ``terms`` are the ring's ``table`` over the integer coordinates
    (i, j, k, c): coordinate i of a left factor times coordinate j of a
    right factor adds c times their product to coordinate k.
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
        """(y, n) with y x = x y = n, a positive integer, so x^-1 = y/n.

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


def _base(polys) -> int:
    """The common surd base of polynomials or scalars, or SurdBaseMismatch."""
    d = 0
    for p in polys:
        if p.d and p.d != d:
            d = _merge_bases(d, p.d)
    return d


def _kernel(*polys: "_DensePoly") -> _Algebra:
    """The algebra of the polynomials' kind over their common surd base."""
    return _algebra(polys[0].ring.table, _base(polys))


def _stack(polys) -> tuple:
    """(d, den, rows): the common base, the lcm of the denominators, and
    per polynomial its rows over both, padded to one length."""
    d = _base(polys)
    den = math.lcm(*(p.den for p in polys))
    n = max(len(p.rows[0]) for p in polys)
    return d, den, [[[v * (den // p.den) for v in row] + [0] * (n - len(row))
                     for row in p._rows_over(d)] for p in polys]


def _add_product(out: list, a: list, b: list, c: int) -> None:
    """out += c a b for integer coefficient lists (schoolbook)."""
    for s, y in enumerate(b):
        if y:
            y *= c
            for r, x in enumerate(a):
                out[r + s] += x * y


def _mul_rows(alg: _Algebra, x: list, y: list) -> list:
    """Rows of the product, left operand first, of polynomials with rows x, y."""
    n = len(x[0]) + len(y[0]) - 1
    out = [[0] * n for _ in range(alg.m)]
    live_x, live_y = [any(r) for r in x], [any(r) for r in y]
    for i, j, k, c in alg.terms:
        if live_x[i] and live_y[j]:
            _add_product(out[k], x[i], y[j], c)
    return out


def _leading(rows: list) -> tuple:
    return tuple(row[-1] for row in rows)


def _trim_rows(rows: list) -> list:
    n = len(rows[0])
    while n and not any(row[n - 1] for row in rows):
        n -= 1
    return [row[:n] for row in rows]


def _canonical(d: int, rows: list, den: int) -> tuple:
    """(d, rows, den) in the stored form, for a positive den: rows trimmed
    into tuples, gcd(den, every integer) = 1, base 0 without sqrt(d) part."""
    rows = _trim_rows(rows)
    if d and not any(map(any, rows[1::2])):
        d, rows = 0, rows[::2]
    g = math.gcd(den, *[v for row in rows for v in row])
    if g != 1:
        rows = [[v // g for v in row] for row in rows]
    return d, tuple(map(tuple, rows)), den // g


def _content_free(rows: list) -> list:
    """The rows divided by the gcd of all their integers."""
    g = math.gcd(*[v for row in rows for v in row])
    return rows if g == 1 else [[v // g for v in row] for row in rows]


def _pseudo_divide(alg: _Algebra, r: list, b: list, mult: tuple, scale: tuple,
                   quotient: bool):
    """Fraction-free division of the rows r by the rows b, b nonzero.

    Step by step from the top, r becomes mult r - (c scale) x^k B for its
    top coefficient c, which cancels because scale lead(B) = mult, a
    central element.  After the s = deg r - deg B + 1 steps
    mult^s R_in = q B + r; q is only formed when ``quotient`` is set.
    With mult = lead(B) and scale = 1 in a commutative ring, r is the
    classical pseudo-remainder.
    """
    nb = len(b[0])
    q = [[0] * max(0, len(r[0]) - nb + 1) for _ in range(alg.m)] if quotient else None
    for top in range(len(r[0]) - 1, nb - 2, -1):
        c = tuple(row[top] for row in r)
        r = [list(row[:top]) for row in r]
        if mult != alg.one:
            r = alg.left_scale(mult, r)
            if quotient:
                q = alg.left_scale(mult, q)
        if not any(c):
            continue
        k = top - nb + 1
        t = alg.mul(c, scale)
        for row, sub in zip(r, alg.left_scale(t, b)):
            row[k:top] = [u - v for u, v in zip(row[k:top], sub)]
        if quotient:
            for row, v in zip(q, t):
                row[k] = v
    return q, r


def _subresultants(alg: _Algebra, a: list, b: list):
    """The subresultant remainder sequence of two nonzero polynomials over
    a commutative integral domain (Collins 1967; Brown 1971).

    Yields the input of lower degree, then each pseudo-remainder divided
    by g h^delta, a division that is exact in the domain and keeps the
    coefficient size polynomial in the degree.  The last one is a gcd.
    """
    if len(a[0]) < len(b[0]):
        a, b = b, a
    g = h = alg.one
    yield b
    while len(b[0]) > 1:
        delta = len(a[0]) - len(b[0])
        r = _trim_rows(_pseudo_divide(alg, a, b, _leading(b), alg.one, False)[1])
        if not r[0]:
            return
        inv, n = alg.inverse_parts(alg.mul(g, alg.power(h, delta)))
        a, b = b, [[v // n for v in row] for row in alg.left_scale(inv, r)]
        yield b
        g = _leading(a)
        if delta:
            h = alg.divide(alg.power(g, delta), alg.power(h, delta - 1))


def _vector_rank(vectors, d: int) -> int:
    """Rank over Q(sqrt d) of integer 3-vectors.

    A coordinate is an integer tuple of the real algebra over d: (a,) for
    a in Z, (a, b) for a + b sqrt(d) in Z[sqrt d].  The rank is 0 when no
    vector is nonzero, 1 when every cross product with the first nonzero
    vector vanishes, and otherwise 3 when some triple product is nonzero,
    else 2.
    """
    mul = _algebra(_REAL, d).mul

    def live(v) -> bool:
        return any(map(any, v))

    def cross(x, y) -> tuple:
        return tuple(tuple(s - t for s, t in zip(mul(x[i], y[j]), mul(x[j], y[i])))
                     for i, j in ((1, 2), (2, 0), (0, 1)))

    vectors = [v for v in vectors if live(v)]
    if not vectors:
        return 0
    first = vectors[0]
    normal = next((n for n in (cross(first, v) for v in vectors[1:]) if live(n)), None)
    if normal is None:
        return 1
    for v in vectors:
        if any(map(sum, zip(*map(mul, normal, v)))):
            return 3
    return 2


def _coordinate_vectors(rows: list, parts: int) -> list:
    """Per coefficient, the 3-vector of coordinate tuples of the first three
    real components of the rows."""
    return list(zip(*(zip(*rows[w * parts:(w + 1) * parts]) for w in range(3))))


def _term_str(c, k: int) -> str:
    if k == 0:
        return f"{c}"
    xi = "xi" if k == 1 else f"xi^{k}"
    return f"({c})*{xi}"


class _DensePoly:
    """Immutable dense polynomial over the coefficient ring ``ring``.

    Stored as its surd base ``d``, integer coordinate ``rows`` and one
    positive denominator ``den``, in the canonical form of the module
    docstring.  A subclass sets its coefficient ``ring``, the
    ``constants`` it accepts as degree-0 polynomials and the polynomial
    kinds it ``lifts`` coefficientwise into its ring.  The ring gives
    the rest: its ``width`` real components, a coefficient's ``parts``
    and ``from_parts`` to split and join them, and the multiplication
    ``table`` the integer kernel runs.
    """

    __slots__ = ("d", "rows", "den")
    lifts: tuple = ()

    def __init__(self, coeffs: Iterable = ()):
        comps = [self.ring.of(c).parts for c in coeffs]
        d = _base(s for c in comps for s in c)
        fields = ("a", "b") if d else ("a",)
        fracs = [[getattr(c[w], field) for c in comps]
                 for w in range(self.ring.width) for field in fields]
        den = math.lcm(*[f.denominator for row in fracs for f in row])
        rows = [[f.numerator * (den // f.denominator) for f in row] for row in fracs]
        self._set(*_canonical(d, rows, den))

    def _set(self, d: int, rows: tuple, den: int) -> None:
        for name, value in (("d", d), ("rows", rows), ("den", den)):
            object.__setattr__(self, name, value)

    @classmethod
    def _from_rows(cls, d: int, rows: list, den: int):
        """The polynomial with coordinate rows / den over the base d, den > 0."""
        p = object.__new__(cls)
        p._set(*_canonical(d, rows, den))
        return p

    @classmethod
    def from_terms(cls, terms: list, d: int):
        """The polynomial whose coefficient components, in ascending degree
        and each coefficient's ``width`` components in order, have the
        values p/q + r/s*sqrt(d) of ``terms`` (p, q, r, s, _), as
        scalars.scalar_terms reads them over the base d: q, s > 0 and r = 0
        unless the component has a sqrt(d) part."""
        width = cls.ring.width
        den = math.lcm(*[t[1] for t in terms], *[t[3] for t in terms])
        rows = []
        for w in range(width):
            column = terms[w::width]
            rows.append([p * (den // q) for p, q, *_ in column])
            if d:
                rows.append([r * (den // s) for _, _, r, s, _ in column])
        return cls._from_rows(d, rows, den)

    def _rows_over(self, d: int):
        """The stored rows over the base d, which is self.d or self.d = 0."""
        if d == self.d:
            return self.rows
        zero = (0,) * len(self.rows[0])
        return [r for row in self.rows for r in (row, zero)]

    @classmethod
    def _join(cls, polys):
        """The polynomial whose real components are those of polys, in order."""
        d, den, rows = _stack(polys)
        return cls._from_rows(d, [row for part in rows for row in part], den)

    def _split(self, kind) -> tuple:
        """The real components of self, grouped into polynomials of kind."""
        k = _algebra(kind.ring.table, self.d).m
        return tuple(kind._from_rows(self.d, self.rows[i:i + k], self.den)
                     for i in range(0, len(self.rows), k))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def of(cls, value):
        if isinstance(value, cls):
            return value
        if isinstance(value, cls.lifts):
            zero = (0,) * len(value.rows[0])
            missing = _algebra(cls.ring.table, value.d).m - len(value.rows)
            return cls._from_rows(value.d, value.rows + (zero,) * missing, value.den)
        if isinstance(value, cls.constants):
            return cls([value])
        return cls(value)

    @property
    def coeffs(self) -> tuple:
        """The coefficients in ascending order, built from the rows."""
        return tuple(map(self.coeff, range(len(self.rows[0]))))

    def degree(self) -> int:
        return len(self.rows[0]) - 1

    def is_zero(self) -> bool:
        return not self.rows[0]

    def leading(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeff(self.degree())

    def coeff(self, k: int):
        if not 0 <= k < len(self.rows[0]):
            return self.ring.of(0)
        parts = [Fraction(row[k], self.den) if row[k] else _F0 for row in self.rows]
        pairs = zip(parts[::2], parts[1::2]) if self.d else ((a, _F0) for a in parts)
        return self.ring.from_parts([_unchecked(a, b, self.d) for a, b in pairs])

    def __add__(self, other):
        d, den, (x, y) = _stack((self, self.of(other)))
        rows = [[u + v for u, v in zip(a, b)] for a, b in zip(x, y)]
        return self._from_rows(d, rows, den)

    __radd__ = __add__

    def __neg__(self):
        rows = [[-v for v in row] for row in self.rows]
        return self._from_rows(self.d, rows, self.den)

    def __sub__(self, other):
        return self + (-self.of(other))

    def __rsub__(self, other):
        return (-self) + self.of(other)

    def __mul__(self, other):
        """Product with ordered coefficient products, in the integer kernel."""
        other = self.of(other)
        if self.is_zero() or other.is_zero():
            return type(self)()
        alg = _kernel(self, other)
        x, y = self._rows_over(alg.d), other._rows_over(alg.d)
        return self._from_rows(alg.d, _mul_rows(alg, x, y), self.den * other.den)

    def __rmul__(self, other):
        return self.of(other) * self

    def scale(self, s):
        """Every coefficient multiplied on the right by the constant s."""
        return self * type(self)([s])

    def derivative(self):
        return self._from_rows(self.d, [[k * v for k, v in enumerate(row)][1:]
                                        for row in self.rows], self.den)

    def conjugate(self):
        """Coefficientwise conjugate: every component but the real one negated."""
        p = 2 if self.d else 1
        return self._from_rows(self.d, self.rows[:p] + tuple(
            tuple(-v for v in row) for row in self.rows[p:]), self.den)

    def leading_inverse(self):
        """The constant 1/lead(self) of a nonzero polynomial, from its rows."""
        inv, n = _algebra(self.ring.table, self.d).inverse_parts(_leading(self.rows))
        return self._from_rows(self.d, [[self.den * v] for v in inv], n)

    def monic(self):
        return self if self.is_zero() else self * self.leading_inverse()

    def divmod(self, divisor):
        """Q, R with self = Q*divisor + R and deg R < deg divisor.

        Pseudo-division in the integer kernel: with L the leading
        coefficient of the divisor and N = L^-1's integer denominator,
        N^s self = q divisor + r over the integer rows, then Q and R are
        normalised once.
        """
        divisor = self.of(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return type(self)(), type(self)()
        alg = _kernel(self, divisor)
        a, b = self._rows_over(alg.d), divisor._rows_over(alg.d)
        inv, norm = alg.inverse_parts(_leading(b))
        mult = (norm,) + (0,) * (alg.m - 1)
        q, r = _pseudo_divide(alg, a, b, mult, inv, True)
        den = norm ** max(0, len(a[0]) - len(b[0]) + 1) * self.den
        q = [[v * divisor.den for v in row] for row in q]
        return self._from_rows(alg.d, q, den), self._from_rows(alg.d, r, den)

    def evaluate(self, xi):
        x = self.ring.of(Scalar.of(xi))
        acc = self.ring.of(0)
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
        return (self.d, self.rows, self.den) == (other.d, other.rows, other.den)

    def __hash__(self):
        # the narrowest equal value: a constant hashes as its coefficient,
        # and the all-zero component rows a lift appends are dropped
        if len(self.rows[0]) <= 1:
            return hash(self.coeff(0))
        rows = self.rows
        while not any(rows[-1]):
            rows = rows[:-1]
        return hash((self.d, rows, self.den))

    def __bool__(self):
        return not self.is_zero()


class RealPoly(_DensePoly):
    """Polynomial with Scalar coefficients, ascending order."""

    __slots__ = ()
    ring = Scalar
    constants = (Scalar, Fraction, int)

    def antiderivative(self) -> "RealPoly":
        """Termwise antiderivative with zero constant term."""
        n = math.lcm(*range(1, len(self.rows[0]) + 1))
        rows = [[0] + [v * (n // k) for k, v in enumerate(row, 1)] for row in self.rows]
        return self._from_rows(self.d, rows, self.den * n)

    def evaluate_float(self, xi: float) -> float:
        acc = 0.0
        for c in reversed(self.float_coeffs()):
            acc = acc * xi + c
        return acc

    def float_coeffs(self) -> list[float]:
        den = self.den
        if not self.d:
            return [v / den for v in self.rows[0]]
        root = math.sqrt(self.d)
        return [a / den + b / den * root for a, b in zip(*self.rows)]

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
    ring = ComplexScalar
    constants = (ComplexScalar, Scalar, Fraction, int)
    lifts = (RealPoly,)

    @classmethod
    def from_parts(cls, re: RealPoly, im: RealPoly) -> "ComplexPoly":
        return cls._join((RealPoly.of(re), RealPoly.of(im)))

    def real_parts(self) -> tuple[RealPoly, RealPoly]:
        return self._split(RealPoly)

    def norm_sq(self) -> RealPoly:
        """|gamma|^2 = gamma * conj(gamma) = re^2 + im^2, real by construction."""
        re, im = self.real_parts()
        return re * re + im * im

    def __repr__(self):
        return f"ComplexPoly({[(str(c.re), str(c.im)) for c in self.coeffs]})"


class QuatPoly(_DensePoly):
    """Quaternion polynomial u + v*i + p*j + q*k with ordered products."""

    __slots__ = ()
    ring = Quaternion
    constants = (Quaternion, ComplexScalar, Scalar, Fraction, int)
    lifts = (RealPoly, ComplexPoly)

    @classmethod
    def from_components(cls, u, v, p, q) -> "QuatPoly":
        return cls._join([RealPoly.of(c) for c in (u, v, p, q)])

    @classmethod
    def from_complex_pair(cls, alpha: ComplexPoly, beta: ComplexPoly) -> "QuatPoly":
        """alpha + beta*j."""
        return cls._join((ComplexPoly.of(alpha), ComplexPoly.of(beta)))

    def components(self) -> tuple[RealPoly, RealPoly, RealPoly, RealPoly]:
        """(u, v, p, q) with self = u + v*i + p*j + q*k."""
        return self._split(RealPoly)

    def complex_split(self) -> tuple[ComplexPoly, ComplexPoly]:
        """(alpha, beta) with self = alpha + beta*j."""
        return self._split(ComplexPoly)

    # kept in this class body: bench/tracing.py wraps QuatPoly.__mul__ on its class
    __mul__ = _DensePoly.__mul__
    # ordered coefficient products make divmod the right division
    right_divmod = _DensePoly.divmod

    def left_scale(self, c: Quaternion) -> "QuatPoly":
        return QuatPoly([c]) * self

    def norm_poly(self) -> RealPoly:
        """u^2 + v^2 + p^2 + q^2, the squared pointwise norm."""
        return component_forms(self, (_SQUARES,))[0]

    def inner(self, other: "QuatPoly") -> RealPoly:
        """Pointwise Euclidean inner product, as a real polynomial."""
        pairs = zip(self.components(), QuatPoly.of(other).components())
        return sum((x * y for x, y in pairs), RealPoly())

    def __repr__(self):
        return f"QuatPoly({self.coeffs!r})"


def _gcd(cls, polys, screen: bool):
    """Monic gcd of polynomials of a commutative kind.

    With ``screen``, 1 when the prime image proves it (images_coprime);
    otherwise subresultant sequences over the integer rows, folded over
    the arguments, then made monic in the field.
    """
    polys = [p for p in map(cls.of, polys) if not p.is_zero()]
    if not polys:
        raise ValueError("gcd of all-zero polynomials is undefined")
    alg = _kernel(*polys)
    embedding = _embedding(cls.ring.width, alg.d) if screen else None
    if embedding is not None:
        p, weights = embedding
        images = [_image(q._rows_over(alg.d), weights, p) for q in polys]
        if images_coprime(images, [q.degree() for q in polys], p):
            return cls._from_rows(alg.d, [[v] for v in alg.one], 1)
    g = None
    for p in polys:
        rows = _content_free(p._rows_over(alg.d))
        if g is not None:
            *_, rows = _subresultants(alg, g, rows)
        g = _content_free(rows)
        if len(g[0]) == 1:
            return cls._from_rows(alg.d, [[v] for v in alg.one], 1)
    inv, n = alg.inverse_parts(_leading(g))
    return cls._from_rows(alg.d, alg.left_scale(inv, g), n)


_SQUARES = tuple((1, w, w) for w in range(4))


def component_forms(b: QuatPoly, forms) -> list[RealPoly]:
    """The real polynomials sum c b_i b_j, one per form ((c, i, j), ...),
    in one integer pass over the stored rows.

    b_0 .. b_3 are the components (u, v, p, q) of b and b_4 .. b_7 their
    derivatives.  Each product b_i b_j is formed once, however many
    forms use it.
    """
    b = QuatPoly.of(b)
    if b.is_zero():
        return [RealPoly() for _ in forms]
    real = _algebra(_REAL, b.d)
    p, rows = real.parts, b.rows
    comps = [rows[w * p:(w + 1) * p] for w in range(4)]
    comps += [[[k * v for k, v in enumerate(row)][1:] for row in comp]
              for comp in comps]
    return [RealPoly._from_rows(b.d, acc, b.den * b.den)
            for acc in _form_rows(real, comps, forms)]


def _form_rows(real: _Algebra, comps: list, forms) -> list:
    """Per form ((c, i, j), ...), the rows of sum c b_i b_j over the real
    algebra for the coordinate rows b_i = comps[i], each product formed once."""
    n = 2 * max(len(comp[0]) for comp in comps) - 1
    products: dict = {}
    out = []
    for form in forms:
        acc = [[0] * n for _ in range(real.parts)]
        for c, i, j in form:
            key = (i, j) if i <= j else (j, i)
            if key not in products:
                products[key] = _mul_rows(real, comps[i], comps[j])
            for row, src in zip(acc, products[key]):
                row[:len(src)] = [u + c * v for u, v in zip(row, src)]
        out.append(acc)
    return out


# -- the prime image -------------------------------------------------------
#
# See the module docstring.  An image is that of the integer rows, the
# polynomial times its denominator: every fact screened is blind to that
# constant factor, and the rows are integral at every prime.

# primes p = 1 (mod 4) below 2^30, so -1 is a square and residues stay one
# machine word; half are 1 and half 5 (mod 8), so that 2 is a square at some
_PRIMES = (1073741789, 1073741689, 1073741741, 1073741561, 1073741717,
           1073741441, 1073741621, 1073741329, 1073741477, 1073740793,
           1073741381, 1073740697, 1073741309, 1073740649, 1073741237,
           1073740609)


def _sqrt_mod(a: int, p: int) -> Optional[int]:
    """A square root of a modulo an odd prime p, or None if a is not a
    nonzero square (Tonelli-Shanks)."""
    a %= p
    if not a or pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, t, x = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, u = 0, t
        while u != 1:
            i, u = i + 1, u * u % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, x = i, b * b % p, t * b * b % p, x * b % p
    return x


@lru_cache(maxsize=64)
def _embedding(width: int, d: int) -> Optional[tuple[int, tuple]]:
    """(p, weights) for a ring of ``width`` 1 (real) or 2 (complex) over
    the base d: the first listed prime p that does not divide d and at
    which d is a square, and the image in F_p of each integer coordinate,
    sqrt(d) -> s and i -> r.  None when no listed prime fits d."""
    for p in _PRIMES:
        parts = (1,)
        if d:
            s = _sqrt_mod(d, p)
            if s is None:
                continue
            parts = (1, s)
        units = (1, _sqrt_mod(-1, p))[:width]
        return p, tuple(e * t % p for e in units for t in parts)
    return None


def _trim_mod(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def _image(rows, weights: tuple, p: int) -> list:
    """The coordinate rows combined by the weights in F_p: one coefficient
    list, ascending and trimmed."""
    acc = [0] * len(rows[0])
    for w, row in zip(weights, rows):
        acc = [a + w * v for a, v in zip(acc, row)]
    return _trim_mod([a % p for a in acc])


def rem_mod(f: list, g: list, p: int) -> list:
    """f mod g over F_p for coefficient lists in ascending order, g
    trimmed and nonzero; the remainder comes back trimmed."""
    n = len(g) - 1
    f = list(f)
    inv = pow(g[-1], -1, p)
    for top in range(len(f) - 1, n - 1, -1):
        c = f[top] * inv % p
        if c:
            k = top - n
            f[k:top] = [(u - c * v) % p for u, v in zip(f[k:top], g)]
    return _trim_mod(f[:n])


def _gcd_mod(polys, p: int) -> list:
    """A gcd over F_p of coefficient lists by Euclid's algorithm, folded
    and stopped at the first constant; [] when every list is zero."""
    g: list = []
    for f in polys:
        while f:
            g, f = f, rem_mod(g, f, p)
        if len(g) == 1:
            break
    return g


def images_coprime(images, degrees, p: int) -> bool:
    """Whether images in F_p prove the polynomials they reduce coprime:
    one nonzero polynomial keeps its exact degree in ``degrees``, and
    the images have a constant gcd.  A common factor of the polynomials
    would keep its degree too, and divide every image."""
    return (any(len(f) == n + 1 > 0 for f, n in zip(images, degrees))
            and len(_gcd_mod(images, p)) == 1)


def image_forms(comps: list, forms, p: int) -> list[list[int]]:
    """The forms sum c f_i f_j over F_p of coefficient lists f_i = comps[i],
    by the integer pass of component_forms."""
    real = _algebra(_REAL, 0)
    return [_trim_mod([v % p for v in row])
            for (row,) in _form_rows(real, [[f] for f in comps], forms)]


class ComponentImage:
    """The real components u, v, p, q of a quaternion polynomial and their
    derivatives as coefficient lists over F_p, formed in one pass over the
    stored rows at the prime _embedding picks for the base.

    ``i`` is the image of i, and ``degrees`` are the exact degrees of
    u, v, p and q, read from the rows.  Each method answers one way only,
    as the prime image section above says.
    """

    __slots__ = ("p", "i", "comps", "degrees")

    @classmethod
    def of(cls, a) -> Optional["ComponentImage"]:
        """The image of a, or None when no listed prime fits its base."""
        a = QuatPoly.of(a)
        embedding = _embedding(ComplexScalar.width, a.d)
        if embedding is None:
            return None
        p, weights = embedding
        parts = 2 if a.d else 1
        rows = [a.rows[w * parts:(w + 1) * parts] for w in range(4)]
        comps = [_image(comp, weights[:parts], p) for comp in rows]
        comps += [[k * v % p for k, v in enumerate(f)][1:] for f in comps]
        image = object.__new__(cls)
        image.p, image.i, image.comps = p, weights[parts], comps
        image.degrees = [len(_trim_rows(comp)[0]) - 1 for comp in rows]
        return image

    def coprime(self) -> bool:
        """Whether the image proves u, v, p and q coprime."""
        return images_coprime(self.comps[:4], self.degrees, self.p)

    def split_coprime(self) -> bool:
        """Whether the image proves gcd(alpha, conj(beta)) = 1 for the
        complex splitting alpha + beta j = (u + v i) + (p + q i) j."""
        p, r = self.p, self.i
        u, v, x, y = self.comps[:4]
        du, dv, dx, dy = self.degrees
        split = [_trim_mod([(s + t * r) % p for s, t in zip_longest(f, g, fillvalue=0)])
                 for f, g in ((u, v), (x, [-c for c in y]))]
        return images_coprime(split, (max(du, dv), max(dx, dy)), p)

    def forms(self, forms) -> list[list[int]]:
        """The image of component_forms(a, forms)."""
        return image_forms(self.comps, forms, self.p)

    def form_values(self, forms, t: int) -> list[int]:
        """The values in F_p at t of the images of component_forms(a, forms)."""
        p = self.p
        values = []
        for f in self.comps:
            acc = 0
            for c in reversed(f):
                acc = (acc * t + c) % p
            values.append(acc)
        return [sum(c * values[i] * values[j] for c, i, j in form) % p for form in forms]

    def spans(self, forms, points) -> bool:
        """Whether the values of three forms at three points are independent
        over F_p: then the images of the forms' coefficient vectors span
        F_p^3, and the coefficient vectors themselves have rank 3."""
        (a, b, c), (d, e, f), (g, h, k) = (self.form_values(forms, t) for t in points)
        return (a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)) % self.p != 0


def vector_rank(x: RealPoly, y: RealPoly, z: RealPoly) -> int:
    """Rank over the field of the coefficient vectors (x_k, y_k, z_k) of
    three real polynomials: the vector parts of x i + y j + z k."""
    return vector_part_rank(QuatPoly.from_components(0, x, y, z), 1)


def vector_part_rank(a: QuatPoly, left: Quaternion) -> int:
    """Rank over the field of the vector parts of the coefficients of
    left * a, whose integer rows are formed in one pass."""
    a, left = QuatPoly.of(a), QuatPoly.of(left)
    if a.is_zero() or left.is_zero():
        return 0
    alg = _kernel(left, a)
    scaled = alg.left_scale(_leading(left._rows_over(alg.d)), a._rows_over(alg.d))
    return _vector_rank(_coordinate_vectors(scaled[alg.parts:], alg.parts), alg.d)


def gcd_real(*polys, screen: bool = True) -> RealPoly:
    """Monic gcd of real polynomials (subresultant sequence, made monic).
    ``screen=False`` skips the prime image, for a caller that has
    screened the same image already."""
    return _gcd(RealPoly, polys, screen)


def gcd_complex(*polys, screen: bool = True) -> ComplexPoly:
    """Monic gcd of complex polynomials (subresultant sequence, made
    monic); ``screen`` as for gcd_real."""
    return _gcd(ComplexPoly, polys, screen)


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


_ONE = RealPoly([1])


class RationalFunction:
    """Reduced ratio of real polynomials: monic denominator, coprime parts."""

    __slots__ = ("num", "den")

    def __init__(self, num: RealPoly, den: RealPoly, _reduced: bool = False):
        num, den = RealPoly.of(num), RealPoly.of(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not _reduced:
            if num.is_zero():
                num, den = RealPoly(), _ONE
            else:
                g = gcd_real(num, den)
                if g.degree() > 0:
                    num = exact_divide(num, g)
                    den = exact_divide(den, g)
                inv = den.leading_inverse()
                if inv != _ONE:
                    num, den = num * inv, den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def of(cls, value) -> "RationalFunction":
        if isinstance(value, RationalFunction):
            return value
        return cls(RealPoly.of(value), _ONE)

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
        # a polynomial, den = 1, hashes as the RealPoly it equals
        return hash(self.num) if self.den == _ONE else hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"RationalFunction(({self.num}) / ({self.den}))"


RationalFunction.zero = RationalFunction(RealPoly(), _ONE, _reduced=True)


def reduce_fraction(num, den) -> RationalFunction:
    """Canonical reduced form of num/den; errors on a zero denominator."""
    return RationalFunction(RealPoly.of(num), RealPoly.of(den))
