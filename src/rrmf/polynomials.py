"""Univariate polynomials over the exact scalar field.

One dense core, ``_DensePoly``, stores a polynomial as the tuple of its
coefficients in ascending order with no trailing zeros, so the zero
polynomial is the empty tuple and ``degree() == -1`` for it.  The three
kinds ``RealPoly``, ``ComplexPoly`` and ``QuatPoly`` name their
coefficient ring, the constants they accept and the smaller kinds they
lift from (Real -> Complex -> Quat), and add only what is particular to
their ring.

Products, division and gcds run in one fraction-free integer kernel.
At entry each operand becomes integer rows over one positive common
denominator: the rational and sqrt(d) parts of each real component (one
component for real, re/im for complex, the four components for
quaternion coefficients).  The ring's structure constants (the Hamilton
table for quaternions) act on those rows in operand order, so the same
code multiplies in the commutative rings and the quaternions, and
``divmod`` of quaternion polynomials is right division.  Division is
pseudo-division scaled by the integer norm of the divisor's leading
coefficient; the gcd of real or complex polynomials is the subresultant
remainder sequence over Z, Z[sqrt d], Z[i] or Z[sqrt d][i], whose
divisions are exact in the ring.  Every output coefficient is built
once, by one Fraction normalisation of an integer over the result's
denominator.  The outputs are canonical whatever the integer route: a
product or a quotient and remainder is a unique field element per
coefficient, and gcds are made monic in the field, so they equal the
Euclidean results of the field arithmetic exactly.  The rank of the
coefficient vectors of three real polynomials, or of the vector parts
of a quaternion polynomial's coefficients, is decided on the same
integer rows by cross and triple products.

Real and complex polynomials form Euclidean domains with monic gcds.
Reduced ratios of real polynomials (monic denominator, coprime parts)
provide the canonical form for every rational function in the package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter, itemgetter
from typing import Iterable

from .quaternions import Quaternion
from .scalars import ComplexScalar, Scalar, _merge_bases, _unchecked


class InexactDivision(ArithmeticError):
    """Division that was required to be exact left a remainder."""


def _trim(coeffs: list) -> tuple:
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return tuple(coeffs)


# -- the integer kernel ----------------------------------------------------
#
# A coefficient is a vector of m integer coordinates: part s (0 rational,
# 1 sqrt(d)) of real component w sits at w*P + s, with P = 2 over a surd
# base d and P = 1 over Q.  A polynomial is the list of its m coordinate
# rows, each a list of ints in ascending degree, over one denominator.

# e_i e_j = sign e_k on the component basis of each coefficient ring
_REAL = ((0, 0, 0, 1),)
_COMPLEX = ((0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, -1))
_HAMILTON = (
    (0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 3, 1),
    (1, 0, 1, 1), (2, 0, 2, 1), (3, 0, 3, 1),
    (1, 1, 0, -1), (2, 2, 0, -1), (3, 3, 0, -1),
    (1, 2, 3, 1), (2, 1, 3, -1), (2, 3, 1, 1), (3, 2, 1, -1),
    (3, 1, 2, 1), (1, 3, 2, -1))

_F0 = Fraction(0)


class _Algebra:
    """Integer coordinates of a coefficient ring over the base d.

    ``terms`` are the structure constants (i, j, k, c): coordinate i of a
    left factor times coordinate j of a right factor adds c times their
    product to coordinate k.
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

    def rows(self, p: "_DensePoly") -> tuple[list, int]:
        """p's coordinate rows over one positive common denominator."""
        fracs = []
        for col in zip(*map(p.split, p.coeffs)):
            fracs.append([s.a for s in col])
            if self.parts == 2:
                fracs.append([s.b for s in col])
        den = math.lcm(*[f.denominator for row in fracs for f in row])
        if den == 1:
            return [[f.numerator for f in row] for row in fracs], 1
        return [[f.numerator * (den // f.denominator) for f in row]
                for row in fracs], den

    def poly(self, cls, rows: list, den: int):
        """The polynomial of kind cls with coordinates rows / den, den > 0."""
        rows = _trim_rows(rows)
        if den == 1:
            fracs = [[Fraction(v) for v in row] for row in rows]
        else:
            fracs = [[Fraction(v, den) if v else _F0 for v in row] for row in rows]
        if self.parts == 1:
            comps = [[_unchecked(a, _F0, 0) for a in row] for row in fracs]
        else:
            d = self.d
            comps = [[_unchecked(a, b, d) for a, b in zip(fracs[w], fracs[w + 1])]
                     for w in range(0, self.m, 2)]
        return cls._make(tuple(map(cls.join, zip(*comps))))


@lru_cache(maxsize=64)
def _algebra(table: tuple, d: int) -> _Algebra:
    return _Algebra(table, d)


def _kernel(*polys: "_DensePoly") -> _Algebra:
    """The algebra of the polynomials' kind over their common surd base;
    raises SurdBaseMismatch for two different bases."""
    d = 0
    for p in polys:
        split = p.split
        for c in p.coeffs:
            for s in split(c):
                if s.d and s.d != d:
                    d = _merge_bases(d, s.d)
    return _algebra(polys[0].table, d)


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
        r = [row[:top] for row in r]
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

    A subclass sets ``ring`` and its ``zero_coeff``, the ``constants``
    it accepts as degree-0 polynomials, the polynomial kinds it
    ``lifts`` coefficientwise into its ring, and for the integer kernel
    the ring's multiplication ``table``, how to ``split`` a coefficient
    into its real components and how to ``join`` them back.
    """

    __slots__ = ("coeffs",)
    lifts: tuple = ()

    def __init__(self, coeffs: Iterable = ()):
        object.__setattr__(self, "coeffs", _trim([self.ring.of(c) for c in coeffs]))

    @classmethod
    def _make(cls, coeffs: tuple):
        """A polynomial of coefficients already in the ring, none trailing zero."""
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", coeffs)
        return p

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
        """Product with ordered coefficient products, in the integer kernel."""
        other = self.of(other)
        if not self.coeffs or not other.coeffs:
            return type(self)()
        alg = _kernel(self, other)
        (x, dx), (y, dy) = alg.rows(self), alg.rows(other)
        return alg.poly(type(self), _mul_rows(alg, x, y), dx * dy)

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
        """Q, R with self = Q*divisor + R and deg R < deg divisor.

        Pseudo-division in the integer kernel: with L the leading
        coefficient of the divisor and N = L^-1's integer denominator,
        N^s self = q divisor + r over the integer rows, then Q and R are
        normalised once.
        """
        divisor = self.of(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if not self.coeffs:
            return type(self)(), type(self)()
        alg = _kernel(self, divisor)
        (a, da), (b, db) = alg.rows(self), alg.rows(divisor)
        inv, norm = alg.inverse_parts(_leading(b))
        mult = (norm,) + (0,) * (alg.m - 1)
        q, r = _pseudo_divide(alg, a, b, mult, inv, True)
        den = norm ** max(0, len(a[0]) - len(b[0]) + 1) * da
        return (alg.poly(type(self), [[v * db for v in row] for row in q], den),
                alg.poly(type(self), r, den))

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
    table, split, join = _REAL, staticmethod(lambda c: (c,)), itemgetter(0)

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
    table, split = _COMPLEX, attrgetter("re", "im")
    join = staticmethod(lambda parts: ComplexScalar(*parts))

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
        """|gamma|^2 = gamma * conj(gamma) = re^2 + im^2, real by construction."""
        re, im = self.real_parts()
        return re * re + im * im

    def __repr__(self):
        return f"ComplexPoly({[(str(c.re), str(c.im)) for c in self.coeffs]})"


class QuatPoly(_DensePoly):
    """Quaternion polynomial u + v*i + p*j + q*k with ordered products."""

    __slots__ = ()
    ring, zero_coeff = Quaternion, Quaternion(0)
    constants = (Quaternion, ComplexScalar, Scalar, Fraction, int)
    lifts = (RealPoly, ComplexPoly)
    table, split = _HAMILTON, attrgetter("w", "x", "y", "z")
    join = staticmethod(lambda parts: Quaternion(*parts))

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
        return component_forms(self, (_SQUARES,))[0]

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
    """Monic gcd of polynomials of a commutative kind.

    Subresultant sequences over the integer rows, folded over the
    arguments, then made monic in the field.
    """
    polys = [p for p in map(cls.of, polys) if p.coeffs]
    if not polys:
        raise ValueError("gcd of all-zero polynomials is undefined")
    alg = _kernel(*polys)
    g = None
    for p in polys:
        rows = _content_free(alg.rows(p)[0])
        if g is not None:
            *_, rows = _subresultants(alg, g, rows)
        g = _content_free(rows)
        if len(g[0]) == 1:
            return cls([1])
    inv, n = alg.inverse_parts(_leading(g))
    return alg.poly(cls, alg.left_scale(inv, g), n)


_SQUARES = tuple((1, w, w) for w in range(4))


def component_forms(b: QuatPoly, forms) -> list[RealPoly]:
    """The real polynomials sum c b_i b_j, one per form ((c, i, j), ...),
    in one integer pass over one common denominator.

    b_0 .. b_3 are the components (u, v, p, q) of b and b_4 .. b_7 their
    derivatives.  Each product b_i b_j is formed once, however many
    forms use it.
    """
    b = QuatPoly.of(b)
    if not b.coeffs:
        return [RealPoly() for _ in forms]
    alg = _kernel(b)
    real = _algebra(_REAL, alg.d)
    rows, den = alg.rows(b)
    p = alg.parts
    comps = [rows[w * p:(w + 1) * p] for w in range(4)]
    comps += [[[k * v for k, v in enumerate(row)][1:] for row in comp]
              for comp in comps]
    products: dict = {}
    out = []
    for form in forms:
        acc = [[0] * (2 * len(rows[0]) - 1) for _ in range(p)]
        for c, i, j in form:
            key = (i, j) if i <= j else (j, i)
            if key not in products:
                products[key] = _mul_rows(real, comps[i], comps[j])
            for row, src in zip(acc, products[key]):
                row[:len(src)] = [u + c * v for u, v in zip(row, src)]
        out.append(real.poly(RealPoly, acc, den * den))
    return out


def vector_rank(x: RealPoly, y: RealPoly, z: RealPoly) -> int:
    """Rank over the field of the coefficient vectors (x_k, y_k, z_k) of
    three real polynomials, decided on their integer rows over one common
    denominator."""
    polys = [RealPoly.of(p) for p in (x, y, z)]
    alg = _kernel(*polys)
    n = max(len(p.coeffs) for p in polys)
    comps = []
    for p in polys:
        rows, den = alg.rows(p)
        comps.append((rows or [[]] * alg.parts, den))
    common = math.lcm(*(den for _, den in comps))
    rows = [[v * (common // den) for v in row] + [0] * (n - len(row))
            for comp, den in comps for row in comp]
    return _vector_rank(_coordinate_vectors(rows, alg.parts), alg.d)


def vector_part_rank(a: QuatPoly, left: Quaternion) -> int:
    """Rank over the field of the vector parts of the coefficients of
    left * a, whose integer rows are formed in one pass."""
    a, left = QuatPoly.of(a), QuatPoly.of(left)
    if not a.coeffs or not left.coeffs:
        return 0
    alg = _kernel(left, a)
    scaled = alg.left_scale(_leading(alg.rows(left)[0]), alg.rows(a)[0])
    return _vector_rank(_coordinate_vectors(scaled[alg.parts:], alg.parts), alg.d)


def gcd_real(*polys) -> RealPoly:
    """Monic gcd of real polynomials (subresultant sequence, made monic)."""
    return _gcd(RealPoly, polys)


def gcd_complex(*polys) -> ComplexPoly:
    """Monic gcd of complex polynomials (subresultant sequence, made monic)."""
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
                if g.degree() > 0:
                    num = exact_divide(num, g)
                    den = exact_divide(den, g)
                if den.leading() != 1:
                    inv = den.leading().inverse()
                    num, den = num.scale(inv), den.scale(inv)
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
