"""Univariate polynomials over the exact scalar field.

One dense core, ``_DensePoly``, on the base of rrmf.scalars, stores
every polynomial in the form of the ring values: integer rows over one
positive denominator and a surd base d.  A coefficient is one column of
the rows: the rational and sqrt(d) parts of each real component (one
component for real, re/im for complex, four for quaternion
coefficients), in ascending degree.  The form is canonical: rows
trimmed (the zero polynomial has empty rows and ``degree() == -1``),
the gcd of the denominator and every integer 1, and base 0 when no
sqrt(d) row is nonzero, so ``==`` compares the stored triple, and
``hash`` follows the one rule of every exact value (_Exact.__hash__):
without the all-zero rows a lift appends, a rational constant hashes as
its Fraction and any other value as (d, rows, den), so equal values of
every kind hash alike.  The constructor from coefficients writes each
as one column, which raises SurdBaseMismatch for two different surd
bases, the base's ``_Exact.from_terms`` builds the rows from a parsed
document's integers, and ``coeffs``, ``coeff``, ``leading``,
``evaluate`` and the text forms read a column back as a ring value.
The kinds ``RealPoly``, ``ComplexPoly`` and ``QuatPoly`` name only
their coefficient ring, which gives the width and the multiplication
table; the base lifts a narrower kind or a ring value into a kind, as
rrmf.scalars states.

Every operation reads the stored rows.  Sums, derivatives, conjugates,
splits into and joins of components are row slicing or stacking over
one lcm of denominators.  Products, division and gcds run in one
fraction-free integer kernel: the ring's table (the one the coefficient
class multiplies by) acts on the rows in operand order, so ``divmod`` of
quaternion polynomials is right division.  Products and the sums of
products of real components (the forms of ``component_forms``) are
packed products, rrmf.scalars' one kernel for every sum of products.
Division is pseudo-division scaled by the integer norm of the divisor's
leading coefficient; the gcd of real or complex polynomials is the
subresultant remainder sequence over Z, Z[sqrt d], Z[i] or Z[sqrt d][i],
made monic in the field.  The rank of the coefficient vectors of three
real polynomials is decided on their stacked rows by cross and triple
products.  Reduced ratios of real polynomials (monic denominator,
coprime parts) are the canonical rational functions.

A prime image screens the yes/no questions before the exact kernel
runs.  It maps the stored integer rows to F_p at the first prime of a
fixed list of sixteen primes p = 1 (mod 4) below 2^30 that does not
divide the base d and at which d is a square: sqrt(d) -> s and i -> r
with s^2 = d and r^2 = -1, a prime of degree 1 of Q(sqrt d)(i).  On the
elements that are integral at p the map is a ring homomorphism, so it
can only lower a rank, and it can only raise the degree of a gcd of
polynomials one of which keeps its degree (Brown 1971).  Each image
answer is therefore one-sided: a constant image gcd proves the gcd 1
(``images_coprime``; ``gcd_real`` and ``gcd_complex``, which always
screen, then return 1 without a subresultant sequence), a nonzero
image proves a polynomial nonzero, three independent image vectors
prove rank 3.  Any other image answer proves nothing, and the exact
kernel decides; so does it when no listed prime fits d.  The tools here
are generic: images of rows and their gcds, quotients with remainders
(divmod_mod), forms and products (forms_mod, mul_mod: the packed kernel,
then reduced mod p), and the rational reconstruction of a residue
(rational_mod), which can only propose a value for an exact check.  A
generator's image is one PrimeImage, whose methods are the screens of
hodograph.GeneratorAnalysis, at the prime and over a product of further
primes (composite).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, zip_longest
from typing import Iterable, NamedTuple, Optional

from .quaternions import Quaternion
from .scalars import (_PRODUCT, _REAL, ComplexScalar, Scalar, _Algebra, _algebra, _canonical,
                      _Exact, _form_loop, _kernel, _leading, _packed_forms, _stack, _top,
                      _trim_rows)


class InexactDivision(ArithmeticError):
    """Division that was required to be exact left a remainder."""


# -- division, gcds and ranks on the integer rows ---------------------------


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

    The rows of r are copied once, so the input is never mutated, and
    each step pops its top coefficient off the copy in place.
    """
    nb = len(b[0])
    q = [[0] * max(0, len(r[0]) - nb + 1) for _ in range(alg.m)] if quotient else None
    r = [list(row) for row in r]
    for top in range(len(r[0]) - 1, nb - 2, -1):
        c = tuple(row.pop() for row in r)
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


def _term_str(c, k: int) -> str:
    if k == 0:
        return f"{c}"
    xi = "xi" if k == 1 else f"xi^{k}"
    return f"({c})*{xi}"


class _DensePoly(_Exact):
    """Immutable dense polynomial over the coefficient ring ``ring``.

    Stored as a value of rrmf.scalars' base: its surd base ``d``,
    integer coordinate ``rows`` and one positive denominator ``den``,
    which also give it ``+``, ``-``, ``*``, ``scale``, ``conjugate``,
    ``==`` and ``of``.  A subclass sets its coefficient ``ring``, which
    gives its ``width`` and multiplication ``table``; a coefficient is
    one column of the rows.
    """

    __slots__ = ()
    _poly = True

    def __init_subclass__(cls):
        cls.width, cls.table = cls.ring.width, cls.ring.table

    def __init__(self, coeffs: Iterable = ()):
        d, den, columns = _stack([self.ring.of(c) for c in coeffs], 1)
        rows = [[c[k][0] for c in columns] for k in range(self.width * (2 if d else 1))]
        self._set(*_canonical(d, rows, den))

    @property
    def coeffs(self) -> tuple:
        """The coefficients in ascending order, read from the rows."""
        return tuple(map(self.coeff, range(len(self.rows[0]))))

    def degree(self) -> int:
        return len(self.rows[0]) - 1

    def leading(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeff(self.degree())

    def coeff(self, k: int):
        if not 0 <= k < len(self.rows[0]):
            return self.ring.of(0)
        return self.ring._from_rows(self.d, [[row[k]] for row in self.rows], self.den)

    def derivative(self):
        return self._from_rows(self.d, [[k * v for k, v in enumerate(row)][1:]
                                        for row in self.rows], self.den)

    # the constant 1/lead(self) of a nonzero polynomial, from its rows
    leading_inverse = _Exact._lead_inverse

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
        x = self.ring.of(xi)
        acc = self.ring.of(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def as_quat(self) -> "QuatPoly":
        return QuatPoly.of(self)


class RealPoly(_DensePoly):
    """Polynomial with Scalar coefficients, ascending order."""

    __slots__ = ()
    ring = Scalar

    def antiderivative(self) -> "RealPoly":
        """Termwise antiderivative with zero constant term."""
        n = math.lcm(*range(1, len(self.rows[0]) + 1))
        rows = [[0] + [v * (n // k) for k, v in enumerate(row, 1)] for row in self.rows]
        return self._from_rows(self.d, rows, self.den * n)

    def evaluate_float(self, xi: float, shift: int = 0) -> float:
        """The value at xi in floats, divided by 2**shift (float_shift)."""
        acc = 0.0
        for c in reversed(self.float_coeffs(shift)):
            acc = acc * xi + c
        return acc

    def float_coeffs(self, shift: int = 0) -> list[float]:
        """The coefficients in floats, each divided by 2**shift: one
        integer over another, which int division rounds correctly."""
        den, rows = self.den, self.rows
        if shift > 0:
            den <<= shift
        elif shift < 0:
            rows = [[v << -shift for v in row] for row in rows]
        if not self.d:
            return [v / den for v in rows[0]]
        root = math.sqrt(self.d)
        return [a / den + b / den * root for a, b in zip(*rows)]

    def __repr__(self):
        return f"RealPoly({[str(c) for c in self.coeffs]})"

    def __str__(self):
        if self.is_zero():
            return "0"
        return " + ".join(_term_str(c, k)
                          for k, c in enumerate(self.coeffs) if not c.is_zero())


def float_shift(polys) -> int:
    """The power of two that real polynomials evaluated together in floats
    are divided by: 0 while their largest coefficient lies within
    2**+-1000 of 1, else the one that brings it near 1, so that neither a
    coefficient nor a value at a moderate parameter leaves the float range."""
    excess = max((abs(v).bit_length() - p.den.bit_length()
                  for p in polys for row in p.rows for v in row if v), default=0)
    return excess if abs(excess) > 1000 else 0


class ComplexPoly(_DensePoly):
    """Polynomial with ComplexScalar coefficients."""

    __slots__ = ()
    ring = ComplexScalar

    @classmethod
    def from_parts(cls, re: RealPoly, im: RealPoly) -> "ComplexPoly":
        return cls._join((RealPoly.of(re), RealPoly.of(im)))

    def real_parts(self) -> tuple[RealPoly, RealPoly]:
        return self._split(RealPoly)

    def norm_sq(self) -> RealPoly:
        """|gamma|^2 = gamma * conj(gamma) = re^2 + im^2, one form pass."""
        return component_forms(self.as_quat(), (((1, 0, 0), (1, 1, 1)),))[0]

    def __repr__(self):
        return f"ComplexPoly({[(str(c.re), str(c.im)) for c in self.coeffs]})"


class QuatPoly(_DensePoly):
    """Quaternion polynomial u + v*i + p*j + q*k with ordered products."""

    __slots__ = ()
    ring = Quaternion

    @classmethod
    def from_components(cls, u, v, p, q) -> "QuatPoly":
        return cls._join([RealPoly.of(c) for c in (u, v, p, q)])

    def components(self) -> tuple[RealPoly, RealPoly, RealPoly, RealPoly]:
        """(u, v, p, q) with self = u + v*i + p*j + q*k."""
        return self._split(RealPoly)

    def complex_split(self) -> tuple[ComplexPoly, ComplexPoly]:
        """(alpha, beta) with self = alpha + beta*j."""
        return self._split(ComplexPoly)

    def component_rows(self) -> list:
        """The integer rows of each of u, v, p, q: 1, or 2 over a surd base."""
        k = 2 if self.d else 1
        return [self.rows[w * k:(w + 1) * k] for w in range(4)]

    # kept in this class body: bench/tracing.py wraps QuatPoly.__mul__ on its class
    __mul__ = _Exact.__mul__

    def inner(self, other: "QuatPoly") -> RealPoly:
        """Pointwise Euclidean inner product, the real part of self conj(other)."""
        return (self * QuatPoly.of(other).conjugate()).components()[0]

    def __repr__(self):
        return f"QuatPoly({self.coeffs!r})"


def _gcd(cls, polys, screen: bool):
    """Monic gcd of polynomials of a commutative kind.

    With ``screen``, 1 when the prime image proves it (images_coprime);
    otherwise subresultant sequences over the integer rows, folded over
    the arguments, then made monic in the field.  Only hodograph's
    analysis, past its own screen of the image, passes ``screen=False``.
    """
    polys = [p for p in map(cls.of, polys) if not p.is_zero()]
    if not polys:
        raise ValueError("gcd of all-zero polynomials is undefined")
    alg = _kernel(*polys)
    embedding = _embedding(alg.d) if screen else None
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


def component_forms(b: QuatPoly, forms) -> list[RealPoly]:
    """The real polynomials sum c b_i b_j, one per form ((c, i, j), ...),
    for b_0 .. b_3 the components (u, v, p, q) of b and b_4 .. b_7 their
    derivatives, from the packed stored rows (scalars._packed_forms)."""
    b = QuatPoly.of(b)
    if b.is_zero():
        return [RealPoly() for _ in forms]
    return [RealPoly._from_rows(b.d, rows, b.den * b.den) for rows in _packed_forms(
        _algebra(_REAL, b.d), b.component_rows(), forms, _top(b.rows))]


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
def _embedding(d: int) -> Optional[tuple[int, tuple]]:
    """(p, weights) for the base d: the first listed prime p that does not
    divide d and at which d is a square, and the image in F_p of each
    integer coordinate of a complex value, sqrt(d) -> s and i -> r:
    (1, s, r, rs) over a surd base, (1, r) over Q.  A real value reads the
    first half.  None when no listed prime fits d."""
    for p in _PRIMES:
        parts = (1,)
        if d:
            s = _sqrt_mod(d, p)
            if s is None:
                continue
            parts = (1, s)
        return p, tuple(e * t % p for e in (1, _sqrt_mod(-1, p)) for t in parts)
    return None


# (N, r) for the product N of the first 1, 2, ... listed primes after the
# first, and r^2 = -1 mod N: the CRT lift of each sqrt(-1)
_MODULI = list(accumulate(_PRIMES[1:], lambda m, p: (m[0] * p, m[1] + m[0] * (
    (_sqrt_mod(-1, p) - m[1]) * pow(m[0], -1, p) % p)), initial=(1, 0)))[1:]
_COVER_BITS = math.prod(_PRIMES).bit_length()


def _trim_mod(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def _image(rows, weights: tuple, p: int) -> list:
    """The coordinate rows combined by the weights in F_p: one coefficient
    list, ascending and trimmed."""
    acc = rows[0]  # the weight of the first row is 1
    for w, row in zip(weights[1:], rows[1:]):
        acc = [a + w * v for a, v in zip(acc, row)]
    return _trim_mod([a % p for a in acc])


class PrimeImage(NamedTuple):
    """A generator A over F_p for the screens of hodograph.GeneratorAnalysis: the prime
    p of _embedding, the images r of i and comps of u, v, p, q, and their degrees."""

    p: int
    r: int
    comps: list
    degrees: list

    @classmethod
    def of(cls, a: QuatPoly) -> Optional["PrimeImage"]:
        """The image of A; None when no listed prime fits its base."""
        embedding = _embedding(a.d)
        if embedding is None:
            return None
        p, weights = embedding
        rows = a.component_rows()
        return cls(p, weights[len(rows[0])], [_image(comp, weights, p) for comp in rows],
                   [len(_trim_rows(comp)[0]) - 1 for comp in rows])

    def values(self, forms, t: int) -> list[int]:
        """The values in F_p at t of the images of component_forms(A, forms):
        the form loop on the value and slope of each of u, v, p, q at t."""
        p, values = self.p, [0] * 8
        for k, f in enumerate(self.comps):
            for c in reversed(f):
                values[k + 4] = (values[k + 4] * t + values[k]) % p
                values[k] = (values[k] * t + c) % p
        return [v % p for v in _form_loop(_algebra(_REAL, 0), values, forms)[-len(forms):]]

    def split_gcd_degree(self) -> Optional[int]:
        """deg gcd of the images of alpha = u + v i and conj(beta) = p - q i; None
        unless both keep their degrees at each Euclid step, modulo each prime of p."""
        p, r, (u, v, x, y) = self.p, self.r, self.comps
        split = [_trim_mod([(s + t * r) % p for s, t in zip_longest(f, g, fillvalue=0)])
                 for f, g in ((u, v), (x, [-c for c in y]))]
        if ([len(f) - 1 for f in split] != [max(self.degrees[:2]), max(self.degrees[2:])]
                or any(math.gcd(f[-1], p) != 1 for f in split if f)):
            return None
        try:
            return len(_gcd_mod(split, p)) - 1
        except ValueError:  # a leading coefficient that is no unit modulo p
            return None

    def composite(self, rows) -> Optional["PrimeImage"]:
        """This image modulo the product N of the next listed primes that passes
        B^2 = |alpha|^2m |beta|^2n of chi_degree with p, comps A's rows over Q and
        r the CRT lift of each sqrt(-1), so that Euclid's steps are those at each
        prime while units lead; None for alpha or beta 0, or if B^2 may reach all
        listed primes, as bit lengths tell before any huge power is formed."""
        n, m = max(self.degrees[:2]), max(self.degrees[2:])
        na, nb = (sum(c * c for row in rows[s:s + 2] for c in row) for s in (0, 2))
        if min(n, m) < 0 or m * na.bit_length() + n * nb.bit_length() >= _COVER_BITS:
            return None
        bound = na ** m * nb ** n // self.p
        modulus, r = next(x for x in _MODULI if x[0] > bound)
        return self._replace(p=modulus, r=r, comps=rows)


def divmod_mod(f: list, g: list, p: int) -> tuple[list, list]:
    """Quotient and remainder of f by g over F_p for coefficient lists in
    ascending order, g trimmed and nonzero; the remainder is trimmed."""
    n = len(g) - 1
    f = list(f)
    q = [0] * max(0, len(f) - n)
    inv = pow(g[-1], -1, p)
    for top in range(len(f) - 1, n - 1, -1):
        c = f[top] * inv % p
        if c:
            k = top - n
            q[k] = c
            f[k:top] = [(u - c * v) % p for u, v in zip(f[k:top], g)]
    return q, _trim_mod(f[:n])


def mul_mod(f: list, g: list, p: int) -> list:
    """The product over F_p of nonzero trimmed coefficient lists."""
    return forms_mod([f, g], _PRODUCT, p)[0]


def rational_mod(c: int, p: int) -> Optional[Fraction]:
    """The x/y = c (mod p) with |x|, |y| <= sqrt(p/2), or None: rational
    reconstruction by extended Euclid on p and c (Wang 1981)."""
    bound, r0, r1, t0, t1 = math.isqrt(p // 2), p, c % p, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return Fraction(r1, t1) if abs(t1) <= bound and math.gcd(r1, t1) == 1 else None


def _gcd_mod(polys, p: int) -> list:
    """The monic gcd over F_p of coefficient lists by Euclid's algorithm,
    folded and stopped at the first constant; [] when every list is zero."""
    g: list = []
    for f in polys:
        while f and g:
            g, f = f, divmod_mod(g, f, p)[1]
        g = g or f
        if len(g) == 1:
            return [1]
    inv = pow(g[-1], -1, p) if g else 1
    return [c * inv % p for c in g]


def images_coprime(images, degrees, p: int) -> bool:
    """Whether images in F_p prove the polynomials they reduce coprime:
    one nonzero polynomial keeps its exact degree in ``degrees``, and
    the images have a constant gcd.  A common factor of the polynomials
    would keep its degree too, and divide every image."""
    return (any(len(f) == n + 1 > 0 for f, n in zip(images, degrees))
            and len(_gcd_mod(images, p)) == 1)


def forms_mod(comps: list, forms, p: int) -> list[list[int]]:
    """The forms sum c f_i f_j over F_p ((c, i, j), ...), trimmed, of the
    residue lists f_i = comps[i] and their derivatives f_len(comps)+i,
    packed as integer lists (scalars._packed_forms), then reduced mod p."""
    return [_trim_mod([v % p for v in row])
            for row, in _packed_forms(_algebra(_REAL, 0), [[f] for f in comps], forms, p - 1)]


def vector_rank(x: RealPoly, y: RealPoly, z: RealPoly) -> int:
    """Rank over the field of the coefficient vectors (x_k, y_k, z_k) of
    three real polynomials, read from their stacked integer rows."""
    d, _, rows = _stack(tuple(map(RealPoly.of, (x, y, z))))
    return _vector_rank(zip(*(zip(*comp) for comp in rows)), d)


def gcd_real(*polys) -> RealPoly:
    """Monic gcd of real polynomials, screened in the prime image (_gcd)."""
    return _gcd(RealPoly, polys, True)


def gcd_complex(*polys) -> ComplexPoly:
    """Monic gcd of complex polynomials, screened in the prime image (_gcd)."""
    return _gcd(ComplexPoly, polys, True)


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

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den, _reduced=True)

    def evaluate_float(self, xi: float) -> float:
        shift = float_shift((self.num, self.den))
        return self.num.evaluate_float(xi, shift) / self.den.evaluate_float(xi, shift)

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
    return RationalFunction(num, den)
