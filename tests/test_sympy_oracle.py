"""The exact kernel checked against sympy as an independent oracle.

Seeded random operands over Q, Q(sqrt(15)), Q(i) and Q(sqrt(15))(i),
with planted common factors (repeated ones too) so that the gcds are not
trivially 1, up to degree 24; the reduced Han fraction of seeded
generators, on which the certificate construction rests, against
sympy's cancellation of the fraction built from the components; and
the hodograph A i A* against sympy's quaternion products.

The facts the prime image screens (rrmf.polynomials, "the prime image")
are checked the same way, on short and on 100-digit coefficients, with
inputs on which the screen must fall through to the exact kernel: a
planted common factor, leading coefficients divisible by the prime, a
shift by the prime that leaves the image unchanged, chi != 1, F0
members, planar curves and a rho that sigma divides.
"""

import functools
from fractions import Fraction

import pytest
from sympy.polys.matrices import DomainMatrix

from rrmf import polynomials
from rrmf.catalog import quintic_no_cancellation
from rrmf.construct import make_spatial_family
from rrmf.hodograph import GeneratorAnalysis, hodograph_of
from rrmf.indicatrix import han_fraction
from rrmf.polynomials import (ComplexPoly, QuatPoly, RealPoly, _embedding,
                              gcd_complex, gcd_real)
from rrmf.quaternions import J, Quaternion
from rrmf.scalars import ComplexScalar, Scalar

from conftest import (coprime_qpoly, nonzero_qpoly, nonzero_quat, norm_poly,
                      rand_scalar)

sympy = pytest.importorskip("sympy")

XI = sympy.Symbol("xi")


def _field(*generators):
    """(sympy domain, sqrt(15) in it or 0, i in it or None)."""
    domain = sympy.QQ.algebraic_field(*generators) if generators else sympy.QQ
    root = domain.from_sympy(sympy.sqrt(15)) if sympy.sqrt(15) in generators else 0
    imag = domain.from_sympy(sympy.I) if sympy.I in generators else None
    return domain, root, imag


# sqrt_base -> the real field and its extension by i
DOMAINS = {0: _field(), 15: _field(sympy.sqrt(15))}
COMPLEX_DOMAINS = {0: (sympy.QQ_I, 0, sympy.QQ_I.from_sympy(sympy.I)),
                   15: _field(sympy.sqrt(15), sympy.I)}
GAUSSIAN = COMPLEX_DOMAINS[0]


def to_sympy_poly(p, field):
    """p as a sympy Poly over the field (domain, sqrt(15), i) holding its coefficients."""
    domain, root, imag = field

    def rational(f):
        return domain.convert_from(sympy.QQ(f.numerator, f.denominator), sympy.QQ)

    def scalar(s):
        return rational(s.a) + root * rational(s.b)

    coeffs = [scalar(c.re) + imag * scalar(c.im) if isinstance(c, ComplexScalar)
              else scalar(c) for c in reversed(p.coeffs)]
    return sympy.Poly.from_list(coeffs, XI, domain=domain)


def rand_real(rng, degree, base):
    while True:
        p = RealPoly([rand_scalar(rng, base) for _ in range(degree + 1)])
        if not p.is_zero():
            return p


def rand_complex(rng, degree, base=0):
    while True:
        p = ComplexPoly([ComplexScalar(rand_scalar(rng, base), rand_scalar(rng, base))
                         for _ in range(degree + 1)])
        if not p.is_zero():
            return p


def exact_degree(draw, rng, degree, *args):
    while True:
        p = draw(rng, degree, *args)
        if p.degree() == degree:
            return p


@pytest.mark.parametrize("base", sorted(DOMAINS))
def test_real_gcd_and_divmod_match_sympy(rng, base):
    field = DOMAINS[base]
    for _ in range(15):
        common = rand_real(rng, rng.randint(0, 2), base)
        a = common * rand_real(rng, rng.randint(0, 3), base)
        b = common * rand_real(rng, rng.randint(0, 3), base)
        sa, sb = to_sympy_poly(a, field), to_sympy_poly(b, field)
        assert to_sympy_poly(gcd_real(a, b), field) == sympy.gcd(sa, sb).monic()
        divisor = rand_real(rng, rng.randint(0, 3), base)
        q, r = a.divmod(divisor)
        sq, sr = sympy.div(sa, to_sympy_poly(divisor, field))
        assert (to_sympy_poly(q, field), to_sympy_poly(r, field)) == (sq, sr)


def test_complex_gcd_matches_sympy(rng):
    for _ in range(20):
        common = rand_complex(rng, rng.randint(0, 2))
        a = common * rand_complex(rng, rng.randint(0, 2))
        b = common * rand_complex(rng, rng.randint(0, 2))
        expected = sympy.gcd(to_sympy_poly(a, GAUSSIAN),
                             to_sympy_poly(b, GAUSSIAN)).monic()
        assert to_sympy_poly(gcd_complex(a, b), GAUSSIAN) == expected


@pytest.mark.parametrize("base", sorted(DOMAINS))
def test_han_fraction_matches_sympy_cancel(rng, base):
    field = DOMAINS[base]
    cancelled = 0
    for k in range(10):
        if k % 2:
            a = coprime_qpoly(rng, rng.randint(1, 3), base)
        else:
            # c(1 + j xi) has a vanishing indicatrix, so the Han fraction
            # of c(1 + j xi) delta is that of delta: sigma's factor
            # 1 + xi^2 cancels
            c = nonzero_quat(rng, base)
            delta = ComplexPoly([ComplexScalar(rand_scalar(rng, base), rand_scalar(rng, base))
                                 for _ in range(rng.randint(1, 2))] + [1])
            a = QuatPoly([c, c * J]) * delta.as_quat()
        u, v, p, q = (to_sympy_poly(part, field) for part in a.components())
        num = u * v.diff(XI) - u.diff(XI) * v - p * q.diff(XI) + p.diff(XI) * q
        sigma = u ** 2 + v ** 2 + p ** 2 + q ** 2
        expected_num, expected_den = num.cancel(sigma, include=True)
        lead = expected_den.LC()
        han = han_fraction(a)
        assert to_sympy_poly(han.num, field) == expected_num.quo_ground(lead)
        assert to_sympy_poly(han.den, field) == expected_den.monic()
        cancelled += han.den.degree() < norm_poly(a).degree()
    assert cancelled >= 5


def _planted_pairs(rng, draw, base, count):
    """(a, b) pairs up to degree 24: a planted repeated factor f^2 g, a
    constant gcd, and a common factor that leaves one cofactor constant."""
    pairs = []
    for k in range(count):
        f = exact_degree(draw, rng, rng.randint(1, 3), base)
        g = exact_degree(draw, rng, rng.randint(0, 3), base)
        if k % 3 == 0:
            common = f * f * g
            pairs.append((common * draw(rng, rng.randint(4, 12), base),
                          common * f * draw(rng, rng.randint(0, 9), base)))
        elif k % 3 == 1:
            pairs.append((exact_degree(draw, rng, rng.randint(12, 24), base),
                          exact_degree(draw, rng, rng.randint(8, 24), base)))
        else:
            common = f * g * exact_degree(draw, rng, rng.randint(6, 12), base)
            pairs.append((common * draw(rng, rng.randint(0, 8), base),
                          common.scale(rand_nonzero(rng, base))))
    return pairs


def rand_nonzero(rng, base):
    while True:
        s = rand_scalar(rng, base)
        if not s.is_zero():
            return s


@pytest.mark.parametrize("base", sorted(DOMAINS))
def test_real_kernel_matches_sympy_to_degree_24(rng, base):
    field = DOMAINS[base]
    pairs = _planted_pairs(rng, rand_real, base, 9)
    assert max(max(a.degree(), b.degree()) for a, b in pairs) >= 20
    for a, b in pairs:
        sa, sb = to_sympy_poly(a, field), to_sympy_poly(b, field)
        assert to_sympy_poly(a * b, field) == sa * sb
        expected = sympy.gcd(sa, sb).monic()
        assert to_sympy_poly(gcd_real(a, b), field) == expected
        assert to_sympy_poly(gcd_real(b, a), field) == expected
        third = exact_degree(rand_real, rng, rng.randint(1, 6), base) * gcd_real(a, b)
        assert to_sympy_poly(gcd_real(a, b, third), field) == sympy.gcd(
            expected, to_sympy_poly(third, field)).monic()
        for divisor in (b, exact_degree(rand_real, rng, rng.randint(0, 10), base)):
            q, r = a.divmod(divisor)
            sq, sr = sympy.div(sa, to_sympy_poly(divisor, field))
            assert (to_sympy_poly(q, field), to_sympy_poly(r, field)) == (sq, sr)


@pytest.mark.parametrize("base", sorted(COMPLEX_DOMAINS))
def test_complex_kernel_matches_sympy_to_degree_24(rng, base):
    field = COMPLEX_DOMAINS[base]
    for a, b in _planted_pairs(rng, rand_complex, base, 6 if base else 9):
        sa, sb = to_sympy_poly(a, field), to_sympy_poly(b, field)
        assert to_sympy_poly(a * b, field) == sa * sb
        expected = sympy.gcd(sa, sb).monic()
        assert to_sympy_poly(gcd_complex(a, b), field) == expected
        for divisor in (b, exact_degree(rand_complex, rng, rng.randint(0, 10), base)):
            q, r = a.divmod(divisor)
            sq, sr = sympy.div(sa, to_sympy_poly(divisor, field))
            assert (to_sympy_poly(q, field), to_sympy_poly(r, field)) == (sq, sr)


def _sympy_quaternion(a, field):
    """A as a sympy Quaternion of polynomial expressions in xi."""
    return sympy.Quaternion(*(to_sympy_poly(c, field).as_expr() for c in a.components()))


@pytest.mark.parametrize("base", sorted(DOMAINS))
def test_hodograph_matches_sympy_quaternion_products(rng, base):
    field = DOMAINS[base]
    for _ in range(6):
        a = nonzero_qpoly(rng, rng.randint(0, 4), base)
        qa = _sympy_quaternion(a, field)
        image = qa * sympy.Quaternion(0, 1, 0, 0) * sympy.conjugate(qa)
        h = hodograph_of(a)
        assert sympy.expand(image.a) == 0
        for mine, theirs in zip((h.xp, h.yp, h.zp, h.sigma),
                                (image.b, image.c, image.d, qa.norm() ** 2)):
            assert sympy.expand(to_sympy_poly(mine, field).as_expr() - theirs) == 0


# -- the prime image -------------------------------------------------------

# None: the short coefficients of conftest.rand_scalar; 100: numerators and
# denominators of up to 100 digits
SIZES = (None, 100)


def sized_scalar(rng, base, digits):
    if digits is None:
        return rand_scalar(rng, base)

    def part():
        return Fraction(rng.randrange(-10 ** digits, 10 ** digits),
                        rng.randrange(1, 10 ** digits))

    return Scalar(part(), part(), base) if base and rng.random() < 0.5 else Scalar(part())


def sized_poly(rng, cls, degree, base, digits):
    """A polynomial of kind cls and exact degree with sized coefficients,
    over the base itself below its leading coefficient, so that the prime
    of that base reduces it even with a new leading coefficient."""
    while True:
        coeffs = [cls.ring.from_parts([sized_scalar(rng, base, digits)
                                       for _ in range(cls.ring.width)])
                  for _ in range(degree + 1)]
        if coeffs[-1] and cls(coeffs[:-1]).d == base:
            return cls(coeffs)


def _record_screens(monkeypatch) -> list:
    """The result of every images_coprime call, in order."""
    results = []
    original = polynomials.images_coprime

    def recorded(*args):
        results.append(original(*args))
        return results[-1]

    monkeypatch.setattr(polynomials, "images_coprime", recorded)
    return results


@pytest.mark.parametrize("digits", SIZES)
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("base", [0, 15])
def test_screened_gcds_match_sympy(rng, monkeypatch, base, kind, digits):
    cls, gcd, field = ((RealPoly, gcd_real, DOMAINS[base]) if kind == "real"
                       else (ComplexPoly, gcd_complex, COMPLEX_DOMAINS[base]))
    prime = _embedding(cls.ring.width, base)[0]
    screens = _record_screens(monkeypatch)
    # sympy's field arithmetic is slow on long coefficients: one round of those
    for _ in range(3 if digits is None else 1):
        a, b = (sized_poly(rng, cls, rng.randint(1, 4), base, digits) for _ in range(2))
        common = sized_poly(rng, cls, rng.randint(1, 2), base, digits)
        lead = [cls(list(f.coeffs[:-1]) + [prime * rng.randint(1, 9)]) for f in (a, b)]
        # the case, and whether the image decides it
        for case, decides in (((a, b), True), ((common * a, common * b), False),
                              (lead, False), ((a, a + prime), False)):
            screens.clear()
            result = gcd(*case)
            assert screens == [decides]
            expected = sympy.gcd(*(to_sympy_poly(f, field) for f in case)).monic()
            assert to_sympy_poly(result, field) == expected
            if decides:
                assert expected.degree() == 0


def _sympy_facts(a, base):
    """coprime, chi, in F0, planar and sigma | rho for A, from sympy."""
    real, complex_field = DOMAINS[base], COMPLEX_DOMAINS[base]
    u, v, p, q = (to_sympy_poly(c, real) for c in a.components())
    coprime = functools.reduce(sympy.gcd, (u, v, p, q)).degree() == 0
    cu, cv, cp, cq = a.components()
    chi = sympy.gcd(to_sympy_poly(ComplexPoly.from_parts(cu, cv), complex_field),
                    to_sympy_poly(ComplexPoly.from_parts(cp, -cq), complex_field)).monic()
    du, dv, dp, dq = (f.diff(XI) for f in (u, v, p, q))
    inner = -(dv * u - du * v - dq * p + dp * q)
    # A i A*; its coefficient vectors as the rows of a matrix over the field
    images = [f.rep.to_list() for f in (u * u + v * v - p * p - q * q,
                                         2 * (u * q + v * p), 2 * (v * q - u * p))]
    n = max(map(len, images))
    domain = real[0]
    columns = [[domain.zero] * (n - len(f)) + f for f in images]
    rank = DomainMatrix([list(row) for row in zip(*columns)], (n, 3), domain).rank()
    sigma = u * u + v * v + p * p + q * q
    r1 = u * dp - du * p + v * dq - dv * q
    r2 = u * dq - du * q - v * dp + dv * p
    divisible = (r1 * r1 + r2 * r2).rem(sigma).is_zero
    return coprime, chi, coprime and inner.is_zero, rank <= 2, divisible


def sized_quat(rng, base, digits):
    while True:
        q = Quaternion(*(sized_scalar(rng, base, digits) for _ in range(4)))
        if q:
            return q


@pytest.mark.parametrize("digits", SIZES)
@pytest.mark.parametrize("base", [0, 15])
def test_screened_facts_match_sympy(rng, base, digits):
    prime = _embedding(2, base)[0]
    c = sized_quat(rng, base, digits)
    b = sized_poly(rng, QuatPoly, 2, base, digits)
    # degrees stay low: sympy's gcds over Q(sqrt 15)(i) are slow on long coefficients
    gamma = sized_poly(rng, ComplexPoly, 1, base, digits)
    pairs = [(sized_scalar(rng, base, digits), sized_scalar(rng, base, digits))
             for _ in range(3)]
    cases = {
        "random": b,
        "shared real factor": RealPoly([rng.randint(-3, 3), 1]).as_quat() * b,
        "complex right factor": sized_poly(rng, QuatPoly, 1, base, digits) * gamma.as_quat(),
        "leading coefficient divisible by the prime": QuatPoly(
            list(b.coeffs[:-1]) + [Quaternion(*(prime * rng.randint(1, 9) for _ in range(4)))]),
        "F0 member": make_spatial_family(3).left_scale(c),
        "planar": QuatPoly([Quaternion(x, 0, y, 0) for x, y in pairs]).left_scale(c),
        "sigma divides rho": quintic_no_cancellation().generator.left_scale(c),
    }
    facts = {}
    for name, a in cases.items():
        analysis = GeneratorAnalysis.of(a)
        coprime, chi, in_f0, planar, divisible = facts[name] = _sympy_facts(a, base)
        assert analysis.coprime is coprime, name
        assert to_sympy_poly(analysis.core.factor, COMPLEX_DOMAINS[base]) == chi, name
        assert analysis.in_f0 is in_f0, name
        assert analysis.planar is planar, name
        assert analysis.equal_degree is divisible, name
    # each case reaches the exact kernel for the fact it was built for
    lead = GeneratorAnalysis.of(cases["leading coefficient divisible by the prime"]).image
    assert not lead.coprime() and not lead.split_coprime()
    assert not facts["shared real factor"][0]
    assert facts["complex right factor"][1].degree() >= 1
    assert facts["F0 member"][2] and not facts["F0 member"][3]
    assert facts["planar"][3]
    assert facts["sigma divides rho"][4]
    assert facts["random"][:4] == (True, 1, False, False)
