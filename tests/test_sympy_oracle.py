"""The exact kernel checked against sympy as an independent oracle.

Seeded random operands over Q, Q(sqrt(15)), Q(i) and Q(sqrt(15))(i),
with planted common factors (repeated ones too) so that the gcds are not
trivially 1, up to degree 24; the reduced Han fraction of seeded
generators, on which the certificate construction rests, against
sympy's cancellation of the fraction built from the components; and
the hodograph A i A* against sympy's quaternion products.
"""

import pytest

from rrmf.hodograph import hodograph_of
from rrmf.indicatrix import han_fraction
from rrmf.polynomials import ComplexPoly, QuatPoly, RealPoly, gcd_complex, gcd_real
from rrmf.quaternions import J
from rrmf.scalars import ComplexScalar

from conftest import coprime_qpoly, nonzero_qpoly, nonzero_quat, rand_scalar

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
        cancelled += han.den.degree() < a.norm_poly().degree()
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
