"""The dense-polynomial core checked against sympy as an independent oracle.

Seeded random operands over Q, Q(sqrt(15)) and Q(i), with a planted
common factor so that the gcds are not trivially 1; and the reduced Han
fraction of seeded generators, on which the certificate construction
rests, against sympy's cancellation of the fraction built from the
components.
"""

import pytest

from rrmf.indicatrix import han_fraction
from rrmf.polynomials import ComplexPoly, QuatPoly, RealPoly, gcd_complex, gcd_real
from rrmf.quaternions import J
from rrmf.scalars import ComplexScalar

from conftest import coprime_qpoly, nonzero_quat, rand_scalar

sympy = pytest.importorskip("sympy")

XI = sympy.Symbol("xi")
Q_SQRT15 = sympy.QQ.algebraic_field(sympy.sqrt(15))
# sqrt_base -> (sympy domain, u): each coefficient is x + y*u with x, y rational
DOMAINS = {0: (sympy.QQ, sympy.QQ.zero),
           15: (Q_SQRT15, Q_SQRT15.from_sympy(sympy.sqrt(15)))}
GAUSSIAN = (sympy.QQ_I, sympy.QQ_I.from_sympy(sympy.I))


def to_sympy_poly(p, field):
    """p as a sympy Poly over the field (domain, u) that holds its coefficients."""
    domain, unit = field

    def rational(f):
        return domain.convert_from(sympy.QQ(f.numerator, f.denominator), sympy.QQ)

    parts = [(c.re.a, c.im.a) if isinstance(c, ComplexScalar) else (c.a, c.b)
             for c in reversed(p.coeffs)]
    return sympy.Poly.from_list([rational(x) + unit * rational(y) for x, y in parts],
                                XI, domain=domain)


def rand_real(rng, degree, base):
    while True:
        p = RealPoly([rand_scalar(rng, base) for _ in range(degree + 1)])
        if not p.is_zero():
            return p


def rand_complex(rng, degree):
    while True:
        p = ComplexPoly([ComplexScalar(rand_scalar(rng), rand_scalar(rng))
                         for _ in range(degree + 1)])
        if not p.is_zero():
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
