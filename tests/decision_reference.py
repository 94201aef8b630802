"""RRMF membership over Q decided by sympy alone, as an oracle for the tests.

A generator A = u + vi + pj + qk with rational components has a rational
RMF exactly when Han's identity (a'b - ab') sigma = <A'i, A> (a^2 + b^2)
holds for coprime real a and b, where <A'i, A> = -(uv' - u'v - pq' + p'q).
With gamma = a + bi, (ab' - a'b)/(a^2 + b^2) is Im(gamma'/gamma): it has a
simple pole at each root z of gamma, with residue m/2i for the
multiplicity m of z, and one at conj(z) with residue -m/2i.  So decide
cancels the Han fraction P/D = (uv' - u'v - pq' + p'q)/sigma, with D
monic, and reads it in four steps:

1. P = 0 puts A in F0: a member, with gamma = 1;
2. an odd or constant D, deg P >= deg D, or a D with a repeated root
   makes A a non-member;
3. the roots of R(t) = res_xi(D, P - t D') are the residues P(z)/D'(z) at
   the roots z of D (Rothstein 1977, Trager 1976).  Factored over Q(i),
   each factor of R must be linear, with its root t at 2i t = +-m for a
   positive integer m;
4. gamma = prod_m gcd(D, 2iP - mD')^m, made monic, must have coprime
   parts and pass Han's identity, both checked by sympy products.

A test that fails makes A a non-member, and the Decision names it.  The
module reads rationals only and imports nothing from rrmf
(test_hygiene.py checks that), so it decides without the library's
prime images, packed kernels or search.  tests/test_decision_reference.py
compares the library with it in tier-1, and tests/decision_box.py on the
degree-1 box and a seeded degree-2 sample.
"""

from typing import NamedTuple, Optional

import sympy
from sympy import QQ, QQ_I, Poly

XI, T = sympy.symbols("xi t")
_TWO_I = QQ_I(0, 2)


class Decision(NamedTuple):
    """The verdict, the step that decided it, and the monic certificate
    gamma = a + bi over Q(i) of a member."""

    member: bool
    kind: str
    gamma: Optional[Poly] = None


def real_poly(coefficients) -> Poly:
    """The polynomial over Q with these rational coefficients, in ascending order."""
    return Poly(list(reversed(coefficients)) or [0], XI, domain=QQ)


def decide_fraction(P: Poly, D: Poly) -> Decision:
    """Steps 1 to 3 on a reduced fraction P/D over Q with D monic, and
    the gamma of step 4, not yet checked."""
    if P.is_zero:
        return Decision(True, "in-F0", Poly(1, XI, domain=QQ_I))
    if D.degree() == 0 or D.degree() % 2:
        return Decision(False, "odd-or-constant-denominator")
    if P.degree() >= D.degree():
        return Decision(False, "improper")
    dD = D.diff(XI)
    if D.gcd(dD).degree():
        return Decision(False, "repeated-pole")
    R = Poly(sympy.resultant(D.as_expr(), P.as_expr() - T * dD.as_expr(), XI), T,
             domain=QQ_I)
    multiplicities = set()
    for factor, _ in R.factor_list()[1]:
        if factor.degree() != 1:
            return Decision(False, "residue-not-in-Q(i)")
        # 2i t at the root t of the linear factor
        m = -_TWO_I * factor.rep.to_list()[1] / factor.rep.to_list()[0]
        if m.y or not m.x or m.x.denominator != 1:
            return Decision(False, "residue-not-integer")
        if m.x > 0:
            multiplicities.add(int(m.x))
    P, D, dD = (f.set_domain(QQ_I) for f in (P, D, dD))
    gamma = Poly(1, XI, domain=QQ_I)
    for m in sorted(multiplicities):
        gamma *= D.gcd(P.mul_ground(_TWO_I) - dD.mul_ground(QQ_I(m))) ** m
    return Decision(True, "certificate", gamma.monic())


def decide(components) -> Decision:
    """Membership of the generator with these four ascending lists of
    rational coefficients (of u, v, p and q), by steps 1 to 4."""
    u, v, p, q = map(real_poly, components)
    num = u * v.diff(XI) - u.diff(XI) * v - p * q.diff(XI) + p.diff(XI) * q
    sigma = u ** 2 + v ** 2 + p ** 2 + q ** 2
    P, D = num.cancel(sigma, include=True)
    decision = decide_fraction(P.quo_ground(D.LC()), D.monic())
    if not decision.member:
        return decision
    a, b = parts(decision.gamma)
    if a.gcd(b).degree():
        return Decision(False, "parts-not-coprime")
    # (a'b - ab') sigma = <A'i, A> (a^2 + b^2), with <A'i, A> = -num
    if not ((a.diff(XI) * b - a * b.diff(XI)) * sigma + num * (a ** 2 + b ** 2)).is_zero:
        return Decision(False, "han-identity-fails")
    return decision


def parts(gamma: Poly) -> tuple[Poly, Poly]:
    """The real polynomials (a, b) of gamma = a + bi over Q(i)."""
    rows = gamma.rep.to_list()
    return (Poly([c.x for c in rows], XI, domain=QQ),
            Poly([c.y for c in rows], XI, domain=QQ))
