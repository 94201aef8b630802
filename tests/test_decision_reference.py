"""The certificate search against sympy's decision of RRMF membership.

tests/decision_reference.py decides each generator over Q by sympy
alone, and the library must agree: search_certificate builds a member's
certificate at the degree of the oracle's gamma, the same gamma once
made monic, and finds no certificate of degree <= 20 for a non-member
(decision_box.disagreement).  The pool documents over Q reach members
in F0 and with certificates of degree 1 to 3, and non-members with
irrational residues; the five generators of
test_sympy_oracle.CRITERION_NON_MEMBERS (ROADMAP item 11) are
non-members with residues +-1/3.  Each step of the oracle is checked on
a fraction built to reach it.  tests/decision_box.py runs the same
comparison on the degree-1 box and a seeded degree-2 sample.
"""

import collections
import json
from pathlib import Path

import sympy
from sympy import QQ, QQ_I, Poly

from rrmf.documents import parse_document

from decision_box import components, disagreement
from decision_reference import XI, decide, decide_fraction, parts
from test_sympy_oracle import CRITERION_NON_MEMBERS, _quat_rows

POOL = Path(__file__).resolve().parents[1] / "bench" / "data" / "pool.json"


def test_pool_documents_over_q_agree_with_the_oracle():
    with open(POOL, encoding="utf-8") as fh:
        docs = [parse_document(item["doc"]) for item in json.load(fh)["items"]]
    # the fixtures appear with and without their certificates: each generator once
    generators = list({repr(doc.poly): doc.poly for doc in docs if not doc.sqrt_base}.values())
    kinds = collections.Counter()
    for a in generators:
        decision = decide(components(a))
        assert disagreement(a, decision) is None, a
        degree = decision.gamma.degree() if decision.member else None
        kinds[decision.kind, degree] += 1
    assert kinds == {("in-F0", 0): 16, ("certificate", 1): 34, ("certificate", 2): 29,
                     ("certificate", 3): 3, ("residue-not-in-Q(i)", None): 32}, kinds


def test_criterion_non_members_are_non_members():
    for rows in CRITERION_NON_MEMBERS:
        a = _quat_rows(rows)
        decision = decide(components(a))
        assert decision[:2] == (False, "residue-not-integer"), rows
        assert disagreement(a, decision) is None, rows


def _han_fraction(gamma) -> tuple[Poly, Poly]:
    """(ab' - a'b)/(a^2 + b^2) for gamma = a + bi, cancelled, D monic."""
    a, b = parts(Poly(gamma, XI, domain=QQ_I))
    P, D = (a * b.diff(XI) - a.diff(XI) * b).cancel(a ** 2 + b ** 2, include=True)
    return P.quo_ground(D.LC()), D.monic()


def test_oracle_steps():
    i = sympy.I
    gamma = (XI - i) * (XI - 1 - 2 * i) ** 2 * (XI + 3 - i / 2) ** 3
    member = decide_fraction(*_han_fraction(gamma))
    assert member[:2] == (True, "certificate")
    assert member.gamma == Poly(gamma, XI, domain=QQ_I)
    # the conjugate certificate has the negated fraction
    P, D = _han_fraction(gamma)
    assert decide_fraction(-P, D).gamma == Poly(gamma.subs(i, -i), XI, domain=QQ_I)
    cases = {
        "in-F0": (0, 1),
        "odd-or-constant-denominator": (1, XI + 1),
        "improper": (XI ** 2, XI ** 2 + 1),
        "repeated-pole": (1, (XI ** 2 + 1) ** 2),
        # residues +-1/(2 sqrt(-2)) at +-sqrt(-2)
        "residue-not-in-Q(i)": (1, XI ** 2 + 2),
        # residues +-1/6i at +-i: 2i t = +-1/3
        "residue-not-integer": (sympy.Rational(1, 3), XI ** 2 + 1),
    }
    for kind, (num, den) in cases.items():
        decision = decide_fraction(Poly(num, XI, domain=QQ), Poly(den, XI, domain=QQ))
        assert decision.kind == kind and decision.member is (kind == "in-F0"), kind
    assert decide_fraction(Poly(XI, XI, domain=QQ), Poly(1, XI, domain=QQ)).kind == \
        "odd-or-constant-denominator"
