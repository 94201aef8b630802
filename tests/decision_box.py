"""The certificate search against sympy's decision; run as a script.

    PYTHONPATH=src python tests/decision_box.py

Every coprime spatial generator of the degree-1 box (A = A_0 + A_1 xi
with entries in {-1, 0, 1} and A_1 != 0) and of a seeded degree-2
sample (the first 400 draws of random.Random(5), as in
tests/test_analysis.py) is decided by tests/decision_reference.py, and
the library must agree on each: search_certificate builds a member's
certificate at its degree, the oracle's monic gamma, and finds no
certificate of degree <= 20 for a non-member.  No spatial PH cubic has
a rational RMF (Han 2008), so every degree-1 item must be a non-member;
192 of them have rational residues, which a residue screen in F_p
(ROADMAP item 14) cannot rule out.  The script prints the counts by the
step that decided and the time taken, and exits nonzero on the first
disagreement.  pytest does not collect it:
tests/test_decision_reference.py runs the same comparison on the pool
documents over Q in tier-1.
"""

import collections
import itertools
import random
import sys
import time
from typing import Optional

import sympy
from sympy import QQ_I, Poly

from rrmf.classify import search_certificate
from rrmf.hodograph import GeneratorAnalysis
from rrmf.polynomials import QuatPoly, RealPoly
from rrmf.quaternions import Quaternion

from decision_reference import XI, Decision, decide, real_poly

NON_MEMBER_DEGREE = 20
DEGREE_2_DRAWS = 400
RATIONAL_RESIDUES = 192


def components(a: QuatPoly) -> list[list]:
    """The ascending rational coefficients of u, v, p and q of A over Q."""
    if a.d:
        raise ValueError("the decision oracle reads generators over Q only")
    return [[c.a for c in part.coeffs] for part in a.components()]


def library_gamma(certificate: tuple[RealPoly, RealPoly]) -> Poly:
    """gamma = a + bi of the library's certificate (a, b), made monic."""
    a, b = (real_poly([c.a for c in part.coeffs]).as_expr() for part in certificate)
    return Poly(a + sympy.I * b, XI, domain=QQ_I).monic()


def disagreement(a: QuatPoly, decision: Decision) -> Optional[str]:
    """None if the library's search agrees with the oracle's decision of A,
    else what differs."""
    if decision.member:
        found = search_certificate(a, decision.gamma.degree())
        if found is None:
            return f"a member with gamma = {decision.gamma.as_expr()}, but the search finds none"
        if library_gamma(found) != decision.gamma:
            return (f"a member with gamma = {decision.gamma.as_expr()}, but the search "
                    f"finds {library_gamma(found).as_expr()}")
    elif (found := search_certificate(a, NON_MEMBER_DEGREE)) is not None:
        return f"a non-member by {decision.kind}, but the search finds {found}"
    return None


def _box(entries) -> QuatPoly:
    return QuatPoly([Quaternion(*entries[k:k + 4]) for k in range(0, len(entries), 4)])


def _coprime_spatial(entries_list) -> list[QuatPoly]:
    generators = []
    for entries in entries_list:
        analysis = GeneratorAnalysis.of(_box(entries))
        if analysis.coprime and not analysis.planar:
            generators.append(analysis.poly)
    return generators


def main() -> int:
    sample = random.Random(5)
    draws = ([sample.choice((-1, 0, 1)) for _ in range(12)] for _ in range(DEGREE_2_DRAWS))
    sets = {
        "degree-1 box": _coprime_spatial(
            e for e in itertools.product((-1, 0, 1), repeat=8) if any(e[4:])),
        "degree-2 sample": _coprime_spatial(e for e in draws if any(e[8:])),
    }
    for name, generators in sets.items():
        start = time.perf_counter()
        kinds: collections.Counter = collections.Counter()
        for a in generators:
            decision = decide(components(a))
            kinds[decision.kind] += 1
            if name == "degree-1 box" and decision.member:
                print(f"{name}: spatial cubic {a} decided a member", file=sys.stderr)
                return 1
            if (wrong := disagreement(a, decision)) is not None:
                print(f"{name}: {a}: {wrong}", file=sys.stderr)
                return 1
        print(f"{name}: {len(generators)} coprime spatial items agree,",
              ", ".join(f"{n} {kind}" for kind, n in sorted(kinds.items())),
              f"in {time.perf_counter() - start:.1f} s")
        if name == "degree-1 box" and kinds["residue-not-integer"] != RATIONAL_RESIDUES:
            print(f"{name}: {kinds['residue-not-integer']} items with rational residues, "
                  f"not {RATIONAL_RESIDUES}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
