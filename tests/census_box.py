"""The full box of degree-1 generators, classified; run as a script.

    PYTHONPATH=src python tests/census_box.py

Every A = A_0 + A_1 xi with entries in {-1, 0, 1} and A_1 != 0, 6480
generators, is classified with a certificate search of degree 4.  A
degree-1 generator gives a PH cubic, and no spatial PH cubic has a
rational RMF (Han 2008, CAGD 25), so no coprime spatial generator may
be proven; the Frenet frame of a planar PH curve is rational, so every
coprime planar one must be, and the certificate search must build a
certificate of each with coprime parts (require_certificate).  On every
generator, the primitivity and core degree of the verdict, which read
deg chi as the prime images prove it, must be those of core_of, which
forms chi.  The script prints the counts and exits nonzero on the first
generator that breaks a rule.  pytest does not collect it:
tests/test_census.py checks a seeded sample of the same box against sympy.
"""

import itertools
import sys
import time

from rrmf.classify import MembershipStatus, classify, search_certificate
from rrmf.hodograph import core_of
from rrmf.indicatrix import require_certificate
from rrmf.polynomials import QuatPoly
from rrmf.quaternions import Quaternion


def main() -> int:
    start = time.perf_counter()
    counts = {"spatial": 0, "planar": 0, "not coprime": 0}
    for entries in itertools.product((-1, 0, 1), repeat=8):
        if not any(entries[4:]):
            continue
        a = QuatPoly([Quaternion(*entries[:4]), Quaternion(*entries[4:])])
        verdict = classify(a, search_degree=4)
        core = core_of(a)
        if (verdict.primitive, verdict.core_degree) != (core.factor.degree() == 0,
                                                        core.core.degree()):
            print(f"generator {entries}: primitive {verdict.primitive}, core degree "
                  f"{verdict.core_degree}, but core_of gives {core}", file=sys.stderr)
            return 1
        if not verdict.in_widetilde:
            counts["not coprime"] += 1
            continue
        kind = "planar" if verdict.planar else "spatial"
        counts[kind] += 1
        proven = verdict.membership.status is MembershipStatus.PROVEN
        if proven is not verdict.planar:
            print(f"{kind} generator {entries}: {verdict.membership}", file=sys.stderr)
            return 1
        if verdict.planar:
            # the search builds a certificate of each member, with coprime parts
            certificate = search_certificate(a, 4)
            if certificate is None:
                print(f"planar generator {entries}: no certificate found", file=sys.stderr)
                return 1
            require_certificate(*certificate)
    print(", ".join(f"{n} {kind}" for kind, n in counts.items()),
          f"of {sum(counts.values())} in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
