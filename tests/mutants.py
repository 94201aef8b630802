"""Soundness mutants: each proof bound, weakened in a copy of src/, must
fail the tests that pin it.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

Each entry of MUTANTS names a file under src/, an expression that occurs
in it exactly once, a weaker expression and the pytest node ids that pin
the bound.  For each entry the runner copies src/ to a temporary
directory, replaces the expression there and runs the node ids with
PYTHONPATH set to the copy.  pytest must exit 1: the tests ran, and one
failed.  An entry whose expression does not occur exactly once is stale
and fails the run, as does any other exit code.  src/ itself is never
written.  The named tests pass on the unmutated tree: the library tests
run them.  EQUIVALENT lists the weakenings that no input can tell from
the library, each with the argument why; they are not run, but each
expression must still occur exactly once, or the run fails as stale.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file under src/, expression, weaker expression, pytest node ids)
MUTANTS = (
    # verify_han's zero test takes 2^k past B = 16 M_A^2 M_c^2; k from
    # 4 M_A M_c puts 2^k on a root of L
    ("rrmf/indicatrix.py", "16 * m_a * m_a * m_c * m_c", "4 * m_a * m_c",
     ("tests/test_indicatrix.py::test_zero_test_bound_passes_a_root_of_the_scaled_family",)),
    # chi_degree's further primes multiply past B^2 with p, not past B
    ("rrmf/polynomials.py", "bound = na ** m * nb ** n // self.p",
     "bound = math.isqrt(na ** m * nb ** n) // self.p",
     ("tests/test_analysis.py::test_chi_degree_moduli_pass_the_squared_bound",)),
    # the slot widths of the packed kernel keep a sign bit: for forms, and
    # for products
    ("rrmf/scalars.py", "_form_weight(forms, len(comps), n)).bit_length() + 1",
     "_form_weight(forms, len(comps), n)).bit_length()",
     ("tests/test_acceptance.py::test_criterion_5_identity_suite",)),
    ("rrmf/scalars.py", "* _top(x) * _top(y)).bit_length() + 1",
     "* _top(x) * _top(y)).bit_length()",
     ("tests/test_acceptance.py::test_criterion_1_quintic_left_cancellation",)),
    # the split images' gcd proves a degree only where both keep theirs
    ("rrmf/polynomials.py",
     "[len(f) - 1 for f in split] != [max(self.degrees[:2]), max(self.degrees[2:])]",
     "False", ("tests/test_analysis.py::test_chi_degree_past_unlucky_primes",)),
    # deg chi is the least of the degrees at the prime and over Z/N
    ("rrmf/hodograph.py", "min(k, degree)", "max(k, degree)",
     ("tests/test_analysis.py::test_chi_degree_past_unlucky_primes",)),
    # a failed split screen (None) is no proof of chi = 1
    ("rrmf/hodograph.py", "if self._split_degree == 0:", "if not self._split_degree:",
     ("tests/test_analysis.py::test_chi_degree_past_unlucky_primes",)),
    # a constant image gcd proves coprimality only if one operand keeps its degree
    ("rrmf/polynomials.py", "any(len(f) == n + 1 > 0 for f, n in zip(images, degrees))",
     "True", ("tests/test_sympy_oracle.py::test_screened_gcds_match_sympy",)),
    # the image of sigma screens the equal-degree criterion only at its full degree
    ("rrmf/hodograph.py", "len(forms[0]) == 2 * self.poly.degree() + 1", "True",
     ("tests/test_indicatrix.py::test_rho_eta_matches_product_formula",)),
    # the equal-degree form that the image screen and the exact check share
    # is sigma'^2 + 4 <A'i, A>^2 = 4 eta
    ("rrmf/hodograph.py", "_FOUR_ETA = ((1, _DU, _DU), (4, _V, _V))",
     "_FOUR_ETA = ((1, _DU, _DU), (2, _V, _V))",
     ("tests/test_indicatrix.py::test_rho_eta_matches_product_formula",)),
    # more than 2 max_degree poles prove that no certificate exists
    ("rrmf/classify.py", "len(image[1]) - 1 > 2 * max_degree",
     "len(image[1]) - 1 >= 2 * max_degree",
     ("tests/test_acceptance.py::test_criterion_8_search",)),
    # the parts of an image-built certificate must be proven coprime
    ("rrmf/classify.py", " or len(_gcd_mod([two_bi, plus], p)) > 1", "",
     ("tests/test_search_image.py::test_parts_sharing_a_factor_are_not_returned",)),
    # rational reconstruction proposes only fractions within its bound
    ("rrmf/polynomials.py", "abs(t1) <= bound and ", "",
     ("tests/test_search_image.py::test_long_coefficients_fall_through",)),
)

# (file under src/, expression, weaker expression, why no input tells them apart)
EQUIVALENT = (
    ("rrmf/indicatrix.py", "16 * m_a * m_a * m_c * m_c", "8 * m_a * m_a * m_c * m_c",
     "B = 16 M_A^2 M_c^2 carries slack from M = n^2 (s + 1) c: a polynomial f "
     "with n coefficients has ||f|| <= M/n and ||f'|| <= (n - 1) M/n^2, so "
     "||sigma|| <= 4 M_A^2/n_A^2, ||<A'i, A>|| <= 4 (n_A - 1) M_A^2/n_A^2, "
     "||a'b - ab'|| <= 2 (n_c - 1) M_c^2/n_c^2 and ||a^2 + b^2|| <= 2 M_c^2/n_c^2; "
     "then ||L|| <= 8 M_A^2 M_c^2 (n_A + n_c - 2)/(n_A^2 n_c^2) <= 2 M_A^2 M_c^2 = B/8, "
     "and every 2^k past B/2 exceeds each part of each coefficient of L, so the "
     "zero test decides exactly as before"),
)


def run_mutant(file: str, expression: str, weaker: str, tests) -> str:
    """'killed', 'survived', 'stale' or 'error (exit n)' for one entry."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / file
        text = target.read_text(encoding="utf-8")
        if text.count(expression) != 1:
            return "stale"
        target.write_text(text.replace(expression, weaker), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]),
            PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run([sys.executable, "-c", "import rrmf; print(rrmf.__file__)"],
                               env=env, capture_output=True, text=True).stdout.strip()
        if not where.startswith(str(src)):
            return f"error (rrmf imported from {where or 'nowhere'})"
        code = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *tests], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
    return {0: "survived", 1: "killed"}.get(code, f"error (exit {code})")


def main() -> int:
    start, failed = time.perf_counter(), 0
    for file, expression, weaker, tests in MUTANTS:
        began = time.perf_counter()
        verdict = run_mutant(file, expression, weaker, tests)
        failed += verdict != "killed"
        print(f"{verdict}: {file}: {expression!r} -> {weaker!r} "
              f"({time.perf_counter() - began:.1f} s)", flush=True)
    # an equivalent mutant is not run; its expression must still occur once
    for file, expression, weaker, argument in EQUIVALENT:
        stale = (ROOT / "src" / file).read_text(encoding="utf-8").count(expression) != 1
        failed += stale
        print(f"{'stale' if stale else 'equivalent'}: {file}: {expression!r} -> {weaker!r}: "
              f"{argument}", flush=True)
    print(f"{len(MUTANTS) + len(EQUIVALENT) - failed} of {len(MUTANTS) + len(EQUIVALENT)} "
          f"mutants killed or recorded equivalent in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
