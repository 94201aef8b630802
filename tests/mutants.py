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
run them.
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
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
