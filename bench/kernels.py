"""Kernel timings on seeded operands: scalar arithmetic, quaternion products, gcds.

Each figure is the median over a few repeats of the time per call, so
one slow repeat on a shared machine does not move it.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

SCALAR_CALLS = 1000
SCALAR_REPEATS = 5
QUAT_MUL_REPEATS = {4: 15, 8: 9, 16: 5, 32: 3}
GCD_REPEATS = {8: 15, 16: 9, 32: 3}


def _fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 40))


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scalar_timings(rrmf: dict, rng: random.Random) -> dict[str, float]:
    """``scalars.{mul,add,inverse}_us.{base0,base15}``: microseconds per call."""
    Scalar = rrmf["scalars"].Scalar
    out = {}
    for base, tag in ((0, "base0"), (15, "base15")):
        def draw():
            if base:
                return Scalar(_fraction(rng), _fraction(rng), base)
            return Scalar(_fraction(rng))

        xs = [draw() for _ in range(SCALAR_CALLS)]
        ys = [draw() for _ in range(SCALAR_CALLS)]
        for op, fn in (("mul", lambda: [x * y for x, y in zip(xs, ys)]),
                       ("add", lambda: [x + y for x, y in zip(xs, ys)]),
                       ("inverse", lambda: [x.inverse() for x in xs])):
            seconds = _median_time(fn, SCALAR_REPEATS)
            out[f"scalars.{op}_us.{tag}"] = seconds / SCALAR_CALLS * 1e6
    return out


def polynomial_timings(rrmf: dict, rng: random.Random) -> dict[str, float]:
    """``polynomials.quat_mul_ms.degN`` and ``polynomials.gcd_real_ms.degN``."""
    polynomials, Quaternion = rrmf["polynomials"], rrmf["quaternions"].Quaternion
    out = {}
    for degree, repeats in QUAT_MUL_REPEATS.items():
        a, b = (polynomials.QuatPoly([Quaternion(*(_fraction(rng) for _ in range(4)))
                                      for _ in range(degree + 1)]) for _ in range(2))
        out[f"polynomials.quat_mul_ms.deg{degree}"] = _median_time(lambda: a * b, repeats) * 1e3
    for degree, repeats in GCD_REPEATS.items():
        a, b = (polynomials.RealPoly([_fraction(rng) for _ in range(degree + 1)])
                for _ in range(2))
        out[f"polynomials.gcd_real_ms.deg{degree}"] = _median_time(
            lambda: polynomials.gcd_real(a, b), repeats) * 1e3
    return out


def kernel_timings(rrmf: dict, seed: int) -> dict[str, float]:
    rng = random.Random(f"kernels:{seed}")
    return {**scalar_timings(rrmf, rng), **polynomial_timings(rrmf, rng)}
