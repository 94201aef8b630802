"""Built-in worked curves and the regression battery behind `rrmf paper-examples`.

Three quintic RRMF curves exercise the three cancellation patterns of
the frame condition (left cancellation, none, right cancellation in a
surd field), and the low-degree catalog covers the spatial generators
with vanishing indicatrix.  Every stored value is exact; the battery
recomputes each quantity, reading one hodograph.GeneratorAnalysis per
generator, and compares structurally.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .construct import make_cubic, make_quartic, make_spatial_family
from .hodograph import GeneratorAnalysis
from .indicatrix import verify_han
from .polynomials import ComplexPoly, QuatPoly, RealPoly, gcd_real, reduce_fraction
from .quaternions import Quaternion
from .scalars import Scalar


class WorkedCurve(NamedTuple):
    """A generator with its certificate and the expected exact values."""

    name: str
    generator: QuatPoly
    certificate: tuple[RealPoly, RealPoly]
    hodograph: tuple[RealPoly, RealPoly, RealPoly]
    sigma: RealPoly
    fraction_num: RealPoly        # reduced frame-condition fraction, as printed
    fraction_den: RealPoly
    left_gcd: Optional[RealPoly]  # gcd of numerator and sigma, None when constant
    right_gcd: Optional[RealPoly]


def quintic_left_cancellation() -> WorkedCurve:
    """Certificate of lower degree than sigma: the fraction cancels on the left."""
    gen = QuatPoly.from_components(
        RealPoly([-142, 21, 21]), RealPoly([-63, -21]),
        RealPoly([-34, 42]), RealPoly([94, -42]))
    return WorkedCurve(
        name="quintic-left-cancellation",
        generator=gen,
        certificate=(RealPoly([-2, 1]), RealPoly([-1])),
        hodograph=(RealPoly([14141, 7434, -8610, 882, 441]),
                   RealPoly([-22412, 12012, 420, -1764]),
                   RealPoly([-21500, 14700, 1428, -1764])),
        sigma=RealPoly([325, 126, 21]) * RealPoly([5, -4, 1]) * 21,
        fraction_num=RealPoly([1]),
        fraction_den=RealPoly([5, -4, 1]),
        left_gcd=RealPoly([6825, 2646, 441]),
        right_gcd=None,
    )


def quintic_no_cancellation() -> WorkedCurve:
    """Certificate degree matches sigma: no cancellation on either side."""
    gen = QuatPoly.from_components(
        RealPoly([10, -22, 7]), RealPoly([0, 14, -19]),
        RealPoly([0, 16, -26]), RealPoly([0, 12, -2]))
    return WorkedCurve(
        name="quintic-no-cancellation",
        generator=gen,
        certificate=(RealPoly([10, -22, 27]), RealPoly([0, 14, -19])),
        hodograph=(RealPoly([100, -440, 420, 40, -270]),
                   RealPoly([0, 240, -120, -1080, 960]),
                   RealPoly([0, -320, 1560, -1880, 440])),
        sigma=RealPoly([100, -440, 1220, -1720, 1090]),
        fraction_num=RealPoly([14, -38, 4]),
        fraction_den=RealPoly([10, -44, 122, -172, 109]),
        left_gcd=None,
        right_gcd=None,
    )


def quintic_right_cancellation() -> WorkedCurve:
    """Certificate of higher degree than sigma, over Q(sqrt(15))."""
    gen = QuatPoly.from_components(
        RealPoly([-35, 0, 8]), RealPoly([90, -80, 16]),
        RealPoly([Scalar(0, 3, 15)]), RealPoly([Scalar(0, -6, 15)]))
    return WorkedCurve(
        name="quintic-right-cancellation",
        generator=gen,
        certificate=(RealPoly([-38, 51, -24, 4]), RealPoly([-41, 32, -8])),
        hodograph=(RealPoly([865, -1440, 872, -256, 32]) * 10,
                   RealPoly([Scalar(0, 2, 15), Scalar(0, -1, 15)]) * 480,
                   RealPoly([-29, 32, -8]) * Scalar(0, 30, 15)),
        sigma=RealPoly([25, -16, 4]) * RealPoly([5, -4, 1]) * 80,
        fraction_num=RealPoly([35, -32, 8]),
        fraction_den=RealPoly([125, -180, 109, -32, 4]),
        left_gcd=None,
        right_gcd=RealPoly([25, -16, 4]),
    )


def worked_quintics() -> list[WorkedCurve]:
    return [quintic_left_cancellation(), quintic_no_cancellation(),
            quintic_right_cancellation()]


def nontrivial_cubic() -> QuatPoly:
    """-(1/3) i xi^3 + j xi^2 + k xi + 1, the smallest spatial generator."""
    return QuatPoly([Quaternion(1), Quaternion(0, 0, 0, 1),
                     Quaternion(0, 0, 1, 0), Quaternion(0, Fraction(-1, 3))])


def nontrivial_quartic_sparse() -> QuatPoly:
    """2 i xi^4 + 4 k xi^3 + j xi + 1."""
    return QuatPoly([Quaternion(1), Quaternion(0, 0, 1, 0), Quaternion(0),
                     Quaternion(0, 0, 0, 4), Quaternion(0, 2)])


def nontrivial_quartic_dense() -> QuatPoly:
    """(-1 + k/3) xi^4 + (i/3 + j) xi^3 + k xi^2 + j xi + 1."""
    return QuatPoly([Quaternion(1), Quaternion(0, 0, 1, 0),
                     Quaternion(0, 0, 0, 1),
                     Quaternion(0, Fraction(1, 3), 1, 0),
                     Quaternion(-1, 0, 0, Fraction(1, 3))])


class RegressionItem(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _check(name: str, condition: bool, detail: str = "") -> RegressionItem:
    return RegressionItem(name, bool(condition), "" if condition else detail)


def _quintic_items(curve: WorkedCurve) -> list[RegressionItem]:
    items = []
    analysis = GeneratorAnalysis.of(curve.generator)
    h = analysis.hodograph
    items.append(_check(f"{curve.name}: hodograph components",
                        h.components() == curve.hodograph,
                        "recomputed hodograph differs"))
    items.append(_check(f"{curve.name}: parametric speed",
                        h.sigma == curve.sigma, "sigma differs"))
    items.append(_check(f"{curve.name}: primitive hodograph",
                        analysis.primitive, "not primitive"))
    gamma = ComplexPoly.from_parts(*curve.certificate)
    for side, num, den, factor in (
            ("left", -analysis.inner, h.sigma, curve.left_gcd),
            ("right", (gamma.conjugate() * gamma.derivative()).real_parts()[1],
             gamma.norm_sq(), curve.right_gcd)):
        g = gcd_real(num, den)
        if factor is None:
            items.append(_check(f"{curve.name}: no cancellation on the {side}",
                                g.degree() == 0, f"{side} gcd {g}"))
        else:
            items.append(_check(f"{curve.name}: {side} cancellation factor",
                                g == factor.monic(), f"{side} gcd {g}"))
    items.append(_check(
        f"{curve.name}: reduced fraction",
        analysis.han == reduce_fraction(curve.fraction_num, curve.fraction_den),
        "reduced fraction differs"))
    items.append(_check(f"{curve.name}: certificate verified",
                        verify_han(analysis, *curve.certificate),
                        "certificate rejected"))
    items.append(_check(f"{curve.name}: spatial (non-planar) curve",
                        not analysis.planar, "curve is planar"))
    return items


def _low_degree_items() -> list[RegressionItem]:
    items = []
    for name, poly in (
            ("cubic", nontrivial_cubic()),
            ("quartic-sparse", nontrivial_quartic_sparse()),
            ("quartic-dense", nontrivial_quartic_dense()),
            *((f"family-n{n}", make_spatial_family(n)) for n in range(3, 13))):
        analysis = GeneratorAnalysis.of(poly)
        items.append(_check(f"{name}: vanishing indicatrix",
                            analysis.in_f0, "indicatrix nonzero"))
        items.append(_check(f"{name}: non-trivial",
                            analysis.trivial is None, "unexpected witness"))
    items.append(_check(
        "cubic constructor reproduces the catalog cubic",
        make_cubic(Quaternion(0, 0, 0, 1), Quaternion(0, 0, 1, 0))
        == nontrivial_cubic(), "construction differs"))
    quartic = make_quartic(Quaternion(0, 0, 1, 0), Quaternion(0), a3_k=Scalar(4))
    items.append(_check(
        "quartic constructor reproduces the sparse quartic",
        quartic.poly == nontrivial_quartic_sparse(), "construction differs"))
    items.append(_check(
        "no-cancellation quintic: equal-degree divisibility",
        GeneratorAnalysis.of(quintic_no_cancellation().generator).equal_degree,
        "criterion failed"))
    return items


def run_regression() -> list[RegressionItem]:
    """The full battery; deterministic and exact."""
    items: list[RegressionItem] = []
    for curve in worked_quintics():
        items.extend(_quintic_items(curve))
    items.extend(_low_degree_items())
    return items
