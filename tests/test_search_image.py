"""The two stages of search_certificate agree.

search_certificate runs the prime image first and the exact residue
loop (classify._search_exact) only where the image decides nothing.  The
monic certificate with coprime parts is unique, so both stages must give
the same answer at every max_degree: on the pool, on seeded generators
with entries in {-1, 0, 1}, and on f-elements over Q and Q(sqrt 15).
Every certificate returned has coprime parts, which the image stage
proves in F_p.  The fall-through is forced by an image with an odd or
zero number of poles, by coefficients too long to reconstruct at p, by
one that reconstructs to a wrong gamma, by an irrational gamma over
Q(sqrt 15), by a reconstruction patched to return wrong values and by a
residue loop patched to give both parts a common factor; a max_degree
far above the number of poles leaves the image stage bounded.
"""

import json
import math
import random
import time
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import pytest

from rrmf import classify
from rrmf.catalog import quintic_left_cancellation
from rrmf.classify import _image_certificate, _search_exact, search_certificate
from rrmf.cli import main
from rrmf.construct import make_f_element, make_spatial_family
from rrmf.documents import document_for, dumps_document, parse_document
from rrmf.hodograph import GeneratorAnalysis
from rrmf.indicatrix import _han_identity, require_certificate, verify_han
from rrmf.polynomials import (ComplexPoly, QuatPoly, RealPoly, _gcd_mod, _trim_mod,
                              divmod_mod, mul_mod, rational_mod)
from rrmf.quaternions import Quaternion
from rrmf.scalars import ComplexScalar, parse_scalar

ROOT = Path(__file__).resolve().parents[1]
SQRT15 = parse_scalar("sqrt(15)")


def _pool() -> list[dict]:
    with open(ROOT / "bench" / "data" / "pool.json", encoding="utf-8") as fh:
        return json.load(fh)["items"]


def _generator(item) -> QuatPoly:
    return QuatPoly.of(parse_document(item["doc"]).to_poly())


def _exact(a: QuatPoly, max_degree: int):
    """The answer of the exact stage alone, unbounded in time."""
    analysis = GeneratorAnalysis.of(a)
    if max_degree < 0:
        return None
    if analysis.in_f0:
        return (RealPoly([1]), RealPoly())
    return _search_exact(analysis, max_degree, math.inf)


def _disagreements(generators, degrees) -> tuple[int, list]:
    """The pairs (generator, max_degree) run and those where the stages
    differ; every certificate found is monic, a of higher degree than b,
    with coprime parts."""
    pairs, differ = 0, []
    for a in generators:
        for degree in degrees:
            pairs += 1
            found = search_certificate(a, degree)
            if found is not None:
                ga, gb = found
                assert ga.leading() == 1 and gb.degree() < ga.degree(), (a, degree)
                require_certificate(ga, gb)
            if found != _exact(a, degree):
                differ.append((a, degree))
    return pairs, differ


def _f_elements(bases) -> list[QuatPoly]:
    """core(B0) * delta for the family members B0, n = 4 .. 6, and a few
    delta of degree 1 and 2 over each base.  Over Q(sqrt 15) the first
    two delta are rational and the last two are not, and each f-element
    is scaled on the left by a quaternion over Q(sqrt 15), which keeps
    its certificate."""
    out = []
    for base in bases:
        s = SQRT15 if base else 1
        left = Quaternion(1, 0, SQRT15, 2) if base else Quaternion(1)
        deltas = [ComplexPoly([ComplexScalar(0, 1), 1]),
                  ComplexPoly([ComplexScalar(1, 1), ComplexScalar(0, 1)]),
                  ComplexPoly([ComplexScalar(s, -2), ComplexScalar(1, 0), ComplexScalar(0, 3)]),
                  ComplexPoly([ComplexScalar(2, 1), ComplexScalar(-1, s), 1])]
        out += [left * make_f_element(make_spatial_family(n), delta).poly
                for n in (4, 5, 6) for delta in deltas]
    return out


def test_stages_agree_on_the_pool():
    generators = [a for a in map(_generator, _pool()) if GeneratorAnalysis.of(a).coprime]
    pairs, differ = _disagreements(generators, range(5))
    assert pairs == 725
    assert not differ, differ


def _box(degree: int, count: int, seed: int) -> list[QuatPoly]:
    """Distinct seeded generators of the given degree with entries in
    {-1, 0, 1}, a nonzero leading coefficient and coprime components."""
    rng = random.Random(seed)
    drawn: dict = {}
    while len(drawn) < count:
        entries = [Quaternion(*(rng.choice((-1, 0, 1)) for _ in range(4)))
                   for _ in range(degree + 1)]
        a = QuatPoly(entries)
        if a.degree() == degree and GeneratorAnalysis.of(a).coprime:
            drawn.setdefault(a, None)
    return list(drawn)


@pytest.mark.parametrize("degree, count", [(1, 300), (2, 200)])
def test_stages_agree_on_a_box(degree, count):
    generators = _box(degree, count, 37 + degree)
    pairs, differ = _disagreements(generators, range(4))
    assert pairs == 4 * count
    assert not differ, differ


def test_degree_one_box_members_are_built_in_the_image():
    # coprime planar cubics are members (Han 2008), most outside F0
    built = 0
    for a in _box(1, 300, 38):
        analysis = GeneratorAnalysis.of(a)
        if search_certificate(analysis, 3) is not None and not analysis.in_f0:
            assert "han" not in vars(analysis)
            built += 1
    assert built


def test_stages_agree_on_f_elements():
    generators = _f_elements((0, 15))
    pairs, differ = _disagreements(generators, range(5))
    assert pairs == 120
    assert not differ, differ
    # the image decides each f-element whose gamma is rational, over
    # Q(sqrt 15) too, without its Han fraction; an irrational gamma is
    # left to the exact stage
    surd = 0
    for a in generators:
        analysis = GeneratorAnalysis.of(a)
        ga, gb = search_certificate(analysis, 4)
        rational = not (ga.d or gb.d)
        assert ("han" not in vars(analysis)) is rational, a
        surd += bool(a.d) and rational
    assert surd == 6


def _count_exact_stage(monkeypatch) -> list:
    calls = []

    def counted(analysis, max_degree, budget_seconds):
        calls.append(max_degree)
        return _search_exact(analysis, max_degree, budget_seconds)

    monkeypatch.setattr(classify, "_search_exact", counted)
    return calls


def test_an_odd_or_zero_pole_count_falls_through(monkeypatch):
    # gamma = (xi - 2, -1) from the exact stage alone, when the image's
    # denominator D gains the root 1 (odd degree) or is replaced by 1
    a = quintic_left_cancellation().generator
    reference = GeneratorAnalysis.of(a)
    (num, den), p = reference.han_image, reference.image.p
    calls = _count_exact_stage(monkeypatch)
    for image in ((num, mul_mod(den, [p - 1, 1], p)), (num, [1])):
        analysis = GeneratorAnalysis.of(a)
        analysis.han_image = image
        assert _image_certificate(analysis, 3) is None
        assert search_certificate(analysis, 3) == (RealPoly([-2, 1]), RealPoly([-1]))
    assert calls == [3, 3]


def test_long_coefficients_fall_through(monkeypatch):
    # the monic gamma has coefficients 7/(10^6 + 3) and 35/(10^6 + 3),
    # beyond sqrt(p/2): at least one has no reconstruction at p
    big = 10 ** 6 + 3
    delta = ComplexPoly([ComplexScalar(big, 1), ComplexScalar(3, 5),
                         ComplexScalar(0, Fraction(big, 7))])
    generators = [make_f_element(make_spatial_family(n), delta).poly for n in (4, 5, 6)]
    for a in generators:
        assert _image_certificate(GeneratorAnalysis.of(a), 2) is None
    calls = _count_exact_stage(monkeypatch)
    pairs, differ = _disagreements(generators, range(2, 5))
    assert not differ, differ
    # the image proves nothing, and the exact stage builds every certificate
    assert len(calls) == pairs
    assert all(search_certificate(a, 2) is not None for a in generators)


def test_a_plausible_wrong_reconstruction_is_rejected():
    # gamma = xi + 7/(10^6 + 3) - 7i: 7/(10^6 + 3) reconstructs at p to a
    # small fraction that is not it, and Han's identity turns that gamma down
    big = 10 ** 6 + 3
    delta = ComplexPoly([ComplexScalar(big, 1), ComplexScalar(0, Fraction(big, 7))])
    for n in (4, 5):
        a = make_f_element(make_spatial_family(n), delta).poly
        wrong = _image_certificate(GeneratorAnalysis.of(a), 1)
        assert wrong is not None and not verify_han(a, *wrong)
        assert search_certificate(a, 1) == _exact(a, 1) == (
            RealPoly([Fraction(7, big), 1]), RealPoly([-7]))


def test_wrong_reconstruction_is_rejected(monkeypatch):
    generators = [_generator(item) for item in _pool()
                  if item["part"] in ("search-fe", "search-fixture")]
    expected = [search_certificate(a, 3) for a in generators]
    assert None not in expected
    verdicts = []

    def wrong(c, p):
        x = rational_mod(c, p)
        return None if x is None else x + 1

    def zero_test(analysis, a, b):
        verdicts.append(_han_identity(analysis, a, b))
        return verdicts[-1]

    monkeypatch.setattr(classify, "rational_mod", wrong)
    monkeypatch.setattr(classify, "_han_identity", zero_test)
    calls = _count_exact_stage(monkeypatch)
    assert [search_certificate(a, 3) for a in generators] == expected
    # each wrong gamma is turned down, by Han's identity or before it, and
    # the exact stage builds every certificate
    assert False in verdicts and True not in verdicts
    assert len(calls) == len(generators)


def test_parts_sharing_a_factor_are_not_returned(monkeypatch):
    # a residue loop whose every gcd gains the factor h = xi + 1 hands the
    # reconstruction a + bi and a - bi with that common factor, and Han's
    # identity holds for (h a, h b) as for (a, b): only the gcd over F_p
    # turns these parts down, before the zero test
    generators = [_generator(item) for item in _pool()
                  if item["part"] in ("search-fe", "search-fixture")]
    expected = [search_certificate(a, 3) for a in generators]
    h = RealPoly([1, 1])
    for a, (ga, gb) in zip(generators, expected):
        assert _han_identity(GeneratorAnalysis.of(a), ga * h, gb * h)
    tested = []

    def with_factor(polys, p):
        g = _gcd_mod(polys, p)
        return g if len(g) == 1 else mul_mod(g, [1, 1], p)

    def zero_test(analysis, a, b):
        tested.append((a, b))
        return _han_identity(analysis, a, b)

    monkeypatch.setattr(classify, "_gcd_mod", with_factor)
    monkeypatch.setattr(classify, "_han_identity", zero_test)
    calls = _count_exact_stage(monkeypatch)
    assert [search_certificate(a, 3) for a in generators] == expected
    assert not tested
    assert len(calls) == len(generators)


def test_image_decided_searches_form_no_han_fraction():
    decided = 0
    for item in _pool():
        if not item["id"].startswith("search-"):
            continue
        a = _generator(item)
        if a.d:
            continue
        for degree in range(4):
            analysis = GeneratorAnalysis.of(a)
            search_certificate(analysis, degree)
            assert "han" not in vars(analysis), (item["id"], degree)
            decided += 1
    assert decided == 32 * 4


def _search_gamma(capsys, *argv) -> dict:
    assert main(["search-gamma", *argv]) == 0
    return json.loads(capsys.readouterr().out)


def test_budget_bounds_only_the_exact_stage(capsys, tmp_path):
    fixtures = ROOT / "fixtures"
    left = str(fixtures / "quintic-left-cancellation.json")
    none = str(fixtures / "quintic-no-cancellation.json")
    right = str(fixtures / "quintic-right-cancellation.json")
    # the image builds and proves both certificates without the clock
    assert _search_gamma(capsys, left, "--max-degree", "2", "--budget", "0") == {
        "found": True, "a": ["-2/1", "1/1"], "b": ["-1/1"]}
    assert _search_gamma(capsys, none, "--max-degree", "2", "--budget", "0") == {
        "found": True, "a": ["27/109", "-86/109", "1/1"], "b": ["19/109", "-4/109"]}
    # the pole bound proves that no certificate of degree 0 exists
    assert _search_gamma(capsys, left, "--max-degree", "0", "--budget", "0") == {
        "found": False}
    # over Q(sqrt 15) the image builds and proves a rational gamma too
    assert _search_gamma(capsys, right, "--max-degree", "3", "--budget", "0") == {
        "found": True, "a": ["-19/2", "51/4", "-6/1", "1/1"], "b": ["-41/4", "8/1", "-2/1"]}
    # only the exact stage builds the irrational gamma = xi - sqrt(15) - i,
    # and a zero budget stops it
    delta = ComplexPoly([ComplexScalar(-SQRT15, -1), 1])
    surd = tmp_path / "surd.json"
    surd.write_text(dumps_document(document_for(make_f_element(make_spatial_family(3), delta).poly)))
    assert _search_gamma(capsys, str(surd), "--max-degree", "3", "--budget", "0") == {
        "found": False}
    assert _search_gamma(capsys, str(surd), "--max-degree", "3") == {
        "found": True, "a": ["0/1-1/1*sqrt(15)", "1/1"], "b": ["-1/1"]}


def test_fp_tools():
    p = 1073741789
    rng = random.Random(5)
    for _ in range(50):
        f = [rng.randrange(p) for _ in range(rng.randint(1, 9))]
        g = [rng.randrange(p) for _ in range(rng.randint(1, 5))] + [rng.randrange(1, p)]
        q, r = divmod_mod(f, g, p)
        assert len(r) < len(g) and (not r or r[-1])
        product = mul_mod(q, g, p) if q else []
        total = [(x + y) % p for x, y in zip_longest(product, r, fillvalue=0)]
        assert _trim_mod(total) == _trim_mod(list(f))
    bound = math.isqrt(p // 2)
    for x, y in ((0, 1), (-7, 3), (bound, bound - 1), (-bound, 1)):
        c = x * pow(y, -1, p) % p
        assert rational_mod(c, p) == Fraction(x, y)
    # 7/(10^6 + 3) has no reconstruction at p within the bound
    assert rational_mod(7 * pow(10 ** 6 + 3, -1, p), p) != Fraction(7, 10 ** 6 + 3)


def test_a_large_max_degree_leaves_the_image_stage_bounded():
    # the image tries multiplicities up to the number of roots only, so a
    # max_degree far above it costs a few gcds (without that cap, a minute
    # here), and the exact stage then stops at its budget
    start = time.monotonic()
    for item in _pool():
        if item["part"] == "search-miss":
            assert search_certificate(_generator(item), 10 ** 4, budget_seconds=0) is None
    assert time.monotonic() - start < 5
