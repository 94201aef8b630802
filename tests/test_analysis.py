"""GeneratorAnalysis as the one owner of the facts of a generator.

The structure tests count calls of the kernel entry points through every
name an ``rrmf`` module binds them under; the oracle tests compare the
readers of an analysis with the direct formulas they replaced.
"""

import importlib
import itertools
import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from rrmf.catalog import nontrivial_cubic, worked_quintics
from rrmf.classify import GeneratorAnalysis, TrivialWitness, classify, search_certificate
from rrmf.construct import make_f_element, make_spatial_family, make_trivial
from rrmf.frames import erf_symbolic, sample_frames
from rrmf.documents import parse_document
from rrmf.hodograph import _IMAGE_FORMS, _INNER_FORM, _POINTS, core_of
from rrmf.indicatrix import inner_product_poly, rho_eta, rotation_indicatrix, verify_han
from rrmf.polynomials import (_MODULI, _PRIMES, ComplexPoly, PrimeImage, QuatPoly, RealPoly,
                              _embedding, _sqrt_mod, gcd_complex, reduce_fraction)
from rrmf.quaternions import Quaternion
from rrmf.scalars import ComplexScalar, Scalar

from conftest import coprime_cpoly, indicatrix_pair, nonzero_qpoly, norm_poly
from frame_reference import tangent_twist
from kernel_reference import image_forms


def _count_calls(monkeypatch, target: str, keep=lambda *args, **kwargs: True, calls=None,
                 record=lambda args, result: result) -> list:
    """Route every rrmf binding of ``layer.name`` through a call counter,
    which lists (in ``calls``, if given) ``record`` of the positional
    arguments and result, by default the result, of each call whose
    arguments ``keep`` accepts."""
    layer, name = target.split(".")
    original = getattr(importlib.import_module(f"rrmf.{layer}"), name)
    calls = [] if calls is None else calls

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        if keep(*args, **kwargs):
            calls.append(record(args, result))
        return result

    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "rrmf" or module_name.startswith("rrmf.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)
    return calls


def test_analysis_lives_below_the_indicatrix():
    import rrmf
    from rrmf import hodograph

    assert GeneratorAnalysis is hodograph.GeneratorAnalysis is rrmf.GeneratorAnalysis
    assert TrivialWitness is hodograph.TrivialWitness is rrmf.TrivialWitness
    analysis = GeneratorAnalysis.of(worked_quintics()[0].generator)
    assert GeneratorAnalysis.of(analysis) is analysis


def _exact_gcds(monkeypatch) -> list:
    """The results of the gcds an analysis runs after its own screen, which
    skip the prime image: coprime components (real) and the core (complex)."""
    return _count_calls(monkeypatch, "polynomials._gcd",
                        lambda cls, polys, screen: screen is False)


# the exact kernel entry points that the prime image stands in front of,
# and rho_eta, which classify does not call
_EXACT = ("polynomials.vector_rank", "indicatrix.rho_eta")


def test_classify_forms_the_generator_once(monkeypatch):
    # the polynomial each form pass runs over
    forms = _count_calls(monkeypatch, "polynomials.component_forms",
                         record=lambda args, result: QuatPoly.of(args[0]))
    screens = _count_calls(monkeypatch, "polynomials.images_coprime")
    exact = {target: _count_calls(monkeypatch, target) for target in _EXACT}
    exact["gcds"] = _exact_gcds(monkeypatch)
    counters = [forms, screens, *exact.values()]

    def run(*args):
        for counter in counters:
            counter.clear()
        return classify(*args)

    for curve in worked_quintics():
        analysis = GeneratorAnalysis.of(curve.generator)
        pair = QuatPoly.from_components(analysis.sigma, analysis.inner, 0, 0)
        run(curve.generator, curve.certificate)
        # Han's identity is decided at one point, without a form pass; the
        # image proves the components and the certificate coprime, and
        # rules out planarity and with it a triviality witness; its own gcd
        # of the split images proves chi = 1
        assert len(forms) == 0, curve.name
        assert screens == [True, True], curve.name
        assert {len(calls) for calls in exact.values()} == {0}, curve.name
        verdict = run(curve.generator)
        # without a certificate the image also rules out F0 and, for the
        # cancellation quintics, the equal-degree criterion: the one form
        # pass over A runs only where sigma divides rho, and one pass over
        # (sigma, <A'i, A>) decides it there
        holds = verdict.membership.method == "equal-degree-criterion"
        assert holds is (curve.name == "quintic-no-cancellation")
        assert forms.count(curve.generator) == (1 if holds else 0), curve.name
        assert forms.count(pair) == (1 if holds else 0), curve.name
        assert len(forms) == (2 if holds else 0), curve.name
        assert screens == [True], curve.name
        assert {len(calls) for calls in exact.values()} == {0}, curve.name


def test_classify_screens_each_fact_once(monkeypatch):
    screens = _count_calls(monkeypatch, "polynomials.images_coprime")
    gcds = _exact_gcds(monkeypatch)
    # chi = 1 + xi i is a complex right divisor of the f-element, and xi + 2
    # a common real factor of the planted generator's components: the image
    # cannot prove the planted components coprime, and the images at further
    # primes prove deg chi without the exact gcd
    f_element = make_f_element(make_spatial_family(4), ComplexPoly([ComplexScalar(0, 1), 1]))
    planted = RealPoly([2, 1]).as_quat() * make_spatial_family(5)
    for a, expected, exact in ((f_element.poly, [True], []),
                               (planted, [False], [RealPoly])):
        screens.clear()
        gcds.clear()
        classify(a)
        # the components are screened once, and decided exactly once after a
        # failed screen, by the gcd that does not screen again
        assert screens == expected
        assert [type(g) for g in gcds] == exact


def test_verdicts_do_not_divide_by_chi(monkeypatch):
    # chi = xi + i: the image cannot prove chi = 1, and the core is the family member
    element = make_f_element(make_spatial_family(4), ComplexPoly([ComplexScalar(0, 1), 1]))
    divisions = _count_calls(monkeypatch, "polynomials.exact_divide")
    for certificate in (element.certificate.real_parts(), None):
        verdict = classify(element.poly, certificate)
        # primitive and the core degree read deg chi alone
        assert (verdict.primitive, verdict.core_degree) == (False, 4)
        assert divisions == []
    assert core_of(element.poly).core == make_spatial_family(4)
    assert len(divisions) == 1


def test_erf_sampling_forms_no_inner_product(monkeypatch):
    forms = _count_calls(monkeypatch, "polynomials.component_forms",
                         record=lambda args, result: args[1])
    samples, _ = sample_frames(make_spatial_family(6), "erf", np.linspace(0, 1, 5))
    assert len(samples) == 5
    # sigma and A i A*, the hodograph's pass: <A'i, A> is not formed
    assert len(forms) == 1 and _INNER_FORM not in forms[0]


def test_han_entry_points_form_the_generator_once(monkeypatch):
    forms = _count_calls(monkeypatch, "polynomials.component_forms")
    a = worked_quintics()[1].generator

    def han(poly):
        return GeneratorAnalysis.of(poly).han

    for entry in (han, rotation_indicatrix, indicatrix_pair):
        forms.clear()
        entry(a)
        assert len(forms) == 1, entry.__qualname__


def test_rmf_sampling_decides_coprimality_once(monkeypatch):
    coprime = _exact_gcds(monkeypatch)
    screens = _count_calls(monkeypatch, "polynomials.images_coprime")
    proofs = [_count_calls(monkeypatch, target)
              for target in ("frames._rmf_generator", "indicatrix._han_identity")]
    a, xis = make_spatial_family(6), np.linspace(0, 1, 5)
    samples, _ = sample_frames(a, "rmf", xis)
    assert len(samples) == 5
    # once for the generator's components, which the image proves coprime,
    # so the exact gcd never runs; in F0 no certificate is built or proven
    assert screens == [True]
    assert coprime == []
    assert proofs == [[], []]
    # the rational RMF of an F0 generator is its ERF, sample for sample
    assert samples == sample_frames(a, "erf", xis)[0]


def test_core_after_classify_forms_each_split_image_once(monkeypatch):
    # delta = (1 + i) + i xi puts chi of degree 1 in the f-element: the
    # split images' gcd runs at the analysis prime, then over Z/N, and the
    # core's exact chi reads the degree at the prime that classify formed
    primes = []
    original = PrimeImage.split_gcd_degree

    def counted(image):
        primes.append(image.p)
        return original(image)

    monkeypatch.setattr(PrimeImage, "split_gcd_degree", counted)
    element = make_f_element(make_spatial_family(4),
                             ComplexPoly([ComplexScalar(1, 1), ComplexScalar(0, 1)]))
    analysis = GeneratorAnalysis.of(element.poly)
    primes.clear()
    assert classify(analysis).core_degree == 4
    assert analysis.core.core.degree() == 4 and analysis.core.factor.degree() == 1
    assert primes == [analysis.image.p, analysis.image.composite(element.poly.rows).p]


@pytest.mark.parametrize("base", [0, 15])
def test_analysis_readers_match_direct_formulas(rng, base):
    generators = [nonzero_qpoly(rng, rng.randint(0, 4), base) for _ in range(12)]
    # a real factor xi + k of every component cancels from the Han fraction
    generators += [RealPoly([rng.randint(-3, 3), 1]).as_quat()
                   * nonzero_qpoly(rng, rng.randint(1, 3), base) for _ in range(6)]
    for a in generators:
        sigma, inner = norm_poly(a), inner_product_poly(a)
        # the ERF's twist, omega_1, is twice the Han fraction
        assert tangent_twist(erf_symbolic(a)) == reduce_fraction(inner.scale(-2), sigma)
        assert GeneratorAnalysis.of(a).han == reduce_fraction(-inner, sigma)
        indicatrix = rotation_indicatrix(a)
        assert indicatrix == reduce_fraction(inner, sigma)
        assert indicatrix_pair(a) == (inner, sigma, indicatrix)
        assert rho_eta(GeneratorAnalysis.of(a)) == rho_eta(a)


@pytest.mark.parametrize("base", [0, 15])
def test_core_degree_and_primitivity_read_chi(rng, base):
    generators = [curve.generator for curve in worked_quintics()]
    generators += [nonzero_qpoly(rng, rng.randint(1, 4), base) for _ in range(6)]
    chi_degrees = set()
    for degree in (1, 2, 3):
        delta = coprime_cpoly(rng, degree, base)
        while delta.degree() != degree:
            delta = coprime_cpoly(rng, degree, base)
        generators.append(make_f_element(nontrivial_cubic(), delta).poly)
    for a in generators:
        verdict, decomposition = classify(a), core_of(a)
        assert verdict.core_degree == decomposition.core.degree()
        assert verdict.primitive == (decomposition.factor.degree() == 0)
        chi_degrees.add(decomposition.factor.degree())
    assert chi_degrees == {0, 1, 2, 3}


def _pool_items() -> list[dict]:
    path = Path(__file__).resolve().parents[1] / "bench" / "data" / "pool.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["items"]


def _pool_generator(item: dict) -> QuatPoly:
    return QuatPoly.of(parse_document(item["doc"]).to_poly())


def _horner_mod(f: list, t: int, p: int) -> int:
    value = 0
    for c in reversed(f):
        value = (value * t + c) % p
    return value


@pytest.mark.parametrize("base", [0, 15])
def test_form_values_match_the_reference_forms(base):
    """The image forms at each point, from each component's value and slope
    in one Horner pass, against the reference forms over F_p evaluated
    there: on the pool generators, a constant component (no slope), a zero
    component and a generator of degree 0."""
    s = Scalar(0, 1, base) if base else Scalar(2)
    edges = [QuatPoly([Quaternion(3, 1, s, 2), Quaternion(0, 2, -1, s), Quaternion(0, 1, 1, 0)]),
             QuatPoly([Quaternion(0, 1, s, 0), Quaternion(0, 2, -1, 0), Quaternion(0, s, 1, 0)]),
             QuatPoly([Quaternion(1, s, 3, -4)])]
    generators = [a for a in map(_pool_generator, _pool_items()) if a.d == base]
    assert generators and all(a.d == base for a in edges)
    images = {}
    for a in generators + edges:
        image = GeneratorAnalysis.of(a).image
        p, comps = image.p, image.comps
        images[a] = comps
        for forms in ((_INNER_FORM,), _IMAGE_FORMS[1:4]):
            reference = image_forms(comps, forms, p)
            for t in _POINTS:
                assert image.values(forms, t) == [_horner_mod(f, t, p) for f in reference]
    # the edges are what they stand for: u constant, u and q zero, degree 0
    assert [len(images[a][0]) for a in edges] == [1, 0, 1] and images[edges[1]][3] == []
    assert max(map(len, images[edges[2]])) == 1


def _box(entries, degree: int) -> QuatPoly:
    return QuatPoly([Quaternion(*entries[4 * k:4 * k + 4]) for k in range(degree + 1)])


def _sized_delta(rng, degree: int, digits: int, base: int = 0) -> ComplexPoly:
    """delta of exact degree with coprime parts and coefficients of the
    given number of digits, over Q(sqrt base) when base is nonzero."""
    def scalar():
        rational = rng.choice((1, -1)) * rng.randrange(10 ** (digits - 1), 10 ** digits)
        return Scalar(rational, rng.randint(-3, 3), base) if base else Scalar(rational)
    while True:
        delta = ComplexPoly([ComplexScalar(scalar(), scalar()) for _ in range(degree + 1)])
        if gcd_complex(*delta.real_parts()).degree() == 0:
            return delta


def _chi_cases(name: str) -> tuple[list, bool | None]:
    """(generators, whether the exact chi decides deg chi) for one case:
    None where it varies."""
    rng = random.Random(41)
    if name == "pool":
        return [_pool_generator(item) for item in _pool_items()], None
    if name == "degree-1 box":
        return [_box(e, 1) for e in itertools.product((-1, 0, 1), repeat=8) if any(e[4:])], None
    if name == "degree-2 sample":
        sample = random.Random(5)
        draws = ([sample.choice((-1, 0, 1)) for _ in range(12)] for _ in range(3000))
        return [_box(e, 2) for e in draws if any(e[8:])], None
    if name == "f-elements":
        return [make_f_element(make_spatial_family(n), _sized_delta(rng, degree, 2)).poly
                for n in range(3, 9) for degree in (1, 2, 3)], False
    if name == "40-digit delta":
        return [make_f_element(make_spatial_family(n), _sized_delta(rng, degree, 40)).poly
                for n in (3, 5) for degree in (1, 2, 3)], True
    if name == "Q(sqrt 15)":
        c = Quaternion(1, Scalar(0, 1, 15), 2, 0)
        return ([nonzero_qpoly(rng, rng.randint(1, 4), 15) for _ in range(12)]
                + [make_f_element(c * make_spatial_family(n),
                                  _sized_delta(rng, degree, 1, 15)).poly
                   for n in (3, 4) for degree in (1, 2)]), None
    assert name == "planted real factor"
    return [RealPoly([rng.randint(-9, 9), 1]).as_quat() * nonzero_qpoly(rng, degree)
            for degree in (1, 2, 3, 4, 5) for _ in range(4)], False


@pytest.mark.parametrize("name", ["pool", "degree-1 box", "degree-2 sample", "f-elements",
                                  "40-digit delta", "Q(sqrt 15)", "planted real factor"])
def test_chi_degree_matches_the_exact_gcd(name):
    generators, exact = _chi_cases(name)
    degrees = set()
    for a in generators:
        alpha, beta = a.complex_split()
        expected = gcd_complex(alpha, beta.conjugate()).degree()
        analysis = GeneratorAnalysis.of(a)
        assert analysis.chi_degree == expected, a
        # the exact chi ran only where the image could not decide
        if exact is not None:
            assert ("chi" in vars(analysis)) is exact, a
        degrees.add(expected)
    # each case reaches a nonconstant chi, save Q(sqrt 15)'s random generators
    assert max(degrees) >= 1


def test_chi_degree_past_unlucky_primes(monkeypatch):
    # alpha = xi and conj(beta) = xi - c are coprime, but share the root 0
    # at every listed prime dividing c, where the image gcd has degree 1.
    # B^2 = 1 + c^2 takes primes past the analysis prime p1: for c = p1
    # their Euclid proves chi = 1; for c = p1 p2 the remainder c is no unit
    # over their product, and the exact chi does
    gcds = _exact_gcds(monkeypatch)
    for c, exact in ((_PRIMES[0], []), (_PRIMES[0] * _PRIMES[1], [ComplexPoly])):
        a = QuatPoly([Quaternion(0, 0, -c, 0), Quaternion(1, 0, 1, 0)])
        analysis = GeneratorAnalysis.of(a)
        assert analysis.image.split_gcd_degree() == 1
        if exact:
            wide = analysis.image._replace(p=math.prod(_PRIMES[1:4]), r=_MODULI[2][1], comps=a.rows)
            assert wide.split_gcd_degree() is None
        gcds.clear()
        assert analysis.chi_degree == 0 and analysis.primitive
        verdict = classify(analysis)
        assert (verdict.primitive, verdict.core_degree) == (True, 1)
        # u = xi and p = xi - c share that root too: the components' exact gcd runs
        assert [type(g) for g in gcds] == exact + [RealPoly]
        assert core_of(a).factor.degree() == 0
    # chi = xi - i/p1: at p1 both images lose their degrees, and chi with
    # them, so the image gcd there proves nothing, and the exact chi decides
    element = make_f_element(make_spatial_family(4),
                             ComplexPoly([ComplexScalar(0, -1), _PRIMES[0]]))
    analysis = GeneratorAnalysis.of(element.poly)
    assert analysis.image.split_gcd_degree() is None
    assert analysis.chi_degree == 1 == core_of(element.poly).factor.degree()


def _gaussian_gcd(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """A gcd in Z[i] of x and y, as (re, im) pairs: Euclid's algorithm with
    the quotient rounded to the nearest Gaussian integer."""
    while y != (0, 0):
        (a, b), (c, d) = x, y
        n = c * c + d * d
        qr, qi = ((2 * u + n) // (2 * n) for u in (a * c + b * d, b * c - a * d))
        x, y = y, (a - (qr * c - qi * d), b - (qr * d + qi * c))
    return x


def test_chi_degree_moduli_pass_the_squared_bound():
    # pi_k = gcd(p_k, r_k - i) is the Gaussian prime of p_k that i -> r_k sends
    # to 0.  alpha = xi and conj(beta) = xi - c for c = pi_0 pi_1 are coprime,
    # with psc_0 = c, |c|^2 = p_0 p_1 and B^2 = |c|^2 + 1.  Both primes see the
    # root 0 in common, so only a modulus past B^2 / p_0 = p_1 proves chi = 1;
    # one past B / p_0 < 1 is p_1 itself, where the gcd has degree 1 as well
    p0, p1 = _PRIMES[:2]
    r0, r1 = _embedding(0)[1][1], _sqrt_mod(-1, p1)
    (s, t), (u, v) = (_gaussian_gcd((p, 0), (r, -1)) for p, r in ((p0, r0), (p1, r1)))
    x, y = s * u - t * v, s * v + t * u
    assert x * x + y * y == p0 * p1 and (x + y * r0) % p0 == 0 == (x + y * r1) % p1
    a = QuatPoly([Quaternion(0, 0, -x, y), Quaternion(1, 0, 1, 0)])
    analysis = GeneratorAnalysis.of(a)
    assert analysis.image.split_gcd_degree() == 1
    wide = analysis.image.composite(a.rows)
    assert wide.p == p1 * _PRIMES[2] and wide.split_gcd_degree() is None
    assert analysis.chi_degree == 0 == analysis.chi.degree()


def test_pool_f_element_verdicts_run_no_exact_complex_gcd(monkeypatch):
    # every complex gcd, screened or not, runs through polynomials._gcd
    exact = _count_calls(monkeypatch, "polynomials._gcd",
                         lambda cls, polys, screen: cls is ComplexPoly)
    items = [item for item in _pool_items() if item["part"] == "f-element"]
    assert len(items) == 42
    for item in items:
        verdict = classify(_pool_generator(item), parse_document(item["doc"]).certificate)
        assert not verdict.primitive
    assert exact == []


# squarefree and a non-residue at every prime of polynomials._PRIMES: no
# prime image exists over Q(sqrt 207874), and every fact is exact
NO_PRIME_BASE = 207874


def test_facts_without_a_prime_image():
    assert _embedding(NO_PRIME_BASE) is None
    s = Scalar(0, 1, NO_PRIME_BASE)
    c = Quaternion(1, s, 2, 0)
    xi_plus_i = ComplexPoly.from_parts(RealPoly([0, 1]), RealPoly([1]))
    element = make_f_element(c * make_spatial_family(4), xi_plus_i)
    certificate = element.certificate.real_parts()
    # (generator, certificate), then (coprime, in F0, trivial, planar,
    # primitive, core degree, membership, method)
    cases = [
        (c * make_spatial_family(5), None,
         (True, True, False, False, True, 5, "proven", "vanishing-indicatrix")),
        (make_trivial(Quaternion(1, 0, s, 1), Quaternion(0, 0, 1, s),
                      [(1, 0), (2, 1), (0, 3)]), None,
         (True, True, True, True, True, 2, "proven", "vanishing-indicatrix")),
        (element.poly, certificate,
         (True, False, False, False, False, 4, "proven", "certificate")),
        (RealPoly([2, 1]).as_quat() * (c * make_spatial_family(5)), None,
         (False, False, False, False, False, 5, "unknown", "components-not-coprime")),
    ]
    for a, cert, facts in cases:
        analysis = GeneratorAnalysis.of(a)
        assert analysis.image is None
        verdict = classify(a, certificate=cert)
        assert (analysis.coprime, verdict.in_f0, verdict.trivial is not None,
                verdict.planar, verdict.primitive, verdict.core_degree,
                verdict.membership.status.value, verdict.membership.method) == facts
    # the exact construction finds a certificate of degree 2 as well
    found = search_certificate(element.poly, 2)
    assert found is not None and verify_han(element.poly, *found)
