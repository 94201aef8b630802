"""GeneratorAnalysis as the one owner of the facts of a generator.

The structure tests count calls of the kernel entry points through every
name an ``rrmf`` module binds them under; the oracle tests compare the
readers of an analysis with the direct formulas they replaced.
"""

import importlib
import sys

import numpy as np
import pytest

from rrmf.catalog import nontrivial_cubic, worked_quintics
from rrmf.classify import GeneratorAnalysis, TrivialWitness, classify
from rrmf.construct import make_f_element, make_spatial_family
from rrmf.frames import sample_frames
from rrmf.hodograph import _INNER_FORM, core_of
from rrmf.indicatrix import (IndicatrixPair, han_fraction, han_numerator,
                             inner_product_poly, omega1, rho_eta,
                             rotation_indicatrix)
from rrmf.polynomials import ComplexPoly, RealPoly, reduce_fraction
from rrmf.scalars import ComplexScalar

from conftest import coprime_cpoly, nonzero_qpoly, norm_poly


def _count_calls(monkeypatch, target: str, keep=lambda kwargs: True, calls=None,
                 record=lambda args, result: result) -> list:
    """Route every rrmf binding of ``layer.name`` through a call counter,
    which lists (in ``calls``, if given) ``record`` of the positional
    arguments and result, by default the result, of each call whose
    keyword arguments ``keep`` accepts."""
    layer, name = target.split(".")
    original = getattr(importlib.import_module(f"rrmf.{layer}"), name)
    calls = [] if calls is None else calls

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        if keep(kwargs):
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
    calls: list = []
    for target in ("polynomials.gcd_real", "polynomials.gcd_complex"):
        _count_calls(monkeypatch, target, lambda kwargs: kwargs.get("screen") is False, calls)
    return calls


# the exact kernel entry points that the prime image stands in front of,
# and rho_eta, which classify does not call
_EXACT = ("polynomials.vector_rank", "polynomials.vector_part_rank",
          "indicatrix.rho_eta")


def test_classify_forms_the_generator_once(monkeypatch):
    forms = _count_calls(monkeypatch, "polynomials.component_forms")
    screens = _count_calls(monkeypatch, "polynomials.images_coprime")
    exact = {target: _count_calls(monkeypatch, target) for target in _EXACT}
    exact["gcds"] = _exact_gcds(monkeypatch)
    counters = [forms, screens, *exact.values()]

    def run(*args):
        for counter in counters:
            counter.clear()
        return classify(*args)

    for curve in worked_quintics():
        run(curve.generator, curve.certificate)
        # Han's identity reads sigma and <A'i, A> from the one form pass; the
        # image proves the components coprime, chi = 1 and the certificate
        # coprime, and rules out planarity and with it a triviality witness
        assert len(forms) == 1, curve.name
        assert screens == [True, True, True], curve.name
        assert {len(calls) for calls in exact.values()} == {0}, curve.name
        verdict = run(curve.generator)
        # without a certificate the image also rules out F0 and, for the
        # cancellation quintics, the equal-degree criterion: the one form
        # pass runs only where sigma divides rho, and decides it there
        holds = verdict.membership.method == "equal-degree-criterion"
        assert holds is (curve.name == "quintic-no-cancellation")
        assert len(forms) == (1 if holds else 0), curve.name
        assert screens == [True, True], curve.name
        assert {len(calls) for calls in exact.values()} == {0}, curve.name


def test_classify_screens_each_fact_once(monkeypatch):
    screens = _count_calls(monkeypatch, "polynomials.images_coprime")
    gcds = _exact_gcds(monkeypatch)
    # chi = 1 + xi i is a complex right divisor of the f-element, and xi + 2
    # a common real factor of the planted generator's components: the image
    # cannot prove chi = 1, nor the planted components coprime
    f_element = make_f_element(make_spatial_family(4), ComplexPoly([ComplexScalar(0, 1), 1]))
    planted = RealPoly([2, 1]).as_quat() * make_spatial_family(5)
    for a, expected, exact in ((f_element.poly, [True, False], [ComplexPoly]),
                               (planted, [False, False], [RealPoly, ComplexPoly])):
        screens.clear()
        gcds.clear()
        classify(a)
        # each fact is screened once, and decided exactly once after a
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
    for entry in (han_fraction, omega1, rotation_indicatrix, IndicatrixPair.of):
        forms.clear()
        entry(a)
        assert len(forms) == 1, entry.__qualname__


def test_rmf_sampling_decides_coprimality_once(monkeypatch):
    coprime = _exact_gcds(monkeypatch)
    screens = _count_calls(monkeypatch, "polynomials.images_coprime")
    samples, _ = sample_frames(make_spatial_family(6), "rmf", np.linspace(0, 1, 5))
    assert len(samples) == 5
    # once for the generator's components, once for the certificate's
    # parts: the image proves both, so the exact gcd never runs
    assert screens == [True, True]
    assert coprime == []


@pytest.mark.parametrize("base", [0, 15])
def test_analysis_readers_match_direct_formulas(rng, base):
    generators = [nonzero_qpoly(rng, rng.randint(0, 4), base) for _ in range(12)]
    # a real factor xi + k of every component cancels from the Han fraction
    generators += [RealPoly([rng.randint(-3, 3), 1]).as_quat()
                   * nonzero_qpoly(rng, rng.randint(1, 3), base) for _ in range(6)]
    for a in generators:
        sigma, inner = norm_poly(a), inner_product_poly(a)
        assert omega1(a) == reduce_fraction(han_numerator(a).scale(2), sigma)
        assert han_fraction(a) == reduce_fraction(han_numerator(a), sigma)
        indicatrix = rotation_indicatrix(a)
        assert indicatrix == reduce_fraction(inner, sigma)
        pair = IndicatrixPair.of(a)
        assert (pair.numerator_inner, pair.sigma, pair.reduced) == (inner, sigma, indicatrix)
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
