"""GeneratorAnalysis as the one owner of the facts of a generator.

The structure tests count calls of the kernel entry points through every
name an ``rrmf`` module binds them under; the oracle tests compare the
readers of an analysis with the direct formulas they replaced.
"""

import importlib
import sys

import numpy as np
import pytest

from rrmf.catalog import worked_quintics
from rrmf.classify import GeneratorAnalysis, TrivialWitness, classify
from rrmf.construct import make_spatial_family
from rrmf.frames import sample_frames
from rrmf.indicatrix import (IndicatrixPair, han_fraction, han_numerator,
                             inner_product_poly, omega1, rho_eta,
                             rotation_indicatrix)
from rrmf.polynomials import RealPoly, reduce_fraction

from conftest import nonzero_qpoly


def _count_calls(monkeypatch, target: str) -> list:
    """Route every rrmf binding of ``layer.name`` through a call counter."""
    layer, name = target.split(".")
    original = getattr(importlib.import_module(f"rrmf.{layer}"), name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

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


def test_classify_forms_the_generator_once(monkeypatch):
    forms = _count_calls(monkeypatch, "polynomials.component_forms")
    for curve in worked_quintics():
        forms.clear()
        classify(curve.generator, curve.certificate)
        assert len(forms) == 1, curve.name
        # without a certificate the equal-degree criterion adds its own forms
        forms.clear()
        classify(curve.generator)
        assert len(forms) == 2, curve.name


def test_han_entry_points_form_the_generator_once(monkeypatch):
    forms = _count_calls(monkeypatch, "polynomials.component_forms")
    a = worked_quintics()[1].generator
    for entry in (han_fraction, omega1, rotation_indicatrix, IndicatrixPair.of):
        forms.clear()
        entry(a)
        assert len(forms) == 1, entry.__qualname__


def test_rmf_sampling_decides_coprimality_once(monkeypatch):
    coprime = _count_calls(monkeypatch, "hodograph.has_coprime_components")
    samples, _ = sample_frames(make_spatial_family(6), "rmf", np.linspace(0, 1, 5))
    assert len(samples) == 5
    assert len(coprime) == 1


@pytest.mark.parametrize("base", [0, 15])
def test_analysis_readers_match_direct_formulas(rng, base):
    generators = [nonzero_qpoly(rng, rng.randint(0, 4), base) for _ in range(12)]
    # a real factor xi + k of every component cancels from the Han fraction
    generators += [RealPoly([rng.randint(-3, 3), 1]).as_quat()
                   * nonzero_qpoly(rng, rng.randint(1, 3), base) for _ in range(6)]
    for a in generators:
        sigma, inner = a.norm_poly(), inner_product_poly(a)
        assert omega1(a) == reduce_fraction(han_numerator(a).scale(2), sigma)
        assert han_fraction(a) == reduce_fraction(han_numerator(a), sigma)
        indicatrix = rotation_indicatrix(a)
        assert indicatrix == reduce_fraction(inner, sigma)
        pair = IndicatrixPair.of(a)
        assert (pair.numerator_inner, pair.sigma, pair.reduced) == (inner, sigma, indicatrix)
        assert rho_eta(GeneratorAnalysis.of(a)) == rho_eta(a)
