import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rrmf
from rrmf import cli
from rrmf.catalog import (nontrivial_cubic, quintic_left_cancellation,
                          quintic_no_cancellation, quintic_right_cancellation)
from rrmf.cli import EXIT_INTERNAL, main
from rrmf.documents import document_for, dumps_document
from rrmf.frames import CSV_HEADER, certificate_generator, sample_frames, write_frames_csv
from rrmf.polynomials import QuatPoly, RealPoly
from rrmf.quaternions import Quaternion
from rrmf.scalars import format_scalar, parse_scalar

from conftest import FRAME_TOL, exact_axes

EX2 = quintic_no_cancellation()


def write_doc(tmp_path, name, poly, certificate=None):
    path = tmp_path / name
    path.write_text(dumps_document(document_for(poly, certificate=certificate)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_cubic(tmp_path, capsys):
    path = write_doc(tmp_path, "cubic.json", nontrivial_cubic())
    code, out, _ = run(capsys, "classify", path)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["in_F0"] is True
    assert verdict["trivial"] is False
    assert verdict["planar"] is False
    assert verdict["primitive"] is True
    assert verdict["in_F"] == "proven"


def test_classify_planar_line(tmp_path, capsys):
    poly = QuatPoly([Quaternion(1), Quaternion(0, 0, 1, 0)])  # 1 + j xi
    path = write_doc(tmp_path, "line.json", poly)
    code, out, _ = run(capsys, "classify", path)
    verdict = json.loads(out)
    assert code == 0
    assert verdict["in_F0"] and verdict["trivial"] and verdict["planar"]
    assert verdict["trivial_witness"]["direction"] == ["0/1", "0/1", "1/1", "0/1"]


def test_classify_with_certificate(tmp_path, capsys):
    ex2 = quintic_no_cancellation()
    path = write_doc(tmp_path, "ex2.json", ex2.generator, ex2.certificate)
    code, out, _ = run(capsys, "classify", path)
    verdict = json.loads(out)
    assert code == 0
    assert verdict["in_F"] == "proven" and verdict["planar"] is False
    assert verdict["han_certificate"]["a"] == ["10/1", "-22/1", "27/1"]


def test_classify_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 2 and "error" in err
    bad.write_text(json.dumps({"sqrt_base": 0, "kind": "real",
                               "coefficients": ["1/0", "1"]}))
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 2 and "error" in err


def test_classify_missing_file(capsys):
    code, _, err = run(capsys, "classify", "/nonexistent/input.json")
    assert code == 2


def test_construct_family(capsys):
    code, out, _ = run(capsys, "construct", "family", "--n", "4")
    assert code == 0
    report = json.loads(out)
    coeffs = report["document"]["coefficients"]
    assert coeffs[4] == ["0/1", "2/1", "0/1", "0/1"]
    assert coeffs[3] == ["0/1", "0/1", "0/1", "4/1"]
    assert report["verification"]["in_F0"] is True
    assert report["verification"]["trivial"] is False


def test_construct_family_requires_n(capsys):
    code, _, err = run(capsys, "construct", "family")
    assert code == 3


def test_construct_family_degree_bound(capsys):
    from rrmf.documents import MAX_DEGREE

    # the document must stay readable by classify: degree n <= MAX_DEGREE
    for n in (MAX_DEGREE + 1, 200):
        code, out, err = run(capsys, "construct", "family", "--n", str(n))
        assert (code, out) == (2, "")
        assert err == (f"error: --n must be at most {MAX_DEGREE} "
                       f"(rrmf.documents.MAX_DEGREE), got {n}\n")
    code, out, _ = run(capsys, "construct", "family", "--n", str(MAX_DEGREE))
    assert code == 0
    document = json.dumps(json.loads(out)["document"])
    assert len(json.loads(document)["coefficients"]) == MAX_DEGREE + 1


def test_construct_cubic_spec(capsys):
    spec = {"a1": ["0", "0", "0", "1"], "a2": ["0", "0", "1", "0"]}
    code, out, _ = run(capsys, "construct", "cubic", "--spec-json", json.dumps(spec))
    assert code == 0
    report = json.loads(out)
    assert report["document"]["coefficients"][3] == ["0/1", "-1/3", "0/1", "0/1"]


def test_construct_missing_spec_key(capsys):
    for kind, spec, key in (("cubic", {"s0": "1"}, "'a1'"),
                            ("trivial", {"direction": ["0", "0", "1", "0"]},
                             "'coefficients'")):
        code, _, err = run(capsys, "construct", kind, "--spec-json",
                           json.dumps(spec))
        assert code == 2 and key in err


def test_construct_malformed_spec_scalar_or_row(capsys):
    for kind, spec in (
            ("cubic", {"a1": ["x", "0", "0", "0"], "a2": ["0", "0", "1", "0"]}),
            ("cubic", {"a1": ["1/0", "0", "0", "0"], "a2": ["0", "0", "1", "0"]}),
            ("quartic", {"a1": ["0", "0", "1", "0"], "a2": ["0", "0", "0", "0"],
                         "s3": "y"}),
            ("trivial", {"direction": ["0", "0", "1", "0"],
                         "coefficients": [["1"]]}),
            ("trivial", {"direction": ["0", "0", "1", "0"],
                         "coefficients": 7}),
            ("trivial", {"direction": ["0", "0", "1", "0"],
                         "coefficients": [["1", "z"]]})):
        code, out, err = run(capsys, "construct", kind, "--spec-json",
                             json.dumps(spec))
        assert code == 2 and err.startswith("error: ") and out == ""


def test_oversized_base_rejected_fast(tmp_path):
    # a 31-digit base once meant trial division up to 10**15.5
    huge = 10**30 + 57
    doc = tmp_path / "huge.json"
    doc.write_text(json.dumps({"sqrt_base": huge, "kind": "real",
                               "coefficients": ["1", "1"]}))
    spec = json.dumps({"sqrt_base": huge, "a1": ["0", "0", "0", "1"],
                       "a2": ["0", "0", "1", "0"]})
    env = {**os.environ,
           "PYTHONPATH": str(Path(rrmf.__file__).resolve().parents[1])}
    for argv in (["classify", str(doc)],
                 ["construct", "cubic", "--spec-json", spec]):
        proc = subprocess.run([sys.executable, "-m", "rrmf.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 2 and "sqrt_base" in proc.stderr


def test_construct_invalid_direction(capsys):
    spec = {"direction": ["0", "1", "0", "0"],
            "coefficients": [["1", "0"], ["0", "1"]]}
    code, _, err = run(capsys, "construct", "trivial", "--spec-json", json.dumps(spec))
    assert code == 3


def test_construct_quartic(capsys):
    spec = {"a1": ["0", "0", "1", "0"], "a2": ["0", "0", "0", "0"],
            "a3_k": "4"}
    code, out, _ = run(capsys, "construct", "quartic", "--spec-json", json.dumps(spec))
    assert code == 0
    report = json.loads(out)
    assert report["document"]["coefficients"][4] == ["0/1", "2/1", "0/1", "0/1"]
    assert report["verification"]["non_trivial"] is True
    assert report["verification"]["family_dim"] == 1
    # A1 = 1 repeats the condition row i with a different value
    spec = {"a1": ["1", "0", "0", "0"], "a2": ["0", "0", "1", "0"], "a3_k": "1"}
    assert run(capsys, "construct", "quartic", "--spec-json", json.dumps(spec)) == (
        3, "", "error: inconsistent linear conditions for A4\n")


def test_construct_f_element(tmp_path, capsys):
    cubic_doc = json.loads(dumps_document(document_for(nontrivial_cubic())))
    delta_doc = {"sqrt_base": 0, "kind": "complex",
                 "coefficients": [["0", "1"], ["1", "0"]]}  # i + xi
    spec = {"b0": cubic_doc, "delta": delta_doc}
    code, out, _ = run(capsys, "construct", "f-element", "--spec-json",
                       json.dumps(spec))
    assert code == 0
    report = json.loads(out)
    assert report["verification"]["gamma"]["kind"] == "complex"


def test_frames_rmf_csv(tmp_path, capsys):
    ex2 = quintic_no_cancellation()
    path = write_doc(tmp_path, "ex2.json", ex2.generator, ex2.certificate)
    out_csv = tmp_path / "frames.csv"
    code, out, _ = run(capsys, "frames", path, "--frame", "rmf",
                       "--samples", "5", "--range", "0:1", "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 6
    row = [float(v) for v in lines[1].split(",")]
    assert row[4:] == [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]


def test_frames_zero_samples(tmp_path, capsys):
    path = write_doc(tmp_path, "cubic.json", nontrivial_cubic())
    code, _, err = run(capsys, "frames", path, "--samples", "0",
                       "--out", str(tmp_path / "x.csv"))
    assert code == 3


def test_frames_rejects_non_finite_range(tmp_path, capsys):
    path = write_doc(tmp_path, "cubic.json", nontrivial_cubic())
    out_csv = tmp_path / "x.csv"
    for bounds in ("nan:1", "0:inf", "-inf:0"):
        code, _, err = run(capsys, "frames", path, "--samples", "3",
                           f"--range={bounds}", "--out", str(out_csv))
        assert code == 2 and "finite" in err
    assert not out_csv.exists()


def test_frames_overflowing_ranges(tmp_path, capsys):
    curve = quintic_right_cancellation()
    path = write_doc(tmp_path, "right.json", curve.generator, curve.certificate)
    out_csv = tmp_path / "x.csv"
    for frame in ("erf", "rmf", "frenet"):
        # the step (hi - lo) / (n - 1) overflows: a parse error, no CSV
        code, out, err = run(capsys, "frames", path, "--frame", frame, "--samples", "3",
                             "--range=-1e308:1e308", "--out", str(out_csv))
        assert (code, out) == (2, "") and "non-finite step" in err, frame
        assert not out_csv.exists()
        # finite parameters whose evaluation overflows are skipped, with a warning
        # each; at 1e62 only the position (degree 5) overflows, and erf wrote
        # rows of inf positions
        for bounds, xis in (("1e308:1e308", ["1e+308"] * 3),
                            ("1e100:1e101", ["1e+100", "5.4999999999999994e+100", "1e+101"]),
                            ("1e62:2e62", ["1e+62", "1.5e+62", "2e+62"])):
            code, out, err = run(capsys, "frames", path, "--frame", frame, "--samples", "3",
                                 f"--range={bounds}", "--out", str(out_csv))
            assert (code, out) == (0, f"wrote 0 samples to {out_csv}\n"), (frame, bounds)
            assert err == "".join(f"warning: xi={xi}: evaluation overflows, skipped\n"
                                  for xi in xis), (frame, bounds)
            assert out_csv.read_text() == CSV_HEADER + "\n"
            out_csv.unlink()


def test_frames_rejects_non_finite_normal_rotation(tmp_path, capsys):
    ex2 = quintic_no_cancellation()
    path = write_doc(tmp_path, "ex2.json", ex2.generator)
    out_csv = tmp_path / "x.csv"
    for flags in (["--normal-rotation", "nan"], ["--normal-rotation", "inf"],
                  ["--normal-rotation=-inf"]):
        code, out, err = run(capsys, "frames", path, "--samples", "3",
                             *flags, "--out", str(out_csv))
        assert code == 2 and "finite" in err and out == ""
    assert not out_csv.exists()


def test_frames_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    # a library consistency check failing is exit 5, with no traceback and
    # no CSV: raised by the first chunk, before --out is opened, and by a
    # later one, after rows were written
    calls = []

    def failing(*args, **kwargs):
        calls.append(len(args[2]))
        if len(calls) == fail_at:
            raise AssertionError("frame axis not unit at xi=0.75")
        return sample_frames(*args, **kwargs)

    monkeypatch.setattr(cli, "sample_frames", failing)
    monkeypatch.setattr(cli, "FRAME_CHUNK", 2)
    path = write_doc(tmp_path, "ex2.json", EX2.generator, EX2.certificate)
    out_csv = tmp_path / "x.csv"
    for fail_at in (1, 2):
        calls.clear()
        code, out, err = run(capsys, "frames", path, "--frame", "rmf",
                             "--samples", "5", "--out", str(out_csv))
        assert code == EXIT_INTERNAL == 5
        assert err == "internal error: frame axis not unit at xi=0.75\n"
        assert out == "" and not out_csv.exists()
        assert calls == [2, 2][:fail_at]


def _exact_frame_rows(path, b):
    for line in path.read_text().splitlines()[1:]:
        xi, *values = (float(v) for v in line.split(","))
        yield xi, values[3:], [c for axis in exact_axes(b, xi) for c in axis]


def test_frames_rmf_beyond_the_unit_interval(tmp_path, capsys):
    # the reduced rational entries once failed the 1e-12 unit check here
    fixture = Path(__file__).resolve().parent.parent / "fixtures" / "quintic-right-cancellation.json"
    curve = quintic_right_cancellation()
    b = certificate_generator(curve.generator, *curve.certificate)
    for bounds in ("-1.5:2", "-3:3"):
        out_csv = tmp_path / "r.csv"
        code, out, err = run(capsys, "frames", str(fixture), "--frame", "rmf",
                             f"--range={bounds}", "--samples", "201", "--out", str(out_csv))
        assert (code, err) == (0, "")
        assert out == f"wrote 201 samples to {out_csv}\n"
        rows = list(_exact_frame_rows(out_csv, b))
        assert len(rows) == 201
        for xi, got, want in rows:
            assert all(abs(x - y) <= FRAME_TOL for x, y in zip(got, want)), xi
        # a negative lower bound after a space is the same range
        spaced = tmp_path / "spaced.csv"
        code, out, err = run(capsys, "frames", str(fixture), "--frame", "rmf",
                             "--range", bounds, "--samples", "201", "--out", str(spaced))
        assert (code, out, err) == (0, f"wrote 201 samples to {spaced}\n", "")
        assert spaced.read_bytes() == out_csv.read_bytes()


def test_frames_csv_streams_in_chunks(tmp_path, capsys, monkeypatch):
    # chunked writing is byte-identical to one-call sampling, skips included
    xi_poly = RealPoly([0, 1]).as_quat()  # sigma = xi^2 vanishes at 0
    # --samples 1 writes the one row at the lower bound
    cases = [(EX2.generator, EX2.certificate, "rmf", 11), (xi_poly, None, "erf", 11),
             (EX2.generator, None, "frenet", 11), (EX2.generator, EX2.certificate, "rmf", 1)]
    for poly, cert, frame, n in cases:
        path = write_doc(tmp_path, f"{frame}.json", poly, cert)
        samples, warnings = sample_frames(poly, frame, [-1 + k * 0.2 for k in range(n)],
                                          certificate=cert)
        assert len(warnings) == (frame == "erf")  # the speed root of xi_poly
        write_frames_csv(samples, tmp_path / "whole.csv")
        for chunk in (1, 3, 11, 10 ** 4):
            monkeypatch.setattr(cli, "FRAME_CHUNK", chunk)
            out_csv = tmp_path / f"{frame}-{chunk}.csv"
            code, out, err = run(capsys, "frames", path, "--frame", frame,
                                 "--range=-1:1", "--samples", str(n), "--out", str(out_csv))
            assert code == 0
            assert out_csv.read_bytes() == (tmp_path / "whole.csv").read_bytes()
            assert err == "".join(f"warning: {w}\n" for w in warnings)
            assert out == f"wrote {len(samples)} samples to {out_csv}\n"


def test_frames_rmf_needs_certificate(tmp_path, capsys):
    ex2 = quintic_no_cancellation()
    path = write_doc(tmp_path, "bare.json", ex2.generator)
    code, _, err = run(capsys, "frames", path, "--frame", "rmf",
                       "--samples", "3", "--out", str(tmp_path / "x.csv"))
    assert code == 3


def test_verify_han(tmp_path, capsys):
    ex3 = quintic_right_cancellation()
    path = write_doc(tmp_path, "ex3.json", ex3.generator, ex3.certificate)
    code, out, _ = run(capsys, "verify-han", path)
    assert code == 0 and json.loads(out) == {"valid": True}

    # perturbed certificate still parses but fails verification
    bad_cert = (ex3.certificate[0] + 1, ex3.certificate[1])
    path = write_doc(tmp_path, "ex3bad.json", ex3.generator, bad_cert)
    code, out, _ = run(capsys, "verify-han", path)
    assert code == 0 and json.loads(out) == {"valid": False}

    path = write_doc(tmp_path, "nocert.json", ex3.generator)
    code, _, _ = run(capsys, "verify-han", path)
    assert code == 3


def test_reduce_via_document_certificate(tmp_path, capsys):
    ex2 = quintic_no_cancellation()
    path = write_doc(tmp_path, "ex2.json", ex2.generator, ex2.certificate)
    code, out, _ = run(capsys, "reduce", path)
    assert code == 0
    report = json.loads(out)
    assert report["in_F0"] is True
    assert report["document"]["kind"] == "quaternion"


def test_reduce_with_gamma_file(tmp_path, capsys):
    cubic = nontrivial_cubic()
    from rrmf.polynomials import ComplexPoly, RealPoly

    gamma = ComplexPoly.from_parts(RealPoly([0, 1]), RealPoly([1]))
    a = cubic * gamma.as_quat()
    path = write_doc(tmp_path, "a.json", a)
    gpath = tmp_path / "gamma.json"
    gpath.write_text(dumps_document(document_for(gamma)))
    code, out, _ = run(capsys, "reduce", path, "--gamma", str(gpath))
    assert code == 0
    report = json.loads(out)
    assert report["in_F0"] is True

    code, _, _ = run(capsys, "reduce", path)
    assert code == 3  # no certificate anywhere


def test_search_gamma(tmp_path, capsys):
    path = write_doc(tmp_path, "cubic.json", nontrivial_cubic())
    code, out, _ = run(capsys, "search-gamma", path, "--max-degree", "0")
    assert code == 0
    report = json.loads(out)
    assert report == {"found": True, "a": ["1/1"], "b": []}


def test_search_limits_rejected(tmp_path, capsys):
    path = write_doc(tmp_path, "cubic.json", nontrivial_cubic())
    cases = [("search-gamma", path, "--max-degree", "-1"),
             ("classify", path, "--search-degree", "-1")]
    for budget in ("-1", "nan", "inf", "-inf"):
        cases.append(("search-gamma", path, "--max-degree", "1", f"--budget={budget}"))
        cases.append(("classify", path, "--search-degree", "1", f"--budget={budget}"))
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "non-negative" in err


# printed by the former numeric search for the shipped fixtures at max
# degree 1, 2 and 3; the exact construction prints the same
SEARCH_GAMMA_GOLDEN = {
    "quintic-left-cancellation": [
        '{"found": true, "a": ["-2/1", "1/1"], "b": ["-1/1"]}'] * 3,
    "quintic-no-cancellation": [
        '{"found": false}',
        '{"found": true, "a": ["27/109", "-86/109", "1/1"], "b": ["19/109", "-4/109"]}',
        '{"found": true, "a": ["27/109", "-86/109", "1/1"], "b": ["19/109", "-4/109"]}'],
    "quintic-right-cancellation": [
        '{"found": false}',
        '{"found": false}',
        '{"found": true, "a": ["-19/2", "51/4", "-6/1", "1/1"], '
        '"b": ["-41/4", "8/1", "-2/1"]}'],
}


def test_search_gamma_golden_output(capsys):
    root = Path(__file__).resolve().parent.parent / "fixtures"
    for name, expected in SEARCH_GAMMA_GOLDEN.items():
        for degree, line in enumerate(expected, start=1):
            code, out, _ = run(capsys, "search-gamma", str(root / f"{name}.json"),
                               "--max-degree", str(degree))
            assert (code, out) == (0, line + "\n"), (name, degree)


def test_paper_examples_deterministic(capsys):
    code1, out1, _ = run(capsys, "paper-examples")
    code2, out2, _ = run(capsys, "paper-examples")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "checks passed" in out1
    assert "FAIL" not in out1


def test_paper_examples_exit_code_on_failure(capsys, monkeypatch):
    from rrmf import catalog as catalog_module
    from rrmf.catalog import RegressionItem

    monkeypatch.setattr(catalog_module, "run_regression",
                        lambda: [RegressionItem("forced", False, "synthetic")])
    import rrmf.cli as cli_module

    monkeypatch.setattr(cli_module, "catalog", catalog_module)
    code, out, _ = run(capsys, "paper-examples")
    assert code == 4 and "FAIL forced" in out


def test_verify_han_detects_perturbed_generator(tmp_path, capsys):
    # adding 1 to the first component leaves the Pythagorean structure
    # intact but invalidates the certificate
    ex1 = quintic_left_cancellation()
    u, v, p, q = ex1.generator.components()
    perturbed = QuatPoly.from_components(u + 1, v, p, q)
    from rrmf.hodograph import hodograph_of

    hodograph_of(perturbed)  # still a valid Pythagorean hodograph
    path = write_doc(tmp_path, "perturbed.json", perturbed, ex1.certificate)
    code, out, _ = run(capsys, "verify-han", path)
    assert code == 0 and json.loads(out) == {"valid": False}


def test_shipped_fixture_documents(capsys):
    import pathlib

    from rrmf.catalog import worked_quintics
    from rrmf.documents import parse_document

    root = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    for curve in worked_quintics():
        doc = parse_document((root / f"{curve.name}.json").read_text())
        assert doc.to_poly() == curve.generator
        assert doc.certificate == curve.certificate
        code, out, _ = run(capsys, "classify", str(root / f"{curve.name}.json"))
        assert code == 0
        assert json.loads(out)["in_F"] == "proven"


# Golden outputs, captured from the CLI before the verdicts were read from
# one GeneratorAnalysis.  JSON is stored compactly; the CLI prints it with
# json.dumps(..., indent=2), so the expected bytes are rebuilt that way.
_REGULARITY = "regularity over the reals (sigma having no real roots) not checked"
_SPATIAL_PRIMITIVE = ('"in_widetilde": true, "in_F0": false, "trivial": false, '
                      '"trivial_witness": null, "planar": false, "primitive": true, '
                      '"core_degree": 2')
CLASSIFY_GOLDEN = {
    # fixture name -> (output with its certificate, output with it stripped)
    "quintic-left-cancellation": (
        '{%s, "in_F": "proven", "membership_method": "certificate", '
        '"han_certificate": {"a": ["-2/1", "1/1"], "b": ["-1/1"]}, "notes": "%s"}',
        '{%s, "in_F": "unknown", "membership_method": "exhausted", '
        '"han_certificate": null, "notes": "%s"}'),
    "quintic-no-cancellation": (
        '{%s, "in_F": "proven", "membership_method": "certificate", '
        '"han_certificate": {"a": ["10/1", "-22/1", "27/1"], '
        '"b": ["0/1", "14/1", "-19/1"]}, "notes": "%s"}',
        '{%s, "in_F": "proven", "membership_method": "equal-degree-criterion", '
        '"han_certificate": null, "notes": "%s"}'),
    "quintic-right-cancellation": (
        '{%s, "in_F": "proven", "membership_method": "certificate", '
        '"han_certificate": {"a": ["-38/1", "51/1", "-24/1", "4/1"], '
        '"b": ["-41/1", "32/1", "-8/1"]}, "notes": "%s"}',
        '{%s, "in_F": "unknown", "membership_method": "exhausted", '
        '"han_certificate": null, "notes": "%s"}'),
}
# stripped fixture and --search-degree -> output: the search proves
# membership with the certificate search-gamma prints, or exhausts
CLASSIFY_SEARCH_GOLDEN = {
    ("quintic-left-cancellation", 1):
        '{%s, "in_F": "proven", "membership_method": "search", '
        '"han_certificate": {"a": ["-2/1", "1/1"], "b": ["-1/1"]}, "notes": "%s"}',
    ("quintic-right-cancellation", 2): CLASSIFY_GOLDEN["quintic-right-cancellation"][1],
    ("quintic-right-cancellation", 3):
        '{%s, "in_F": "proven", "membership_method": "search", '
        '"han_certificate": {"a": ["-19/2", "51/4", "-6/1", "1/1"], '
        '"b": ["-41/4", "8/1", "-2/1"]}, "notes": "%s"}',
}
CONSTRUCT_FAMILY_6_GOLDEN = (
    '{"document": {"sqrt_base": 0, "kind": "quaternion", "coefficients": '
    '[["1/1", "0/1", "0/1", "0/1"], ["0/1", "0/1", "1/1", "0/1"], '
    '["0/1", "0/1", "0/1", "0/1"], ["0/1", "0/1", "0/1", "0/1"], '
    '["0/1", "0/1", "0/1", "0/1"], ["0/1", "0/1", "0/1", "6/1"], '
    '["0/1", "4/1", "0/1", "0/1"]]}, "verification": '
    '{"in_F0": true, "trivial": false, "planar": false, "primitive": true}}')
CUBIC_MONIC_SPEC = {"a1": ["0", "0", "0", "1"], "a2": ["0", "0", "1", "0"], "s0": "1/3"}
CUBIC_MONIC_GOLDEN = (
    '{"document": {"sqrt_base": 0, "kind": "quaternion", "coefficients": '
    '[["1/3", "1/3", "0/1", "0/1"], ["0/1", "0/1", "0/1", "1/1"], '
    '["0/1", "0/1", "1/1", "0/1"], ["1/1", "0/1", "0/1", "0/1"]]}, "verification": '
    '{"in_F0": true, "trivial": false, "planar": false, "primitive": true}}')
REDUCE_LEFT_GOLDEN = (
    '{"document": {"sqrt_base": 0, "kind": "quaternion", "coefficients": '
    '[["347/1", "-16/1", "162/1", "-154/1"], ["-163/1", "0/1", "-160/1", "136/1"], '
    '["-21/1", "0/1", "42/1", "-42/1"], ["21/1", "0/1", "0/1", "0/1"]]}, '
    '"in_F0": true}')
_QUINTIC_CHECKS = {
    "quintic-left-cancellation": ("left cancellation factor",
                                  "no cancellation on the right"),
    "quintic-no-cancellation": ("no cancellation on the left",
                                "no cancellation on the right"),
    "quintic-right-cancellation": ("no cancellation on the left",
                                   "right cancellation factor"),
}
PAPER_EXAMPLES_GOLDEN = "".join(f"PASS {check}\n" for check in (
    *(f"{name}: {check}" for name, middle in _QUINTIC_CHECKS.items()
      for check in ("hodograph components", "parametric speed",
                    "primitive hodograph", *middle, "reduced fraction",
                    "certificate verified", "spatial (non-planar) curve")),
    *(f"{name}: {check}"
      for name in ("cubic", "quartic-sparse", "quartic-dense",
                   *(f"family-n{n}" for n in range(3, 13)))
      for check in ("vanishing indicatrix", "non-trivial")),
    "cubic constructor reproduces the catalog cubic",
    "quartic constructor reproduces the sparse quartic",
    "no-cancellation quintic: equal-degree divisibility",
)) + "53/53 checks passed\n"


def _indented(compact: str) -> str:
    return json.dumps(json.loads(compact), indent=2) + "\n"


def test_classify_golden_output(tmp_path, capsys):
    from rrmf.documents import parse_document

    root = Path(__file__).resolve().parent.parent / "fixtures"
    for name, (with_cert, bare) in CLASSIFY_GOLDEN.items():
        path = root / f"{name}.json"
        stripped = write_doc(tmp_path, f"{name}-bare.json",
                             parse_document(path.read_text()).to_poly())
        cases = [((str(path),), with_cert), ((stripped,), bare)]
        cases += [((stripped, "--search-degree", str(degree)), golden)
                  for (fixture, degree), golden in CLASSIFY_SEARCH_GOLDEN.items()
                  if fixture == name]
        for argv, golden in cases:
            code, out, err = run(capsys, "classify", *argv)
            expected = _indented(golden % (_SPATIAL_PRIMITIVE, _REGULARITY))
            assert (code, out, err) == (0, expected, ""), (name, argv)


def test_construct_reduce_and_paper_examples_golden_output(tmp_path, capsys):
    root = Path(__file__).resolve().parent.parent / "fixtures"
    left = str(root / "quintic-left-cancellation.json")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(CUBIC_MONIC_SPEC))
    real_gamma = write_doc(tmp_path, "real.json", RealPoly([0, 1]))
    cases = [(("construct", "family", "--n", "6"), _indented(CONSTRUCT_FAMILY_6_GOLDEN)),
             (("construct", "cubic-monic", "--spec-json", json.dumps(CUBIC_MONIC_SPEC)),
              _indented(CUBIC_MONIC_GOLDEN)),
             (("construct", "cubic-monic", "--spec", str(spec)),
              _indented(CUBIC_MONIC_GOLDEN)),
             (("reduce", left), _indented(REDUCE_LEFT_GOLDEN)),
             (("paper-examples",), PAPER_EXAMPLES_GOLDEN)]
    cases = [(argv, (0, out, "")) for argv, out in cases]
    cases.append((("reduce", left, "--gamma", real_gamma),
                  (3, "", "error: --gamma document must have complex kind\n")))
    for argv, expected in cases:
        assert run(capsys, *argv) == expected, argv


def test_zero_certificate_rejected(tmp_path, capsys):
    ex1 = quintic_left_cancellation()
    path = write_doc(tmp_path, "zero.json", ex1.generator)
    doc = json.loads(Path(path).read_text())
    # zero, then sharing the factor xi - 2
    cases = (({"a": [], "b": []}, "certificate (0, 0) is not allowed"),
             ({"a": ["-2", "1"], "b": ["-4", "2"]}, "certificate polynomials must be coprime"))
    for certificate, message in cases:
        doc["certificate"] = certificate
        Path(path).write_text(json.dumps(doc))
        for verb in ("classify", "reduce", "verify-han"):
            code, out, err = run(capsys, verb, path)
            assert (code, out) == (3, ""), verb
            assert err == f"error: {message}\n", verb
    # components sharing the real factor 1 + xi: classify checks a supplied
    # certificate as verify-han does, before skipping the membership tests
    shared = write_doc(tmp_path, "shared.json", nontrivial_cubic() * RealPoly([1, 1]))
    doc = json.loads(Path(shared).read_text())
    for certificate, message in cases:
        doc["certificate"] = certificate
        Path(shared).write_text(json.dumps(doc))
        for verb in ("classify", "verify-han"):
            code, out, err = run(capsys, verb, shared)
            assert (code, out) == (3, ""), verb
            assert err == f"error: {message}\n", verb
    doc["certificate"] = {"a": ["1"], "b": ["0", "1"]}
    Path(shared).write_text(json.dumps(doc))
    code, out, _ = run(capsys, "classify", shared)
    verdict = json.loads(out)
    assert code == 0 and not verdict["in_widetilde"]
    assert verdict["membership_method"] == "components-not-coprime"
    assert verdict["han_certificate"] == {"a": ["1/1"], "b": ["0/1", "1/1"]}


def test_classify_degree_bound(tmp_path, capsys):
    import random

    from rrmf.documents import MAX_DEGREE

    rng = random.Random(MAX_DEGREE)
    for degree, expected in ((MAX_DEGREE, 0), (MAX_DEGREE + 1, 2)):
        rows = [Quaternion(*(rng.randint(-9, 9) for _ in range(4))) for _ in range(degree)]
        path = write_doc(tmp_path, f"deg{degree}.json", QuatPoly(rows + [Quaternion(1, 2)]))
        code, out, err = run(capsys, "classify", path)
        assert code == expected
        if expected:
            assert (out, err) == ("", f"error: coefficients: at most {MAX_DEGREE + 1} "
                                      f"coefficients (degree {MAX_DEGREE}), got {degree + 1}\n")
        else:
            assert json.loads(out)["core_degree"] == MAX_DEGREE


def test_frames_samples_bound(tmp_path, capsys):
    from rrmf.cli import MAX_SAMPLES

    path = write_doc(tmp_path, "cubic.json", nontrivial_cubic())
    out_csv = tmp_path / "x.csv"
    for samples in (MAX_SAMPLES + 1, 10 ** 12):
        code, out, err = run(capsys, "frames", path, "--samples", str(samples),
                             "--out", str(out_csv))
        assert (code, out) == (3, "")
        assert err == f"error: --samples must be at most {MAX_SAMPLES}\n"
    assert not out_csv.exists()


def _long_scalar_doc(tmp_path, digits):
    # 1 + N xi j: trivial, with witness direction N j and squared norm N^2
    path = tmp_path / f"digits{digits}.json"
    path.write_text(json.dumps({"sqrt_base": 0, "kind": "quaternion",
                                "coefficients": [["1", "0", "0", "0"],
                                                 ["0", "0", "7" * digits, "0"]]}))
    return str(path)


def test_classify_digit_bound(tmp_path, capsys):
    from rrmf.documents import MAX_DIGITS

    code, out, err = run(capsys, "classify", _long_scalar_doc(tmp_path, MAX_DIGITS))
    assert code == 0 and err == ""
    witness = json.loads(out)["trivial_witness"]
    assert witness["direction"] == ["0/1", "0/1", "7" * MAX_DIGITS + "/1", "0/1"]
    assert witness["direction_norm_sq"] == f"{int('7' * MAX_DIGITS) ** 2}/1"
    code, out, err = run(capsys, "classify", _long_scalar_doc(tmp_path, MAX_DIGITS + 1))
    assert code == 2 and out == ""
    assert err.startswith(f"error: scalar numbers have at most {MAX_DIGITS} digits")
    # the numerator and the denominator of the rational part and of the
    # surd coefficient each take MAX_DIGITS digits, and not one more
    path = tmp_path / "digits.json"
    for digits in (MAX_DIGITS, MAX_DIGITS + 1):
        n = "7" * digits
        for scalar in (f"{n}/3+1/2*sqrt(15)", f"1/{n}+1/2*sqrt(15)",
                       f"1+{n}/2*sqrt(15)", f"1+1/{n}*sqrt(15)"):
            path.write_text(json.dumps({"sqrt_base": 15, "kind": "quaternion",
                                        "coefficients": [["1", "0", "0", "0"],
                                                         ["0", "0", scalar, "0"]]}))
            code, out, err = run(capsys, "classify", str(path))
            if digits == MAX_DIGITS:
                assert (code, err) == (0, "") and json.loads(out)["trivial_witness"], scalar
            else:
                assert (code, out) == (2, ""), scalar
                assert err.startswith(f"error: scalar numbers have at most {MAX_DIGITS} digits")
    spec = json.dumps({"a1": ["0", "0", "0", "1" * (MAX_DIGITS + 1)],
                       "a2": ["0", "0", "1", "0"]})
    code, out, err = run(capsys, "construct", "cubic", "--spec-json", spec)
    assert code == 2 and f"at most {MAX_DIGITS} digits" in err
    # an integer literal too long for Python to convert
    code, out, err = run(capsys, "construct", "cubic", "--spec-json",
                         '{"a1": [0, 0, 0, %s], "a2": [0, 0, 1, 0]}' % ("1" * 5000))
    assert code == 2 and err.startswith("error: invalid JSON")


def test_classify_rejects_scalar_whose_witness_cannot_be_printed(tmp_path, capsys):
    # a valid-looking 3000-digit scalar once passed parsing, and printing
    # the witness's 6000-digit squared norm then failed with exit 3
    code, out, err = run(capsys, "classify", _long_scalar_doc(tmp_path, 3000))
    assert (code, out) == (2, "")
    assert "at most" in err and "digits" in err


def test_classify_prints_numbers_beyond_the_int_string_limit(tmp_path, capsys):
    # over Q(sqrt 15) the witness of 1 + q xi with q = (0, 0, y, z) has the
    # squared norm y^2 + z^2, whose numbers outgrow Python's 4300-digit
    # limit for printing an int; the limit still holds for parsing
    import random
    import re
    from decimal import Decimal
    from fractions import Fraction

    from rrmf.documents import MAX_DIGITS
    from rrmf.scalars import parse_scalar

    rng = random.Random(MAX_DIGITS)
    numbers = [str(rng.randrange(10 ** (MAX_DIGITS - 1), 10 ** MAX_DIGITS)) for _ in range(8)]
    y, z = (f"{n[0]}/{n[1]}+{n[2]}/{n[3]}*sqrt(15)" for n in (numbers[:4], numbers[4:]))
    path = tmp_path / "long-norm.json"
    path.write_text(json.dumps({"sqrt_base": 15, "kind": "quaternion",
                                "coefficients": [["1", "0", "0", "0"], ["0", "0", y, z]]}))
    code, out, err = run(capsys, "classify", str(path))
    assert (code, err) == (0, "")
    printed = json.loads(out)["trivial_witness"]["direction_norm_sq"]
    parts = re.fullmatch(r"(\d+)/(\d+)\+(\d+)/(\d+)\*sqrt\(15\)", printed).groups()
    num, den, c_num, c_den = (int(Decimal(p)) for p in parts)
    assert num > 10 ** 4300
    y, z = parse_scalar(y, 15), parse_scalar(z, 15)
    norm_sq = y * y + z * z
    assert (Fraction(num, den), Fraction(c_num, c_den)) == (norm_sq.a, norm_sq.b)


# -- long coefficients and fuzzed verbs ------------------------------------

# Wall-clock bound for one verb on a long-coefficient document, process
# start included.  Measured on a 2-core VM (Python 3.11): 0.2 s for
# classify at degree 16 x 100 digits, 0.6 s at degree 8 x 1000 digits and
# 0.3 s for search-gamma --max-degree 8 at degree 8 x 100 digits.
LONG_BOUND_S = 5


def _long_generator_doc(tmp_path, degree, digits, seed=1):
    """A seeded random generator whose scalars are p/q, both of ``digits`` digits."""
    import random

    rng = random.Random(seed)

    def number():
        return rng.randrange(10 ** (digits - 1), 10 ** digits)

    rows = [[f"{rng.choice('+-')}{number()}/{number()}" for _ in range(4)]
            for _ in range(degree + 1)]
    path = tmp_path / f"long-{degree}x{digits}.json"
    path.write_text(json.dumps({"sqrt_base": 0, "kind": "quaternion", "coefficients": rows}))
    return str(path)


def test_closed_stdout_exits_without_traceback():
    # the reader of the pipe has gone before anything is written, as after
    # `rrmf classify ... | head -c 1`
    env = {**os.environ,
           "PYTHONPATH": str(Path(rrmf.__file__).resolve().parents[1])}
    fixture = Path(__file__).resolve().parents[1] / "fixtures" / "quintic-no-cancellation.json"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "rrmf.cli", "classify", str(fixture)],
                              stdout=write, stderr=subprocess.PIPE, text=True, env=env,
                              timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_CLOSED_OUTPUT, "")


def test_long_coefficient_documents_finish_within_a_bound(tmp_path):
    env = {**os.environ,
           "PYTHONPATH": str(Path(rrmf.__file__).resolve().parents[1])}
    runs = [["classify", _long_generator_doc(tmp_path, 16, 100)],
            ["classify", _long_generator_doc(tmp_path, 8, 1000)],
            ["search-gamma", _long_generator_doc(tmp_path, 8, 100), "--max-degree", "8"]]
    for argv in runs:
        proc = subprocess.run([sys.executable, "-m", "rrmf.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=LONG_BOUND_S)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        assert json.loads(proc.stdout)


# Fuzzed documents for the verbs that read one: quaternion generators of
# degree <= 16 whose scalars are integers, p/q with up to 100 digits each
# or (over Q(sqrt 15)) surds, sometimes with a certificate, and in about
# one document in four one field made junk.  frames reads such a document
# with edge values of --samples, --range and --normal-rotation; construct
# reads a fuzzed spec instead.  Every example runs in this process, must
# finish within FUZZ_DEADLINE_MS, exit with a documented code and print no
# traceback.
FUZZ_DEADLINE_MS = 5000
_NUMBERS = st.integers(min_value=-(10 ** 100 - 1), max_value=10 ** 100 - 1)
_JUNK = st.one_of(st.sampled_from(["", "1/0", "x", "sqrt(", "1e5", "--1", "1/2/3",
                                   "sqrt(-1)", "2*sqrt(16)", "7" * 1001, None, [],
                                   -3, 2.5, {"a": 1}]),
                  st.text(max_size=6))


def _scalars(base):
    rationals = st.builds(lambda n, d: f"{n}/{d}", _NUMBERS,
                          st.integers(min_value=1, max_value=10 ** 100 - 1))
    options = [st.integers(-9, 9).map(str), rationals]
    if base:
        options.append(st.builds(lambda a, b: f"{a}+{abs(b) + 1}*sqrt({base})",
                                 rationals, _NUMBERS))
    return st.one_of(options)


@st.composite
def _fuzzed_documents(draw):
    base = draw(st.sampled_from([0, 15]))
    scalar = _scalars(base)
    degree = draw(st.integers(min_value=0, max_value=16))
    rows = draw(st.lists(st.lists(scalar, min_size=4, max_size=4),
                         min_size=degree + 1, max_size=degree + 1))
    doc = {"sqrt_base": base, "kind": "quaternion", "coefficients": rows}
    if draw(st.booleans()):
        doc["certificate"] = {"a": draw(st.lists(scalar, min_size=1, max_size=4)),
                              "b": draw(st.lists(scalar, max_size=4))}
    junk = draw(st.sampled_from(["", "", "", "sqrt_base", "kind", "coefficient",
                                 "certificate"]))
    if junk == "coefficient":
        rows[draw(st.integers(0, degree))][draw(st.integers(0, 3))] = draw(_JUNK)
    elif junk:
        doc[junk] = draw(_JUNK)
    return json.dumps(doc)


_VERBS = [["classify"], ["classify", "--search-degree", "2"], ["verify-han"],
          ["reduce"], ["search-gamma", "--max-degree", "8"]]
_RANGES = st.one_of(
    st.sampled_from(["0:1", "1:0", "2:2", "-1.5:2", "-1e308:1e308", "1e308:-1e308",
                     "1e308:1e308"]),
    st.builds("{}:{}".format, st.floats(-3, 3), st.floats(-3, 3)))
_ROTATIONS = st.one_of(st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308"]),
                       st.floats(-10, 10).map(repr))


@st.composite
def _frames_argv(draw):
    samples = draw(st.one_of(st.sampled_from([0, 1, cli.MAX_SAMPLES + 1]),
                             st.integers(2, 300)))
    return ["frames", "--frame", draw(st.sampled_from(["erf", "rmf", "frenet"])),
            "--samples", str(samples), f"--range={draw(_RANGES)}",
            f"--normal-rotation={draw(_ROTATIONS)}"]


@st.composite
def _construct_argv(draw):
    """construct with a spec of jk-plane, zero, real, parallel or off-plane
    A1 and A2, read by the quartic, the two cubics and the trivial kind."""
    base = draw(st.sampled_from([0, 15]))
    small = st.sampled_from(["1", "-1", "1/2", "-3/7", "2", "0"]
                            + (["sqrt(15)", "1-1/2*sqrt(15)"] if base else []))

    def quaternion(shape):
        if shape == "zero":
            return ["0"] * 4
        if shape == "real":
            return [draw(small), "0", "0", "0"]
        i = draw(small) if shape == "off-plane" else "0"
        return [draw(small), i, draw(small), draw(small)]

    shapes = st.sampled_from(["jk", "zero", "real", "off-plane"])
    a1 = quaternion(draw(shapes))
    if draw(st.booleans()):
        factor = parse_scalar(draw(small), base)
        a2 = [format_scalar(parse_scalar(c, base) * factor) for c in a1]
    else:
        a2 = quaternion(draw(shapes))
    spec = {"sqrt_base": base, "a1": a1, "a2": a2, "a3_j": draw(small),
            "a3_k": draw(small), "s3": draw(small), "s0": draw(small),
            "direction": quaternion("jk"),
            "coefficients": [[draw(small), draw(small)] for _ in range(draw(st.integers(0, 3)))]}
    if draw(st.booleans()):
        spec["left_factor"] = quaternion(draw(shapes))
    junk = draw(st.sampled_from([None, None, None, "a1", "a3_j", "sqrt_base"]))
    if junk:
        spec[junk] = draw(_JUNK)
    kind = draw(st.sampled_from(["quartic", "quartic", "cubic", "cubic-monic", "trivial"]))
    return ["construct", kind, "--spec-json", json.dumps(spec)]


_FUZZ = settings(max_examples=100, deadline=FUZZ_DEADLINE_MS, derandomize=True,
                 database=None,
                 suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


def _exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4, 5), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


@_FUZZ
@given(_fuzzed_documents(), st.sampled_from(_VERBS))
def test_fuzzed_verbs_exit_cleanly(text, verb):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text)
        _exits_cleanly([verb[0], str(path), *verb[1:]])


@_FUZZ
@given(_fuzzed_documents(), _frames_argv())
def test_fuzzed_frames_exit_cleanly(text, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text)
        _exits_cleanly([*argv, str(path), "--out", str(Path(tmp) / "frames.csv")])


@_FUZZ
@given(_construct_argv())
def test_fuzzed_construct_exits_cleanly(argv):
    _exits_cleanly(argv)
