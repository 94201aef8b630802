import json

from rrmf.catalog import (nontrivial_cubic, quintic_left_cancellation,
                          quintic_no_cancellation, quintic_right_cancellation)
from rrmf.cli import main
from rrmf.documents import document_for, dumps_document
from rrmf.polynomials import QuatPoly
from rrmf.quaternions import Quaternion


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


def test_construct_cubic_spec(capsys):
    spec = {"a1": ["0", "0", "0", "1"], "a2": ["0", "0", "1", "0"]}
    code, out, _ = run(capsys, "construct", "cubic", "--spec-json", json.dumps(spec))
    assert code == 0
    report = json.loads(out)
    assert report["document"]["coefficients"][3] == ["0/1", "-1/3", "0/1", "0/1"]


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
