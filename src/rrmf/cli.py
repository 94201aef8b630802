"""Command-line interface.

Verbs: classify, construct, frames, verify-han, reduce, search-gamma,
paper-examples.  Polynomials travel as exact JSON documents (see
documents.py); frame samples leave as CSV.  Exit codes: 0 success,
1 standard output closed early (no traceback), 2 parse error,
3 precondition violation, 4 regression failure, 5 internal error (a
consistency check inside the library failed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from . import catalog
from .classify import Classification, classify, search_certificate
from .construct import (ConstructionError, CubicSpec, QuarticSpec, make_cubic,
                        make_cubic_monic, make_f_element, make_quartic,
                        make_spatial_family, make_trivial)
from .documents import (MAX_DEGREE, DocumentError, PolyDocument, document_for,
                        document_to_dict, load_json, parse_base, parse_document,
                        read_scalar)
from .frames import CSV_HEADER, sample_frames, write_frame_rows
from .polynomials import InexactDivision, QuatPoly
from .quaternions import Quaternion
from .scalars import Scalar, format_scalar

EXIT_OK = 0
EXIT_CLOSED_OUTPUT = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_REGRESSION = 4
EXIT_INTERNAL = 5

# upper bound on `rrmf frames --samples`
MAX_SAMPLES = 10 ** 6
# `rrmf frames` samples and writes this many parameters at a time, so its
# memory does not grow with --samples
FRAME_CHUNK = 10 ** 4


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_document(path: str) -> PolyDocument:
    return parse_document(_read_input(path))


def _quat_json(q: Quaternion) -> list[str]:
    return [format_scalar(c) for c in q.components()]


def _certificate_json(cert) -> dict:
    a, b = cert
    return {"a": [format_scalar(c) for c in a.coeffs],
            "b": [format_scalar(c) for c in b.coeffs]}


def classification_to_dict(c: Classification) -> dict:
    out = {
        "in_widetilde": c.in_widetilde,
        "in_F0": c.in_f0,
        "trivial": c.trivial is not None,
        "trivial_witness": None,
        "planar": c.planar,
        "primitive": c.primitive,
        "core_degree": c.core_degree,
        "in_F": c.membership.status.value,
        "membership_method": c.membership.method,
        "han_certificate": None,
        "notes": c.notes,
    }
    if c.trivial is not None:
        out["trivial_witness"] = {
            "left_factor": _quat_json(c.trivial.left_factor),
            "direction": _quat_json(c.trivial.direction),
            "direction_norm_sq": format_scalar(c.trivial.direction_norm_sq),
        }
    if c.han_certificate is not None:
        out["han_certificate"] = _certificate_json(c.han_certificate)
    elif c.membership.certificate is not None:
        out["han_certificate"] = _certificate_json(c.membership.certificate)
    return out


def _parse_quat(value, base: int) -> Quaternion:
    if not isinstance(value, list) or len(value) != 4:
        raise DocumentError(f"quaternion needs 4 scalar strings, got {value!r}")
    return Quaternion(*(read_scalar(c, base) for c in value))


def _parse_scalar_field(spec: dict, key: str, base: int, default="0") -> Scalar:
    return read_scalar(spec.get(key, default), base)


def _parse_pairs(value, base: int) -> list[tuple[Scalar, Scalar]]:
    if not isinstance(value, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in value):
        raise DocumentError(f"coefficients need [x, y] scalar pairs, got {value!r}")
    return [(read_scalar(x, base), read_scalar(y, base)) for x, y in value]


# -- subcommands -------------------------------------------------------


def _check_search_limits(flag: str, degree, budget: float) -> None:
    if degree is not None and degree < 0:
        raise DocumentError(f"{flag} must be non-negative, got {degree}")
    if not (math.isfinite(budget) and budget >= 0):
        raise DocumentError(f"--budget must be finite and non-negative, got {budget}")


def cmd_classify(args) -> int:
    _check_search_limits("--search-degree", args.search_degree, args.budget)
    doc = _load_document(args.input)
    poly = QuatPoly.of(doc.to_poly())
    result = classify(poly, certificate=doc.certificate,
                      search_degree=args.search_degree,
                      search_budget=args.budget)
    print(json.dumps(classification_to_dict(result), indent=2))
    return EXIT_OK


def _required(spec: dict, key: str):
    if key not in spec:
        raise DocumentError(f"construction spec is missing required key {key!r}")
    return spec[key]


def _construct_from_spec(kind: str, spec: dict):
    base = parse_base(spec.get("sqrt_base", 0))
    if kind == "trivial":
        left = _parse_quat(spec.get("left_factor", ["1", "0", "0", "0"]), base)
        direction = _parse_quat(_required(spec, "direction"), base)
        coeffs = _parse_pairs(_required(spec, "coefficients"), base)
        poly = make_trivial(left, direction, coeffs)
        return poly, {}
    if kind == "cubic":
        poly = make_cubic(CubicSpec(
            _parse_quat(_required(spec, "a1"), base),
            _parse_quat(_required(spec, "a2"), base),
            _parse_scalar_field(spec, "s3", base),
            _parse_quat(spec.get("left_factor", ["1", "0", "0", "0"]), base)))
        return poly, {}
    if kind == "cubic-monic":
        poly = make_cubic_monic(
            _parse_quat(_required(spec, "a1"), base),
            _parse_quat(_required(spec, "a2"), base),
            _parse_scalar_field(spec, "s0", base))
        return poly, {}
    if kind == "quartic":
        result = make_quartic(QuarticSpec(
            _parse_quat(_required(spec, "a1"), base),
            _parse_quat(_required(spec, "a2"), base),
            _parse_scalar_field(spec, "a3_j", base),
            _parse_scalar_field(spec, "a3_k", base),
            _parse_scalar_field(spec, "s3", base),
            _parse_quat(spec.get("left_factor", ["1", "0", "0", "0"]), base)))
        return result.poly, {"non_trivial": result.non_trivial,
                             "family_dim": result.family_dim}
    if kind == "f-element":
        b0 = parse_document(_required(spec, "b0")).to_poly()
        delta = parse_document(_required(spec, "delta")).to_poly()
        element = make_f_element(QuatPoly.of(b0), delta)
        gamma_doc = document_to_dict(document_for(element.certificate))
        return element.poly, {"gamma": gamma_doc}
    raise DocumentError(f"unknown construction kind {kind!r}")


def cmd_construct(args) -> int:
    if args.kind == "family":
        if args.n is None:
            raise ConstructionError("family construction requires --n")
        # the degree bound every verb reading the document holds
        if args.n > MAX_DEGREE:
            raise DocumentError(f"--n must be at most {MAX_DEGREE} "
                                f"(rrmf.documents.MAX_DEGREE), got {args.n}")
        poly, extra = make_spatial_family(args.n), {}
    else:
        if args.spec is not None:
            spec = load_json(_read_input(args.spec))
        elif args.spec_json is not None:
            spec = load_json(args.spec_json)
        else:
            raise DocumentError("construction requires --spec or --spec-json")
        if not isinstance(spec, dict):
            raise DocumentError("construction spec must be a JSON object")
        poly, extra = _construct_from_spec(args.kind, spec)
    verdict = classify(poly)
    report = {
        "document": document_to_dict(document_for(poly)),
        "verification": {
            "in_F0": verdict.in_f0,
            "trivial": verdict.trivial is not None,
            "planar": verdict.planar,
            "primitive": verdict.primitive,
            **extra,
        },
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(bound) for bound in text.split(":"))
    except ValueError as exc:
        raise DocumentError(f"range must be lo:hi, got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DocumentError(f"range bounds must be finite, got {text!r}")
    return lo, hi


def cmd_frames(args) -> int:
    doc = _load_document(args.input)
    poly = QuatPoly.of(doc.to_poly())
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    if args.samples > MAX_SAMPLES:
        raise ValueError(f"--samples must be at most {MAX_SAMPLES}")
    lo, hi = _parse_range(args.range)
    if not math.isfinite(args.normal_rotation):
        raise DocumentError(
            f"--normal-rotation must be finite, got {args.normal_rotation}")
    n = args.samples
    if n == 1:
        chunks = iter([[lo]])
    else:
        step = (hi - lo) / (n - 1)
        # the parameters run from lo to lo + (n - 1) step
        if not (math.isfinite(step) and math.isfinite(lo + (n - 1) * step)):
            raise DocumentError(
                f"range {args.range!r} gives a non-finite step or parameter "
                f"over {n} samples")
        chunks = ([lo + k * step for k in range(start, min(start + FRAME_CHUNK, n))]
                  for start in range(0, n, FRAME_CHUNK))

    def sample(xis):
        return sample_frames(poly, args.frame, xis, certificate=doc.certificate,
                             normal_rotation=args.normal_rotation)

    # a rejected generator or certificate fails here, before --out is opened
    samples, warnings = sample(next(chunks))
    fh = open(args.out, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.write(CSV_HEADER + "\n")
            write_frame_rows(samples, fh)
            written = len(samples)
            for xis in chunks:
                samples, skipped = sample(xis)
                write_frame_rows(samples, fh)
                written += len(samples)
                warnings += skipped
    except BaseException:
        # no partial CSV is left behind; a device or a link such as
        # /dev/stdout is never removed
        if os.path.isfile(args.out) and not os.path.islink(args.out):
            os.remove(args.out)
        raise
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"wrote {written} samples to {args.out}")
    return EXIT_OK


def cmd_verify_han(args) -> int:
    doc = _load_document(args.input)
    if doc.certificate is None:
        raise ValueError("document carries no certificate to verify")
    from .indicatrix import verify_han

    poly = QuatPoly.of(doc.to_poly())
    valid = verify_han(poly, doc.certificate[0], doc.certificate[1])
    print(json.dumps({"valid": valid}))
    return EXIT_OK


def cmd_reduce(args) -> int:
    from .classify import cancel_indicatrix
    from .polynomials import ComplexPoly

    doc = _load_document(args.input)
    poly = QuatPoly.of(doc.to_poly())
    if args.gamma is not None:
        gamma_doc = _load_document(args.gamma)
        if gamma_doc.kind != "complex":
            raise ValueError("--gamma document must have complex kind")
        gamma = gamma_doc.to_poly()
    elif doc.certificate is not None:
        gamma = ComplexPoly.from_parts(doc.certificate[0], doc.certificate[1])
    else:
        raise ValueError("reduction needs --gamma or a certificate in the document")
    reduced = cancel_indicatrix(poly, gamma)
    out = {"document": document_to_dict(document_for(reduced.result)),
           "in_F0": reduced.vanishing}
    print(json.dumps(out, indent=2))
    return EXIT_OK


def cmd_search_gamma(args) -> int:
    _check_search_limits("--max-degree", args.max_degree, args.budget)
    doc = _load_document(args.input)
    poly = QuatPoly.of(doc.to_poly())
    found = search_certificate(poly, args.max_degree,
                               budget_seconds=args.budget, seed=args.seed)
    if found is None:
        print(json.dumps({"found": False}))
    else:
        print(json.dumps({"found": True, **_certificate_json(found)}))
    return EXIT_OK


def cmd_paper_examples(args) -> int:
    items = catalog.run_regression()
    failures = 0
    for item in items:
        if item.passed:
            print(f"PASS {item.name}")
        else:
            failures += 1
            detail = f" ({item.detail})" if item.detail else ""
            print(f"FAIL {item.name}{detail}")
    print(f"{len(items) - failures}/{len(items)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_REGRESSION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrmf",
        description="Exact toolkit for Pythagorean-hodograph curves with "
                    "rational rotation-minimizing frames")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="full verdict record for a generator")
    p.add_argument("input", help="polynomial document (path or - for stdin)")
    p.add_argument("--search-degree", type=int, default=None,
                   help="also search for a certificate up to this degree")
    p.add_argument("--budget", type=float, default=10.0,
                   help="search budget in seconds")
    p.add_argument("--seed", type=int, default=None,
                   help="accepted for compatibility; has no effect")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("construct", help="generate a catalog family member")
    p.add_argument("kind", choices=["trivial", "cubic", "cubic-monic",
                                    "quartic", "family", "f-element"])
    p.add_argument("--n", type=int, default=None, help="degree for kind=family")
    p.add_argument("--spec", default=None, help="spec JSON file")
    p.add_argument("--spec-json", default=None, help="inline spec JSON")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("frames", help="sample an adapted frame to CSV")
    p.add_argument("input")
    p.add_argument("--frame", choices=["erf", "rmf", "frenet"], default="erf")
    p.add_argument("--samples", type=int, required=True,
                   help=f"number of parameters, 1 to {MAX_SAMPLES}")
    p.add_argument("--range", default="0:1")
    p.add_argument("--out", required=True)
    p.add_argument("--normal-rotation", type=float, default=0.0,
                   help="constant normal-plane rotation in radians, finite")
    p.set_defaults(func=cmd_frames)

    p = sub.add_parser("verify-han", help="verify the document's certificate")
    p.add_argument("input")
    p.set_defaults(func=cmd_verify_han)

    p = sub.add_parser("reduce", help="cancel the indicatrix by a certificate")
    p.add_argument("input")
    p.add_argument("--gamma", default=None,
                   help="complex-kind document for the certificate polynomial")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("search-gamma",
                       help="construct the certificate of degree <= D exactly")
    p.add_argument("input")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--budget", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=None,
                   help="accepted for compatibility; has no effect")
    p.set_defaults(func=cmd_search_gamma)

    p = sub.add_parser("paper-examples",
                       help="run the built-in exact regression battery")
    p.set_defaults(func=cmd_paper_examples)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads the -1.5:2 of "--range -1.5:2" as an option: join the two
    for k in range(len(argv) - 1, 0, -1):
        if argv[k - 1] == "--range" and re.match(r"-\.?\d", argv[k]):
            argv[k - 1:k + 1] = [f"--range={argv[k]}"]
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # buffered output reaches a closed pipe here, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone (`rrmf classify ... | head -c 1`): what is still
        # buffered goes to devnull, so the flush at exit raises nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_CLOSED_OUTPUT
    except (DocumentError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, ZeroDivisionError, InexactDivision) as exc:
        # includes ConstructionError, CertificateError, SurdBaseMismatch
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except AssertionError as exc:
        # a runtime consistency check failed, e.g. a sampled frame axis
        # drifting past the 1e-12 unit tolerance
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
