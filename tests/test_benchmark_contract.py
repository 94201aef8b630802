"""The two hard checks of the benchmark in bench/, run on the library.

The benchmark resolves each traced name and each layer module before it
runs, and its verdicts workload compares every verdict JSON with the
reference stored in the pool byte for byte.  These tests read the bench
files and change none of them.
"""

import ast
import importlib
import json
from pathlib import Path

from rrmf.classify import classify
from rrmf.cli import classification_to_dict
from rrmf.documents import parse_document
from rrmf.polynomials import QuatPoly

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _assigned(path: Path, name: str):
    """The literal value assigned to ``name`` at the top level of path."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {path.name}")


def test_benchmark_names_resolve():
    layers = _assigned(BENCH / "workloads.py", "LAYERS")
    modules = {layer: importlib.import_module(f"rrmf.{layer}") for layer in layers}
    targets = _assigned(BENCH / "tracing.py", "TARGETS")
    assert layers and targets
    for target in targets:
        layer, *path = target.split(".")
        owner = modules.get(layer) or importlib.import_module(f"rrmf.{layer}")
        if len(path) == 2:
            # a method is wrapped on its class, so it must be the class's own
            assert path[1] in vars(getattr(owner, path[0])), target
        else:
            assert callable(getattr(owner, path[0])), target


def test_pool_reference_verdicts_reproduce():
    with open(BENCH / "data" / "pool.json", encoding="utf-8") as fh:
        items = [item for item in json.load(fh)["items"] if "verdict" in item]
    assert items
    differ = []
    for item in items:
        doc = parse_document(item["doc"])
        result = classify(QuatPoly.of(doc.to_poly()), doc.certificate)
        if json.dumps(classification_to_dict(result)) != item["verdict"]:
            differ.append(item["id"])
    assert not differ, differ
