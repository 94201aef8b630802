"""The hard checks of the benchmark in bench/, run on the library.

The benchmark resolves each traced name and each layer module before it
runs, calls library names through its layer modules, and its verdicts
workload compares every verdict JSON with the reference stored in the
pool byte for byte.  These tests read the bench files and change none
of them.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

from rrmf.classify import cancel_indicatrix, classify, search_certificate
from rrmf.cli import classification_to_dict
from rrmf.documents import parse_document
from rrmf.polynomials import ComplexPoly, QuatPoly

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


def _layer_root(node) -> str | None:
    """The layer of ``rrmf["layer"]`` or ``self.rrmf["layer"]``, else None."""
    if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)):
        return None
    holder = node.value
    if (isinstance(holder, ast.Name) and holder.id == "rrmf") or (
            isinstance(holder, ast.Attribute) and holder.attr == "rrmf"
            and isinstance(holder.value, ast.Name) and holder.value.id == "self"):
        return node.slice.value
    return None


def _layer_locals(function) -> dict:
    """The local names a function binds to a layer root, by name."""
    bound = {}
    for node in ast.walk(function):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = zip(target.elts, node.value.elts)
            for name, value in pairs:
                layer = _layer_root(value)
                if isinstance(name, ast.Name) and layer is not None:
                    bound[name.id] = layer
    return bound


def _chain(node, bound: dict):
    """(layer, attribute names) of an attribute chain rooted at a layer or
    at a local bound to one, else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    layer = bound.get(node.id) if isinstance(node, ast.Name) else _layer_root(node)
    return (layer, names[::-1]) if layer is not None and names else None


def _bench_calls():
    """Every (file, line, layer, names, call) of bench/workloads.py and
    bench/kernels.py: an attribute chain on a layer module, and the Call
    node that calls it, or None."""
    for filename in ("workloads.py", "kernels.py"):
        tree = ast.parse((BENCH / filename).read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            bound = _layer_locals(function)
            calls = {id(node.func): node for node in ast.walk(function)
                     if isinstance(node, ast.Call)}
            for node in ast.walk(function):
                found = _chain(node, bound) if isinstance(node, ast.Attribute) else None
                if found is not None:
                    yield filename, node.lineno, *found, calls.get(id(node))


def test_benchmark_calls_resolve():
    """Each library name bench/ reads through a layer module exists, and
    each call of one accepts the arguments bench passes."""
    seen = set()
    for filename, line, layer, names, call in _bench_calls():
        where = f"{filename}:{line}: rrmf.{layer}.{'.'.join(names)}"
        value = importlib.import_module(f"rrmf.{layer}")
        for name in names:
            assert hasattr(value, name), where
            value = getattr(value, name)
        seen.add(f"{layer}.{'.'.join(names)}")
        if call is None:
            continue
        keywords = {k.arg: None for k in call.keywords if k.arg is not None}
        signature = inspect.signature(value)
        if any(isinstance(a, ast.Starred) for a in call.args) or len(keywords) < len(call.keywords):
            signature.bind_partial(**keywords)
        else:
            signature.bind(*[None] * len(call.args), **keywords)
    # the walk reaches the names of every workload and of the kernel timings
    assert {"hodograph.integrate", "polynomials.ComplexPoly.from_parts",
            "classify.cancel_indicatrix", "classify.search_certificate",
            "frames.sample_frames", "frames.CSV_HEADER", "scalars.Scalar"} <= seen


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


def test_pool_search_outcomes_reproduce():
    """The search workload's items: a generator with a certificate degree
    yields a certificate that cancels its indicatrix, and a miss yields none."""
    with open(BENCH / "data" / "pool.json", encoding="utf-8") as fh:
        items = [item for item in json.load(fh)["items"] if item["id"].startswith("search-")]
    hits = [item for item in items if "cert_degree" in item]
    assert (len(items), len(hits)) == (33, 25)
    assert sorted(item["cert_degree"] for item in hits
                  if item["part"] == "search-fe") == [1] * 12 + [2] * 7 + [3] * 3
    wrong = []
    for item in items:
        a = QuatPoly.of(parse_document(item["doc"]).to_poly())
        found = search_certificate(a, item.get("cert_degree", 1))
        if "cert_degree" not in item:
            proven = found is None
        else:
            proven = (found is not None and
                      cancel_indicatrix(a, ComplexPoly.from_parts(*found)).vanishing)
        if not proven:
            wrong.append(item["id"])
    assert not wrong, wrong
