"""Spans around the library's layer entry points, recorded from outside it.

``instrument`` wraps each target and rebinds every name under which an
``rrmf`` module holds it: the modules import one another with
``from .x import y``, so patching the defining module alone would miss
most calls.  Methods are wrapped on their class.  Everything is restored
when the ``with`` block ends.

A span is ``[name id, parent span, start ns, end ns, op]``; the parent
links give self time as a span's duration minus that of its direct
children (calls nest on the one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# layer.function or layer.Class.method, named after the rrmf modules
TARGETS = (
    "polynomials.gcd_real", "polynomials.gcd_complex", "polynomials.exact_divide",
    "polynomials.reduce_fraction", "polynomials.QuatPoly.__mul__",
    "polynomials.RationalFunction.evaluate_float",
    "linalg.exact_rank",
    "hodograph.has_coprime_components", "hodograph.core_of",
    "hodograph.is_primitive", "hodograph.hodograph_of",
    "indicatrix.verify_han", "indicatrix.rho_eta", "indicatrix.inner_product_poly",
    "classify.classify", "classify.has_vanishing_indicatrix",
    "classify.indicatrix_coefficients", "classify.trivial_witness", "classify.is_planar",
    "classify.hodograph_span_rank", "classify.search_certificate",
    "frames.erf_symbolic", "frames.rmf_symbolic", "frames.SymbolicFrame.evaluate",
    "frames.sample_frames", "frames.write_frames_csv",
    "documents.parse_document", "cli.classification_to_dict",
)

OP = "op"


class Tracer:
    """Spans kept in memory until ``write``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self.op = -1
        self.rebound = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([nid, stack[-1] if stack else -1, clock(), 0, self.op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()

        return traced

    def run_op(self, fn, *args):
        """Call ``fn`` as one operation, under a root span named ``op``."""
        self.op += 1
        return self.wrap(OP, fn)(*args)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self and total time in ns."""
        child = [0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "self_ns": 0, "total_ns": 0} for name in self.names}
        for idx, (nid, _, start, end, _) in enumerate(self.spans):
            entry = out[self.names[nid]]
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - child[idx]
        return out

    def calls_within(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` made, at any depth, inside a span of ``ancestor``."""
        ancestor_id, name_id = self._ids.get(ancestor), self._ids.get(name)
        inside = [False] * len(self.spans)
        count = 0
        for idx, (nid, parent, _, _, _) in enumerate(self.spans):
            inside[idx] = nid == ancestor_id or (parent >= 0 and inside[parent])
            if nid == name_id and parent >= 0 and inside[parent]:
                count += 1
        return count

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "names": self.names,
                       "columns": ["name", "parent", "start_ns", "end_ns", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _rrmf_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "rrmf" or name.startswith("rrmf."))]


@contextmanager
def instrument(tracer: Tracer):
    """Route every call of the targets through the tracer while active."""
    undo: list[tuple[object, str, object]] = []
    modules = _rrmf_modules()
    try:
        for target in TARGETS:
            layer, *path = target.split(".")
            owner = sys.modules[f"rrmf.{layer}"]
            if len(path) == 2:
                cls = getattr(owner, path[0])
                original = cls.__dict__[path[1]]
                setattr(cls, path[1], tracer.wrap(target, original))
                undo.append((cls, path[1], original))
                continue
            original = getattr(owner, path[0])
            wrapper = tracer.wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
        tracer.rebound = len(undo)
        yield tracer
    finally:
        for obj, attr, original in reversed(undo):
            setattr(obj, attr, original)
