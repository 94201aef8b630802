"""The benchmark's three workloads: seeded operations, the timed call, checks.

Each workload draws its operations from the checked-in pool
(``data/pool.json``, see ``make_pool.py``) in rounds.  A round holds a
fixed number of draws from each stratum of the pool; inside a stratum
the items come from a seeded deck that is reshuffled whenever it runs
out, so a run covers the stratum evenly.  The seed also fixes the order
of the operations inside each round and every numeric parameter (frame
sample ranges, search seeds, the rows a frame check compares).

The library is called through its module objects (``classify.classify``
rather than a name imported into this file), so that the traced run,
which rebinds module attributes, sees the calls made from here too.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

POOL_PATH = Path(__file__).resolve().parent / "data" / "pool.json"

LAYERS = ("scalars", "quaternions", "polynomials", "linalg", "hodograph",
          "indicatrix", "classify", "construct", "frames", "documents",
          "catalog", "cli")

# A search that runs into this budget has been cut by the clock rather
# than by its restart count, so its outcome depends on machine speed.
SEARCH_BUDGET_S = 60.0
DEADLINE = "search stopped by its deadline"

FRAME_SAMPLES = {"erf": 120, "rmf": 120, "frenet": 5}
# Frames are sampled inside the parameter interval `rrmf frames` uses by
# default (--range 0:1).  Beyond it the library's float evaluation of
# some frames fails its own 1e-12 unit check; see README.md.
FRAME_INTERVAL = (0.0, 1.0)
CHECKED_ROWS = 3
FRAME_TOL = 1e-12


def rrmf_modules() -> dict:
    """The library's modules by layer name.

    ``importlib`` is used because the package re-exports the function
    ``classify`` under the name of its module.
    """
    return {name: importlib.import_module(f"rrmf.{name}") for name in LAYERS}


def load_pool() -> list[dict]:
    with open(POOL_PATH, encoding="utf-8") as fh:
        return json.load(fh)["items"]


@dataclass(frozen=True)
class Op:
    """One timed call: a pool item plus the parameters drawn for it."""

    item: str
    kind: str = ""          # frames: erf, rmf or frenet
    lo: float = 0.0         # frames: parameter range
    hi: float = 0.0
    samples: int = 0
    degree: int = 0         # search: maximal certificate degree
    seed: int = 0           # search seed, or the frame rows to check

    def xis(self) -> list[float]:
        step = (self.hi - self.lo) / (self.samples - 1)
        return [self.lo + k * step for k in range(self.samples)]


def _size(item: dict) -> tuple:
    """Sort key: generator degree, then certificate degree."""
    degree = len(json.loads(item["doc"])["coefficients"]) - 1
    return (degree, item.get("cert_degree", 0), item["id"])


class Workload:
    """Rounds of seeded draws from strata of the pool."""

    name = ""
    # (stratum, draws per round); a stratum is a predicate on pool items
    slots: tuple[tuple[str, int], ...] = ()
    round_size = 0
    # operation time of one round at the reference speed (2-core Xeon VM,
    # Python 3.11.7), used to turn --seconds into a number of rounds
    round_seconds = 1.0

    def __init__(self, items: list[dict], seed: int):
        self.rrmf = rrmf_modules()
        self.items = {item["id"]: item for item in items}
        self.rng = random.Random(f"{self.name}:{seed}")
        self.strata = {name: sorted((i["id"] for i in items if self.in_stratum(name, i)),
                                    key=lambda ident: _size(self.items[ident]))
                       for name, _ in self.slots}
        for name, ids in self.strata.items():
            if not ids:
                raise ValueError(f"{self.name}: empty stratum {name}")

    def in_stratum(self, stratum: str, item: dict) -> bool:
        raise NotImplementedError

    def _sample(self, stratum: str, count: int) -> list[str]:
        """`count` items spread evenly over the stratum sorted by size.

        Systematic sampling with a seeded start: every run draws small and
        large generators in the same proportions, which keeps the run's
        total work nearly independent of the seed.
        """
        ids = self.strata[stratum]
        start = self.rng.random()
        picks = [ids[int((start + k) * len(ids) / count)] for k in range(count)]
        self.rng.shuffle(picks)
        return picks

    def rounds(self, count: int) -> list[list[Op]]:
        """The operations of `count` rounds, each round in seeded order."""
        draws = {stratum: self._sample(stratum, per_round * count)
                 for stratum, per_round in self.slots}
        plan = []
        for r in range(count):
            ops = [op for stratum, per_round in self.slots
                   for ident in draws[stratum][r * per_round:(r + 1) * per_round]
                   for op in self.make_ops(self.items[ident])]
            self.rng.shuffle(ops)
            plan.append(ops)
        return plan

    def make_ops(self, item: dict) -> list[Op]:
        return [Op(item["id"])]

    def input_digest(self, ops: list[Op]) -> str:
        """sha256 over the operations and the documents they read."""
        h = hashlib.sha256()
        for op in ops:
            h.update(repr(op).encode())
            h.update(self.items[op.item]["doc"].encode())
        return h.hexdigest()

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out, elapsed: float) -> Optional[str]:
        """None when the output is right, else the reason it is not."""
        raise NotImplementedError

    def produced(self, out) -> int:
        """Useful units in an output: frame rows written, certificates found."""
        return 0


# -- verdicts ------------------------------------------------------------


class Verdicts(Workload):
    """Document text -> parse_document -> classify -> JSON, as ``rrmf classify``."""

    name = "verdicts"
    slots = (("fixture", 6), ("family", 4), ("f-element", 9), ("random-q", 3),
             ("random-s15", 3))
    round_size = 25
    round_seconds = 7.9

    def in_stratum(self, stratum, item):
        if stratum == "fixture":
            return item["part"] in ("fixture-cert", "fixture-bare")
        return item["part"] == stratum

    def run(self, op):
        documents, classify, cli = (self.rrmf["documents"], self.rrmf["classify"],
                                    self.rrmf["cli"])
        polynomials = self.rrmf["polynomials"]
        doc = documents.parse_document(self.items[op.item]["doc"])
        result = classify.classify(polynomials.QuatPoly.of(doc.to_poly()), doc.certificate)
        return json.dumps(cli.classification_to_dict(result))

    def check(self, op, out, elapsed):
        item = self.items[op.item]
        verdict = json.loads(out)
        part = item["part"]
        if part in ("family", "f-element") and verdict["in_F"] != "proven":
            return f"{op.item}: in_F is {verdict['in_F']}, not proven"
        if part == "family" and not (verdict["in_F0"] and not verdict["planar"]):
            return f"{op.item}: family member must be in F0 and non-planar"
        if not verdict["in_widetilde"]:
            return f"{op.item}: components reported not coprime"
        if out != item["verdict"]:
            return f"{op.item}: verdict JSON differs from the reference"
        return None


# -- frames --------------------------------------------------------------


@dataclass
class Curve:
    """A generator, its certificate, and exact data for checking samples."""

    poly: object
    certificate: Optional[tuple]
    exact: Optional[dict] = None


class Frames(Workload):
    """sample_frames plus write_frames_csv for one (curve, frame kind)."""

    name = "frames"
    slots = (("fixture-cert", 1), ("family", 2), ("f-element", 2))
    round_size = 15
    round_seconds = 4.1

    def __init__(self, items, seed, csv_path: Path):
        super().__init__(items, seed)
        self.csv_path = csv_path
        documents, polynomials = self.rrmf["documents"], self.rrmf["polynomials"]
        self.curves = {}
        for ids in self.strata.values():
            for ident in ids:
                doc = documents.parse_document(self.items[ident]["doc"])
                self.curves[ident] = Curve(polynomials.QuatPoly.of(doc.to_poly()),
                                           doc.certificate)

    def in_stratum(self, stratum, item):
        if stratum == "family":
            return item["part"] == "family" and item["n"] <= 12
        return item["part"] == stratum

    def make_ops(self, item):
        # a sub-range of FRAME_INTERVAL, at least half of it long
        start, end = FRAME_INTERVAL
        half = (end - start) / 2
        lo = round(self.rng.uniform(start, start + half), 6)
        span = round(self.rng.uniform(half, end - lo), 6)
        return [Op(item["id"], kind, lo, lo + span, FRAME_SAMPLES[kind],
                   seed=self.rng.randrange(2 ** 31))
                for kind in ("erf", "rmf", "frenet")]

    def run(self, op):
        frames = self.rrmf["frames"]
        curve = self.curves[op.item]
        samples, warnings = frames.sample_frames(curve.poly, op.kind, op.xis(),
                                                 certificate=curve.certificate)
        frames.write_frames_csv(samples, self.csv_path)
        return len(samples), len(warnings)

    def produced(self, out):
        return out[0]

    def check(self, op, out, elapsed):
        written, skipped = out
        xis = op.xis()
        with open(self.csv_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if lines[0] != self.rrmf["frames"].CSV_HEADER:
            return f"{op.item}/{op.kind}: bad CSV header"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        if len(rows) != written or written + skipped != len(xis):
            return f"{op.item}/{op.kind}: {len(rows)} rows for {len(xis)} samples"
        for row in rows:
            if len(row) != 13 or not all(math.isfinite(v) for v in row):
                return f"{op.item}/{op.kind}: non-finite or short row {row}"
        if skipped:
            return None  # rows no longer line up with xis; finiteness checked
        picks = random.Random(op.seed).sample(range(len(rows)), min(CHECKED_ROWS, len(rows)))
        for k in picks:
            if rows[k][0] != xis[k]:
                return f"{op.item}/{op.kind}: row {k} has xi {rows[k][0]}, not {xis[k]}"
            expect = self.exact_row(op.item, op.kind, xis[k])
            for got, want in zip(rows[k][1:], expect):
                if not abs(got - want) <= FRAME_TOL * max(1.0, abs(want)):
                    return (f"{op.item}/{op.kind}: row {k} value {got!r} differs "
                            f"from exact {want!r}")
        return None

    def _exact_data(self, ident: str) -> dict:
        curve = self.curves[ident]
        if curve.exact is None:
            hodograph = self.rrmf["hodograph"]
            h = hodograph.hodograph_of(curve.poly)
            position = hodograph.integrate(h)
            curve.exact = {
                "position": (position.x, position.y, position.z),
                "rp": h.components(),
                "rpp": tuple(c.derivative() for c in h.components()),
                "sigma": h.sigma,
                "dsigma": h.sigma.derivative(),
            }
        return curve.exact

    def exact_row(self, ident: str, kind: str, xi: float) -> list[float]:
        """Position and three axes at Fraction(xi), in exact arithmetic."""
        quaternions = self.rrmf["quaternions"]
        curve, data = self.curves[ident], self._exact_data(ident)
        x = Fraction(xi)
        row = [float(p.evaluate(x)) for p in data["position"]]
        if kind == "frenet":
            return row + _frenet_exact(data, x)
        q = curve.poly.evaluate(x)
        if kind == "rmf" and curve.certificate is not None:
            ca, cb = curve.certificate
            q = q * quaternions.Quaternion(ca.evaluate(x), -cb.evaluate(x))
        norm = q.norm_sq()
        for e in ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)):
            v = q * quaternions.Quaternion(*e) * q.conjugate()
            row += [float(c / norm) for c in (v.x, v.y, v.z)]
        return row


def _frenet_exact(data: dict, x: Fraction) -> list[float]:
    rp = [c.evaluate(x) for c in data["rp"]]
    rpp = [c.evaluate(x) for c in data["rpp"]]
    s, sp = data["sigma"].evaluate(x), data["dsigma"].evaluate(x)
    d = [s * b - sp * a for a, b in zip(rp, rpp)]
    dnorm = math.sqrt(float(sum((c * c for c in d[1:]), d[0] * d[0])))
    cross = [rp[1] * d[2] - rp[2] * d[1], rp[2] * d[0] - rp[0] * d[2],
             rp[0] * d[1] - rp[1] * d[0]]
    return ([float(c / s) for c in rp] + [float(c) / dnorm for c in d]
            + [float(c / s) / dnorm for c in cross])


# -- search --------------------------------------------------------------


class Search(Workload):
    """search_certificate on generators whose certificate is withheld."""

    name = "search"
    # the stripped fixtures join the f-elements of their certificate degree
    slots = (("degree-1", 20), ("degree-2", 2), ("degree-3", 1), ("search-miss", 2))
    round_size = 25
    round_seconds = 5.6

    def __init__(self, items, seed):
        super().__init__(items, seed)
        documents, polynomials = self.rrmf["documents"], self.rrmf["polynomials"]
        self.generators = {}
        for ids in self.strata.values():
            for ident in ids:
                doc = documents.parse_document(self.items[ident]["doc"])
                self.generators[ident] = polynomials.QuatPoly.of(doc.to_poly())

    def in_stratum(self, stratum, item):
        if stratum.startswith("degree-"):
            return (item["part"] in ("search-fe", "search-fixture")
                    and f"degree-{item['cert_degree']}" == stratum)
        return item["part"] == stratum

    def make_ops(self, item):
        # A search's cost depends on its numpy seed as much as on the
        # generator; a seed fixed by the item keeps that out of the run seed.
        seed = int(hashlib.sha256(item["id"].encode()).hexdigest()[:8], 16)
        return [Op(item["id"], degree=item.get("cert_degree", 1), seed=seed)]

    def run(self, op):
        return self.rrmf["classify"].search_certificate(
            self.generators[op.item], op.degree, budget_seconds=SEARCH_BUDGET_S,
            seed=op.seed)

    def produced(self, out):
        return int(out is not None)

    def check(self, op, out, elapsed):
        if elapsed >= SEARCH_BUDGET_S:
            return DEADLINE
        if out is None:
            return None
        classify, polynomials = self.rrmf["classify"], self.rrmf["polynomials"]
        gamma = polynomials.ComplexPoly.from_parts(*out)
        if not classify.cancel_indicatrix(self.generators[op.item], gamma).vanishing:
            return f"{op.item}: found certificate does not cancel the indicatrix"
        return None


def load(name: str, seed: int, csv_path: Optional[Path] = None) -> Workload:
    items = load_pool()
    if name == "verdicts":
        return Verdicts(items, seed)
    if name == "frames":
        if csv_path is None:
            raise ValueError("the frames workload needs a CSV path")
        return Frames(items, seed, csv_path)
    if name == "search":
        return Search(items, seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verdicts", "frames", "search")
