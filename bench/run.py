"""rrmf benchmark: one closed-loop caller, one process, seeded workloads.

Usage, from the repository root::

    python3 bench/run.py --workload verdicts --seed 1 --seconds 25 --trace 0

Workloads are ``verdicts``, ``frames`` and ``search`` (see README.md in
this directory).  With ``--trace 0`` the run times each operation end to
end with no instrumentation and prints the end-to-end metrics; with
``--trace 1`` it prints the per-layer metrics: kernel timings, and call
counts and self times from spans recorded around the library's layer
entry points, plus the cost of recording them.  Every output is checked;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread: the search's numpy calls must not fan out.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

import kernels  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

MIN_OPS = 100          # so that p90 has at least ten operations beyond it
SETUP_PROBES = 7       # fresh interpreters timed for setup_s; the median is reported
TRACE_ROUNDS = 2       # rounds run untraced and then traced in a --trace 1 run

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))

KERNELS = tuple(
    [f"scalars.{op}_us.{base}" for op in ("mul", "add", "inverse")
     for base in ("base0", "base15")]
    + [f"polynomials.quat_mul_ms.deg{d}" for d in (4, 8, 16, 32)]
    + [f"polynomials.gcd_real_ms.deg{d}" for d in (8, 16, 32)])

SPAN_CALLS = (
    "polynomials.gcd_real", "polynomials.gcd_complex", "polynomials.exact_divide",
    "polynomials.reduce_fraction", "polynomials.QuatPoly.__mul__",
    "hodograph.has_coprime_components", "hodograph.core_of", "hodograph.is_primitive",
    "hodograph.hodograph_of", "indicatrix.verify_han", "indicatrix.rho_eta",
    "indicatrix.inner_product_poly", "classify.has_vanishing_indicatrix",
    "polynomials.RationalFunction.evaluate_float")
SPAN_SELF = (
    "polynomials.gcd_real", "polynomials.gcd_complex", "polynomials.exact_divide",
    "polynomials.reduce_fraction", "polynomials.QuatPoly.__mul__",
    "hodograph.has_coprime_components", "hodograph.core_of", "hodograph.is_primitive",
    "hodograph.hodograph_of", "indicatrix.verify_han", "indicatrix.rho_eta",
    "indicatrix.inner_product_poly", "classify.indicatrix_coefficients",
    "classify.trivial_witness", "classify.is_planar", "classify.hodograph_span_rank",
    "linalg.exact_rank", "classify.search_certificate", "frames.erf_symbolic",
    "frames.rmf_symbolic", "frames.SymbolicFrame.evaluate", "frames.sample_frames",
    "frames.write_frames_csv", "documents.parse_document", "cli.classification_to_dict")

PER_LAYER = tuple(
    [(name, "ms" if "_ms." in name else "us") for name in KERNELS]
    + [(f"{name}.calls", "calls/op") for name in SPAN_CALLS]
    + [(f"{name}.self_ms", "ms/op") for name in SPAN_SELF]
    + [("classify.search.verify_per_found", "calls/found"),
       ("classify.search.deadline_hits", "count"),
       ("classify.search.found_ratio", "ratio"),
       ("frames.samples_per_s", "1/s"),
       ("import_s", "s"),
       ("trace.overhead_ms_per_op", "ms/op")])


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no library source, a probe failed)."""


def import_rrmf():
    """Import the library from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "rrmf" / "__init__.py").is_file():
        raise SetupError(f"no library source at {SRC / 'rrmf'}")
    sys.path.insert(0, str(SRC))
    import rrmf

    if Path(rrmf.__file__).resolve().parent != (SRC / "rrmf").resolve():
        raise SetupError(f"rrmf imported from {rrmf.__file__}, not from {SRC}")
    return rrmf


def machine_info() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform()}


# -- machine speed -----------------------------------------------------------
#
# On a shared machine the CPU's speed drifts by 20% and more within seconds,
# and CPU time drifts with it.  A fixed pure-Python loop of Fraction
# arithmetic, the library's own staple, is timed before and after every
# operation.  Its time over CALIBRATION_REF_S is the machine's slowness at
# that moment.  Library operations slow down less than the loop: timed side
# by side with it on the reference machine, their times followed about the
# 0.7th power of its slowness (fitted exponents 0.55-0.82 by kind of
# operation), and dividing by the full slowness made runs on a slow machine
# read fast.  normalised() gives the time the operation takes on the
# reference machine (see README.md).

CALIBRATION_REF_S = 0.004
SLOWNESS_EXPONENT = 0.7
_CALIBRATION_TERMS = [Fraction(k, k + 7) for k in range(1, 60)]


def calibrate() -> float:
    """Seconds for one pass of the calibration loop (no garbage collection inside)."""
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        for x in _CALIBRATION_TERMS:
            for y in _CALIBRATION_TERMS[:20]:
                acc += x * y
        return time.perf_counter() - start
    finally:
        gc.enable()


def slowness() -> float:
    return min(calibrate() for _ in range(3)) / CALIBRATION_REF_S


def normalised(seconds: float, slowness: float) -> float:
    return seconds / slowness ** SLOWNESS_EXPONENT


# -- set-up time -----------------------------------------------------------


def probe_setup(workload: str, seed: int) -> dict:
    """In this fresh interpreter: import rrmf, load the inputs, report times."""
    start = time.perf_counter()
    import_rrmf()
    import_s = time.perf_counter() - start
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        workloads.load(workload, seed, Path(tmp) / "frames.csv").rounds(1)
    setup_s = time.perf_counter() - _T0
    factor = slowness()
    return {"import_s": normalised(import_s, factor),
            "setup_s": normalised(setup_s, factor), "setup_wall_s": setup_s}


def measure_setup(workload: str, seed: int) -> dict:
    """Median import and set-up times over SETUP_PROBES fresh interpreters."""
    runs = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {key: statistics.median(r[key] for r in runs)
            for key in ("import_s", "setup_s", "setup_wall_s")}


# -- timed operations --------------------------------------------------------


@dataclass
class Record:
    op: object
    elapsed: float
    failure: Optional[str]
    produced: int
    slowness: float = 1.0


def timed(wl, op, call=None, check=True) -> Record:
    """One operation, timed alone; its output is checked after the clock stops."""
    call = call or wl.run
    start = time.perf_counter()
    try:
        out = call(op)
        failure = None
    except Exception as exc:  # a failing operation is counted, not fatal
        out, failure = None, f"{op.item}: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    produced = 0
    if failure is None and check:
        try:
            failure = wl.check(op, out, elapsed)
            produced = wl.produced(out)
        except Exception as exc:  # a check that cannot read the output fails it
            failure = f"{op.item}: output check raised {type(exc).__name__}: {exc}"
    return Record(op, elapsed, failure, produced)


def rounds_for(wl, seconds: float) -> int:
    """Rounds in a run: the nearest to `seconds` of work at the reference speed,
    and MIN_OPS operations at least.

    The count depends on the arguments only, never on the clock, so two
    versions of the library compared with one seed time the same operations.
    """
    return max(math.ceil(MIN_OPS / wl.round_size), round(seconds / wl.round_seconds))


def measure(wl, rounds: int) -> list[Record]:
    """Every operation of the run, with the machine's slowness around it."""
    ops = [op for ops in wl.rounds(rounds) for op in ops]
    timed(wl, ops[0])  # warm-up: lazy imports inside numpy and the library
    records, calibrations = [], [calibrate()]
    for op in ops:
        records.append(timed(wl, op))
        calibrations.append(calibrate())
    # calibrations[k] and [k + 1] bracket operation k; a hiccup only ever
    # lengthens a calibration, so the fastest of two on each side is taken
    for k, record in enumerate(records):
        window = calibrations[max(0, k - 1):k + 3]
        record.slowness = min(window) / CALIBRATION_REF_S
    return records


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.

    The operation times of a run rise steeply in the tail, so the one or two
    order statistics next to rank 0.9 n jump by 10-20% from run to run with
    the draw; weighting the neighbouring ranks too halves that spread.  The
    Beta(p (n+1), (1-p) (n+1)) mass of each rank's interval is integrated
    with the midpoint rule.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 64
    weights = []
    for i in range(n):
        xs = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
                           for x in xs))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def latency_metrics(records: list[Record], normalize: bool = True) -> dict[str, float]:
    times = [normalised(r.elapsed, r.slowness) if normalize else r.elapsed
             for r in records]
    return {"ops_per_s": len(times) / sum(times),
            "op_p50_ms": statistics.median(times) * 1e3,
            "op_p90_ms": harrell_davis(times, 0.9) * 1e3}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def deadline_hits(records: list[Record]) -> int:
    return sum(r.failure == workloads.DEADLINE for r in records)


# -- the two kinds of run ------------------------------------------------------


def end_to_end_run(wl, args, setup: dict) -> tuple[list[Record], dict]:
    records = measure(wl, rounds_for(wl, args.seconds))
    metrics = {"setup_s": setup["setup_s"], **latency_metrics(records),
               "peak_rss_mb": peak_rss_mb()}
    wall = {f"wall.{k}": v for k, v in latency_metrics(records, normalize=False).items()}
    wall["wall.setup_s"] = setup["setup_wall_s"]
    wall["median_slowness"] = statistics.median(r.slowness for r in records)
    return records, {**metrics, **wall}


def traced_run(wl, args, setup: dict) -> tuple[list[Record], dict]:
    metrics = kernels.kernel_timings(wl.rrmf, args.seed)
    ops = [op for ops in wl.rounds(TRACE_ROUNDS) for op in ops]
    timed(wl, ops[0])  # warm-up
    tracer = tracing.Tracer()

    def run_traced(op) -> Record:
        with tracing.instrument(tracer):
            return timed(wl, op, call=lambda o: tracer.run_op(wl.run, o), check=False)

    # Each operation runs once plain and once traced, in alternating
    # order, so drift in machine speed cancels out of the overhead.
    plain, traced = [], []
    for k, op in enumerate(ops):
        if k % 2:
            traced.append(run_traced(op))
            plain.append(timed(wl, op))
        else:
            plain.append(timed(wl, op))
            traced.append(run_traced(op))
    n = len(ops)
    summary = tracer.summary()
    empty = {"calls": 0, "self_ns": 0}
    for name in SPAN_CALLS:
        metrics[f"{name}.calls"] = summary.get(name, empty)["calls"] / n
    for name in SPAN_SELF:
        metrics[f"{name}.self_ms"] = summary.get(name, empty)["self_ns"] / 1e6 / n
    found = sum(r.produced for r in plain) if wl.name == "search" else 0
    verify_in_search = tracer.calls_within("indicatrix.verify_han",
                                           "classify.search_certificate")
    plain_s = sum(r.elapsed for r in plain)
    metrics.update({
        "classify.search.verify_per_found": verify_in_search / found if found else 0.0,
        "classify.search.deadline_hits": deadline_hits(plain + traced),
        "classify.search.found_ratio": found / n,
        "frames.samples_per_s": (sum(r.produced for r in plain) / plain_s
                                 if wl.name == "frames" else 0.0),
        "import_s": setup["import_s"],
        "trace.overhead_ms_per_op": (sum(r.elapsed for r in traced) - plain_s) / n * 1e3,
    })
    tracer.write(RESULTS / f"spans-{wl.name}-seed{args.seed}.json",
                 {"workload": wl.name, "seed": args.seed, "ops": n,
                  "rebound_names": tracer.rebound, "machine": machine_info()})
    return plain + traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    RESULTS.mkdir(parents=True, exist_ok=True)
    if args.probe_setup:
        print(json.dumps(probe_setup(args.workload, args.seed)))
        return 0

    setup = measure_setup(args.workload, args.seed)
    import_rrmf()

    fd, csv_name = tempfile.mkstemp(prefix="frames-", suffix=".csv", dir=RESULTS)
    os.close(fd)
    try:
        wl = workloads.load(args.workload, args.seed, Path(csv_name))
        run = traced_run if args.trace else end_to_end_run
        records, values = run(wl, args, setup)
    finally:
        os.unlink(csv_name)

    names = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    failures = [r.failure for r in records if r.failure]
    for reason in failures[:10]:
        print(f"failed: {reason}", file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "inputs_sha256": wl.input_digest([r.op for r in records]), "ops": len(records),
            **{k: v for k, v in values.items() if k.startswith(("wall.", "median_"))}, "failed_ratio": len(failures) / len(records),
            "deadline_hits": deadline_hits(records), "machine": machine_info()}
    with open(RESULTS / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({**info, "metrics": metrics, "failures": failures,
                   "operations": [[r.op.item, r.op.kind, r.elapsed, r.slowness]
                                  for r in records]}, fh, indent=1)
    print(json.dumps(info))
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
