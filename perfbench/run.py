"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_all --seed 2010 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the traced run that gives the per-layer metrics.
Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Each run also writes a run record (environment, config,
metrics) to ``perfbench/out/``, and the traced run its spans.

The benchmark imports ``repro`` from this checkout's ``src/`` and
exits with status 2, printing no result, when that tree is missing.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh-interpreter set-up samples taken besides the run's own set-up.
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def use_checkout_source() -> None:
    """Put this checkout's ``src/`` first on the path, without importing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no source tree at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec("repro")
    if spec is None or spec.origin is None or \
            Path(spec.origin).resolve().parent != (SRC / "repro").resolve():
        raise BenchError("repro does not resolve to this checkout's src/")


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def git_sha() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        packed = (git / "packed-refs").read_text().splitlines()
    except OSError:
        return None
    for line in packed:
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


def source_digest() -> str:
    """SHA-256 over every ``src/**/*.py`` path and content."""
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sha.update(str(path.relative_to(SRC)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def environment() -> Dict[str, object]:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> float:
    """Set-up seconds of ``workload`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def reference_ms(repeats: int = 5) -> float:
    """Median milliseconds of a fixed interpreter-and-NumPy computation.

    Recorded before and after the window as the machine's speed during
    the run, so that two run records show host drift; no metric uses it.
    """
    import numpy as np
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        table: Dict[int, float] = {}
        for i in range(20_000):
            table[i & 1023] = table.get(i & 1023, 0.0) + (i * i) % 7
        values = np.linspace(1.0, 2.0, 2_000)
        for _ in range(200):
            values = np.sqrt(values * 1.0001 + 1.0)
        samples.append((perf_counter() - start) * 1e3)
    return statistics.median(samples)


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass
class Outcome:
    """What one run measured."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    errors: List[str]
    #: Timed samples behind the metrics (operations, or traced units).
    samples: int
    #: Printed and recorded, but not a ``BENCHMARK.json`` metric.
    info: Dict[str, float] = field(default_factory=dict)


def measured(workload, seconds: float) -> Outcome:
    """The timed window: closed-loop operations for ``seconds``."""
    latencies: List[float] = []
    errors: List[str] = []
    attempted = failed = 0
    start = perf_counter()
    while attempted == 0 or perf_counter() - start < seconds:
        attempted += 1
        op_s, op_errors = workload.op()
        if op_s is None or op_errors:
            failed += 1
            errors += op_errors
        else:
            latencies.append(op_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Each late error is about a distinct operation that passed its own
    # checks, so it adds one failure.
    late = workload.after_window()
    failed += len(late)
    errors += late
    if not latencies:
        raise BenchError("every operation failed: " + "; ".join(errors[:3]))
    metrics = {
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "ops_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": peak_rss_mb,
    }
    info = {"op_p90_ms": percentile(latencies, 90) * 1e3,
            "op_max_ms": max(latencies) * 1e3}
    return Outcome(metrics, attempted, failed, errors, len(latencies), info)


def traced(workload, seconds: float, tracer) -> Outcome:
    """Pairs of untraced and traced units, alternating which goes first,
    then the inline pass; per-layer metrics are medians over units."""
    import layers

    per_unit: List[Dict[str, float]] = []
    errors: List[str] = []
    attempted = failed = 0
    plain_s = traced_s = 0.0
    start = perf_counter()
    pairs = 0
    while pairs == 0 or perf_counter() - start < seconds:
        for use_tracer in ((False, True) if pairs % 2 == 0
                           else (True, False)):
            unit_s, metrics, unit_errors = workload.unit(
                tracer if use_tracer else None)
            attempted += 1
            failed += bool(unit_errors)
            errors += unit_errors
            if use_tracer:
                traced_s += unit_s
                per_unit.append(metrics)
            else:
                plain_s += unit_s
        pairs += 1
    inline_metrics, inline_errors = workload.inline(tracer)
    attempted += 1
    failed += bool(inline_errors)
    errors += inline_errors

    names = {name for metrics in per_unit for name in metrics}
    metrics = {name: statistics.median(m.get(name, 0.0) for m in per_unit)
               for name in names}
    for name, value in inline_metrics.items():
        metrics[name] = metrics.get(name, 0.0) + value
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    unknown = layers.unknown_names(metrics)
    if unknown:
        raise BenchError(f"unlisted per-layer metrics: {unknown}")
    return Outcome(layers.complete(metrics), attempted, failed, errors,
                   len(per_unit))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2010)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> int:
    use_checkout_source()
    if args.seconds <= 0:
        raise BenchError("--seconds must be positive")
    # Only the untraced run reports set-up time.
    setup_samples = [] if args.setup_probe or args.trace else [
        setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    # Set-up starts before the first import of numpy and repro.
    start = perf_counter()
    import layers
    import workloads
    from tracer import Tracer

    try:
        workload = workloads.make(args.workload, args.seed)
    except KeyError:
        raise BenchError(f"unknown workload {args.workload!r}; choose from "
                         + ", ".join(workloads.WORKLOADS)) from None
    workload.setup()
    setup_samples.append(perf_counter() - start)
    if args.setup_probe:
        workload.close()
        print(repr(setup_samples[-1]))
        return 0

    tracer = Tracer() if args.trace else None
    try:
        speed_before = reference_ms()
        if tracer is not None:
            outcome = traced(workload, args.seconds, tracer)
            units = dict(layers.PER_LAYER)
        else:
            outcome = measured(workload, args.seconds)
            outcome.metrics["setup_s"] = statistics.median(setup_samples)
            units = dict(END_TO_END)
        speed_after = reference_ms()
    finally:
        workload.close()
    metrics = outcome.metrics

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": {**environment(),
                        "reference_ms": [speed_before, speed_after]},
        "config": {"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace},
        "samples": outcome.samples,
        "setup_samples_s": setup_samples,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "metrics": metrics,
        "info": outcome.info,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.dump(OUT / f"{name}.spans.json")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{outcome.samples} samples, {outcome.attempted} attempted, "
          f"{outcome.failed} failed "
          f"(failed_frac {outcome.failed / outcome.attempted:.4f})")
    for error in outcome.errors[:20]:
        print(f"  error: {error}")
    print("  setup samples (s): "
          + ", ".join(f"{s:.3f}" for s in setup_samples))
    print(f"  reference computation: {speed_before:.3f} ms before, "
          f"{speed_after:.3f} ms after")
    if tracer is not None:
        walls = {key: metrics[key] for key in metrics
                 if key.startswith("suite.figure_s.") and metrics[key] > 0}
        if walls:
            print(f"  critical path: {max(walls, key=walls.get)[15:]}")
    for key, value in outcome.info.items():
        print(f"  {key:<40} {value:>16.6g} (not gated)")
    for key in units:
        print(f"  {key:<40} {metrics[key]:>16.6g} {units[key]}")
    print(json.dumps({
        "correct": outcome.failed == 0 and not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in units},
    }))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
