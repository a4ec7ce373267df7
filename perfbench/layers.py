"""Per-layer metrics: which call sites the traced run wraps, and how
spans, suite results and pool counters become named metrics.

Every wrapper sits on the name a caller looks up, so the program itself
is unchanged: the scheduler's ``min_weight_perfect_matching`` and
``pair_airtime`` globals, fig12's baseline globals, the runner entry
points each figure imports, the trace generators' ``generate`` methods
and fig14's scalar SIC scenario kernel.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Mapping, Tuple

from tracer import Span, Tracer, layer_totals

#: Every figure ``run_suite`` knows, in paper order.
FIGURES = ("fig2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig10",
           "fig11", "fig12", "fig13", "fig14")

#: PhaseTimer phases the figures report, as ``figure.phase`` keys.
PHASES = ("fig6.range=10m", "fig6.range=20m", "fig6.range=40m",
          "fig7.sample", "fig7.evaluate", "fig7.aggregate",
          "fig11.one_receiver", "fig11.two_receivers",
          "fig13.trace_gen", "fig13.scheduling", "fig13.assembly",
          "fig14.trace_gen", "fig14.draw", "fig14.evaluate",
          "fig14.assembly")

_NAME_RE = re.compile(r"[^A-Za-z0-9_.-]")


def metric_name(label: str) -> str:
    """Rewrite a label into the metric alphabet: ``range=10m`` -> ``range-10m``."""
    return _NAME_RE.sub("-", label)


PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("suite.wall_s", "s"),
    ("suite.critical_path_s", "s"),
    ("suite.critical_figure", "fig"),
    ("suite.overlap", "x"),
    *((f"suite.figure_s.{figure}", "s") for figure in FIGURES),
    ("baselines.greedy_s", "s"),
    ("baselines.random_s", "s"),
    ("baselines.serial_s", "s"),
    ("baselines.brute_force_s", "s"),
    ("scheduler.blossom_s", "s"),
    ("pairing.pair_airtime.calls", "count"),
    ("pairing.pair_airtime_s", "s"),
    ("pairing.pair_airtime_batch.calls", "count"),
    ("pairing.pair_airtime_batch.pairs", "count"),
    ("pairing.pair_airtime_batch_s", "s"),
    ("matching.calls", "count"),
    ("matching.vertices", "count"),
    ("matching.self_s", "s"),
    ("scheduler.calls", "count"),
    ("scheduler.schedule_s", "s"),
    ("scheduler.cost_build_s", "s"),
    ("scheduler.matching_s", "s"),
    ("scheduler.assembly_s", "s"),
    ("runner.calls", "count"),
    ("runner.wall_s", "s"),
    ("runner.degraded_warnings", "count"),
    ("pool.chunks", "count"),
    ("pool.busy_s", "s"),
    ("pool.rebuilds", "count"),
    ("transport.shm_chunks", "count"),
    ("transport.shm_bytes", "B"),
    ("transport.pickled_chunks", "count"),
    ("transport.pickled_bytes", "B"),
    ("traces.upload_s", "s"),
    ("traces.downlink_s", "s"),
    ("sic.evaluate_pair_scenario.calls", "count"),
    ("sic.evaluate_pair_scenario_s", "s"),
    *((f"phase.{metric_name(phase)}_s", "s") for phase in PHASES),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
)


def _vertices(args: tuple, kwargs: dict) -> int:
    return int(kwargs.get("n_vertices", args[1] if len(args) > 1 else 0))


def _pairs(args: tuple, kwargs: dict) -> int:
    return len(kwargs.get("rss_a_w", args[2] if len(args) > 2 else ()))


def install(tracer: Tracer) -> None:
    """Wrap every traced call site; undo with ``tracer.restore()``."""
    from repro.architectures import ewlan, residential
    from repro.experiments import fig12, fig13, fig14, montecarlo, runner
    from repro.experiments import suite
    from repro.scheduling import scheduler
    from repro.traces.downlink import DownlinkTraceGenerator
    from repro.traces.synthetic import UploadTraceGenerator

    tracer.wrap(suite, "run_experiment", "figure")
    tracer.wrap(scheduler, "min_weight_perfect_matching", "matching",
                size=_vertices)
    tracer.wrap(scheduler, "pair_airtime", "pairing.pair_airtime")
    for module in (scheduler, fig13):
        tracer.wrap(module, "pair_airtime_batch",
                    "pairing.pair_airtime_batch", size=_pairs)
    tracer.wrap(scheduler.SicScheduler, "schedule", "scheduler.schedule")
    for policy in ("greedy", "random", "serial", "brute_force"):
        tracer.wrap(fig12, f"{policy}_schedule", f"baselines.{policy}")
    # ``runner.run_indexed`` itself serves callers that import it lazily.
    for module in (fig13, fig14, ewlan, residential, runner):
        tracer.wrap(module, "run_indexed", "runner")
    tracer.wrap(montecarlo, "run_chunked", "runner")
    tracer.wrap(UploadTraceGenerator, "generate", "traces.upload")
    tracer.wrap(DownlinkTraceGenerator, "generate", "traces.downlink")
    tracer.wrap(fig14, "evaluate_pair_scenario", "sic.evaluate_pair_scenario")


#: Spans of the layers that fig13 and fig14 run inside their chunks,
#: i.e. in pool workers when the suite runs them.
WORKER_SIDE = frozenset({"matching", "pairing.pair_airtime",
                         "pairing.pair_airtime_batch", "scheduler.schedule",
                         "sic.evaluate_pair_scenario"})


def span_metrics(spans: List[Span],
                 keep: Callable[[Span], bool] = lambda span: True
                 ) -> Dict[str, float]:
    """Layer metrics from the spans ``keep`` accepts (see ``layer_totals``)."""
    totals = layer_totals(spans, keep)

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    blossom_s = sum(span.duration for span in filter(keep, spans)
                    if span.name == "scheduler.schedule"
                    and span.figure == "fig12")
    metrics = {
        "baselines.greedy_s": get("baselines.greedy", "total_s"),
        "baselines.random_s": get("baselines.random", "total_s"),
        "baselines.serial_s": get("baselines.serial", "total_s"),
        "baselines.brute_force_s": get("baselines.brute_force", "total_s"),
        "scheduler.blossom_s": blossom_s,
        "pairing.pair_airtime.calls": get("pairing.pair_airtime", "calls"),
        "pairing.pair_airtime_s": get("pairing.pair_airtime", "total_s"),
        "pairing.pair_airtime_batch.calls":
            get("pairing.pair_airtime_batch", "calls"),
        "pairing.pair_airtime_batch.pairs":
            get("pairing.pair_airtime_batch", "size"),
        "pairing.pair_airtime_batch_s":
            get("pairing.pair_airtime_batch", "total_s"),
        "matching.calls": get("matching", "calls"),
        "matching.vertices": get("matching", "size"),
        "matching.self_s": get("matching", "self_s"),
        "scheduler.calls": get("scheduler.schedule", "calls"),
        "scheduler.schedule_s": get("scheduler.schedule", "total_s"),
        "runner.calls": get("runner", "calls"),
        "runner.wall_s": get("runner", "total_s"),
        "traces.upload_s": get("traces.upload", "total_s"),
        "traces.downlink_s": get("traces.downlink", "total_s"),
        "sic.evaluate_pair_scenario.calls":
            get("sic.evaluate_pair_scenario", "calls"),
        "sic.evaluate_pair_scenario_s":
            get("sic.evaluate_pair_scenario", "total_s"),
        "trace.spans": sum(entry["calls"] for entry in totals.values()),
    }
    return metrics


def suite_metrics(result, pool_delta: Mapping[str, float],
                  degraded_warnings: int) -> Dict[str, float]:
    """Suite, pool, transport and phase metrics of one traced suite run.

    ``pool_delta`` is the change in ``SuitePool.stats()`` over the run;
    the pool's own ``utilization`` is not used (see README).
    """
    walls = {outcome.figure: outcome.wall_s for outcome in result.outcomes}
    critical = max(walls, key=walls.get)
    metrics = {
        "suite.wall_s": result.wall_s,
        "suite.critical_path_s": walls[critical],
        "suite.critical_figure": int(critical[len("fig"):]),
        "suite.overlap": sum(walls.values()) / result.wall_s,
        "pool.chunks": pool_delta["tasks_done"],
        "pool.busy_s": pool_delta["busy_s"],
        "pool.rebuilds": pool_delta["rebuilds"],
        "runner.degraded_warnings": degraded_warnings,
    }
    for figure in FIGURES:
        metrics[f"suite.figure_s.{figure}"] = walls.get(figure, 0.0)
    for key, value in result.transport.items():
        metrics[f"transport.{key}"] = value
    phases = result.timer.phases
    for phase in PHASES:
        metrics[f"phase.{metric_name(phase)}_s"] = phases.get(phase, 0.0)
    return metrics


def pool_delta(before: Mapping[str, object],
               after: Mapping[str, object]) -> Dict[str, float]:
    """Per-run change of the pool's cumulative counters."""
    return {key: after[key] - before[key]
            for key in ("tasks_done", "busy_s", "rebuilds")}


def complete(metrics: Mapping[str, float]) -> Dict[str, float]:
    """Every per-layer metric, 0 for layers the workload never reached."""
    return {name: float(metrics.get(name, 0.0)) for name, _ in PER_LAYER}


def unknown_names(metrics: Mapping[str, float]) -> List[str]:
    known = {name for name, _ in PER_LAYER}
    return sorted(set(metrics) - known)
