"""The four benchmark workloads, driven through ``repro``'s public API.

Each workload has the same shape:

* ``setup()`` imports what it needs and builds its long-lived state
  (the ``SuitePool`` or the scheduler); the benchmark times it;
* ``op()`` runs one timed operation and returns ``(seconds, errors)``;
  seconds is ``None`` when the operation failed outright.  The
  operation is one ``run_suite`` call for the pooled workloads and one
  ``SicScheduler.schedule`` call for ``schedule_stream``;
* ``after_window()`` runs the checks too slow to run on every
  operation;
* ``unit(tracer)`` runs one fixed unit of work for the traced run,
  with the layer wrappers installed when a tracer is given, and returns
  ``(seconds, layer metrics, errors)``;
* ``inline(tracer)`` traces the layers that a pooled run executes in
  worker processes, in this process (``n_workers=1``);
* ``close()`` stops everything ``setup()`` started.

The benchmark is one thread in one process; pooled workloads use a
``SuitePool`` of ``POOL_WORKERS`` processes, which ``run_suite`` feeds
from one thread per figure.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import layers
from checks import (
    claim_errors,
    digest,
    optimum_error,
    schedule_errors,
)
from tracer import Tracer

POOL_WORKERS = 2
DEFAULT_SEED = 2010
DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: Figures whose ``compute`` takes a ``seed``.
SEEDED_FIGURES = ("fig6", "fig7", "fig11", "fig12", "fig13", "fig14")
#: Figures whose chunks run in pool workers and so are traced inline.
INLINE_FIGURES = ("fig13", "fig14")

#: Monte-Carlo scale of ``mc_sweep``: large enough that chunks travel
#: through shared memory (each 50k-sample chunk is ~780 KB).
MC_SAMPLES = 1_000_000
MC_CHUNK = 50_000


def figure_kwargs(workload: str, seed: int) -> Dict[str, Dict[str, object]]:
    """Per-figure ``compute`` kwargs of a pooled workload."""
    if workload == "paper_all":
        from repro.experiments.__main__ import QUICK_KWARGS
        from repro.experiments.registry import ordered_figures
        kwargs = {figure: dict(QUICK_KWARGS.get(figure, {}))
                  for figure in ordered_figures()}
    elif workload == "trace_eval":
        kwargs = {"fig13": {}, "fig14": {}}
    elif workload == "mc_sweep":
        kwargs = {figure: {"n_samples": MC_SAMPLES, "chunk_size": MC_CHUNK}
                  for figure in ("fig6", "fig11")}
    else:
        raise KeyError(workload)
    for figure, entry in kwargs.items():
        if figure in SEEDED_FIGURES:
            entry["seed"] = seed
    return kwargs


def expected_digests(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """Output digests recorded for the default seed, else ``None``."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(DIGESTS.read_text())[workload]


class PooledWorkload:
    """``run_suite`` over a fixed figure set on a borrowed ``SuitePool``."""

    def __init__(self, name: str, seed: int,
                 kwargs: Optional[Dict[str, Dict[str, object]]] = None
                 ) -> None:
        self.name = name
        self.seed = seed
        self.kwargs = kwargs
        self.expected = expected_digests(name, seed) if kwargs is None \
            else None
        self.digests: Optional[Dict[str, str]] = None
        self.pool = None

    def setup(self) -> None:
        from repro.experiments.suite import SuitePool, run_suite
        self._run_suite = run_suite
        if self.kwargs is None:
            self.kwargs = figure_kwargs(self.name, self.seed)
        self.figures = list(self.kwargs)
        self.inline_figures = [figure for figure in self.figures
                               if figure in INLINE_FIGURES]
        self.pool = SuitePool(POOL_WORKERS)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        # The shared-memory transport starts multiprocessing's resource
        # tracker; stop it and wait for it, so no process outlives the run.
        from multiprocessing import resource_tracker
        resource_tracker._resource_tracker._stop()

    def _run(self):
        before = self.pool.stats()
        start = perf_counter()
        result = self._run_suite(self.figures, self.kwargs, pool=self.pool)
        seconds = perf_counter() - start
        return seconds, result, layers.pool_delta(before, self.pool.stats())

    def check(self, result) -> List[str]:
        """Every figure finished, claims hold, outputs are reproducible."""
        runs = result.runs()
        errors = [f"{figure} did not finish"
                  for figure in self.figures if figure not in runs]
        results = {figure: run.result for figure, run in runs.items()}
        errors += claim_errors(results)
        digests = {figure: digest(figure, value)
                   for figure, value in results.items()}
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            errors.append("outputs differ between runs of the same seed")
        if self.expected is not None:
            errors += [f"{figure} output digest differs from the recorded one"
                       for figure in self.figures
                       if digests.get(figure) != self.expected.get(figure)]
        return errors

    def op(self) -> Tuple[Optional[float], List[str]]:
        try:
            seconds, result, _ = self._run()
        except Exception as exc:  # a failed operation is counted, not fatal
            return None, [f"run_suite raised {exc!r}"]
        return seconds, self.check(result)

    def after_window(self) -> List[str]:
        return []

    def unit(self, tracer: Optional[Tracer]
             ) -> Tuple[float, Dict[str, float], List[str]]:
        if tracer is None:
            seconds, result, _ = self._run()
            return seconds, {}, self.check(result)
        from repro.experiments.runner import ExecutionDegradedWarning
        mark = len(tracer.spans)
        layers.install(tracer)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ExecutionDegradedWarning)
                with tracer.span("suite.run", root=True):
                    seconds, result, delta = self._run()
        finally:
            tracer.restore()
        degraded = sum(isinstance(item.message, ExecutionDegradedWarning)
                       for item in caught)
        metrics = layers.suite_metrics(result, delta, degraded)
        # Worker-side layers of the inline figures come from inline().
        metrics.update(layers.span_metrics(
            tracer.spans[mark:],
            lambda span: span.figure not in self.inline_figures
            or span.name not in layers.WORKER_SIDE))
        return seconds, metrics, self.check(result)

    def inline(self, tracer: Tracer) -> Tuple[Dict[str, float], List[str]]:
        """Trace the worker-side figures in-process; check they match."""
        from repro.experiments.registry import REGISTRY
        mark = len(tracer.spans)
        errors = []
        layers.install(tracer)
        try:
            for figure in self.inline_figures:
                with tracer.figure(figure), \
                        tracer.span(f"inline.{figure}", root=True):
                    result = REGISTRY[figure].compute(**self.kwargs[figure])
                if self.digests is not None and \
                        digest(figure, result) != self.digests.get(figure):
                    errors.append(f"{figure}: inline output differs from "
                                  f"the pooled output")
        finally:
            tracer.restore()
        return layers.span_metrics(
            tracer.spans[mark:],
            lambda span: span.name in layers.WORKER_SIDE), errors


class ScheduleStream:
    """A closed loop of ``SicScheduler.schedule`` calls on seeded backlogs.

    Backlog sizes are log-uniform over ``[LOW, HIGH]`` clients, drawn
    stratified in blocks of ``BLOCK``: each block holds one size from
    each of ``BLOCK`` equal slices of the log range, in shuffled order.
    So every seed sees the same mix of sizes, odd and even, and the
    seed moves only which sizes and SNRs come when.
    """

    LOW, HIGH, BLOCK = 8, 64, 32
    #: Backlogs checked against networkx after the window (the first
    #: of each block).
    MAX_ORACLE_CHECKS = 8

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._queue: List[list] = []
        self._oracle: List[Tuple[list, object]] = []

    def setup(self) -> None:
        from repro.experiments.fig12 import DEFAULT_BANDWIDTH_HZ, random_clients
        from repro.phy.noise import thermal_noise_watts
        from repro.phy.shannon import Channel
        from repro.scheduling.scheduler import SicScheduler
        from repro.techniques.pairing import TechniqueSet
        self._random_clients = random_clients
        self.channel = Channel(
            bandwidth_hz=DEFAULT_BANDWIDTH_HZ,
            noise_w=thermal_noise_watts(DEFAULT_BANDWIDTH_HZ))
        self.scheduler = SicScheduler(channel=self.channel,
                                      techniques=TechniqueSet.ALL)
        self.rng = np.random.default_rng(self.seed)
        # Warm-up on a throwaway generator, so the seeded stream is intact.
        self.scheduler.schedule(self._random_clients(
            self.LOW, np.random.default_rng(0), noise_w=self.channel.noise_w))

    def close(self) -> None:
        pass

    def sizes(self, rng: np.random.Generator) -> List[int]:
        """One block of stratified log-uniform backlog sizes."""
        span = math.log((self.HIGH + 1) / self.LOW)
        points = (np.arange(self.BLOCK) + rng.random(self.BLOCK)) / self.BLOCK
        sizes = np.floor(self.LOW * np.exp(span * points)).astype(int)
        return rng.permutation(np.minimum(sizes, self.HIGH)).tolist()

    def backlogs(self, rng: np.random.Generator) -> List[list]:
        return [self._random_clients(n, rng, noise_w=self.channel.noise_w)
                for n in self.sizes(rng)]

    def op(self) -> Tuple[Optional[float], List[str]]:
        if not self._queue:
            self._queue = self.backlogs(self.rng)
        oracle = len(self._queue) == self.BLOCK and \
            len(self._oracle) < self.MAX_ORACLE_CHECKS
        clients = self._queue.pop()
        start = perf_counter()
        try:
            schedule = self.scheduler.schedule(clients)
        except Exception as exc:  # a failed operation is counted, not fatal
            return None, [f"n={len(clients)}: schedule raised {exc!r}"]
        seconds = perf_counter() - start
        errors = schedule_errors(clients, schedule)
        if oracle and not errors:
            self._oracle.append((clients, schedule))
        return seconds, errors

    def after_window(self) -> List[str]:
        errors = []
        for clients, schedule in self._oracle:
            errors += optimum_error(self.scheduler, clients, schedule)
        return errors

    def unit(self, tracer: Optional[Tracer]
             ) -> Tuple[float, Dict[str, float], List[str]]:
        """Schedule the seed's first block of backlogs."""
        from repro.util.timing import PhaseTimer
        backlogs = self.backlogs(np.random.default_rng(self.seed))
        timer = PhaseTimer() if tracer is not None else None
        mark = len(tracer.spans) if tracer is not None else 0
        errors: List[str] = []
        seconds = 0.0
        if tracer is not None:
            layers.install(tracer)
        try:
            for clients in backlogs:
                start = perf_counter()
                schedule = self.scheduler.schedule(clients, timer=timer)
                seconds += perf_counter() - start
                errors += schedule_errors(clients, schedule)
        finally:
            if tracer is not None:
                tracer.restore()
        if tracer is None:
            return seconds, {}, errors
        metrics = layers.span_metrics(tracer.spans[mark:])
        for phase in ("cost_build", "matching", "assembly"):
            metrics[f"scheduler.{phase}_s"] = timer.total_s(phase)
        return seconds, metrics, errors

    def inline(self, tracer: Tracer) -> Tuple[Dict[str, float], List[str]]:
        return {}, []


WORKLOADS: Sequence[str] = ("paper_all", "schedule_stream", "trace_eval",
                            "mc_sweep")


def make(name: str, seed: int):
    """The named workload for ``seed`` (not yet set up)."""
    if name not in WORKLOADS:
        raise KeyError(name)
    if name == "schedule_stream":
        return ScheduleStream(seed)
    return PooledWorkload(name, seed)
