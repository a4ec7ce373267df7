"""Suite execution engine: one shared worker pool across all figures.

``python -m repro.experiments all`` used to run the figures strictly
one after another, each supervised ``compute()`` building a private
``ProcessPoolExecutor``, draining it, and tearing it down while every
other figure's work sat idle.  This module replaces that with a
**shared suite pool**:

* :class:`SuitePool` owns a single persistent ``ProcessPoolExecutor``
  plus a dispatcher thread feeding it from a global
  :class:`LaneQueue` — a fair round-robin over per-engine lanes, so
  chunks from a slow figure (fig13 trace eval, fig7 architecture
  sweeps) interleave with fast ones instead of serializing;
* :func:`run_suite` runs one thread per requested figure, each calling
  the ordinary :func:`repro.experiments.registry.run_experiment`; the
  supervised figures (``Experiment.supervised``) pick the shared pool
  up through :attr:`repro.experiments.runner.ExecutionPolicy.pool`, so
  every supervisor invariant (retries, watchdog, pool-rebuild
  escalation, checkpoint/resume, worker-count-invariant cache keys)
  holds unchanged — only *where* chunks execute moves.

A single figure run with ``n_workers > 1`` runs on a private
:class:`SuitePool` the runner opens for the sweep, so there is one
pooled execution path.

Determinism: a chunk result is a pure function of
``(config, chunk seed, chunk size)``, and the suite never alters a
figure's chunk layout or seeds — it only reorders *where and when*
chunks run.  Suite-mode outputs are therefore bit-identical to
per-figure sequential runs for any worker count or interleaving
(pinned by the golden tests in ``tests/experiments/test_suite.py``).

Transport: every pooled chunk attempt uses the shared-memory chunk
transport (:mod:`repro.experiments.transport`), so payloads of at
least ``MIN_SHM_BYTES`` skip the pickle round-trip.  Each pool owns one
:class:`TransportStats`; the suite summary reports its change over the
run, next to per-figure wall time and pool utilization.

Failure semantics: a broken round (``BrokenProcessPool``, watchdog
trip, injected break) asks the pool to rebuild its executor once for
*all* lanes — generation counters make concurrent rebuild requests
idempotent.  Operator interrupts fail every queued chunk with the
interrupt, so each figure's supervisor flushes completed chunks to its
checkpoint store and the run exits "resumable".  Abandoned
shared-memory results are released on every path (see
``release_chunk``) so no segment outlives the run.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict, deque
from concurrent.futures import Future, InvalidStateError, wait
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from functools import partial
from threading import Condition, RLock, Thread
from typing import (Any, Callable, Deque, Dict, List, Mapping, Optional,
                    Tuple)

from repro.experiments.registry import (
    REGISTRY,
    ExperimentRun,
    figure_sort_key,
    ordered_figures,
    run_experiment,
)
from repro.experiments.runner import ExecutionPolicy
from repro.experiments.transport import (
    TransportStats,
    ensure_resource_tracker,
    release_chunk,
)
from repro.util.timing import PhaseTimer

#: Per-worker warmup sleep: long enough to force the pool to actually
#: fork every worker before the figure threads start, cheap enough to
#: be invisible in the suite wall time.
_WARMUP_SLEEP_S = 0.02


def _warmup(delay_s: float) -> int:
    """Trivial pool task used to pre-fork workers; returns worker pid."""
    # Not a retry backoff: this sleep only keeps the warmup task alive
    # long enough that every pool worker forks before real work lands.
    time.sleep(delay_s)  # repro-lint: disable=RPR303
    return os.getpid()


def _timed(fn: Callable[..., object], *args: object) -> Tuple[float, object]:
    """Run one task in a worker; return ``(seconds, result)``.

    Timing inside the worker keeps executor-queue time out of the
    pool's ``busy_s``.
    """
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def default_suite_workers() -> int:
    """Worker count the CLI uses when ``--workers`` is not given."""
    return min(4, os.cpu_count() or 1)


class LaneQueue:
    """Fair round-robin queue of tasks keyed by lane name.

    ``pop`` serves one task from the least-recently-served non-empty
    lane, so a figure enqueueing hundreds of chunks cannot starve a
    figure with three.  Not thread-safe on its own — :class:`SuitePool`
    guards it with its condition lock.
    """

    def __init__(self) -> None:
        self._lanes: "OrderedDict[str, Deque[object]]" = OrderedDict()

    def push(self, lane: str, item: object) -> None:
        self._lanes.setdefault(lane, deque()).append(item)

    def pop(self) -> object:
        """The next task in round-robin order; raises ``IndexError`` empty."""
        for lane in list(self._lanes):
            queue = self._lanes[lane]
            if not queue:
                del self._lanes[lane]
                continue
            item = queue.popleft()
            # Rotate the served lane to the back so siblings go next.
            self._lanes.move_to_end(lane)
            if not queue:
                del self._lanes[lane]
            return item
        raise IndexError("pop from empty LaneQueue")

    def __len__(self) -> int:
        return sum(len(queue) for queue in self._lanes.values())

    def lanes(self) -> List[str]:
        """Non-empty lane names, current round-robin order."""
        return [lane for lane, queue in self._lanes.items() if queue]


class _SuiteTask:
    """One submitted chunk: the caller's proxy future plus its work."""

    __slots__ = ("proxy", "fn", "args", "lane", "abandoned")

    def __init__(self, proxy: Future, fn: Callable[..., object],
                 args: Tuple[object, ...], lane: str) -> None:
        self.proxy = proxy
        self.fn = fn
        self.args = args
        self.lane = lane
        self.abandoned = False


def _fail_proxy(proxy: Future, exc: BaseException) -> None:
    """Deliver a failure unless the proxy already settled."""
    if proxy.cancelled():
        return
    try:
        proxy.set_exception(exc)
    except InvalidStateError:
        pass


class _SuiteRound:
    """One supervisor round's view of the pool (one lane).

    The runner submits chunks through it, declares the round broken to
    request a pool rebuild, and abandons leftovers so their transported
    results are released whenever they land.
    """

    def __init__(self, pool: "SuitePool", lane: str,
                 generation: int) -> None:
        self._pool = pool
        self._lane = lane
        self._generation = generation

    def submit(self, fn: Callable[..., object], *args: object) -> Future:
        return self._pool._submit(self._lane, fn, args)

    def broken(self) -> None:
        self._pool._rebuild(self._generation)

    def abandon(self, futures: List[Future]) -> None:
        self._pool._abandon(futures)


_COUNTERS = ("tasks_done", "busy_s", "wall_s", "rebuilds")

#: ``SuitePool.stats()`` counters at the moment a pool starts.
_POOL_START: Dict[str, Any] = {**dict.fromkeys(_COUNTERS, 0), "lanes": {}}


def _stats_between(before: Mapping[str, Any],
                   after: Mapping[str, Any]) -> Dict[str, Any]:
    """Pool stats over the span between two ``SuitePool.stats()`` calls."""
    delta: Dict[str, Any] = {key: after[key] - before[key]
                             for key in _COUNTERS}
    capacity = delta["wall_s"] * after["workers"]
    delta["workers"] = after["workers"]
    delta["utilization"] = delta["busy_s"] / capacity if capacity > 0 \
        else 0.0
    delta["lanes"] = {lane: done - before["lanes"].get(lane, 0)
                      for lane, done in after["lanes"].items()
                      if done != before["lanes"].get(lane, 0)}
    return delta


class SuitePool:
    """A persistent supervised worker pool shared across figures.

    Figures submit chunks through per-engine lanes
    (:meth:`open_round`); a dispatcher thread drains the fair
    round-robin queue into one long-lived ``ProcessPoolExecutor``,
    throttled to ``2 x workers`` in-flight chunks so no single figure
    floods the pool.  Callers receive proxy futures with ordinary
    ``concurrent.futures`` semantics, so the runner's drain loop works
    on them untouched.

    An underlying chunk cancelled by a rebuild surfaces on its proxy
    as ``BrokenProcessPool`` — *never* ``CancelledError``, which is a
    ``BaseException`` and would sail past the supervisor's
    ``except BrokenExecutor`` recovery path.

    ``transport`` counts the bytes every supervisor decoding this
    pool's chunks received, by shared memory or by pickle.
    """

    def __init__(self, n_workers: Optional[int] = None, *,
                 warmup: bool = True) -> None:
        self.workers = n_workers if n_workers is not None \
            else default_suite_workers()
        if self.workers < 1:
            raise ValueError("n_workers must be positive")
        self.max_inflight = 2 * self.workers
        self._cond = Condition(RLock())
        self._queue = LaneQueue()
        self._inflight = 0
        self._generation = 0
        self._closed = False
        self._interrupt: Optional[BaseException] = None
        self._tasks_done = 0
        self._busy_s = 0.0
        self._rebuilds = 0
        self._lane_done: Dict[str, int] = {}
        self.transport = TransportStats()
        self._retired: List[ProcessPoolExecutor] = []
        self._created_at = time.monotonic()
        self._executor = self._new_executor(warmup=warmup)
        self._dispatcher = Thread(target=self._dispatch_loop,
                                  name="suite-dispatcher", daemon=True)
        self._dispatcher.start()

    # -- lifecycle ---------------------------------------------------------

    def _new_executor(self, warmup: bool = False) -> ProcessPoolExecutor:
        # The tracker must exist before workers fork, or worker-created
        # shared-memory segments register with per-worker trackers the
        # parent's unlink never reaches (spurious leak warnings).
        ensure_resource_tracker()
        executor = ProcessPoolExecutor(max_workers=self.workers)
        if warmup:
            # Fork every worker *now*, before figure threads exist —
            # forking a many-threaded parent mid-run is the risky path.
            wait([executor.submit(_warmup, _WARMUP_SLEEP_S)
                  for _ in range(self.workers)], timeout=60.0)
        return executor

    def __enter__(self) -> "SuitePool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down; idempotent.

        Queued chunks fail with ``BrokenProcessPool``; in-flight chunks
        finish (their results are delivered or released as usual), then
        every executor this pool ever owned is joined.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._dispatcher.join(timeout=60.0)
        with self._cond:
            executors = [self._executor] + self._retired
            self._retired = []
        for executor in executors:
            executor.shutdown(wait=True)

    def interrupt(self, exc: BaseException) -> None:
        """Fail every queued chunk with ``exc`` (operator interrupt).

        In-flight chunks are left to finish; each figure's supervisor
        sees ``exc`` on its next proxy result, flushes its completed
        chunks to the checkpoint store, and unwinds resumably.
        """
        with self._cond:
            self._interrupt = exc
            while len(self._queue):
                task = self._queue.pop()
                assert isinstance(task, _SuiteTask)
                _fail_proxy(task.proxy, exc)
            self._cond.notify_all()

    # -- figure-facing API -------------------------------------------------

    def open_round(self, lane: str) -> _SuiteRound:
        """A round handle whose submissions ride the given lane."""
        with self._cond:
            return _SuiteRound(self, lane, self._generation)

    def stats(self) -> Dict[str, Any]:
        """Cumulative utilization snapshot since the pool started.

        ``busy_s`` sums the in-worker time of every successful task;
        failed attempts and executor-queue time are not counted.
        """
        with self._cond:
            now = {"workers": self.workers,
                   "tasks_done": self._tasks_done,
                   "busy_s": self._busy_s,
                   "wall_s": time.monotonic() - self._created_at,
                   "rebuilds": self._rebuilds,
                   "lanes": dict(self._lane_done)}
        return _stats_between(_POOL_START, now)

    # -- internal ----------------------------------------------------------

    def _submit(self, lane: str, fn: Callable[..., object],
                args: Tuple[object, ...]) -> Future:
        proxy: Future = Future()
        task = _SuiteTask(proxy, fn, args, lane)
        proxy._suite_task = task  # type: ignore[attr-defined]
        with self._cond:
            if self._interrupt is not None:
                _fail_proxy(proxy, self._interrupt)
            elif self._closed:
                _fail_proxy(proxy, BrokenProcessPool("suite pool closed"))
            else:
                self._queue.push(lane, task)
                self._cond.notify_all()
        return proxy

    def _abandon(self, futures: List[Future]) -> None:
        """Disown proxies whose results nobody will consume."""
        with self._cond:
            for future in futures:
                task = getattr(future, "_suite_task", None)
                if isinstance(task, _SuiteTask):
                    task.abandoned = True
                future.cancel()
                if future.done() and not future.cancelled() \
                        and future.exception() is None:
                    release_chunk(future.result())

    def _rebuild(self, generation: int) -> None:
        """Replace the executor, once per generation.

        Every lane whose round broke against the same executor calls
        this with the same generation; the first call swaps the
        executor, the rest are no-ops against the already-bumped
        counter.
        """
        with self._cond:
            if generation != self._generation or self._closed:
                return
            old = self._executor
            self._generation += 1
            self._rebuilds += 1
            self._executor = self._new_executor()
            self._retired.append(old)
        old.shutdown(wait=False, cancel_futures=True)

    def _ready_locked(self) -> bool:
        return len(self._queue) > 0 and self._inflight < self.max_inflight

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while not self._closed and not self._ready_locked():
                    self._cond.wait()
                if self._closed:
                    while len(self._queue):
                        task = self._queue.pop()
                        assert isinstance(task, _SuiteTask)
                        _fail_proxy(task.proxy,
                                    BrokenProcessPool("suite pool closed"))
                    return
                task = self._queue.pop()
                assert isinstance(task, _SuiteTask)
                if not task.proxy.set_running_or_notify_cancel():
                    continue  # cancelled while queued
                self._inflight += 1
                generation = self._generation
                executor = self._executor
            try:
                underlying = executor.submit(_timed, task.fn, *task.args)
            except BaseException as exc:  # broken/shut-down executor
                with self._cond:
                    self._inflight -= 1
                    _fail_proxy(task.proxy, BrokenProcessPool(
                        str(exc) or type(exc).__name__))
                    self._cond.notify_all()
                continue
            underlying.add_done_callback(
                partial(self._on_done, task, generation))

    def _on_done(self, task: _SuiteTask, generation: int,
                 underlying: Future) -> None:
        with self._cond:
            self._inflight -= 1
            self._tasks_done += 1
            self._lane_done[task.lane] = self._lane_done.get(task.lane, 0) + 1
            if underlying.cancelled():
                # Rebuild cancelled it while queued on the old executor.
                _fail_proxy(task.proxy, BrokenProcessPool(
                    "shared pool rebuilt while the chunk was queued"))
            else:
                exc = underlying.exception()
                if exc is not None:
                    _fail_proxy(task.proxy, exc)
                else:
                    elapsed_s, result = underlying.result()
                    self._busy_s += elapsed_s
                    delivered = False
                    if not task.abandoned:
                        try:
                            task.proxy.set_result(result)
                            delivered = True
                        except InvalidStateError:
                            pass
                    if not delivered:
                        release_chunk(result)
            self._cond.notify_all()


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------

@dataclass
class FigureOutcome:
    """One figure's result within a suite run."""

    figure: str
    run: Optional[ExperimentRun]
    wall_s: float
    error: Optional[BaseException] = None

    @property
    def lines(self) -> List[str]:
        return self.run.lines if self.run is not None else []


@dataclass
class SuiteResult:
    """Everything a suite run produced, in paper order."""

    outcomes: List[FigureOutcome]
    pool_stats: Dict[str, object]
    transport: Dict[str, int]
    wall_s: float
    timer: PhaseTimer

    def runs(self) -> Dict[str, ExperimentRun]:
        """Successful figure runs keyed by figure id."""
        return {outcome.figure: outcome.run for outcome in self.outcomes
                if outcome.run is not None}

    def summary_lines(self) -> List[str]:
        """The suite-level timing/transport summary the CLI prints."""
        stats = self.pool_stats
        lines = [
            f"== suite: {len(self.outcomes)} figures, "
            f"{stats['workers']} workers, {self.wall_s:.2f}s wall =="]
        serial_s = sum(outcome.wall_s for outcome in self.outcomes)
        for outcome in self.outcomes:
            status = "ok" if outcome.error is None else (
                f"FAILED ({type(outcome.error).__name__})")
            lines.append(
                f"  {outcome.figure:>6}: {outcome.wall_s:7.2f}s {status}")
        lines.append(
            f"  figure-seconds {serial_s:.2f}s in {self.wall_s:.2f}s wall "
            f"(overlap {serial_s / self.wall_s:.2f}x)"
            if self.wall_s > 0 else
            f"  figure-seconds {serial_s:.2f}s")
        lines.append(
            "  pool: utilization {:.1%} (busy {:.2f}s / {} workers), "
            "{} chunks, {} rebuilds".format(
                stats["utilization"], stats["busy_s"], stats["workers"],
                stats["tasks_done"], stats["rebuilds"]))
        lines.append(
            "  transport: {shm_chunks} chunks / {shm_kib:.0f} KiB "
            "shared-memory, {pickled_chunks} chunks / {pickled_kib:.0f} "
            "KiB pickled".format(
                shm_chunks=self.transport["shm_chunks"],
                shm_kib=self.transport["shm_bytes"] / 1024,
                pickled_chunks=self.transport["pickled_chunks"],
                pickled_kib=self.transport["pickled_bytes"] / 1024))
        return lines


def run_suite(figures: Optional[List[str]] = None,
              kwargs_by_figure: Optional[Mapping[str, Mapping[str, object]]]
              = None, *,
              n_workers: Optional[int] = None,
              policy: Optional[ExecutionPolicy] = None,
              pool: Optional[SuitePool] = None) -> SuiteResult:
    """Run a set of figures concurrently over one shared pool.

    Each figure runs on its own thread through the registry's single
    dispatch point with exactly the caller's kwargs — chunk layouts and
    seeds are untouched, so per-figure results are bit-identical to
    calling ``compute()`` directly with the same kwargs.  Supervised
    figures additionally receive an :class:`ExecutionPolicy` carrying
    the shared pool (unless the caller already pinned a ``policy``
    kwarg for that figure) and a :class:`PhaseTimer`.

    Figure errors are collected so every figure gets to finish; the
    first failure in paper order is re-raised after all threads settle.
    A ``pool`` passed in is borrowed (left open); otherwise one is
    created and closed here.  ``pool_stats`` and ``transport`` on the
    result cover this run only, even on a borrowed pool.
    """
    requested = list(figures) if figures is not None else ordered_figures()
    unknown = [figure for figure in requested if figure not in REGISTRY]
    if unknown:
        raise KeyError(f"unknown figures: {', '.join(unknown)}")
    requested.sort(key=figure_sort_key)
    kwargs_by_figure = kwargs_by_figure or {}

    own_pool = pool is None
    suite_pool = pool if pool is not None else SuitePool(n_workers)
    base_policy = policy if policy is not None else ExecutionPolicy.from_env()
    suite_policy = replace(base_policy, pool=suite_pool)

    outcomes = {figure: FigureOutcome(figure, None, 0.0)
                for figure in requested}
    timers: Dict[str, PhaseTimer] = {}

    def _figure_body(figure: str) -> None:
        outcome = outcomes[figure]
        kwargs = dict(kwargs_by_figure.get(figure, {}))
        if REGISTRY[figure].supervised:
            kwargs.setdefault("policy", suite_policy)
            if "timer" not in kwargs:
                timers[figure] = PhaseTimer()
                kwargs["timer"] = timers[figure]
        start = time.perf_counter()
        try:
            outcome.run = run_experiment(figure, **kwargs)
        except BaseException as exc:  # collected; re-raised in paper order
            outcome.error = exc
        finally:
            outcome.wall_s = time.perf_counter() - start

    pool_before = suite_pool.stats()
    transport_before = suite_pool.transport.as_dict()
    suite_start = time.perf_counter()
    threads = [Thread(target=_figure_body, args=(figure,),
                      name=f"suite-{figure}") for figure in requested]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - suite_start
        pool_stats = _stats_between(pool_before, suite_pool.stats())
        transport = {key: count - transport_before[key] for key, count
                     in suite_pool.transport.as_dict().items()}
    except BaseException as exc:  # operator interrupt in the main thread
        suite_pool.interrupt(exc)
        for thread in threads:
            thread.join(timeout=60.0)
        raise
    finally:
        if own_pool:
            suite_pool.close()

    suite_timer = PhaseTimer()
    for figure, timer in timers.items():
        suite_timer.merge(timer, prefix=f"{figure}.")

    result = SuiteResult(
        outcomes=[outcomes[figure] for figure in requested],
        pool_stats=pool_stats,
        transport=transport,
        wall_s=wall_s,
        timer=suite_timer)

    for outcome in result.outcomes:
        if outcome.error is not None:
            raise outcome.error
    return result


__all__ = [
    "FigureOutcome",
    "LaneQueue",
    "SuitePool",
    "SuiteResult",
    "default_suite_workers",
    "run_suite",
]
