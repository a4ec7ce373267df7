"""Supervised chunked execution for the Monte-Carlo engines.

PR 1's chunked substrate fanned chunks out to a ``ProcessPoolExecutor``
and hoped: one crashed worker, one wedged pool, or one interrupt killed
the whole sweep.  This module replaces that with a **supervisor** that
keeps the hard invariant — results bit-identical to a fault-free serial
run — while recovering from:

* **chunk failures** — each failed chunk is retried under a
  :class:`~repro.util.faults.RetryPolicy` (bounded attempts,
  deterministic backoff through an injectable sleep hook); a chunk that
  exhausts its budget raises :class:`ChunkExecutionError`;
* **pool failures** — ``BrokenProcessPool`` (a worker OOM-killed or
  segfaulted) and worker timeouts rebuild the pool and resubmit *only
  the chunks still missing*; after ``max_pool_rebuilds`` consecutive
  pool deaths the supervisor degrades to in-process execution with a
  structured :class:`ExecutionDegradedWarning` — never a silent
  behaviour change;
* **hung workers** — a :class:`Watchdog` (per-chunk deadline plus a
  pool heartbeat, measured on an *injectable* clock so the policy is
  testable without wall-clock sleeps) detects a wedged chunk or a
  silent pool and routes recovery through the same rebuild path, so a
  single stuck worker never stalls a sweep indefinitely;
* **operator interrupts** — SIGINT/SIGTERM (delivered as
  :class:`repro.util.errors.ResumableInterrupt` by the CLI layer) make
  the supervisor flush every already-completed chunk to the checkpoint
  store before the interrupt propagates, so an interrupted sweep loses
  at most the chunks still in flight and resumes bit-identically;
* **interruption** — with a checkpoint directory configured
  (``REPRO_CHECKPOINT_DIR`` or :attr:`ExecutionPolicy.checkpoint_dir`)
  every completed chunk is persisted atomically
  (:class:`~repro.util.checkpoint.CheckpointStore`); a resumed sweep
  reloads verified chunks and recomputes only the rest.

Determinism holds because chunk ``i``'s result is a pure function of
``(config, chunk seed i, chunk size i)``: retries, pool rebuilds,
degradation and resume all re-evaluate the *same* pure function, so
worker count, retry count and resume-vs-fresh never change results.
Every recovery path is testable via the deterministic
:class:`~repro.util.faults.FaultInjector` (seeded, keyed on
``(engine, chunk_index, attempt)`` — no wall clock, no global
randomness).

Every pooled pass runs on a :class:`repro.experiments.suite.SuitePool`:
the shared one in :attr:`ExecutionPolicy.pool` (the suite engine), or
a private one sized to the sweep and closed when the pass ends.  Each
round submits through the pool's per-engine lane, and a broken round
asks the pool to rebuild.  Pooled attempts always use the zero-copy
chunk transport (:mod:`repro.experiments.transport`): workers park
large results in shared memory, the supervisor decodes them on its own
thread when it consumes them, and abandoned segments are released on
every recovery path.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Dict, List, Mapping, Optional,
                    Union)

import numpy as np

from repro.experiments.transport import (
    TransportStats,
    decode_chunk,
    encode_chunk,
)
from repro.util.cache import ResultCache
from repro.util.checkpoint import CheckpointStore, checkpoint_dir_from_env
from repro.util.errors import ResumableInterrupt, TransientError
from repro.util.faults import FaultInjector, RetryPolicy
from repro.util.rng import SeedLike, spawn_seed_sequences

if TYPE_CHECKING:
    from repro.experiments.suite import SuitePool, _SuiteRound

ChunkResult = Dict[str, np.ndarray]
ChunkFn = Callable[..., ChunkResult]


class ExecutionDegradedWarning(RuntimeWarning):
    """Pool execution fell back to in-process after repeated pool deaths.

    Structured: carries the engine name, the number of pool failures
    observed, and the last failure's description, so callers can log or
    assert on the degradation instead of parsing a message.
    """

    def __init__(self, engine: str, pool_failures: int, reason: str) -> None:
        self.engine = engine
        self.pool_failures = pool_failures
        self.reason = reason
        super().__init__(
            f"engine {engine!r}: process pool failed {pool_failures} times "
            f"(last: {reason}); degrading to in-process execution — results "
            "are unchanged, throughput is not")


class ChunkExecutionError(TransientError, RuntimeError):
    """A chunk kept failing after exhausting its retry budget.

    Classified *transient* in the operator taxonomy: the computation is
    pure, so exhausted retries indicate environment (OOM, flaky node),
    and a rerun — resuming from checkpoints — may well succeed.
    """

    def __init__(self, engine: str, chunk_index: int, attempts: int,
                 last_error: BaseException) -> None:
        self.engine = engine
        self.chunk_index = chunk_index
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(
            f"engine {engine!r}: chunk {chunk_index} failed "
            f"{attempts} attempt(s); last error: {last_error!r}",
            hint=("completed chunks are checkpointed when "
                  "REPRO_CHECKPOINT_DIR is set; rerunning resumes from "
                  "them"))


class _PoolBroken(Exception):
    """Internal: the current pool round is unusable (rebuild or degrade)."""


@dataclass(frozen=True)
class Watchdog:
    """Hung-worker detection policy for pooled execution.

    ``chunk_deadline_s`` bounds any single chunk attempt; a chunk still
    running past it is declared hung and the pool round is broken (the
    rebuild resubmits the chunk, restarting its clock).
    ``heartbeat_interval_s`` bounds the gap between *any* two chunk
    completions — a pool that completes nothing within it is wedged.
    ``clock`` is injectable (``None`` means ``time.monotonic``), so
    watchdog decisions are testable with a scripted clock and never
    force tests to sleep.  Timing only ever decides *when* a chunk is
    recomputed, never *what* it computes, so the bit-identity invariant
    is untouched.
    """

    chunk_deadline_s: Optional[float] = None
    heartbeat_interval_s: Optional[float] = None
    clock: Optional[Callable[[], float]] = None

    def __post_init__(self) -> None:
        if self.chunk_deadline_s is not None and self.chunk_deadline_s <= 0:
            raise ValueError("chunk_deadline_s must be positive")
        if (self.heartbeat_interval_s is not None
                and self.heartbeat_interval_s <= 0):
            raise ValueError("heartbeat_interval_s must be positive")

    @property
    def armed(self) -> bool:
        return (self.chunk_deadline_s is not None
                or self.heartbeat_interval_s is not None)


class _WatchdogMonitor:
    """Per-pool-round watchdog state: chunk start times + last heartbeat."""

    def __init__(self, watchdog: Watchdog) -> None:
        self._deadline = watchdog.chunk_deadline_s
        self._heartbeat = watchdog.heartbeat_interval_s
        self._clock = watchdog.clock or time.monotonic
        self._last_beat = self._clock()
        self._starts: Dict[int, float] = {}

    def submitted(self, index: int) -> None:
        """A chunk attempt entered the pool; its deadline clock restarts."""
        self._starts[index] = self._clock()

    def completed(self, index: int) -> None:
        """A chunk attempt finished (success or failure): heartbeat."""
        self._starts.pop(index, None)
        self._last_beat = self._clock()

    def wait_timeout(self) -> Optional[float]:
        """How long the supervisor may block before it must re-check."""
        now = self._clock()
        cutoffs = []
        if self._heartbeat is not None:
            cutoffs.append(self._last_beat + self._heartbeat)
        if self._deadline is not None and self._starts:
            cutoffs.append(min(self._starts.values()) + self._deadline)
        if not cutoffs:
            return None
        return max(0.0, min(cutoffs) - now)

    def expired(self) -> Optional[str]:
        """A human-readable reason when a limit has been crossed."""
        now = self._clock()
        if (self._heartbeat is not None
                and now - self._last_beat >= self._heartbeat):
            return f"no worker progress within {self._heartbeat:g}s"
        if self._deadline is not None:
            for index in sorted(self._starts):
                if now - self._starts[index] >= self._deadline:
                    return (f"chunk {index} exceeded its "
                            f"{self._deadline:g}s deadline")
        return None


@dataclass(frozen=True)
class ExecutionPolicy:
    """Fault-tolerance knobs threaded through every batched engine.

    The default policy retries each chunk up to
    ``RetryPolicy.max_attempts`` times with no backoff sleeping,
    rebuilds a broken pool up to ``max_pool_rebuilds`` times before
    degrading to in-process execution, and checkpoints only when a
    directory is configured.  ``faults`` is the deterministic injector
    used by the resilience tests; production runs leave it ``None``.

    ``watchdog`` supervises pooled rounds for hung workers.

    ``pool`` plugs in a *shared* :class:`repro.experiments.suite.SuitePool`
    (the suite engine's): pooled rounds then run on it, even with
    ``n_workers == 1``, instead of on a private pool built for the
    sweep.  It never changes results — chunks stay pure functions of
    ``(config, seed, size)``.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    max_pool_rebuilds: int = 2
    checkpoint_dir: Optional[Union[str, Path]] = None
    faults: Optional[FaultInjector] = None
    watchdog: Optional[Watchdog] = None
    pool: Optional["SuitePool"] = None

    def __post_init__(self) -> None:
        if self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be non-negative")

    def effective_watchdog(self) -> Optional[Watchdog]:
        """The armed watchdog for pooled rounds, or ``None``."""
        if self.watchdog is not None and self.watchdog.armed:
            return self.watchdog
        return None

    @classmethod
    def from_env(cls) -> "ExecutionPolicy":
        """Default policy plus ``$REPRO_CHECKPOINT_DIR`` when set."""
        return cls(checkpoint_dir=checkpoint_dir_from_env())


# ---------------------------------------------------------------------------
# Chunk layout (deterministic; shared with the engines' public helpers)
# ---------------------------------------------------------------------------

def chunk_sizes(n_samples: int, chunk_size: Optional[int]) -> List[int]:
    """Split ``n_samples`` into deterministic chunk lengths.

    ``chunk_size=None`` keeps the whole run in a single chunk (the
    draw-for-draw-compatible mode); otherwise full chunks of
    ``chunk_size`` plus one remainder chunk.
    """
    if chunk_size is None:
        return [n_samples]
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    full, remainder = divmod(n_samples, chunk_size)
    return [chunk_size] * full + ([remainder] if remainder else [])


def chunk_seeds(seed: SeedLike, n_chunks: int) -> List[SeedLike]:
    """Per-chunk seeds, independent of worker count.

    A single chunk consumes the caller's seed directly (so the batch
    matches the scalar reference stream); multiple chunks get spawned
    child ``SeedSequence`` objects, which are picklable and therefore
    cross process boundaries unchanged.
    """
    if n_chunks == 1:
        return [seed]
    return list(spawn_seed_sequences(seed, n_chunks))


def seed_cache_token(
        seed: SeedLike) -> Union[int, np.random.SeedSequence, None]:
    """A stable, hashable rendering of ``seed`` — or None if the seed
    cannot key a cache entry (OS entropy, stateful generators)."""
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    if isinstance(seed, np.random.SeedSequence) and seed.entropy is not None:
        return seed
    return None


def chunk_starts(sizes: List[int]) -> List[int]:
    """Start offsets of each chunk in the merged item order."""
    starts: List[int] = []
    offset = 0
    for size in sizes:
        starts.append(offset)
        offset += size
    return starts


def _resolve_cache(cache: Optional[ResultCache]) -> ResultCache:
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache.from_env()


def _guarded_chunk(chunk_fn: ChunkFn, config: object, seed: SeedLike,
                   n: int, kwargs: Mapping[str, object],
                   faults: Optional[FaultInjector], engine: str,
                   chunk_index: int, attempt: int, pooled: bool = False
                   ) -> Union[ChunkResult, object]:
    """Evaluate one chunk attempt, applying injected faults first.

    Module-level (not a closure) so the pool can pickle it; runs inside
    the worker, so an injected fault exercises the same
    exception-through-``Future`` path a real crash does.  A ``pooled``
    attempt's result rides a shared-memory segment (descriptor
    returned) when the payload qualifies, and the supervisor decodes it
    when it consumes the result.
    """
    if faults is not None:
        faults.check_chunk(engine, chunk_index, attempt)
    result = chunk_fn(config, seed, n, **kwargs)
    if pooled:
        return encode_chunk(result)
    return result


# ---------------------------------------------------------------------------
# The supervisor
# ---------------------------------------------------------------------------

class _Supervisor:
    """Drives one sweep's chunks to completion despite faults."""

    def __init__(self, engine: str, chunk_fn: ChunkFn, config: object,
                 seeds: List[SeedLike], sizes: List[int],
                 kwargs: Mapping[str, object], policy: ExecutionPolicy,
                 checkpoint: Optional[CheckpointStore]) -> None:
        self.engine = engine
        self.chunk_fn = chunk_fn
        self.config = config
        self.seeds = seeds
        self.sizes = sizes
        self.kwargs = kwargs
        self.policy = policy
        self.checkpoint = checkpoint
        self.results: Dict[int, ChunkResult] = {}
        #: Attempt number the next invocation of each chunk will carry.
        self.next_attempt: Dict[int, int] = {}
        self.pool_failures = 0
        self.pool_round = 0
        #: Byte counters of the pool the current pooled pass runs on.
        self.transport: Optional[TransportStats] = None

    # -- shared bookkeeping -----------------------------------------------

    def pending(self) -> List[int]:
        return [i for i in range(len(self.sizes)) if i not in self.results]

    def _restore_checkpointed(self) -> None:
        if self.checkpoint is None:
            return
        for index in self.checkpoint.completed_chunks():
            chunk = self.checkpoint.get_chunk(index)
            if chunk is not None:
                self.results[index] = chunk

    def _finish_chunk(self, index: int, chunk: ChunkResult) -> None:
        self.results[index] = chunk
        if self.checkpoint is not None:
            self.checkpoint.put_chunk(index, chunk)

    def _submit_args(self, index: int, pooled: bool = False) -> tuple:
        attempt = self.next_attempt.setdefault(index, 1)
        return (self.chunk_fn, self.config, self.seeds[index],
                self.sizes[index], self.kwargs, self.policy.faults,
                self.engine, index, attempt, pooled)

    def _decoded(self, raw: object) -> ChunkResult:
        """Materialise a pooled result (shared-memory or pickled).

        Always called on the supervisor's own thread, as it consumes
        the result: decoding on the pool's callback thread instead
        measured ~2.4x the peak RSS of a 1M-sample fig6 + fig11 suite
        run on a 2-core host.
        """
        return decode_chunk(raw, self.transport)

    def _record_chunk_failure(self, index: int, exc: BaseException) -> None:
        """Book a failed attempt; raise when the retry budget is gone."""
        attempt = self.next_attempt.get(index, 1)
        if attempt >= self.policy.retry.max_attempts:
            raise ChunkExecutionError(self.engine, index, attempt, exc)
        self.policy.retry.wait(attempt)
        self.next_attempt[index] = attempt + 1

    # -- execution modes --------------------------------------------------

    def run(self, n_workers: int) -> Dict[int, ChunkResult]:
        self._restore_checkpointed()
        pooled = n_workers > 1 or self.policy.pool is not None
        if pooled and len(self.pending()) > 1:
            self._run_pooled(n_workers)
        self._run_inline()
        return self.results

    def _run_inline(self) -> None:
        for index in self.pending():
            while True:
                try:
                    chunk = _guarded_chunk(*self._submit_args(index))
                except Exception as exc:  # anything a worker can die of
                    self._record_chunk_failure(index, exc)
                else:
                    self._finish_chunk(index, chunk)
                    break

    def _run_pooled(self, n_workers: int) -> None:
        """Run the pooled pass on the shared pool, or on a private one."""
        if self.policy.pool is not None:
            self._pool_rounds(self.policy.pool)
            return
        # Lazy: suite imports the registry -> every figure -> this module.
        from repro.experiments.suite import SuitePool
        with SuitePool(min(n_workers, len(self.pending()))) as pool:
            self._pool_rounds(pool)

    def _pool_rounds(self, pool: "SuitePool") -> None:
        """Pool rounds with rebuild-on-break; degrades after the budget."""
        self.transport = pool.transport
        while len(self.pending()) > 1:
            try:
                self._pool_round(pool)
                return
            except _PoolBroken as exc:
                self.pool_failures += 1
                if self.pool_failures > self.policy.max_pool_rebuilds:
                    warnings.warn(
                        ExecutionDegradedWarning(
                            self.engine, self.pool_failures, str(exc)),
                        stacklevel=2)
                    return  # the inline pass finishes the sweep

    def _pool_round(self, pool: "SuitePool") -> None:
        """One round: submit all pending chunks on the lane, drain, retry.

        Raises :class:`_PoolBroken` when the pool dies (for real, or by
        injection) so the caller can rebuild with only missing chunks.
        """
        round_index = self.pool_round
        self.pool_round += 1
        faults = self.policy.faults
        if faults is not None and faults.should_break_pool(round_index):
            raise _PoolBroken(f"injected pool break (round {round_index})")
        handle = pool.open_round(self.engine)
        futures: Dict[Future, int] = {}
        try:
            try:
                self._submit_and_drain(handle, futures, self.pending())
            except _PoolBroken:
                handle.broken()
                raise
        finally:
            # Futures may still be in flight; the pool releases their
            # transported results on arrival.
            handle.abandon(list(futures))

    def _submit_and_drain(self, handle: "_SuiteRound",
                          futures: Dict[Future, int],
                          pending: List[int]) -> None:
        """Submit every pending chunk on the round's lane and drain."""
        monitor = None
        watchdog = self.policy.effective_watchdog()
        if watchdog is not None:
            monitor = _WatchdogMonitor(watchdog)
        try:
            for index in pending:
                futures[handle.submit(
                    _guarded_chunk,
                    *self._submit_args(index, pooled=True))] = index
                if monitor is not None:
                    monitor.submitted(index)
            self._drain(handle, futures, monitor)
        except BrokenExecutor as exc:
            raise _PoolBroken(str(exc) or type(exc).__name__) from exc

    def _drain(self, handle: "_SuiteRound",
               futures: Dict[Future, int],
               monitor: Optional[_WatchdogMonitor]) -> None:
        try:
            self._drain_inner(handle, futures, monitor)
        except (KeyboardInterrupt, ResumableInterrupt):
            # Operator interrupt: flush every chunk whose future already
            # completed into the checkpoint store, then let the
            # interrupt propagate — the run exits "resumable" having
            # lost only the chunks still in flight.
            self._flush_completed(futures)
            raise

    def _drain_inner(self, handle: "_SuiteRound",
                     futures: Dict[Future, int],
                     monitor: Optional[_WatchdogMonitor]) -> None:
        while futures:
            timeout = monitor.wait_timeout() if monitor is not None else None
            done, _ = wait(frozenset(futures), timeout=timeout,
                           return_when=FIRST_COMPLETED)
            for future in done:
                index = futures.pop(future)
                if monitor is not None:
                    monitor.completed(index)
                try:
                    chunk = future.result()
                except BrokenExecutor:
                    # Put the future back so the round's abandon still
                    # covers its result.
                    futures[future] = index
                    raise
                except Exception as exc:  # anything a worker can die of
                    self._record_chunk_failure(index, exc)
                    futures[handle.submit(
                        _guarded_chunk,
                        *self._submit_args(index, pooled=True))] = index
                    if monitor is not None:
                        monitor.submitted(index)
                else:
                    self._finish_chunk(index, self._decoded(chunk))
            if monitor is not None:
                reason = monitor.expired()
                if reason is not None:
                    for future in futures:
                        future.cancel()
                    raise _PoolBroken(reason)

    def _flush_completed(self, futures: Dict[Future, int]) -> None:
        """Persist chunks whose futures already finished successfully."""
        for future, index in list(futures.items()):
            if not future.done() or future.cancelled():
                continue
            if future.exception() is None:
                del futures[future]
                self._finish_chunk(index, self._decoded(future.result()))


# ---------------------------------------------------------------------------
# Public entry point
# ---------------------------------------------------------------------------

def run_chunked(engine: str, chunk_fn: ChunkFn, config, seed: SeedLike, *,
                code_version: int, n_workers: int = 1,
                chunk_size: Optional[int] = None,
                cache: Optional[ResultCache] = None,
                kwargs: Optional[Mapping[str, object]] = None,
                policy: Optional[ExecutionPolicy] = None) -> ChunkResult:
    """Run one batched engine under supervision; return merged arrays.

    ``chunk_fn(config, seed, n, **kwargs)`` evaluates one chunk of
    ``n`` draws and returns named 1-D arrays; chunks are concatenated
    in index order, so the merged arrays depend only on
    ``(seed, n_samples, chunk_size)`` — never on ``n_workers``, retry
    outcomes, or whether the run resumed from a checkpoint.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be positive")
    kwargs = dict(kwargs or {})
    policy = policy if policy is not None else ExecutionPolicy.from_env()
    sizes = chunk_sizes(config.n_samples, chunk_size)
    token = seed_cache_token(seed)

    run_key = None
    if token is not None:
        run_key = {"engine": engine,
                   "code_version": code_version,
                   "config": _config_key(config),
                   "seed": token,
                   "chunk_sizes": sizes,
                   "kwargs": kwargs}
    return _run_supervised(engine, chunk_fn, config,
                           lambda: chunk_seeds(seed, len(sizes)), sizes,
                           kwargs, run_key, cache, policy, n_workers)


def run_indexed(engine: str, chunk_fn: ChunkFn, config, n_items: int, *,
                code_version: int,
                cache_key: Optional[Mapping[str, object]] = None,
                n_workers: int = 1,
                chunk_size: Optional[int] = None,
                cache: Optional[ResultCache] = None,
                kwargs: Optional[Mapping[str, object]] = None,
                policy: Optional[ExecutionPolicy] = None) -> ChunkResult:
    """Run an *indexed map* under supervision; return merged arrays.

    The seeded-sweep counterpart of :func:`run_chunked` for workloads
    whose randomness was already drawn: ``chunk_fn(config, start, n,
    **kwargs)`` deterministically evaluates items ``[start, start + n)``
    of a precomputed sequence (trace snapshots, scenario index tables)
    and returns named arrays with ``n`` leading rows.  Chunks merge in
    index order, so the result is **independent of chunking and worker
    count** — the trace pipeline pins serial == parallel == cached
    bit-identity on exactly this property.

    Retry/backoff, pool rebuild/degradation, the watchdog and
    checkpoint/resume behave as in :func:`run_chunked`.  ``cache_key``
    is the caller's description of what determines the items (e.g.
    trace config + seed); when ``None`` the run is treated as
    uncacheable — no result cache, no checkpoints.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be positive")
    if n_items < 0:
        raise ValueError("n_items must be non-negative")
    kwargs = dict(kwargs or {})
    policy = policy if policy is not None else ExecutionPolicy.from_env()
    sizes = chunk_sizes(n_items, chunk_size)
    if not sizes:  # n_items == 0 with a finite chunk_size
        sizes = [0]

    run_key = None
    if cache_key is not None:
        run_key = {"engine": engine,
                   "code_version": code_version,
                   "mode": "indexed",
                   "key": dict(cache_key),
                   "chunk_sizes": sizes,
                   "kwargs": kwargs}
    # Start offsets ride in the supervisor's per-chunk seed slot: chunk
    # i evaluates the pure function (config, starts[i], sizes[i]).
    return _run_supervised(engine, chunk_fn, config,
                           lambda: chunk_starts(sizes), sizes, kwargs,
                           run_key, cache, policy, n_workers)


def _run_supervised(engine: str, chunk_fn: ChunkFn, config: object,
                    chunk_args: Callable[[], List[SeedLike]],
                    sizes: List[int], kwargs: Mapping[str, object],
                    run_key: Optional[Mapping[str, object]],
                    cache: Optional[ResultCache], policy: ExecutionPolicy,
                    n_workers: int) -> ChunkResult:
    """Cache lookup, checkpoint store, supervised run, cache store.

    ``chunk_args`` builds each chunk's seed slot only on a cache miss:
    spawning chunk seeds advances a caller's ``SeedSequence``.
    """
    store = _resolve_cache(cache)
    key = run_key if store.enabled else None
    if key is not None:
        cached = store.get(key)
        if cached is not None:
            return cached

    checkpoint = None
    if policy.checkpoint_dir is not None and run_key is not None:
        checkpoint = CheckpointStore(policy.checkpoint_dir, run_key,
                                     n_chunks=len(sizes))

    supervisor = _Supervisor(engine, chunk_fn, config, chunk_args(), sizes,
                             kwargs, policy, checkpoint)
    merged = _merge_chunks(supervisor.run(n_workers), len(sizes))
    if key is not None:
        store.put(key, merged)
    return merged


def _merge_chunks(chunks: Dict[int, ChunkResult],
                  n_chunks: int) -> ChunkResult:
    """Concatenate per-chunk arrays in index order."""
    return {name: np.concatenate([chunks[i][name]
                                  for i in range(n_chunks)])
            for name in chunks[0]}


def _config_key(config) -> Mapping[str, object]:
    """The cache/checkpoint rendering of an engine config dataclass."""
    return asdict(config)
