"""Shared-memory chunk transport: round-trips, fallbacks, leak checks.

The transport must never change results — only how bytes move — so
every test here is an identity check plus a ``/dev/shm`` scan: after
any run (including faulted ones) no ``repro_shm_*`` segment survives.
Every pooled attempt encodes; payloads below ``MIN_SHM_BYTES`` pickle.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.experiments import fig6, transport
from repro.experiments.montecarlo import (
    MonteCarloConfig,
    _two_receiver_scenarios_chunk,
)
from repro.experiments.runner import (
    ExecutionPolicy,
    _guarded_chunk,
    run_chunked,
)
from repro.experiments.suite import SuitePool
from repro.experiments.transport import (
    MIN_SHM_BYTES,
    ShmChunk,
    TransportStats,
    active_segments,
    decode_chunk,
    encode_chunk,
    release_chunk,
    shm_available,
)
from repro.util.faults import FaultInjector

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="no usable shared memory on this platform")


def _payload(n=8192, seed=0):
    """Two 64 KiB arrays: comfortably above ``MIN_SHM_BYTES``."""
    rng = np.random.default_rng(seed)
    return {"gains": rng.random(n), "cases": rng.integers(0, 4, n)}


@pytest.fixture
def no_threshold(monkeypatch):
    """In-process encodes ride shared memory whatever their size."""
    monkeypatch.setattr(transport, "MIN_SHM_BYTES", 1)


@dataclass(frozen=True)
class _TinyConfig:
    n_samples: int = 40_000


#: 10k-draw chunks of two float64 arrays: 160 KB, over the threshold.
_CHUNK = 10_000


def _payload_chunk(config, seed, n):
    """Module-level (picklable) chunk fn with a deterministic payload."""
    from repro.util.rng import make_rng

    rng = make_rng(seed)
    return {"x": rng.random(n), "y": rng.random(n)}


class TestRoundTrip:
    def test_large_arrays_ride_shared_memory(self):
        before = active_segments()
        raw = encode_chunk(_payload())
        assert isinstance(raw, ShmChunk)
        assert raw.total_bytes >= MIN_SHM_BYTES
        decoded = decode_chunk(raw)
        expected = _payload()
        assert set(decoded) == set(expected)
        for name in expected:
            assert np.array_equal(decoded[name], expected[name])
            assert decoded[name].dtype == expected[name].dtype
        assert active_segments() == before

    def test_non_contiguous_and_multidim_arrays(self, no_threshold):
        base = np.arange(600, dtype=np.float64).reshape(20, 30)
        result = {"strided": base[::2, ::3], "grid": base}
        raw = encode_chunk(result)
        assert isinstance(raw, ShmChunk)
        decoded = decode_chunk(raw)
        assert np.array_equal(decoded["strided"], base[::2, ::3])
        assert np.array_equal(decoded["grid"], base)

    def test_empty_array_survives(self):
        result = {"big": np.ones(MIN_SHM_BYTES // 8), "empty": np.empty(0)}
        raw = encode_chunk(result)
        assert isinstance(raw, ShmChunk)
        decoded = decode_chunk(raw)
        assert decoded["empty"].shape == (0,)
        assert np.array_equal(decoded["big"], result["big"])


class TestFallbacks:
    def test_small_payload_pickles(self):
        result = {"x": np.ones(4)}
        assert encode_chunk(result) is result

    def test_payload_just_below_threshold_pickles(self):
        result = {"x": np.ones(MIN_SHM_BYTES // 8 - 1)}
        assert encode_chunk(result) is result

    def test_inline_attempt_returns_plain_dict(self):
        result = _guarded_chunk(_payload_chunk, _TinyConfig(), 5, _CHUNK,
                                {}, None, "inline", 0, 1)
        assert isinstance(result, dict)

    def test_pooled_attempt_encodes(self):
        raw = _guarded_chunk(_payload_chunk, _TinyConfig(), 5, _CHUNK,
                             {}, None, "pooled", 0, 1, True)
        assert isinstance(raw, ShmChunk)
        expected = _payload_chunk(_TinyConfig(), 5, _CHUNK)
        assert np.array_equal(decode_chunk(raw)["x"], expected["x"])

    def test_object_dtype_pickles(self):
        result = {"big": np.ones(MIN_SHM_BYTES // 8),
                  "weird": np.array([{"a": 1}], dtype=object)}
        assert encode_chunk(result) is result

    def test_non_ndarray_value_pickles(self):
        result = {"big": np.ones(MIN_SHM_BYTES // 8), "scalar": 3.0}
        assert encode_chunk(result) is result

    def test_unavailable_platform_pickles(self, monkeypatch):
        monkeypatch.setattr(transport, "_AVAILABLE", False)
        result = _payload()
        assert encode_chunk(result) is result


class TestRelease:
    def test_release_is_idempotent(self):
        raw = encode_chunk(_payload())
        assert isinstance(raw, ShmChunk)
        release_chunk(raw)
        release_chunk(raw)  # second release of the same segment: no-op
        assert raw.segment not in active_segments()

    def test_release_after_decode_is_noop(self):
        raw = encode_chunk(_payload())
        decode_chunk(raw)
        release_chunk(raw)

    def test_release_ignores_plain_dicts(self):
        release_chunk({"x": np.ones(3)})
        release_chunk(None)


class TestStats:
    def test_decode_records_both_paths(self):
        stats = TransportStats()
        raw = encode_chunk(_payload())
        decode_chunk(raw, stats)
        decode_chunk({"x": np.ones(8)}, stats)
        snapshot = stats.as_dict()
        assert snapshot["shm_chunks"] == 1
        assert snapshot["shm_bytes"] == raw.total_bytes
        assert snapshot["pickled_chunks"] == 1
        assert snapshot["pickled_bytes"] == 8 * 8


class TestSupervisedRuns:
    """The transport plugged into run_chunked: identity + no leaks."""

    def test_pooled_run_matches_serial_and_leaves_no_segments(self):
        before = active_segments()
        serial = run_chunked("transport_serial", _payload_chunk,
                             _TinyConfig(), seed=5, code_version=1,
                             chunk_size=_CHUNK)
        with SuitePool(2) as pool:
            pooled = run_chunked("transport_pooled", _payload_chunk,
                                 _TinyConfig(), seed=5, code_version=1,
                                 chunk_size=_CHUNK,
                                 policy=ExecutionPolicy(pool=pool))
            stats = pool.transport.as_dict()
        for name in serial:
            assert np.array_equal(serial[name], pooled[name])
        assert stats["shm_chunks"] > 0
        assert active_segments() == before

    def test_faulted_run_matches_serial_and_leaves_no_segments(self):
        before = active_segments()
        serial = run_chunked("transport_faulted", _payload_chunk,
                             _TinyConfig(), seed=9, code_version=1,
                             chunk_size=_CHUNK)
        policy = ExecutionPolicy(
            faults=FaultInjector(fail_first_attempts=1,
                                 pool_break_rounds={0}))
        faulted = run_chunked("transport_faulted", _payload_chunk,
                              _TinyConfig(), seed=9, code_version=1,
                              n_workers=2, chunk_size=_CHUNK, policy=policy)
        for name in serial:
            assert np.array_equal(serial[name], faulted[name])
        assert active_segments() == before


#: fig6 at 3 x 40k draws in 10k-draw chunks: every chunk crosses
#: ``MIN_SHM_BYTES``, so the private pool moves each by shared memory.
_FIG6 = {"n_samples": 40_000, "seed": 21, "chunk_size": _CHUNK}


def _assert_fig6_equal(actual, expected):
    assert set(actual) == set(expected)
    for label in expected:
        assert np.array_equal(actual[label]["gains"],
                              expected[label]["gains"]), label
        assert actual[label]["case_fractions"] \
            == expected[label]["case_fractions"], label


class TestPrivatePool:
    """``n_workers > 1`` without a shared pool: the runner's own SuitePool."""

    def test_fig6_chunks_cross_the_threshold(self):
        chunk = _two_receiver_scenarios_chunk(
            MonteCarloConfig(n_samples=_CHUNK), 0, _CHUNK)
        raw = encode_chunk(chunk)
        assert isinstance(raw, ShmChunk)
        release_chunk(raw)

    def test_clean_run_is_bit_identical_and_leaves_no_segments(self):
        before = active_segments()
        serial = fig6.compute(**_FIG6, n_workers=1)
        pooled = fig6.compute(**_FIG6, n_workers=2)
        _assert_fig6_equal(pooled, serial)
        assert active_segments() == before

    def test_faulted_run_is_bit_identical_and_leaves_no_segments(self):
        before = active_segments()
        serial = fig6.compute(**_FIG6, n_workers=1)
        policy = ExecutionPolicy(faults=FaultInjector(
            fail_first_attempts=1, pool_break_rounds={0}))
        faulted = fig6.compute(**_FIG6, n_workers=2, policy=policy)
        _assert_fig6_equal(faulted, serial)
        assert active_segments() == before
