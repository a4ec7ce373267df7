"""Tests of the benchmark itself: names, seeds, checks and a smoke run.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.use_checkout_source()

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_totals  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# -- names -------------------------------------------------------------------

def test_spec_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        list(layers.PER_LAYER)


def test_every_name_and_unit_is_valid():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(name) for name in names), names
    units = [m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(UNIT_RE.match(unit) for unit in units), units
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_labels_are_rewritten_into_the_metric_alphabet():
    assert layers.metric_name("range=10m") == "range-10m"
    assert layers.metric_name("a b/c") == "a-b-c"
    for phase in layers.PHASES:
        assert NAME_RE.match(f"phase.{layers.metric_name(phase)}_s")


# -- seeds -------------------------------------------------------------------

@pytest.mark.parametrize("name", ["paper_all", "trace_eval", "mc_sweep"])
def test_pooled_workloads_pass_the_seed_to_every_seeded_figure(name):
    kwargs = workloads.figure_kwargs(name, 77)
    seeded = [figure for figure in kwargs
              if figure in workloads.SEEDED_FIGURES]
    assert seeded
    assert all(kwargs[figure]["seed"] == 77 for figure in seeded)


def test_schedule_stream_backlogs_follow_the_seed():
    stream = workloads.ScheduleStream(seed=5)
    stream.setup()

    def sizes_and_rss(seed):
        backlogs = stream.backlogs(np.random.default_rng(seed))
        return [[client.rss_w for client in clients] for clients in backlogs]

    first = sizes_and_rss(5)
    assert first == sizes_and_rss(5)
    assert first != sizes_and_rss(6)
    sizes = [len(clients) for clients in first]
    assert min(sizes) >= 8 and max(sizes) <= 64
    assert {size % 2 for size in sizes} == {0, 1}


# -- checks ------------------------------------------------------------------

def test_claim_check_flags_a_gain_below_one():
    good = {"fig6": {"range=10m": {"gains": np.array([1.0, 1.5])}}}
    bad = {"fig6": {"range=10m": {"gains": np.array([0.9, 1.5])}}}
    assert checks.claim_errors(good) == []
    assert checks.claim_errors(bad)


def test_claim_check_flags_blossom_worse_than_brute_force():
    comparison = SimpleNamespace(
        n_clients=8, mean_gains={"blossom": 1.2},
        mean_times={"blossom": 2.0, "brute_force": 1.0, "greedy": 3.0,
                    "random": 3.0, "serial": 3.0})
    assert checks.claim_errors({"fig12": {"comparisons": [comparison]}})


def test_schedule_check_flags_a_dropped_client():
    clients = [SimpleNamespace(name="a"), SimpleNamespace(name="b")]
    schedule = SimpleNamespace(client_names=("a",), total_time_s=1.0,
                               serial_time_s=2.0)
    assert checks.schedule_errors(clients, schedule)


def test_digest_ignores_fig12_runtime_only():
    base = {"comparisons": [1.0], "runtime": {4: {"total_s": 0.1}}}
    moved = {"comparisons": [1.0], "runtime": {4: {"total_s": 0.2}}}
    changed = {"comparisons": [1.5], "runtime": {4: {"total_s": 0.1}}}
    assert checks.digest("fig12", base) == checks.digest("fig12", moved)
    assert checks.digest("fig12", base) != checks.digest("fig12", changed)


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    totals = layer_totals(tracer.spans)
    outer, inner = totals["outer"], totals["inner"]
    assert outer["self_s"] == pytest.approx(
        outer["total_s"] - inner["total_s"])


def test_wrappers_are_removed_afterwards():
    from repro.scheduling import scheduler
    original = scheduler.min_weight_perfect_matching
    tracer = Tracer()
    layers.install(tracer)
    assert scheduler.min_weight_perfect_matching is not original
    tracer.restore()
    assert scheduler.min_weight_perfect_matching is original


# -- smoke runs at tiny scale ------------------------------------------------

TINY = {
    "trace_eval": {"fig13": {"seed": 3, "max_snapshots": 200},
                   "fig14": {"seed": 3, "n_scenarios": 600}},
    "mc_sweep": {"fig6": {"seed": 3, "n_samples": 20_000,
                          "chunk_size": 10_000},
                 "fig11": {"seed": 3, "n_samples": 20_000,
                           "chunk_size": 10_000}},
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_pooled_workload_runs_clean(name):
    workload = workloads.PooledWorkload(name, 3, TINY[name])
    workload.setup()
    try:
        seconds, errors = workload.op()
        assert errors == [] and seconds > 0
        tracer = Tracer()
        _, metrics, errors = workload.unit(tracer)
        assert errors == []
        inline, errors = workload.inline(tracer)
        assert errors == []
        assert not layers.unknown_names({**metrics, **inline})
        assert metrics["pool.chunks"] > 0
        workload.expected = {figure: "0" * 64 for figure in TINY[name]}
        _, errors = workload.op()
        assert errors, "a wrong recorded digest must fail the run"
    finally:
        workload.close()


def test_cli_prints_every_metric_with_its_unit():
    for trace, spec in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "schedule_stream", "--seed", "4", "--seconds", "0.5",
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert done.returncode == 0, done.stderr
        result = _result(done.stdout)
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {name: entry["unit"]
                for name, entry in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec}


def test_without_the_source_tree_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
