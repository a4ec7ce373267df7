"""Output checks behind ``failed`` / ``correct``.

* :func:`digest` fingerprints a figure result exactly: floats by their
  ``repr``, arrays by dtype, shape and raw bytes.  fig12's ``runtime``
  entry holds wall-clock seconds and is left out.
* :func:`claim_errors` checks the claims that hold for every seed:
  every gain is at least 1, and in fig12 the blossom schedule equals
  brute force (n <= 8) and is no worse than greedy, random or serial.
* :func:`schedule_errors` and :func:`optimum_error` check one
  ``SicScheduler.schedule`` result: it covers each client exactly once,
  it is no slower than serial, and its cost equals the optimum
  networkx's ``max_weight_matching`` finds on the same cost graph.

Every comparison allows ``REL_TOL`` of relative rounding: a gain is a
ratio of two float sums, and a no-gain case can land one ulp below 1.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Dict, List, Sequence

import numpy as np

REL_TOL = 1e-9


def _canonical(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return _canonical(value.item())
    if isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        return {"ndarray": array.dtype.str, "shape": list(array.shape),
                "sha256": hashlib.sha256(array.tobytes()).hexdigest()}
    if isinstance(value, enum.Enum):
        return _canonical(value.value)
    if hasattr(value, "to_dict"):
        return _canonical(value.to_dict())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: _canonical(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    if isinstance(value, dict):
        return sorted(([_canonical(key), _canonical(item)]
                       for key, item in value.items()), key=repr)
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_canonical(item) for item in value), key=repr)
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest(figure: str, result: object) -> str:
    """SHA-256 of a figure result, without wall-clock entries."""
    if figure == "fig12":
        result = {key: item for key, item in result.items()
                  if key != "runtime"}
    text = json.dumps(_canonical(result), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _gain_arrays(value, path: str):
    if isinstance(value, dict):
        for key, item in value.items():
            if key == "gains":
                yield path, np.asarray(item)
            else:
                yield from _gain_arrays(item, f"{path}/{key}")


def claim_errors(results: Dict[str, object]) -> List[str]:
    """Seed-independent claims over one suite run's figure results."""
    errors = []
    for figure, result in results.items():
        for path, gains in _gain_arrays(result, figure):
            if gains.size and float(gains.min()) < 1.0 - REL_TOL:
                errors.append(f"{path}: gain {gains.min()!r} < 1")
    if "fig12" in results:
        for comparison in results["fig12"]["comparisons"]:
            times = comparison.mean_times
            blossom = times["blossom"]
            n = comparison.n_clients
            if n <= 8 and "brute_force" not in times:
                errors.append(f"fig12 n={n}: no brute-force oracle")
            if "brute_force" in times and abs(
                    blossom - times["brute_force"]) > REL_TOL * blossom:
                errors.append(f"fig12 n={n}: blossom {blossom!r} != "
                              f"brute force {times['brute_force']!r}")
            for name in ("greedy", "random", "serial"):
                if blossom > times[name] * (1.0 + REL_TOL):
                    errors.append(f"fig12 n={n}: blossom {blossom!r} worse "
                                  f"than {name} {times[name]!r}")
            for name, gain in comparison.mean_gains.items():
                if gain < 1.0 - REL_TOL:
                    errors.append(f"fig12 n={n}: {name} gain {gain!r} < 1")
    return errors


def schedule_errors(clients: Sequence, schedule) -> List[str]:
    """Coverage and no-worse-than-serial checks for one schedule."""
    errors = []
    names = sorted(client.name for client in clients)
    if sorted(schedule.client_names) != names:
        errors.append("schedule does not cover each client exactly once")
    if schedule.total_time_s > schedule.serial_time_s * (1.0 + REL_TOL):
        errors.append(f"schedule {schedule.total_time_s!r}s slower than "
                      f"serial {schedule.serial_time_s!r}s")
    return errors


def optimum_error(scheduler, clients: Sequence, schedule) -> List[str]:
    """Compare the schedule's cost with networkx's optimal matching."""
    import networkx

    costs, _ = scheduler.build_cost_graph(clients)
    graph = networkx.Graph()
    for (i, j), cost in costs.items():
        graph.add_edge(i, j, weight=-cost)
    matching = networkx.max_weight_matching(graph, maxcardinality=True)
    optimum = sum(costs[(min(i, j), max(i, j))] for i, j in matching)
    total = schedule.total_time_s
    if abs(total - optimum) > REL_TOL * optimum:
        return [f"n={len(clients)}: schedule {total!r}s, networkx optimum "
                f"{optimum!r}s"]
    return []
