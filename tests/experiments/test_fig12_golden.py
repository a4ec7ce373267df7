"""Golden output of Fig. 12's policy comparison.

Pins ``repr`` of every ``mean_times`` / ``mean_gains`` float that
``fig12.compute`` reports, at a reduced full-figure scale and at the
CLI's ``--quick`` kwargs, so any change to how the baselines are costed
(summation order, tie-breaking, RNG consumption) shows up as a diff of
the exact floats.  The wall-clock ``runtime`` entries are not pinned.
"""

from __future__ import annotations

import pytest

from repro.experiments import fig12
from repro.experiments.__main__ import QUICK_KWARGS

#: n -> (mean_times, mean_gains), as ``repr`` strings, for seed 2010 and
#: 5 trials per size.
GOLDEN = {
    3: ({"blossom": "0.0002748458729783561",
         "greedy": "0.0002748458729783561",
         "random": "0.00029534049299188777",
         "serial": "0.0003355766590315603",
         "brute_force": "0.0002748458729783561"},
        {"blossom": "1.2256336561747838",
         "greedy": "1.2256336561747838",
         "random": "1.1422688146028352",
         "serial": "1.0",
         "brute_force": "1.2256336561747838"}),
    5: ({"blossom": "0.00043858701666507204",
         "greedy": "0.00044012373149069354",
         "random": "0.00046958772310328216",
         "serial": "0.0005721072444160007",
         "brute_force": "0.00043858701666507204"},
        {"blossom": "1.292637804678503",
         "greedy": "1.2878016391915628",
         "random": "1.2024075902285907",
         "serial": "1.0",
         "brute_force": "1.292637804678503"}),
    8: ({"blossom": "0.0006439029451170461",
         "greedy": "0.0006473029205886421",
         "random": "0.000668622056431318",
         "serial": "0.0008555026887527408",
         "brute_force": "0.0006439029451170461"},
        {"blossom": "1.3269651603768666",
         "greedy": "1.3183486149879875",
         "random": "1.270899874986118",
         "serial": "1.0",
         "brute_force": "1.3269651603768666"}),
    12: ({"blossom": "0.0008127994568578611",
          "greedy": "0.0008147308347391333",
          "random": "0.0008918001838230926",
          "serial": "0.0011193931957840042"},
         {"blossom": "1.376658699261149",
          "greedy": "1.3733493542942885",
          "random": "1.257512871099544",
          "serial": "1.0"}),
    20: ({"blossom": "0.0014249687825900542",
          "greedy": "0.0014432154532043884",
          "random": "0.0016161952823559988",
          "serial": "0.002009529642145647"},
         {"blossom": "1.4095421852502548",
          "greedy": "1.3909250743361865",
          "random": "1.2445932697536584",
          "serial": "1.0"}),
}


def _as_reprs(comparisons):
    return {c.n_clients: ({k: repr(v) for k, v in c.mean_times.items()},
                          {k: repr(v) for k, v in c.mean_gains.items()})
            for c in comparisons}


@pytest.mark.parametrize("kwargs", [
    {"sizes": (3, 5, 8, 12, 20), "n_trials": 5, "seed": 2010},
    QUICK_KWARGS["fig12"],
], ids=["five-sizes", "quick"])
def test_comparisons_bit_identical(kwargs):
    result = fig12.compute(**kwargs)
    expected = {n: GOLDEN[n] for n in kwargs["sizes"]}
    assert _as_reprs(result["comparisons"]) == expected
