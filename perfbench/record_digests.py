"""Record the pooled workloads' output digests at the default seed.

Usage, from the root of a checkout::

    python3 perfbench/record_digests.py

Rewrites ``perfbench/digests.json``.  Run it only when a change is
meant to alter figure outputs; the benchmark otherwise fails any
default-seed run whose outputs differ from the recorded digests.
"""

from __future__ import annotations

import json
import sys

from run import use_checkout_source


def main() -> int:
    use_checkout_source()
    import workloads

    recorded = {}
    for name in workloads.WORKLOADS:
        if name == "schedule_stream":
            continue
        seed = workloads.DEFAULT_SEED
        workload = workloads.PooledWorkload(
            name, seed, workloads.figure_kwargs(name, seed))
        workload.setup()
        try:
            _, errors = workload.op()
        finally:
            workload.close()
        if errors:
            print(f"{name}: {errors}", file=sys.stderr)
            return 1
        recorded[name] = workload.digests
        print(f"{name}: {len(workload.digests)} figures")
    workloads.DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
