"""Regenerate ``reference.json``: the sha256 of every item's report.

Runs every direct item of ``sweep`` and ``march`` at the default seed and
the direct run of every ``served`` spec, all with telemetry off, and
writes their report digests.  Run it from the repository root only when
an output is meant to change::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from served import job_specs  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, REFERENCE, digest, march_items, sweep_items,
)


def main() -> int:
    from repro.service.jobs import result_payload

    direct = {}
    for item_id, fn, kwargs, _ in sweep_items(1) + march_items(DEFAULT_SEED):
        report = fn(**kwargs).report
        direct[item_id] = {
            "sha256": digest(report.render()),
            "claims": len(report.claims), "holding": report.holding,
        }
        print(f"{item_id}: {report.holding}/{len(report.claims)} claims hold",
              file=sys.stderr)
    served = {}
    for spec in job_specs():
        payload = result_payload(spec, spec.profile().run(spec, None))
        served[spec.address] = {
            "sha256": digest(payload["report"]),
            "spec": spec.to_json(),
        }
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump({"direct": direct, "served": served}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
