"""One pass of one workload in a fresh process (started by ``run.py``).

A fresh interpreter per pass means empty propagator and ensemble caches
and an empty result store, as every CLI user has.  The pass prints one
JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import WORKLOADS, load_reference, make_workload  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process "
                             "was started")
    parser.add_argument("--artifacts", required=True)
    args = parser.parse_args(argv)

    tracer = installed = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    workload = make_workload(args.workload, args.seed, load_reference(),
                             args.artifacts, tracer)
    result = {}
    try:
        if tracer is not None:
            # Before set-up, so the set-up binds the wrapped entry points.
            import layers

            installed = layers.install(tracer)
        workload.setup()
        result["setup_s"] = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps(result))
            return 0
        start = perf_counter()
        outcomes = workload.run()
        result["wall_s"] = perf_counter() - start
        result["outcomes"] = outcomes
        if args.workload == "served":
            workload.collect_records()
            result["served"] = workload.metrics(result["wall_s"])
    finally:
        workload.close()
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if installed is not None:
        import layers

        served = workload.served_info() if args.workload == "served" else None
        result["layers"] = layers.per_layer_metrics(installed, served)
        result["where"] = layers.where_the_time_went(installed)
        result["summary"] = tracer.layer_summary()
        result["missing"] = installed.missing
        spans_path = os.path.join(args.artifacts,
                                  f"{args.workload}.spans.jsonl")
        result["spans_file"] = spans_path
        result["span_lines"] = tracer.export_jsonl(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
