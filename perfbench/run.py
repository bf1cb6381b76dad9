"""Benchmark entry point: run one workload, check its outputs, print metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 10 --trace 0

``--workload all`` runs every workload in turn; its last line then sums
the counts and prefixes each metric with its workload.

Every pass runs in a fresh worker process (``worker.py``).  With
``--trace 0`` the run sets the workload up several times (``setup_s`` is
the median) and repeats full passes until ``--seconds`` have elapsed
(at least one); it prints the end-to-end metrics.  With ``--trace 1`` it
runs one untraced and one traced pass and prints the per-layer metrics,
including the tracing overhead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit status: 0 if every output checked out, 1 if any item failed, 2 if
the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, REFERENCE, WORKLOADS  # noqa: E402

#: Every end-to-end metric: (name, unit, better).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: No pass may run longer than this, and no new pass starts if the run
#: could then exceed it.
RUN_BUDGET_S = 170.0
RESULTS = os.path.join(HERE, "results")


class PassError(RuntimeError):
    """A worker process failed before reporting its pass."""


def spawn(workload: str, seed: int, trace: int, setup_only: bool,
          timeout: float) -> Dict[str, Any]:
    """Run one pass in a fresh process; return its JSON report."""
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--artifacts", RESULTS,
    ]
    if setup_only:
        command.append("--setup-only")
    command += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassError(f"{workload} pass exceeded {timeout:.0f} s") from None
    finally:
        # Worker pools die with their session, whatever happened.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(
            f"{workload} pass exited {proc.returncode}: {err.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def host_facts() -> Dict[str, Any]:
    import platform

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version}


def tally(passes: List[Dict[str, Any]]) -> Dict[str, Any]:
    outcomes = [o for p in passes for o in p["outcomes"]]
    failed = [o for o in outcomes if not o["ok"]]
    return {"attempted": len(outcomes), "failed": len(failed),
            "failures": [f"{o['id']}: {o['error']}" for o in failed]}


def untraced(args: argparse.Namespace, started: float) -> Dict[str, Any]:
    def remaining() -> float:
        return RUN_BUDGET_S - (time.monotonic() - started)

    setups = [
        spawn(args.workload, args.seed, 0, True, remaining())["setup_s"]
        for _ in range(SETUPS - 1)
    ]
    passes: List[Dict[str, Any]] = []
    first = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(spawn(args.workload, args.seed, 0, False, remaining()))
        setups.append(passes[-1]["setup_s"])
        took = time.monotonic() - began
        if time.monotonic() - first >= args.seconds or took > remaining():
            break
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    report = {"metrics": metrics, "setups": setups,
              "passes": [{k: p[k] for k in ("setup_s", "wall_s", "peak_rss_mb")}
                         for p in passes],
              **tally(passes)}
    if args.workload == "served":
        report["served"] = [p["served"] for p in passes]
    return report


def traced(args: argparse.Namespace, started: float) -> Dict[str, Any]:
    plain = spawn(args.workload, args.seed, 0, False, RUN_BUDGET_S)
    remaining = RUN_BUDGET_S - (time.monotonic() - started)
    deep = spawn(args.workload, args.seed, 1, False, remaining)
    metrics = dict(deep["layers"])
    metrics["trace.overhead_ratio"] = deep["wall_s"] / plain["wall_s"] - 1.0
    summary = {
        "workload": args.workload, "seed": args.seed,
        "untraced_wall_s": plain["wall_s"], "traced_wall_s": deep["wall_s"],
        "per_layer": metrics, "layers": deep["summary"],
        "missing_entry_points": deep["missing"],
        "spans_file": os.path.relpath(deep["spans_file"], ROOT),
        "span_lines": deep["span_lines"],
    }
    with open(os.path.join(RESULTS, f"{args.workload}.layers.json"), "w",
              encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
    where = list(deep["where"])
    if deep["missing"]:
        where.append(f"  not found, so not traced: {', '.join(deep['missing'])}")
    return {"metrics": metrics, "where": where, **tally([plain, deep])}


def print_report(args: argparse.Namespace, report: Dict[str, Any],
                 units: Dict[str, str]) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in report["metrics"].items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"  {'failed_ratio':<36} {failed / attempted:>14.6g} 1"
          f"  ({failed}/{attempted} items)")
    if "setups" in report:
        print(f"  samples: setup_s {len(report['setups'])}, "
              f"passes {len(report['passes'])}")
    for served in report.get("served", []):
        for name, entry in served.items():
            print(f"  {name:<36} {entry['value']!s:>14} {entry['unit']}"
                  f"  (n={entry['samples']})")
    if report.get("where"):
        print("where the time went (self time, traced pass):")
        for line in report["where"]:
            print(line)
    for failure in report["failures"]:
        print(f"  FAILED {failure}")


def run_workload(args: argparse.Namespace) -> Optional[Dict[str, Any]]:
    """Run ``args.workload``; print its report; return its result line
    (``None`` if a pass failed to report)."""
    started = time.monotonic()
    try:
        report = traced(args, started) if args.trace else untraced(args, started)
    except PassError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return None
    report["host"] = host_facts()
    declared = PER_LAYER if args.trace else END_TO_END
    units = {name: unit for name, unit, _ in declared}
    print_report(args, report, units)
    with open(os.path.join(RESULTS, f"{args.workload}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, **report}, handle, indent=2)
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": report["metrics"][name], "unit": unit}
            for name, unit, _ in declared
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True,
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py"))
            and os.path.isfile(REFERENCE)):
        print("perfbench: run from a checkout of the repository "
              "(src/repro and perfbench/reference.json are needed)",
              file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        line = run_workload(argparse.Namespace(**{**vars(args),
                                                  "workload": name}))
        if line is None:
            return 2
        lines[name] = line
    if len(lines) == 1:
        final = lines[names[0]]
    else:
        final = {
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, line in lines.items()
                for metric, entry in line["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
