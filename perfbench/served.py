"""The ``served`` workload: a closed loop of client threads against an
in-process :class:`~repro.service.api.SweepService`.

The job stream is the coarse per-open Table 1 jobs plus Fig. 3 and
Fig. 4 at every corner of :data:`CORNERS`.  The seed splits the distinct
specs between the clients and places one repeat of every spec somewhere
after its own client has completed it, so every repeat is a store hit by
construction and every first submission computes.
"""

from __future__ import annotations

import contextlib
import random
import shutil
import tempfile
import threading
import time
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from stats import percentile
from workloads import digest

__all__ = ["CLIENTS", "CORNERS", "ServedWorkload", "classify", "job_specs",
           "schedule"]

#: Stress corners of the job stream: 10 corners x 11 jobs = 110 distinct
#: specs, so each latency class has at least 100 samples per run.
CORNERS = "vdd=1.0,0.9;cycle=1.0,0.85,0.7,0.6,0.5"
#: Closed-loop client threads (= nproc on the reference host).
CLIENTS = 2
#: Result-store capacity: the whole working set stays resident, so a
#: repeat never finds its result evicted.
STORE_MAX = 256


def job_specs() -> List[Any]:
    """The distinct specs of the stream, in a fixed order."""
    from repro.campaign.corners import CornerMatrix
    from repro.circuit.defects import OpenLocation
    from repro.service.jobs import JobSpec

    bases = [
        JobSpec("table1", opens=(location.name,), n_r=8, n_u=6)
        for location in OpenLocation
    ] + [JobSpec("fig3"), JobSpec("fig4")]
    matrix = CornerMatrix.from_spec(CORNERS)
    return [spec for base in bases for _, spec in matrix.job_specs(base)]


def schedule(n_specs: int, seed: int, clients: int = CLIENTS
             ) -> List[List[Tuple[str, int]]]:
    """Per-client plans of ``("new" | "repeat", spec index)`` steps.

    Every spec belongs to exactly one client and is repeated once by that
    client, at a seeded position after its first submission.
    """
    rng = random.Random(seed)
    order = list(range(n_specs))
    rng.shuffle(order)
    plans = []
    for client in range(clients):
        plan: List[Tuple[str, int]] = [("new", i) for i in order[client::clients]]
        for index in order[client::clients]:
            first = plan.index(("new", index))
            plan.insert(rng.randint(first + 1, len(plan)), ("repeat", index))
        plans.append(plan)
    return plans


def classify(response: Dict[str, Any]) -> str:
    """Class of one ``POST /jobs`` response.

    ``miss``: a new job that computes.  ``hit``: coalesced onto a job
    that is already DONE, so the result comes from the store.
    ``coalesced``: joined a job still queued or running.
    """
    if not response.get("deduped"):
        return "miss"
    state = (response.get("job") or {}).get("state")
    return "hit" if state == "done" else "coalesced"


class ServedWorkload:
    """Set up the service, run the closed loop, tear it all down."""

    def __init__(self, seed: int, reference: Dict[str, Any], scratch: str,
                 tracer: Any = None) -> None:
        self.seed = seed
        self.reference = reference.get("served", {})
        self.scratch = scratch
        self.tracer = tracer
        self.samples: List[Dict[str, Any]] = []
        self.records: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.Lock()
        self.service = None
        self._dir: Optional[str] = None

    def setup(self) -> None:
        from repro.service.api import SweepService
        from repro.service.client import ServiceClient

        self.specs = job_specs()
        self.plans = schedule(len(self.specs), self.seed)
        self._dir = tempfile.mkdtemp(prefix="served-", dir=self.scratch)
        self.service = SweepService(
            port=0,
            store_dir=f"{self._dir}/store",
            work_dir=f"{self._dir}/work",
            store_max=STORE_MAX,
        ).start()
        self.clients = [
            ServiceClient(self.service.url, timeout=120.0,
                          client_id=f"bench-{i}")
            for i in range(len(self.plans))
        ]

    def run(self) -> List[Dict[str, Any]]:
        threads = [
            threading.Thread(target=self._client_loop, args=(client, plan),
                             name=f"bench-client-{i}")
            for i, (client, plan) in enumerate(zip(self.clients, self.plans))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170.0)
        stuck = [t.name for t in threads if t.is_alive()]
        if stuck:
            raise RuntimeError(f"client threads did not finish: {stuck}")
        return [
            {"id": f"{s['expect']}:{s['address'][:12]}", "ok": s["ok"],
             "error": s.get("error")}
            for s in self.samples
        ]

    def collect_records(self) -> None:
        """Fetch every job record once, after the timed loop."""
        for record in self.clients[0].jobs().get("jobs", []):
            self.records[record["id"]] = record

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None

    # -- the closed loop ----------------------------------------------------------

    def _span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def _client_loop(self, client: Any, plan: Sequence[Tuple[str, int]]) -> None:
        for expect, index in plan:
            spec = self.specs[index]
            sample: Dict[str, Any] = {
                "expect": "miss" if expect == "new" else "hit",
                "address": spec.address, "ok": False,
            }
            try:
                self._submit_one(client, spec, sample)
            except Exception as exc:  # noqa: BLE001 — a failed item, recorded
                sample["error"] = f"{type(exc).__name__}: {exc}"
            with self._lock:
                self.samples.append(sample)

    def _submit_one(self, client: Any, spec: Any, sample: Dict[str, Any]) -> None:
        with self._span("client.submission") as submission:
            start = perf_counter()
            with self._span("client.submit"):
                response = client.submit(spec)
            submitted = perf_counter()
            kind = classify(response)
            job_id = response["job"]["id"]
            sample.update(kind=kind, job=job_id,
                          submit_s=submitted - start)
            if self.tracer is not None:
                self.tracer.retrace(submission, job_id)
            if kind != "hit":
                with self._span("client.stream") as stream:
                    if stream is not None:
                        self.tracer.register_root(job_id, stream)
                    for _ in client.stream_events(job_id):
                        pass
                sample["stream_end"] = time.time()
            fetch_start = perf_counter()
            with self._span("client.fetch"):
                payload = client.result(job_id)
            done = perf_counter()
        sample.update(fetch_s=done - fetch_start, latency_s=done - start)
        expected = self.reference.get(spec.address, {}).get("sha256")
        if kind != sample["expect"]:
            sample["error"] = f"expected a {sample['expect']}, got a {kind}"
        elif expected is None:
            sample["error"] = "no reference digest for this spec"
        elif digest(payload.get("report", "")) != expected:
            sample["error"] = "served report differs from the direct run"
        else:
            sample["ok"] = True

    # -- results --------------------------------------------------------------------

    def metrics(self, wall_s: float) -> Dict[str, Dict[str, Any]]:
        """Throughput and per-class latency, with sample counts."""
        out: Dict[str, Dict[str, Any]] = {
            "jobs_per_s": {
                "value": sum(s["ok"] for s in self.samples) / wall_s,
                "unit": "1/s", "samples": len(self.samples),
            },
        }
        for kind in ("miss", "hit"):
            values = [s["latency_s"] for s in self.samples
                      if s["ok"] and s["kind"] == kind]
            for p in (50, 90):
                out[f"{kind}_latency_p{p}_s"] = {
                    "value": percentile(values, p) if values else None,
                    "unit": "s", "samples": len(values),
                }
        return out

    def served_info(self) -> Dict[str, Any]:
        return {"samples": self.samples, "records": self.records}
