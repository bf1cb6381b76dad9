"""In-memory span recording with per-layer self time.

A :class:`Tracer` records two kinds of span:

* *materialized* spans (:meth:`Tracer.span`) — one :class:`Span` record
  each, with name, start, end, parent span and trace id.  Used for the
  coarse layers (experiments, completion searches, service stages).
* *aggregated* spans (:meth:`Tracer.enter` / :meth:`Tracer.leave`) —
  the hot inner layers (solver runs, column operations, memory
  operations) are called millions of times per workload, so each call
  only adds its calls, self time and inclusive time to a bucket keyed
  by ``(nearest materialized ancestor, layer)``.  The arithmetic is the
  same as for a materialized span; only the per-call record is folded.

Self time is a span's duration minus the time its children cover.
Same-thread children are nested, so their durations are summed as they
close.  A child running in another thread (a scheduler thread working
on a job a client thread is waiting for) is linked through
:meth:`Tracer.register_root` / the ``link`` argument of
:meth:`Tracer.span`, and only the part of its interval that overlaps the
parent counts.

Spans stay in memory; :meth:`Tracer.export_jsonl` writes them when the
run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = ["Span", "Tracer", "union_overlap"]


class Span:
    """One materialized span."""

    __slots__ = (
        "id", "name", "trace", "parent", "link", "thread", "start", "end",
        "child_s", "self_s", "attrs",
    )

    def __init__(self, span_id: int, name: str, trace: Optional[str],
                 parent: Optional[int], link: Optional[str], thread: int,
                 start: float, attrs: Dict[str, Any]) -> None:
        self.id = span_id
        self.name = name
        self.trace = trace
        self.parent = parent
        self.link = link
        self.thread = thread
        self.start = start
        self.end: Optional[float] = None
        #: Time covered by same-thread children, summed as they close.
        self.child_s = 0.0
        self.self_s: Optional[float] = None
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": "span", "id": self.id, "name": self.name,
            "trace": self.trace, "parent": self.parent,
            "thread": self.thread, "start": self.start, "end": self.end,
            "self_s": self.self_s, "attrs": self.attrs,
        }


class _ThreadState:
    """Per-thread span stack; frames are ``[layer, child_s, span]``."""

    __slots__ = ("ident", "stack", "owner", "trace", "buckets", "counts")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.stack: List[list] = []
        #: Id of the innermost open materialized span (bucket owner).
        self.owner: Optional[int] = None
        self.trace: Optional[str] = None
        #: (owner, layer) -> [calls, self_s, total_s]
        self.buckets: Dict[Tuple[Optional[int], str], List[float]] = {}
        self.counts: Dict[str, float] = defaultdict(float)


def union_overlap(lo: float, hi: float,
                  intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in intervals
        if min(hi, b) > max(lo, a)
    )
    covered = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                covered += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        covered += cur_b - cur_a
    return covered


class _OpenSpan:
    """Context manager for one materialized span (see :meth:`Tracer.span`)."""

    __slots__ = ("_tracer", "_name", "_trace", "_link", "_attrs", "_state",
                 "_frame", "_saved", "span")

    def __init__(self, tracer: "Tracer", name: str, trace: Optional[str],
                 link: Optional[str], attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._trace = trace
        self._link = link
        self._attrs = attrs
        self.span: Optional[Span] = None

    def __enter__(self) -> Optional[Span]:
        st = self._tracer.state()
        self._state = st
        if st.stack and st.stack[-1][0] == self._name:
            self._frame = None  # re-entry into the same layer: one span
            return None
        span_id = next(self._tracer._ids)
        trace = self._trace or st.trace or f"{self._name}#{span_id}"
        span = Span(span_id, self._name, trace, st.owner, self._link,
                    st.ident, perf_counter(), self._attrs)
        self.span = span
        self._frame = [self._name, 0.0, span]
        st.stack.append(self._frame)
        self._saved = (st.owner, st.trace)
        st.owner, st.trace = span_id, trace
        return span

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._frame is None:
            return
        end = perf_counter()
        st = self._state
        st.stack.pop()
        span = self.span
        span.end = end
        span.child_s = self._frame[1]
        if exc_type is not None:
            span.attrs["error"] = exc_type.__name__
        if st.stack:
            st.stack[-1][1] += end - span.start
        st.owner, st.trace = self._saved
        self._tracer.spans.append(span)


class Tracer:
    """Span recorder shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._local = threading.local()
        #: trace id -> id of the span that owns it across threads.
        self._roots: Dict[str, int] = {}
        self._finished = False

    # -- recording ---------------------------------------------------------

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState(threading.get_ident())
            self._local.state = st
            with self._lock:
                self._states.append(st)
            return st

    def span(self, name: str, trace: Optional[str] = None,
             link: Optional[str] = None, **attrs: Any) -> _OpenSpan:
        """Open a materialized span.

        ``trace`` sets the trace id (default: the enclosing span's, or a
        fresh ``<name>#<id>`` for a root).  ``link`` names a trace whose
        registered root becomes this span's parent when it has no
        same-thread parent — the cross-thread edge.
        """
        return _OpenSpan(self, name, trace, link, attrs)

    def retrace(self, span: Optional[Span], trace: str) -> None:
        """Give the open ``span`` (and its future children) ``trace``."""
        if span is None:
            return
        span.trace = trace
        st = self.state()
        if st.owner == span.id:
            st.trace = trace

    def register_root(self, trace: str, span: Span) -> None:
        """Make ``span`` the cross-thread parent for spans linked to
        ``trace``; the first registration wins."""
        with self._lock:
            self._roots.setdefault(trace, span.id)

    def enter(self, st: _ThreadState, layer: str) -> Optional[list]:
        """Open an aggregated span; ``None`` on same-layer re-entry."""
        stack = st.stack
        if stack and stack[-1][0] == layer:
            return None
        frame = [layer, 0.0, None]
        stack.append(frame)
        return frame

    def leave(self, st: _ThreadState, frame: list, duration: float) -> None:
        """Close the aggregated span ``frame`` after ``duration`` seconds."""
        stack = st.stack
        stack.pop()
        if stack:
            stack[-1][1] += duration
        key = (st.owner, frame[0])
        bucket = st.buckets.get(key)
        if bucket is None:
            st.buckets[key] = [1, duration - frame[1], duration]
        else:
            bucket[0] += 1
            bucket[1] += duration - frame[1]
            bucket[2] += duration

    # -- analysis ----------------------------------------------------------

    def finish(self) -> None:
        """Resolve cross-thread parents and compute every self time."""
        if self._finished:
            return
        self._finished = True
        by_id = {span.id: span for span in self.spans}
        cross: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is None and span.link is not None:
                span.parent = self._roots.get(span.link)
            parent = by_id.get(span.parent) if span.parent else None
            if parent is not None and parent.thread != span.thread:
                cross[parent.id].append(span)
        for span in self.spans:
            covered = span.child_s
            others = cross.get(span.id)
            if others:
                covered += union_overlap(
                    span.start, span.end,
                    ((o.start, o.end) for o in others),
                )
            span.self_s = max(0.0, span.duration - covered)

    def buckets(self) -> Dict[Tuple[Optional[int], str], List[float]]:
        merged: Dict[Tuple[Optional[int], str], List[float]] = {}
        for st in self._states:
            for key, (calls, self_s, total) in st.buckets.items():
                into = merged.setdefault(key, [0, 0.0, 0.0])
                into[0] += calls
                into[1] += self_s
                into[2] += total
        return merged

    def counts(self) -> Dict[str, float]:
        merged: Dict[str, float] = defaultdict(float)
        for st in self._states:
            for name, value in st.counts.items():
                merged[name] += value
        return dict(merged)

    def layer_summary(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls``, ``self_s`` and inclusive ``total_s``."""
        self.finish()
        summary: Dict[str, Dict[str, float]] = {}

        def row(name: str) -> Dict[str, float]:
            return summary.setdefault(
                name, {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            )

        for span in self.spans:
            entry = row(span.name)
            entry["calls"] += 1
            entry["self_s"] += span.self_s
            entry["total_s"] += span.duration
        for (_, layer), (calls, self_s, total) in self.buckets().items():
            entry = row(layer)
            entry["calls"] += calls
            entry["self_s"] += self_s
            entry["total_s"] += total
        return summary

    def export_jsonl(self, path: str) -> int:
        """Write every span and aggregate bucket; returns the line count."""
        self.finish()
        lines = 0
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.to_json()) + "\n")
                lines += 1
            for (owner, layer), (calls, self_s, total) in sorted(
                self.buckets().items(), key=lambda kv: (kv[0][0] or 0, kv[0][1])
            ):
                out.write(json.dumps({
                    "kind": "aggregate", "parent": owner, "name": layer,
                    "calls": calls, "self_s": self_s, "total_s": total,
                }) + "\n")
                lines += 1
        return lines
