"""Spans around the benchmark's own calls into hn3.

A ``Recorder`` runs every call the benchmark makes into the library.
With tracing off it only keeps the call's result, so that a job's output
tensors can be counted after its timer has stopped.  With tracing on it
also records a span (id, name, start, end, parent) around the call and
notes which cached properties of the ``MetricLieAlgebra`` involved were
already filled in, i.e. which spans ran on a warm cache.  Spans are kept
in memory and written out once, at the end of the run.

All times are CPU seconds on ``cpu_clock``, not wall time.
"""

from __future__ import annotations

import json
import resource
from contextlib import contextmanager
from time import process_time

from hn3 import Tensor
from hn3.connections import NaturalConnection
from hn3.liealg import Connection

CACHED = ("levi_civita", "metric_inverse", "braces")


def cpu_clock() -> float:
    """CPU seconds used so far by this process and its waited-for children.

    The benchmark times everything on this clock rather than the wall
    clock, so that time spent waiting for a core on a busy machine does not
    count.  A subprocess's CPU time is added once ``subprocess.run`` has
    waited for it.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + kids.ru_utime + kids.ru_stime


def tensors_in(result) -> list[Tensor]:
    """Tensors a library call returned, looking one level into containers."""
    if isinstance(result, Tensor):
        return [result]
    if isinstance(result, Connection):
        return [result.gamma]
    if isinstance(result, NaturalConnection):
        return [result.connection.gamma, result.torsion]
    if isinstance(result, tuple):
        return [t for t in result if isinstance(t, Tensor)]
    return []


def tensor_counts(results) -> tuple[int, int]:
    """``(nonzeros, dense slots)`` over every tensor in ``results``."""
    nnz = entries = 0
    for result in results:
        for t in tensors_in(result):
            nnz += sum(1 for c in t.comps if c)
            entries += t.dim ** t.nslots
    return nnz, entries


class Recorder:
    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[dict] = []
        self.outputs: list = []  # results of the calls since the last reset
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; a no-op when tracing is off."""
        if not self.traced:
            yield None
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = cpu_clock()
        try:
            yield rec
        finally:
            rec["end"] = cpu_clock()
            self._stack.pop()

    def call(self, name: str, fn, *args, cache=None):
        """``fn(*args)`` inside a span named after the layer metric it feeds.

        ``cache`` is the ``MetricLieAlgebra`` whose cached properties the
        call may read; the span lists the ones that were already computed.
        """
        if not self.traced:
            out = fn(*args)
        else:
            attrs = {}
            if cache is not None:
                attrs["warm"] = [p for p in CACHED if p in cache.__dict__]
            with self.span(name, **attrs) as rec:
                out = fn(*args)
            rec["nnz"], rec["entries"] = tensor_counts([out])
        self.outputs.append(out)
        return out

    def take_outputs(self) -> list:
        out, self.outputs = self.outputs, []
        return out

    def dump(self, path) -> None:
        """Write the spans with their self time (duration minus children)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        rows = [
            {**s, "self": s["end"] - s["start"] - child[s["id"]]} for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)
