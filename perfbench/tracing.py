"""In-memory span tracer that times desksearch's public functions from outside
the package, by swapping each module attribute for a timing wrapper.

A span is (span id, parent span id, operation id, name, start ns, end ns).
The operation id ties together the spans of one set-up build or one query.
Counts are recorded at the same boundaries, keyed by operation.  Nothing is
written until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

BUILD, QUERY = "build", "query"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, int | None, str, int, int]] = []
        self.counts: dict[tuple[int | None, str], float] = defaultdict(float)
        self.ops: dict[int, str] = {}  # operation id -> BUILD or QUERY
        self.op_id: int | None = None
        self.pools: dict[int | None, set[int]] = defaultdict(set)
        self._stack: list[int] = []
        self._span_ids = itertools.count()
        self._patches: list[tuple[object, str, object, object]] = []
        self._totals: tuple[dict, dict] | None = None

    # -- recording ---------------------------------------------------------

    def begin(self, kind: str) -> None:
        """Start a new operation and install the wrappers for it."""
        self.op_id = len(self.ops)
        self.ops[self.op_id] = kind
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def end(self) -> None:
        """Remove the wrappers, so untraced code runs the original functions."""
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)
        self.op_id = None
        self.pools.clear()

    def count(self, name: str, value: float) -> None:
        self.counts[(self.op_id, name)] += value

    def wrap(self, owner: object, attr: str, name, after=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name`` (or
        ``name(args)`` when name is callable); ``after(tracer, span_id,
        parent_id, args, result)`` records counts once the call returns."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            span_id = next(tracer._span_ids)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                stop = time.perf_counter_ns()
                tracer._stack.pop()
                label = name(args) if callable(name) else name
                tracer.spans.append((span_id, parent, tracer.op_id, label, start, stop))
            if after is not None:
                after(tracer, span_id, parent, args, result)
            return result

        self._patches.append((owner, attr, original, traced))

    # -- aggregation -------------------------------------------------------

    def per_op(self) -> tuple[dict, dict]:
        """Per-operation totals: {(op, name): inclusive ns} and {(op, name): self ns}."""
        child_ns: dict[int, int] = defaultdict(int)
        for _span_id, parent, _op, _name, start, stop in self.spans:
            if parent is not None:
                child_ns[parent] += stop - start
        inclusive: dict = defaultdict(int)
        own: dict = defaultdict(int)
        for span_id, _parent, op, name, start, stop in self.spans:
            inclusive[(op, name)] += stop - start
            own[(op, name)] += stop - start - child_ns[span_id]
        return inclusive, own

    def layer_value(self, source: str, phase: str, stat: str) -> float:
        """One per-layer number from the recorded spans or counts.

        ``stat`` is "incl" or "self" for a span's time in ms, or "count".  In
        the BUILD phase the value is the median over traced set-up builds of
        the per-build total.  In the QUERY phase a time is the median over the
        traced queries that reach the layer, and a count is the mean over all
        traced queries.
        """
        if self._totals is None:
            self._totals = self.per_op()
        inclusive, own = self._totals
        phase_ops = [op for op, kind in self.ops.items() if kind == phase]
        if stat == "count":
            values = [self.counts.get((op, source), 0.0) for op in phase_ops]
            if phase == QUERY:
                return sum(values) / len(values) if values else 0.0
        else:
            totals = inclusive if stat == "incl" else own
            values = [totals[(op, source)] / 1e6 for op in phase_ops if (op, source) in inclusive]
        return statistics.median(values) if values else 0.0

    def write(self, path: Path, meta: dict) -> None:
        """Write the metadata, every span and every count as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as f:
            f.write(json.dumps({"meta": meta, "ops": self.ops}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
            for (op, name), value in self.counts.items():
                f.write(json.dumps({"op": op, "count": name, "value": value}) + "\n")
        os.replace(tmp, path)
