"""Spans timed from outside the program.

A ``Tracer`` records one span per call: name, start, end, parent and the
root span of the operation it belongs to, plus an optional work count
(tokens decoded, for instance).  Calls inside the program are traced by
replacing a function at the name its caller looks it up by, so
``train()`` and ``generate()`` run unchanged but call the wrappers.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    root: int
    count: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(
            id=len(self.spans),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=parent.id if parent else None,
            root=parent.root if parent else len(self.spans),
        )
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(self, module: str, attr_path: str, name: str, count=None) -> None:
        """Replace ``attr_path`` (``func`` or ``Class.method``) of ``module``
        by a wrapper that records a span named ``name`` around each call.
        ``count`` maps the call's result to a work count for the span.

        A target that no longer exists raises, so a renamed function
        fails the run instead of silently dropping its layer.
        """
        *owner_path, attr = attr_path.split(".")
        owner = importlib.import_module(module)
        for part in owner_path:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            raise RuntimeError(f"trace target {module}.{attr_path} does not exist")
        original = vars(owner)[attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if count is not None:
                    record.count = count(result)
                return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_time(self, span: Span) -> float:
        """Duration minus the part covered by direct children; spans in
        one thread nest, so children never overlap."""
        return span.duration - self.children_time(span)

    def children_time(self, span: Span) -> float:
        return sum(s.duration for s in self.spans if s.parent == span.id)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def layer_totals(tracer: Tracer, root_name: str) -> dict[str, dict[str, float]]:
    """Per span name under roots called ``root_name``: calls, seconds
    and summed counts."""
    roots = {s.id for s in tracer.spans if s.name == root_name and s.parent is None}
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "count": 0})
    for s in tracer.spans:
        if s.root in roots and s.id not in roots:
            t = totals[s.name]
            t["calls"] += 1
            t["s"] += s.duration
            t["count"] += s.count or 0
    return dict(totals)
