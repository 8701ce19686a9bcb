"""In-memory span recorder for the benchmark's wrap points.

A span is one call through a wrapped function: its name, its start and end
(``time.perf_counter`` seconds), the span that was open when it began (its
parent) and the run id shared by every span of one process.  Spans are kept
in flat arrays while the command runs and written out once, at the end.

A layer's self time is its span's duration minus the time its child spans
cover.  All spans come from one thread, so children never overlap and the
covered time is the sum of the children's durations.
"""

from __future__ import annotations

import time
from array import array
from typing import Any, Callable

import numpy as np


class Tracer:
    """Wraps callables so each call records a span."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: dict[str, int] = {}
        self._open = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable[..., Any],
             count: Callable[[Any], int] | None = None,
             before: Callable[[], None] | None = None,
             after: Callable[[Any], None] | None = None) -> Callable[..., Any]:
        """Return ``fn`` wrapped in a span called ``name``.

        A call made while a span of the same name is already open (a wrapped
        method calling another wrapped method of the same layer) passes
        straight through, so work is never counted twice.  ``count`` adds
        its value for the result to ``counts[name]``; ``before`` runs ahead
        of the span and ``after`` receives the result once the span ends.
        """
        nid = self._name_id(name)
        clock = time.perf_counter
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        open_spans = self._open
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            top = open_spans[-1]
            if top >= 0 and names[top] == nid:
                return fn(*args, **kwargs)
            if before is not None:
                before()
            idx = len(starts)
            names.append(nid)
            parents.append(top)
            ends.append(0.0)
            open_spans.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_spans.pop()
            if count is not None:
                counts[name] = counts.get(name, 0) + count(result)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # ------------------------------------------------------------------
    # Analysis, done once after the command returned
    # ------------------------------------------------------------------

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (np.asarray(self.name, dtype=np.int64),
                np.asarray(self.start, dtype=np.float64),
                np.asarray(self.end, dtype=np.float64),
                np.asarray(self.parent, dtype=np.int64))

    def times(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Start and end, in call order, of every span called ``name``."""
        ids, start, end, _ = self._arrays()
        mask = ids == self._ids.get(name, -1)
        return start[mask], end[mask]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        ids, start, end, parent = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=self_time, minlength=k)
        return {n: {"calls": int(calls[i]), "total_s": float(total[i]),
                    "self_s": float(own[i])}
                for i, n in enumerate(self.names)}

    def write(self, path: str) -> None:
        """Write every span as one CSV line: run, span, name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("run_id,span,name,start_s,end_s,parent\n")
            for idx, (nid, start, end, parent) in enumerate(
                    zip(self.name, self.start, self.end, self.parent)):
                fh.write(f"{self.run_id},{idx},{self.names[nid]},"
                         f"{start!r},{end!r},{parent}\n")
