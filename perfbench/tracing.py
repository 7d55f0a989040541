"""Spans and counts recorded around calls into kpplab's public names.

The benchmark installs wrappers on the names the package binds (a module
attribute such as ``kpplab.simulate.sample_offspring_batch`` or a class
attribute such as ``kpplab.kernels.Kernel.sample``), runs a section, and
removes them again, so untraced passes run the package untouched.  Spans
stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict


class Tracer:
    """In-memory span and count store.

    A span is ``[span_id, name, start, end, parent_id, section]``; ``section``
    names the part of the benchmark that caused it (the workload id).
    Counts are keyed by ``(section, name)``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.section = ""
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        self.counts[(self.section, name)] += n

    def nested_in(self, prefix: str) -> bool:
        """True when an open span's name starts with ``prefix``."""
        return any(self.spans[i][1].startswith(prefix) for i in self._stack)

    def wrap(self, name: str | None, fn, counter=None):
        """Return ``fn`` recording a span (when ``name`` is given) and counts.

        ``counter(tracer, args, kwargs, result)`` runs after the call, while
        the caller's spans are still open.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                out = fn(*args, **kwargs)
                if counter is not None:
                    counter(tracer, args, kwargs, out)
                return out
            rec = [len(tracer.spans), name, 0.0, 0.0,
                   tracer._stack[-1] if tracer._stack else -1, tracer.section]
            tracer.spans.append(rec)
            tracer._stack.append(rec[0])
            rec[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                counter(tracer, args, kwargs, out)
            return out

        return traced

    # -- installation ------------------------------------------------------

    def install(self, targets) -> None:
        """Wrap every ``(dotted_owner, attr, span_name, counter)`` target.

        A target the package no longer binds is recorded in ``missing``
        instead of failing, so the metrics that need it read as unobserved.
        """
        for owner_path, attr, span_name, counter in targets:
            owner = _resolve(owner_path)
            original = None if owner is None else owner.__dict__.get(attr)
            if original is None:
                label = f"{owner_path}.{attr}"
                if label not in self.missing:
                    self.missing.append(label)
                continue
            setattr(owner, attr, self.wrap(span_name, original, counter))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- queries -----------------------------------------------------------

    def select(self, section: str, name: str) -> list[list]:
        return [s for s in self.spans if s[5] == section and s[1] == name]

    def total(self, section: str, name: str) -> float:
        return sum(s[3] - s[2] for s in self.select(section, name))

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part covered by its child spans."""
        covered = defaultdict(list)
        for s in self.spans:
            if s[4] >= 0:
                covered[s[4]].append((s[2], s[3]))
        out = {}
        for s in self.spans:
            out[s[0]] = (s[3] - s[2]) - _union_length(covered.get(s[0], []))
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "columns": ["id", "name", "start", "end", "parent", "section"],
                    "spans": self.spans,
                    "counts": [[sec, name, v] for (sec, name), v in sorted(self.counts.items())],
                    "missing": self.missing,
                },
                fh,
            )


def _resolve(dotted: str):
    """Module or class named by ``dotted`` (``pkg.mod`` or ``pkg.mod.Class``)."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj
    return None


def _union_length(intervals) -> float:
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total
