"""Spans recorded from outside the program, folded into a layer table.

The benchmark never edits program code.  It records a span either at a
call site in its own workload code (``with tracer.span(name): ...``) or
by wrapping a public method on a program class for the duration of one
traced repetition (:meth:`Tracer.wrap`).  Spans nest on one stack, so a
span's *self* time is its duration minus the durations of the spans it
encloses.  Unattributed time is wall time no layer span covers: the root
span's self time plus the self time of every *catch-all* span.  A
catch-all wraps a dispatcher that calls several layers
(``StreamPipeline.step`` around the tailer, coalescer, rollups and
checkpoint), so work it does between those calls belongs to no layer
and must show in the ``unattributed`` row instead of hiding in the
dispatcher's own row.

Untraced repetitions use :data:`NULL`, whose ``span`` is a shared
no-op context manager and which installs no wrapper, so end-to-end
metrics are measured with tracing off.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

ROOT = "workload"


class Tracer:
    """A span stack aggregating (count, total, self) per span path."""

    def __init__(self, catch_all=()) -> None:
        #: Span names whose self time counts as unattributed.
        self.catch_all = tuple(catch_all)
        self._stack: list[list] = []
        #: span path -> [count, total seconds, self seconds]
        self.rows: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------
    # A frame is [path, entered, child seconds, start].  The span's own
    # duration runs from ``start`` to the clock read that opens ``end``;
    # its parent is charged from ``entered`` to the clock read that
    # closes ``end``.  The tracer's bookkeeping in between is therefore
    # neither in the span nor in its parent's self time: it shows only
    # in ``trace.overhead_s``, never as unattributed work.
    def begin(self, name: str, entered: float | None = None) -> None:
        if entered is None:
            entered = perf_counter()
        path = f"{self._stack[-1][0]}/{name}" if self._stack else name
        self._stack.append([path, entered, 0.0, perf_counter()])

    def end(self) -> None:
        stop = perf_counter()
        path, entered, child, start = self._stack.pop()
        dur = stop - start
        row = self.rows.get(path)
        if row is None:
            row = self.rows[path] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += dur
        row[2] += dur - child
        if self._stack:
            self._stack[-1][2] += perf_counter() - entered

    @contextlib.contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # -- wrappers around public program methods -------------------------
    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is a span name, or a callable that derives one from the
        call's arguments.  ``after(result, *args)`` runs outside the span
        so any bookkeeping it does is not charged to the layer.
        """
        original = owner.__dict__[attr]
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            entered = perf_counter()
            begin(name if isinstance(name, str) else name(*args, **kwargs),
                  entered)
            try:
                result = original(*args, **kwargs)
            finally:
                end()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading the aggregate ------------------------------------------
    def _leaf_rows(self, leaf: str):
        for path, row in self.rows.items():
            if path.rsplit("/", 1)[-1] == leaf:
                yield row

    def total(self, leaf: str) -> float:
        """Summed duration of every span named ``leaf``, at any depth."""
        return sum(row[1] for row in self._leaf_rows(leaf))

    def self_time(self, leaf: str) -> float:
        return sum(row[2] for row in self._leaf_rows(leaf))

    def calls(self, leaf: str) -> int:
        return sum(row[0] for row in self._leaf_rows(leaf))

    @property
    def wall_s(self) -> float:
        return self.rows[ROOT][1]

    @property
    def unattributed_s(self) -> float:
        return self.rows[ROOT][2] + sum(
            self.self_time(leaf) for leaf in self.catch_all
        )

    def table(self) -> list[dict]:
        """Rows of (path, count, total, self, % of workload wall)."""
        wall = self.wall_s
        out = []
        for path, (count, total, self_s) in sorted(self.rows.items()):
            if path == ROOT:
                continue
            out.append({
                "path": path, "count": count, "total_s": total,
                "self_s": self_s, "pct": 100.0 * total / wall,
            })
        out.append({
            "path": "unattributed", "count": 1,
            "total_s": self.unattributed_s, "self_s": self.unattributed_s,
            "pct": 100.0 * self.unattributed_s / wall,
        })
        return out


class _NullTracer:
    """Tracing off: spans cost one attribute lookup and a no-op ``with``."""

    _ctx = contextlib.nullcontext()

    def span(self, name: str):
        return self._ctx


NULL = _NullTracer()


def render_table(rows: list[dict]) -> str:
    lines = [f"{'span path':<78}{'count':>8}{'total s':>10}{'self s':>10}"
             f"{'%':>7}"]
    for r in rows:
        lines.append(
            f"{r['path']:<78}{r['count']:>8}{r['total_s']:>10.4f}"
            f"{r['self_s']:>10.4f}{r['pct']:>7.1f}"
        )
    return "\n".join(lines)
