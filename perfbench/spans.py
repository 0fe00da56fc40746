"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of alignsim's layers *by attribute* from
outside the package: a module-level function is replaced in every alignsim
module (and ``numpy.linalg``) that holds the same object, and a scheme hook
is shadowed by an instance attribute on the registry's scheme object.
Nothing under ``src/`` is edited, and :meth:`LayerPatch.restore` puts every
original back.  A name that no longer exists is recorded as absent instead of
raising, so later refactors that delete a hook do not break the benchmark.

Spans are aggregated in memory per name: call count and self time, where a
span's self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict


class Tracer:
    """Aggregates call counts, self times and event counts per span name."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []  # [start, time covered by children]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.events: dict[str, int] = defaultdict(int)

    def reset(self) -> None:
        self._stack.clear()
        self.calls.clear()
        self.self_s.clear()
        self.events.clear()

    def wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span = time.perf_counter() - frame[0]
                self.self_s[name] += span - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += span

        return traced

    def discount(self, seconds: float) -> None:
        """Keep the tracer's own bookkeeping out of the enclosing span's self time."""
        if self._stack:
            self._stack[-1][1] += seconds

    def summary(self) -> list[str]:
        return [
            f"span {name}: {self.calls[name]} calls, {self.self_s[name] * 1e3:.3f} ms self"
            for name in sorted(self.calls)
        ]


def count_access_log(tracer: Tracer, fn):
    """Wrap a block runner taking a ``log`` argument; count the records it appends.

    Each new ``AccessLog`` record adds one to the event ``channel.<kind>_reads``.
    """
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        t0 = time.perf_counter()
        log = signature.bind_partial(*args, **kwargs).arguments.get("log")
        records = getattr(log, "records", None)
        before = len(records) if records is not None else 0
        overhead = time.perf_counter() - t0
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            if records is not None:
                for record in records[before:]:
                    tracer.events[f"channel.{record.kind}_reads"] += 1
            tracer.discount(overhead + time.perf_counter() - t1)

    return counted


class LayerPatch:
    """Installs tracer wrappers by attribute and removes them again."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object, bool]] = []

    def function(self, span: str, owner, attr: str, decorate=None) -> None:
        """Wrap ``owner.attr`` wherever an alignsim module or numpy.linalg binds it."""
        original = getattr(owner, attr, None)
        if not callable(original):
            self.absent.append(f"{owner.__name__}.{attr}")
            return
        wrapper = self.tracer.wrap(span, original)
        if decorate is not None:
            wrapper = decorate(self.tracer, wrapper)
        holders = [owner] + [
            module
            for name, module in list(sys.modules.items())
            if module is not None and module is not owner
            and (name == "alignsim" or name.startswith("alignsim.") or name == "numpy.linalg")
        ]
        for module in holders:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, wrapper)

    def method(self, span: str, obj, attr: str, label: str) -> None:
        """Shadow a bound method of one object with a traced instance attribute."""
        original = getattr(obj, attr, None)
        if not callable(original):
            self.absent.append(label)
            return
        try:
            self._set(obj, attr, self.tracer.wrap(span, original))
        except AttributeError:  # slotted or frozen object: cannot be traced from outside
            self.absent.append(label)

    def _set(self, holder, attr: str, value) -> None:
        had_own = attr in getattr(holder, "__dict__", {})
        previous = getattr(holder, attr)
        setattr(holder, attr, value)
        self._undo.append((holder, attr, previous, had_own))

    def restore(self) -> None:
        for holder, attr, previous, had_own in reversed(self._undo):
            if had_own:
                setattr(holder, attr, previous)
            else:
                delattr(holder, attr)
        self._undo.clear()
