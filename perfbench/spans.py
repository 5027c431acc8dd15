"""Outside-in tracing: spans and counters recorded by wrapping module attributes.

A ``Target`` names one attribute, such as ``kfpca.model.kendall_tau_hat``
(the reference the ``model`` layer calls) or
``kfpca.estimators.DiscretizedKernel.__post_init__``.  ``installed`` swaps
each attribute for a wrapper for the length of a ``with`` block and puts
every original back on exit, so the library itself is never edited and the
untraced run executes exactly the library's code.  A target whose module or
attribute no longer exists is reported as absent instead of failing the run.

Spans are kept in memory as ``Span`` tuples; times are ``perf_counter_ns``.
Wrappers record nothing while ``Tracer.op`` is None, so only work inside a
benchmark operation is counted.
"""

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, NamedTuple

ROOT = "op"


class Span(NamedTuple):
    id: int
    parent: int | None
    op: int
    name: str
    start: int
    end: int
    note: dict | None = None

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One attribute to wrap.

    ``module`` is an importable module path and ``attr`` a dotted path
    inside it.  ``name`` is the span or counter name; its first dotted part
    is the layer.  A ``count_only`` target increments ``Tracer.counts``
    without timing.  ``note(args, kwargs, result)`` may return a dict stored
    on the span; it runs after the span has ended.
    """

    module: str
    attr: str
    name: str
    count_only: bool = False
    note: Callable | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._next_id = 0

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end, note=None):
        self._stack.pop()
        self.spans.append(Span(sid, parent, self.op, name, start, end, note))

    @contextmanager
    def operation(self, index: int):
        """Root span of one benchmark operation; enables recording inside it."""
        self.op = index
        sid, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, parent, ROOT, start, time.perf_counter_ns())
            self.op = None

    def wrap(self, target: Target, fn: Callable) -> Callable:
        if target.count_only:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.op is not None:
                    self.counts[target.name] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            sid, parent = self._open()
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                note = None
                if target.note is not None:
                    try:
                        note = target.note(args, kwargs, result)
                    except Exception:  # a note must never break the traced call
                        note = None
                self._close(sid, parent, target.name, start, end, note)

        return spanned


def _resolve(target: Target):
    """(owner, attribute name, original, owner had its own entry) or None."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, last = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    own = vars(owner).get(last) if hasattr(owner, "__dict__") else None
    original = own if own is not None else getattr(owner, last, None)
    if not callable(original):
        return None
    return owner, last, original, own is not None


@contextmanager
def installed(tracer: Tracer, targets):
    """Wrap every resolvable target; yield the names of absent ones.

    All wrappers are removed on exit, also when the block raises.
    """
    done = []
    absent = []
    try:
        for target in targets:
            found = _resolve(target)
            if found is None:
                absent.append(f"{target.module}.{target.attr}")
                continue
            owner, last, original, had_own = found
            setattr(owner, last, tracer.wrap(target, original))
            done.append((owner, last, original, had_own))
        yield absent
    finally:
        for owner, last, original, had_own in reversed(done):
            if had_own:
                setattr(owner, last, original)
            else:
                delattr(owner, last)


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> its duration minus the time its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered_ns(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }
