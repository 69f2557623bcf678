"""In-memory spans recorded around calls into the program's modules.

The benchmark never edits the program: :meth:`Tracer.install` replaces a
module function or class attribute with a wrapper that records one span
per call and returns the wrapped call's result unchanged. Patching the
class attribute (not instances) leaves ``isinstance`` untouched.

A span is ``[call, start, end, parent, units]``: the index of the timed
call in :attr:`Tracer.calls`, ``time.perf_counter`` stamps, the index of
the enclosing span (``-1`` at top level) and a work count taken from the
call's arguments or result (candidates in a batch, right-hand sides in a
solve). Spans are appended when they open, so a parent's index is always
smaller than its children's.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable

#: ``units(args, kwargs, result) -> float`` for one call.
UnitsFn = Callable[[tuple, dict, object], float]


@dataclass
class Tracer:
    """Records spans while :attr:`active`; wrappers pass through otherwise."""

    calls: list[str] = field(default_factory=list)
    spans: list[list] = field(default_factory=list)
    active: bool = False
    _stack: list[int] = field(default_factory=list)
    _restore: list[tuple] = field(default_factory=list)

    def wrap(self, fn: Callable, call: str, units: UnitsFn | None = None):
        """A wrapper around ``fn`` recording spans under the name ``call``."""
        call_id = len(self.calls)
        self.calls.append(call)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [call_id, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if units is not None:
                span[4] = units(args, kwargs, result)
            return result

        return traced

    def install(self, module: str, qualname: str, units: UnitsFn | None = None):
        """Wrap ``module.qualname`` (a function or ``Class.method``) in place."""
        self._restore.append(
            patch(module, qualname, lambda fn: self.wrap(fn, f"{module}:{qualname}", units))
        )

    def uninstall(self) -> None:
        """Put every wrapped attribute back, last installed first."""
        unpatch(self._restore)


@dataclass
class DecideTimer:
    """Host latency of one control decision, recorded while :attr:`active`.

    A decision may span several calls (the fleet policy decides TECs, DVFS
    and, every fan period, the fan): the call that opens a decision starts
    a new sample and the others add to it.
    """

    samples: list[float] = field(default_factory=list)
    active: bool = False
    _restore: list[tuple] = field(default_factory=list)

    def install(self, module: str, qualname: str, opens: bool) -> None:
        """Time ``module.qualname``; ``opens`` marks the decision's first call."""
        self._restore.append(patch(module, qualname, lambda fn: self._wrap(fn, opens)))

    def _wrap(self, fn: Callable, opens: bool):
        samples = self.samples
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            if opens:
                samples.append(elapsed)
            else:
                samples[-1] += elapsed
            return result

        return timed

    def uninstall(self) -> None:
        """Put every timed attribute back."""
        unpatch(self._restore)


def patch(module: str, qualname: str, make_wrapper: Callable) -> tuple:
    """Replace ``module.qualname`` by ``make_wrapper(original)``.

    A method is taken from the defining class's own ``__dict__``, so a
    target that only inherits the method fails loudly instead of wrapping
    the parent's for every subclass. Returns what :func:`unpatch` needs.
    """
    owner = importlib.import_module(module)
    *outer, name = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    setattr(owner, name, make_wrapper(original))
    return owner, name, original


def unpatch(restore: list[tuple]) -> None:
    """Undo :func:`patch` calls, last first."""
    while restore:
        owner, name, original = restore.pop()
        setattr(owner, name, original)


def ancestor(spans: list[list], index: int, match: Callable[[list], bool]) -> int:
    """Index of the nearest enclosing span that ``match`` accepts, else -1."""
    parent = spans[index][3]
    while parent >= 0 and not match(spans[parent]):
        parent = spans[parent][3]
    return parent


@dataclass
class GroupTotals:
    """Totals over the spans of one group of calls (a layer or a single call).

    ``busy_s`` and ``units`` count only outermost spans of the group, so a
    group calling itself (a batch call made of single calls) is not counted
    twice; ``self_s`` sums every span's duration minus its children's.
    """

    calls: int = 0
    units: float = 0.0
    busy_s: float = 0.0
    self_s: float = 0.0
    durations_s: list[float] = field(default_factory=list)


def aggregate(spans: list[list], group_of: list[int], n_groups: int):
    """Per-group :class:`GroupTotals` and the summed top-level span time.

    ``group_of[call]`` maps each call index to its group. Children run
    inside their parent on one thread, so a span's self time is its
    duration minus the summed durations of its direct children, and the
    self times of all spans add up to the top-level total exactly.
    """
    child_s = [0.0] * len(spans)
    top_s = 0.0
    for call, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
        else:
            top_s += end - start
    totals = [GroupTotals() for _ in range(n_groups)]
    for i, (call, start, end, parent, units) in enumerate(spans):
        group = group_of[call]
        g = totals[group]
        duration = end - start
        g.calls += 1
        g.self_s += duration - child_s[i]
        g.durations_s.append(duration)
        if ancestor(spans, i, lambda s: group_of[s[0]] == group) < 0:
            g.busy_s += duration
            g.units += units
    return totals, top_s
