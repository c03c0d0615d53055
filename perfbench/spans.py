"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of the program where they are looked
up (a module attribute or a class attribute), from outside the program.
A span records name, start, end, parent span and op id, plus attributes
an observer derives from the call's arguments and result.  Spans stay
in memory until the run writes them out.  A hook whose target no longer
exists is recorded as absent, so the traced run survives refactors.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

# observer(bound arguments by name, result) -> span attributes
Observer = Callable[[dict, object], dict]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    attrs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Hook:
    """``target`` is ``"module:attr"`` or ``"module:Class.attr"``."""

    target: str
    span: str
    observe: Observer | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object, bool]] = []

    def open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(),
                    parent=self._stack[-1] if self._stack else None, op=self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def _wrap(self, fn, hook: Hook):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self.open(hook.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(s)
            if hook.observe is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    s.attrs.update(hook.observe(bound.arguments, result))
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    s.attrs["observe_error"] = f"{type(exc).__name__}: {exc}"
            return result

        return traced

    def install(self, hooks: list[Hook]) -> None:
        """Wrap every hook target that exists; record the rest as absent."""
        for hook in hooks:
            module, _, path = hook.target.partition(":")
            *owners, attr = path.split(".")
            try:
                owner = importlib.import_module(module)
                for name in owners:
                    owner = getattr(owner, name)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                if hook.target not in self.absent:
                    self.absent.append(hook.target)
                continue
            own = not inspect.isclass(owner) or attr in vars(owner)
            self._saved.append((owner, attr, fn, own))
            setattr(owner, attr, self._wrap(fn, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn, own = self._saved.pop()
            if own:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(spans[i])
    out = []
    for i, s in enumerate(spans):
        covered, lo, hi = 0.0, None, None
        for a, b in sorted((max(c.start, s.start), min(c.end, s.end))
                           for c in children[i]):
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append(s.end - s.start - covered)
    return out


def op_layers(spans: list[Span]) -> dict[int, dict[str, dict]]:
    """Per op and span name: calls, self seconds, inclusive seconds and
    the attributes of each call, in call order."""
    out: dict[int, dict[str, dict]] = defaultdict(dict)
    for s, self_s in zip(spans, self_times(spans)):
        layer = out[s.op].setdefault(
            s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "attrs": []})
        layer["calls"] += 1
        layer["self_s"] += self_s
        layer["total_s"] += s.end - s.start
        if s.attrs:
            layer["attrs"].append(s.attrs)
    return dict(out)
