"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's own files only: either around a
call the benchmark makes (``Tracer.span``) or by wrapping a public function
of ``roughpaths`` at every module namespace that holds it
(``install_patches``), so calls one layer makes into another are timed at
the boundary without touching the package source.  Each span is a list
``[name, start, end, parent, round]``; ``parent`` indexes the enclosing span
(-1 for none) and ``round`` is the round id set by the runner.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

_now = time.perf_counter


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "rec")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.rec = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.rec)
        return False


class Tracer:
    """Span recorder; a disabled tracer hands out a shared no-op span."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.round = -1
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL_SPAN

    def _open(self, name):
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.round]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = _now()
        return rec

    def _close(self, rec):
        rec[2] = _now()
        self._stack.pop()

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(rec)

        return traced


def install_patches(tracer: Tracer, functions, properties):
    """Wrap public functions and cached properties of the package in spans.

    ``functions`` holds ``(module, attribute, span name)``; the wrapper
    replaces the function in every loaded ``roughpaths`` module that refers
    to it, because modules import each other's functions by name.
    ``properties`` holds ``(class, attribute, span name)`` for
    ``functools.cached_property`` members.  Returns an undo list for
    ``remove_patches``.
    """
    undo = []
    modules = [m for n, m in sys.modules.items()
               if n == "roughpaths" or n.startswith("roughpaths.")]
    for module, attr, name in functions:
        orig = getattr(module, attr)
        wrapped = tracer.wrap(orig, name)
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is orig]:
                setattr(mod, key, wrapped)
                undo.append((mod, key, orig))
    for cls, attr, name in properties:
        orig = cls.__dict__[attr]
        prop = functools.cached_property(tracer.wrap(orig.func, name))
        prop.__set_name__(cls, attr)
        setattr(cls, attr, prop)
        undo.append((cls, attr, orig))
    return undo


def remove_patches(undo) -> None:
    for owner, key, orig in reversed(undo):
        setattr(owner, key, orig)


def layer_of(name: str) -> str:
    """Layer a span belongs to: the part of its name before the first dot."""
    return name.split(".", 1)[0]


def round_totals(spans):
    """Per-round sums over spans, keyed by round id.

    For each round: ``incl[name]`` sums the durations of the spans called
    ``name`` that have no ancestor of the same name (so recursion is not
    counted twice); ``self[name]`` sums each span's duration minus that of
    its direct children; ``count[name]`` counts the spans.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: {"incl": defaultdict(float),
                               "self": defaultdict(float),
                               "count": defaultdict(int)})
    for i, (name, start, end, parent, rnd) in enumerate(spans):
        dur = end - start
        tot = out[rnd]
        tot["self"][name] += dur - child[i]
        tot["count"][name] += 1
        a = parent
        while a >= 0 and spans[a][0] != name:
            a = spans[a][3]
        if a < 0:
            tot["incl"][name] += dur
    return out


def layer_shares(totals, root: str = "round"):
    """Share of round time per layer from self times, for one round's totals."""
    whole = totals["incl"][root]
    by_layer = defaultdict(float)
    for name, value in totals["self"].items():
        by_layer["bench" if name == root else layer_of(name)] += value
    return {layer: value / whole for layer, value in sorted(by_layer.items())}
