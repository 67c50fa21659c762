"""In-memory spans around proxilearn's public functions.

A :class:`Tracer` records one span per call: name, start, end, parent span
and op id. :func:`instrument` puts a span around every public function of
each layer module (a layer is one proxilearn module) by rebinding the
module attributes that hold it, and counts the dense factorizations
(``scipy.linalg.cho_factor`` and ``numpy.linalg.eigh``) as marks. Nothing
inside ``src/`` changes; the patches are undone when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

LAYERS = ("synthdata", "data", "kernels", "numerics", "kpv", "pmmr",
          "baselines", "evaluation", "cli")

# Operations are timed and spanned by the benchmark itself.
OP_FUNCTIONS = ("evaluation.fit_method",)

FACTORIZATIONS = ((np.linalg, "eigh"), (scipy.linalg, "cho_factor"))


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "op": self.op, "start": self.start, "end": self.end,
                **self.attrs}


class Tracer:
    """Span recorder for one driving thread: the workloads call proxilearn
    from the main thread only."""

    def __init__(self):
        self.spans: list[Span] = []
        self.marks: list[tuple[str, int | None]] = []
        self._ids = itertools.count(1)
        self._stack: list[Span] = []

    def _current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def begin(self, name: str, new_op: bool = False, **attrs) -> Span:
        parent = self._current()
        sid = next(self._ids)
        op = sid if new_op or parent is None else parent.op
        span = Span(sid, name, parent and parent.id, op, time.perf_counter(),
                    attrs=attrs)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, new_op: bool = False, **attrs):
        span = self.begin(name, new_op, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    def mark(self, name: str) -> None:
        current = self._current()
        self.marks.append((name, current and current.id))

    def drain(self) -> tuple[list[Span], list[tuple[str, int | None]]]:
        spans, marks = self.spans, self.marks
        self.spans, self.marks = [], []
        return spans, marks


class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def _gram_size(fn, args, kwargs, result) -> dict:
    return {"mbytes": result.size * 8 / 1e6}


def _edge_picks(*grid_params):
    """Hook recording how many selected values sit on a grid edge."""

    def hook(fn, args, kwargs, result):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        picks = result if isinstance(result, tuple) else (result,)
        edges = 0
        for value, param in zip(picks, grid_params):
            grid = np.atleast_1d(np.asarray(bound.arguments[param], float))
            edges += value in (grid.min(), grid.max())
        return {"picks": len(picks), "edges": edges}

    return hook


HOOKS = {
    "kernels.gram": _gram_size,
    "kpv.kpv_select_lambdas": _edge_picks("lam1_grid", "lam2_grid"),
    "pmmr.pmmr_select_lambda": _edge_picks("lam_grid"),
}


def _spanned(tracer: Tracer, name: str, fn):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if hook is not None:
            span.attrs.update(hook(fn, args, kwargs, result))
        return result

    return wrapper


def _marked(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.mark(name)
        return fn(*args, **kwargs)

    return wrapper


def instrument(tracer: Tracer) -> Patches:
    """Span every public function of each layer module, wherever the
    package binds it, plus ``Dataset.from_csv``/``to_csv``; mark every
    factorization. Returns the patches to restore."""
    from proxilearn.data import Dataset

    layers = {layer: importlib.import_module(f"proxilearn.{layer}")
              for layer in LAYERS}
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "proxilearn" or name.startswith("proxilearn.")]
    wrappers = {}
    for layer, module in layers.items():
        for name, obj in vars(module).items():
            span_name = f"{layer}.{name}"
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__
                    and span_name not in OP_FUNCTIONS):
                wrappers[obj] = _spanned(tracer, span_name, obj)
    patches = Patches()
    for module in modules:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patches.set(module, name, wrappers[obj])
    patches.set(Dataset, "to_csv",
                _spanned(tracer, "data.to_csv", Dataset.to_csv))
    patches.set(Dataset, "from_csv", classmethod(
        _spanned(tracer, "data.from_csv", vars(Dataset)["from_csv"].__func__)))
    for owner, name in FACTORIZATIONS:
        patches.set(owner, name,
                    _marked(tracer, f"linalg.{name}", getattr(owner, name)))
    return patches


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span: its time minus its direct children's."""
    own = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own
