"""Per-layer tracing of ``omegacat`` from outside the package.

:class:`Tracer` replaces the public functions of each module by wrappers,
wherever any ``omegacat`` module binds them (``trees`` and ``cfpo`` import
names from ``posets``, so patching only the defining module would miss
those calls).  A timed wrapper records a span: name, start, end and the
span that was open when it began.  Self time is a span's duration minus
the durations of its child spans.  Functions that run millions of times
per operation are only counted, because a span around each call would
cost more than the work it measures.
"""

from __future__ import annotations

import importlib
import inspect
import time
from typing import Callable, Dict, List

MODULES = ("terms", "sequences", "posets", "trees", "cfpo", "cli")

# Called per term node or per comparison: counted, not timed.
COUNT_ONLY = {
    "terms.normalize",
    "terms.term_key",
    "terms.factors",
    "terms.concat",
    "terms.shuffle",
    "terms.is_finite",
    "terms.min_size",
    "terms.law4_redexes",
    "terms.collapse_factors",
    "terms.is_normal",
    "terms.orbit_paths",
    "terms.subterm_at",
    "terms.render_term",
    "posets.node_key",
    "sequences.seq_factors",
}

# Work measured from a call's result, summed per name.
SIZES: Dict[str, Callable] = {
    "terms.materialize": lambda args, result: len(result[0]),
    "posets.FinPoset": lambda args, result: len(args[0].lt),
    "trees.materialize_tree": lambda args, result: len(result),
    "cfpo.path_completion": lambda args, result: len(result) - len(args[0]),
}

KEEP_SPANS = 200_000  # raw spans kept for the trace file


class Tracer:
    def __init__(self):
        self.calls: Dict[str, int] = {}
        self.incl: Dict[str, float] = {}  # outermost activations only
        self.self_s: Dict[str, float] = {}
        self.size: Dict[str, int] = {}
        self.spans: List[tuple] = []  # (id, parent id, name, start, end)
        self.record = True
        self._stack: List[list] = []  # [span id, child time]
        self._depth: Dict[str, int] = {}
        self._undo: List[tuple] = []
        self._next_id = 0

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn):
        size = SIZES.get(name)
        calls, incl, self_s, depth = self.calls, self.incl, self.self_s, self._depth
        stack = self._stack

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            level = depth.get(name, 0)
            depth[name] = level + 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                depth[name] = level
                dur = end - start
                calls[name] = calls.get(name, 0) + 1
                if level == 0:
                    incl[name] = incl.get(name, 0.0) + dur
                self_s[name] = self_s.get(name, 0.0) + dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if self.record and len(self.spans) < KEEP_SPANS:
                    self.spans.append((span_id, parent, name, start, end))
            if size is not None:
                self.size[name] = self.size.get(name, 0) + size(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every module, in every module that
        binds it, plus the constructor and ``restrict`` of ``FinPoset``."""
        mods = {m: importlib.import_module(f"omegacat.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                name = f"{short}.{attr}"
                make = self._counted if name in COUNT_ONLY else self._timed
                wrapped[obj] = make(name, obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        cls = mods["posets"].FinPoset
        for attr, name in (("__init__", "posets.FinPoset"), ("restrict", "posets.restrict")):
            orig = cls.__dict__[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self._timed(name, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def value(self, metric: str) -> float:
        """``<name>.calls``, ``.s`` (inclusive), ``.self_s`` or a size
        (``.points``, ``.pairs``, ``.nodes``, ``.added``) of a name."""
        name, _, what = metric.rpartition(".")
        if what == "calls":
            return self.calls.get(name, 0)
        if what == "s":
            return self.incl.get(name, 0.0)
        if what == "self_s":
            return self.self_s.get(name, 0.0)
        return self.size.get(name, 0)
