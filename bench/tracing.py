"""Spans and item timers recorded from outside the library.

The library is not edited: each public function listed in ``SPANS`` is
replaced, for the duration of a traced pass, by a wrapper that records a span
(name, parent, start, end).  A function is patched under every module
attribute that refers to it, so ``solver.action``, ``origami.minimize`` or
``thickened.minimize`` (names one module imports from another) are traced as
``action.action`` and ``solver.minimize``.
"""

from __future__ import annotations

import collections
import importlib
import sys
import time
from contextlib import ExitStack, contextmanager

# <module>.<function> of every traced layer boundary, in the order reported
SPANS = (
    "cli.main",
    "arrangement.load_arrangement",
    "origami.search_realizable",
    "scattering.sample_relation",
    "scattering.lagrangian_residual",
    "scattering.legendrian_theta_residual",
    "scattering.patch_to_csv",
    "solver.minimize",
    "action.action",
    "action.hessian",
    "action.gradient_stacked",
    "trajectory.is_generic",
    "thickened.r_family",
    "thickened.minimize_thickened",
    "thickened.replay_honest",
    "thickened.simulate",
    "thickened.first_hit",
    "nbody.build_arrangement",
    "nbody.three_body_slice",
)

SOLVER_OUTCOMES = ("valid", "ghost", "edge_in_subspace", "non_generic_ray", "error")
THICKENED_OUTCOMES = ("honest", "ghost", "error")

_CLASS_KEY = {
    "ValidBilliard": "valid",
    "Ghost": "ghost",
    "EdgeInSubspace": "edge_in_subspace",
    "NonGenericRay": "non_generic_ray",
}


def solver_outcome(result) -> str:
    return _CLASS_KEY[result.classification.value]


def thickened_outcome(result) -> str:
    return "honest" if result.honest else "ghost"


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "linbilliards" or name.startswith("linbilliards."))]


@contextmanager
def patched(original, wrapper, only=None):
    """Bind ``wrapper`` wherever ``original`` is bound in the package (or only
    in the modules listed in ``only``); restore every binding on exit."""
    modules = only if only is not None else _package_modules()
    undo = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr))
    try:
        yield
    finally:
        for mod, attr in undo:
            setattr(mod, attr, original)


class Tracer:
    """In-memory spans with parent links, self time and outcome counts.

    Self time of a span is its duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    """

    def __init__(self):
        self.spans = []                 # (id, parent id or -1, name, t0, t1)
        self._stack = []                # (id, name)
        self._next_id = 0
        self.calls = collections.Counter()
        self.self_s = collections.defaultdict(float)
        self.solver = collections.Counter()
        self.stages = 0
        self.thickened = collections.Counter()

    def _wrap(self, name, fn):
        spans, stack, calls, self_s = self.spans, self._stack, self.calls, self.self_s
        clock = time.perf_counter
        counter = self._count_outcome if name in ("solver.minimize",
                                                  "thickened.minimize_thickened") else None

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            stack.append((sid, name))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if counter is not None:
                    counter(name, None)
                raise
            else:
                if counter is not None:
                    counter(name, result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[name] += 1
                self_s[name] += dur
                if parent is not None:
                    self_s[parent[1]] -= dur
                spans.append((sid, parent[0] if parent else -1, name, t0, t1))

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_outcome(self, name, result):
        if name == "solver.minimize":
            if result is None:
                self.solver["error"] += 1
            else:
                self.solver[solver_outcome(result)] += 1
                self.stages += result.iterations
        else:
            self.thickened["error" if result is None else thickened_outcome(result)] += 1

    @contextmanager
    def active(self):
        """Trace every function in ``SPANS`` while the block runs."""
        with ExitStack() as stack:
            for span in SPANS:
                module, func = span.split(".")
                mod = importlib.import_module(f"linbilliards.{module}")
                original = getattr(mod, func)
                stack.enter_context(patched(original, self._wrap(span, original)))
            yield self

    def metrics(self) -> dict:
        out = {}
        for span in SPANS:
            out[f"{span}.calls"] = (self.calls[span], "count")
            out[f"{span}.self_s"] = (self.self_s[span], "s")
        for key in SOLVER_OUTCOMES:
            out[f"solver.outcome.{key}"] = (self.solver[key], "count")
        out["solver.stages"] = (self.stages, "count")
        n = self.calls["solver.minimize"]
        out["solver.valid_frac"] = (self.solver["valid"] / n if n else 0.0, "ratio")
        for key in THICKENED_OUTCOMES:
            out[f"thickened.outcome.{key}"] = (self.thickened[key], "count")
        return out

    def write(self, path) -> None:
        """Spans as CSV, ordered by id (start order)."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, parent, name, t0, t1 in sorted(self.spans):
                fh.write(f"{sid},{parent},{name},{t0!r},{t1!r}\n")


class ItemTimer:
    """Times each call of one function binding: one item per call.

    Records (start, end, outcome) per call and calls ``after`` between
    items; an exception is recorded as an ``error:<class>`` outcome and
    re-raised, so a caller that swallows it (``origami._search_one``,
    ``scattering._solve_cell``) still shows it.
    """

    def __init__(self, module, attr, outcome, after):
        self.module, self.attr, self.outcome, self.after = module, attr, outcome, after
        self.items = []

    @contextmanager
    def active(self):
        fn = getattr(self.module, self.attr)
        items, outcome, after, clock = self.items, self.outcome, self.after, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                items.append((t0, clock(), f"error:{type(exc).__name__}"))
                after()
                raise
            items.append((t0, clock(), outcome(result)))
            after()
            return result

        with patched(fn, wrapper, only=[self.module]):
            yield self
