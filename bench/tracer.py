"""Span tracer for the flatsteady layers, installed from outside the program.

Every public function and public method of the layer modules is replaced,
at every module binding that refers to it, by a wrapper that records one
span (name, start, end, parent, size).  A function imported by name into
another module (``operator_for`` into ``steady``, ``functionals`` and
``simulate``; ``deposit_density`` into ``simulate``) is therefore traced
whichever module calls it.  Spans live in memory until the benchmark
writes them out; ``layer_metrics`` turns them into per-layer counts and
self times (span time minus the time its child spans cover).

Private helpers are not wrapped: their time is self time of the public
call that reached them.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import Counter

import numpy as np

PACKAGE = "flatsteady"
LAYERS = ("elliptic", "casimir", "grids", "potential", "steady",
          "functionals", "simulate", "cli")

SPAN_FIELDS = ("name", "start", "end", "parent", "size")

# work size recorded with a span, by span name: moduli, points, computed bytes
_SIZERS = {
    "elliptic.elliptic_k": lambda args: int(np.size(args[0])),
    "casimir.InverseQ.q": lambda args: int(np.size(args[1])),
    "grids.RadialProfile.__call__": lambda args: int(np.size(args[1])),
    # the dense matvec reads the n x n float64 kernel matrix once
    "potential.FlatPotentialOperator.potential":
        lambda args: 8 * int(args[0].grid.n) ** 2,
}

_ASSEMBLY = "potential.FlatPotentialOperator.__init__"
_LOOKUP = "potential.operator_for"
_MATVEC = "potential.FlatPotentialOperator.potential"
_ENERGY = ("potential.FlatPotentialOperator.potential_energy",
           "potential.FlatPotentialOperator.interaction_energy")
_SOLVE = "steady.solve"
_DEPOSIT = "functionals.deposit_density"
_ROW = "functionals.evaluate_ensemble"
_DIAG = (_ROW, "functionals.stability_distance")


class Tracer:
    """Records spans while ``active``; ``install``/``uninstall`` patch bindings."""

    def __init__(self):
        self.spans: list = []
        self.active = False
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name, fn):
        sizer = _SIZERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   sizer(args) if sizer else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            public = (not attr.startswith("_") or attr == "__call__"
                      or (attr == "__init__" and not dataclasses.is_dataclass(cls)))
            if not public:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(name, raw))

    def install(self):
        """Wrap the public API of every layer at every binding in the package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is obj:
                                self._patch(m, key, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)


def span_cost(repeats: int = 20000) -> float:
    """Seconds one traced call adds to the call it wraps, timed on a no-op."""
    probe = Tracer()

    def noop():
        return None

    traced = probe._wrap("probe.noop", noop)
    probe.active = True
    t0 = time.perf_counter()
    for _ in range(repeats):
        traced()
    t1 = time.perf_counter()
    for _ in range(repeats):
        noop()
    t2 = time.perf_counter()
    return max((t1 - t0) - (t2 - t1), 0.0) / repeats


def layer_metrics(spans) -> dict:
    """Per-layer counts and times from a span list (parents precede children)."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    in_solve = [False] * n
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            in_solve[i] = in_solve[parent] or spans[parent][0] == _SOLVE
    self_s = Counter()
    count, size, total = Counter(), Counter(), Counter()
    # time of outermost spans in a group, so nested calls are not counted twice
    outer = Counter()
    outer_groups = {name: group for group in (_ENERGY, _DIAG) for name in group}
    missed = set()
    solve_lookups = solve_matvecs = 0
    for i, (name, _, _, parent, sz) in enumerate(spans):
        self_s[name.split(".", 1)[0]] += dur[i] - child[i]
        count[name] += 1
        size[name] += sz
        total[name] += dur[i]
        group = outer_groups.get(name)
        if group and not (parent >= 0 and spans[parent][0] in group):
            outer[group] += dur[i]
        if name == _ASSEMBLY and parent >= 0 and spans[parent][0] == _LOOKUP:
            missed.add(parent)
        if in_solve[i]:
            solve_lookups += name == _LOOKUP
            solve_matvecs += name == _MATVEC
    lookups = count[_LOOKUP]
    out = {
        "elliptic.calls": count["elliptic.elliptic_k"],
        "elliptic.moduli": size["elliptic.elliptic_k"],
        "casimir.q_points": size["casimir.InverseQ.q"],
        "grids.profile_points": size["grids.RadialProfile.__call__"],
        "potential.assemblies": count[_ASSEMBLY],
        "potential.assembly_s": total[_ASSEMBLY],
        "potential.op_lookups": lookups,
        "potential.op_cache_hit_ratio":
            (lookups - len(missed)) / lookups if lookups else 0.0,
        "potential.matvecs": count[_MATVEC],
        "potential.matvec_s": total[_MATVEC],
        "potential.matvec_bytes": size[_MATVEC],
        "potential.energy_s": outer[_ENERGY],
        "steady.solves": count[_SOLVE],
        "steady.outer_evals": solve_lookups,
        "steady.inner_sweeps": solve_matvecs,
        "functionals.deposits": count[_DEPOSIT],
        "functionals.deposit_s": total[_DEPOSIT],
        "functionals.diag_rows": count[_ROW],
        "functionals.diag_s": outer[_DIAG],
        "simulate.sample_s": total["simulate.sample"],
        "cli.invocations": count["cli.main"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    out["traced_s"] = sum(d for d, s in zip(dur, spans) if s[3] < 0)
    return out
