"""Per-layer attribution for the traced run.

:class:`LayerProbe` wraps the public functions of each layer of
:mod:`repro` -- from the benchmark's side, the program itself is not
edited -- and records one span per call into a :class:`repro.obs.Tracer`.
Three wrapper kinds keep the overhead proportional to what is learned:

* ``span``: a tracer span per call (coarse calls: phases, tree builds,
  backend and kernel calls, checkpoints, ...);
* ``hot``: per-body calls (``octree.build.insert``) accumulate their time
  and call count without a span object each; the time is charged to the
  enclosing span as ``args["hot_s"]`` so self times still add up;
* ``count``: the emulated-UPC access primitives are only counted.

The C kernel's pool threads break strict span nesting, so
``CKernel.force_walk`` (which runs on them) is summed as busy time instead.

A layer's self time is its span durations minus the part covered by child
spans and hot calls (:func:`self_times`); the wall time no span or hot call
covers is reported as ``unattributed``.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: phase names of ``repro.core.phases.ALL_PHASES`` (fixed here so the
#: metric list does not depend on importing the program)
PHASES = ("treebuild", "cofm", "partition", "redistribution", "force",
          "advance")
TABLES = tuple(f"table{i}" for i in range(2, 10))

#: span-timed layers: (metric, module, attribute) for module functions
SPAN_FUNCTIONS = (
    ("core.subforest", "repro.core.subspace", "build_subforest_and_hook"),
    ("core.frontier", "repro.core.frontier", "frontier_force"),
    ("octree.cofm", "repro.octree.cofm", "compute_cofm"),
    ("octree.traverse", "repro.octree.traverse", "gravity_traversal"),
    ("octree.morton_build", "repro.octree.morton_build", "build_flat_tree"),
    ("octree.morton_build", "repro.octree.morton_build",
     "build_flat_tree_incremental"),
    ("octree.costzones", "repro.octree.costzones", "costzones"),
    ("kernels.gravity", "repro.kernels", "kernel_gravity"),
    ("nbody.advance", "repro.nbody.integrator", "advance_indices"),
    ("nbody.advance", "repro.nbody.integrator", "startup_half_kick"),
    ("nbody.bbox", "repro.nbody.bbox", "compute_root"),
    ("obs.collect", "repro.obs.metrics", "collect_run_metrics"),
)

#: metrics of the traced run, in report order: (name, unit, better)
PER_LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("upc.word_access.calls", "count", "lower"),
    ("upc.run_waiting.s", "s", "lower"),
    ("upc.lock.calls", "count", "lower"),
    *((f"core.phase.{p}.s", "s", "lower") for p in PHASES),
    ("core.subforest.s", "s", "lower"),
    ("core.frontier.s", "s", "lower"),
    ("octree.insert.s", "s", "lower"),
    ("octree.insert.calls", "count", "lower"),
    ("octree.cofm.s", "s", "lower"),
    ("octree.traverse.s", "s", "lower"),
    ("octree.morton_build.s", "s", "lower"),
    ("octree.morton_build.calls", "count", "lower"),
    ("octree.costzones.s", "s", "lower"),
    ("octree.trees_per_step", "count", "lower"),
    ("backends.begin_step.s", "s", "lower"),
    ("backends.accelerations.s", "s", "lower"),
    ("backends.accelerations.calls", "count", "lower"),
    ("kernels.gravity.s", "s", "lower"),
    ("kernels.walk.s", "s", "lower"),
    ("kernels.walk_share", "ratio", "higher"),
    ("kernels.interactions", "count", "lower"),
    ("nbody.advance.s", "s", "lower"),
    ("nbody.bbox.s", "s", "lower"),
    ("resilience.checkpoint.s", "s", "lower"),
    ("resilience.checkpoint.bytes", "bytes", "lower"),
    ("resilience.guards.s", "s", "lower"),
    ("obs.collect.s", "s", "lower"),
    ("obs.trace_overhead", "ratio", "lower"),
    *((f"experiments.table.{t}.s", "s", "lower") for t in TABLES),
    ("unattributed.s", "s", "lower"),
    ("unattributed.share", "ratio", "lower"),
    ("traced.wall.s", "s", "lower"),
)


def self_times(spans: Iterable) -> Dict[str, float]:
    """Self seconds per span name: duration minus direct children's
    durations minus the hot-call time charged to the span
    (``args["hot_s"]``).  Nesting is rebuilt from start times and
    durations, as the Chrome-trace exporter does."""
    ordered = sorted(spans, key=lambda s: (s.wall_ts, -s.wall_dur, s.depth))
    out: Dict[str, float] = defaultdict(float)
    stack: List = []
    for sp in ordered:
        while stack and sp.wall_ts >= stack[-1].wall_end:
            stack.pop()
        if stack:
            out[stack[-1].name] -= sp.wall_dur
        out[sp.name] += sp.wall_dur - float(sp.args.get("hot_s", 0.0))
        stack.append(sp)
    return dict(out)


def attribute(spans: Iterable, hot_s: Dict[str, float],
              wall_s: float) -> Dict[str, float]:
    """Self seconds per layer metric plus the ``unattributed`` remainder;
    the values sum to ``wall_s``."""
    table = self_times(spans)
    for name, sec in hot_s.items():
        table[name] = table.get(name, 0.0) + sec
    table["unattributed"] = wall_s - sum(table.values())
    return table


class LayerProbe:
    """Installs the layer wrappers; :meth:`uninstall` restores the program.

    Wrappers only record on the thread that installed them; calls from any
    other thread pass straight through (the kernel pool is handled by the
    busy-time accumulator instead).
    """

    def __init__(self, tracer, clock: Callable[[], float] = time.perf_counter):
        self.tracer = tracer
        self.clock = clock
        self.calls: Counter = Counter()
        self.hot_s: Dict[str, float] = defaultdict(float)
        self.walk_busy_s = 0.0
        self.interactions = 0.0
        self.checkpoint_bytes = 0
        #: operation label stamped on every span (step index or table id)
        self.op: object = None
        self._open: List = []
        self._lock = threading.Lock()
        self._owner = threading.get_ident()
        self._undo: List[Tuple[object, str, object]] = []

    # -- span stack ------------------------------------------------------ #
    def push(self, name: str) -> None:
        sp = self.tracer.begin(name, name.split(".", 1)[0], op=self.op)
        self._open.append(sp)

    def pop(self) -> None:
        self._open.pop()
        self.tracer.end()

    def _mine(self) -> bool:
        return threading.get_ident() == self._owner

    # -- wrapper kinds --------------------------------------------------- #
    def span(self, name: str, fn: Callable,
             after: Optional[Callable[[object], None]] = None) -> Callable:
        def wrapper(*args, **kwargs):
            # a nested call into the same layer (subclass -> base class,
            # resilient wrapper -> primary backend) is one call
            if not self._mine() or (self._open
                                    and self._open[-1].name == name):
                return fn(*args, **kwargs)
            self.calls[name] += 1
            self.push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def hot(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            if not self._mine():
                return fn(*args, **kwargs)
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = self.clock() - t0
                self.calls[name] += 1
                self.hot_s[name] += dt
                if self._open:
                    args_ = self._open[-1].args
                    args_["hot_s"] = args_.get("hot_s", 0.0) + dt

        return wrapper

    def count(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def busy(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = self.clock() - t0
                with self._lock:
                    self.walk_busy_s += dt

        return wrapper

    # -- patching -------------------------------------------------------- #
    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module: str, attr: str, wrap) -> None:
        """Replace ``module.attr`` everywhere the program bound it (the
        defining module and every ``from ... import`` site)."""
        original = getattr(importlib.import_module(module), attr)
        wrapped = wrap(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro"
                                   or name.startswith("repro.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, key, wrapped)

    def patch_method(self, cls, attr: str, wrap) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(wrap(raw.__func__)))
        else:
            self._set(cls, attr, wrap(raw))

    def install(self) -> "LayerProbe":
        from repro.backends.registry import BACKENDS
        from repro.kernels.loader import CKernel
        from repro.octree.flat import FlatTree
        from repro.resilience.checkpoint import CheckpointManager
        from repro.resilience.degrade import ResilientBackend
        from repro.resilience.guards import HealthGuards
        from repro.upc.runtime import UpcRuntime

        for name, module, attr in SPAN_FUNCTIONS:
            after = self._after_kernel if name == "kernels.gravity" else None
            self.patch_function(
                module, attr,
                lambda fn, n=name, a=after: self.span(n, fn, a))
        self.patch_function("repro.octree.build", "insert",
                            lambda fn: self.hot("octree.insert", fn))
        # tree counts: object-tree roots and insertion-path flat trees
        self.patch_function("repro.octree.build", "new_root",
                            lambda fn: self.count("octree.new_root", fn))
        self.patch_method(FlatTree, "from_cell",
                          lambda fn: self.count("octree.from_cell", fn))

        self.patch_method(UpcRuntime, "word_access",
                          lambda fn: self.count("upc.word_access", fn))
        self.patch_method(UpcRuntime, "lock",
                          lambda fn: self.count("upc.lock", fn))
        self.patch_method(UpcRuntime, "run_waiting",
                          lambda fn: self.span("upc.run_waiting", fn))
        self.patch_method(UpcRuntime, "begin_phase", self._begin_phase)
        self.patch_method(UpcRuntime, "end_phase", self._end_phase)

        for cls in {*BACKENDS.values(), ResilientBackend}:
            for attr in ("begin_step", "accelerations"):
                if attr in cls.__dict__:
                    self.patch_method(
                        cls, attr,
                        lambda fn, a=attr: self.span(f"backends.{a}", fn))
        self.patch_method(CKernel, "force_walk", self.busy)
        self.patch_method(CheckpointManager, "save",
                          lambda fn: self.span("resilience.checkpoint", fn,
                                               self._after_checkpoint))
        self.patch_method(HealthGuards, "check_phase",
                          lambda fn: self.span("resilience.guards", fn))
        return self

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- phase spans (begin/end are separate calls) ---------------------- #
    def _begin_phase(self, fn: Callable) -> Callable:
        def begin_phase(rt, name):
            fn(rt, name)
            if self._mine():
                self.push(f"core.phase.{name}")

        return begin_phase

    def _end_phase(self, fn: Callable) -> Callable:
        def end_phase(rt):
            try:
                return fn(rt)
            finally:
                if self._mine() and self._open \
                        and self._open[-1].name.startswith("core.phase."):
                    self.pop()

        return end_phase

    # -- result hooks ---------------------------------------------------- #
    def _after_kernel(self, result) -> None:
        _acc, work, _counters = result
        self.interactions += float(work.sum())

    def _after_checkpoint(self, path) -> None:
        self.checkpoint_bytes += path.stat().st_size

    # -- report ---------------------------------------------------------- #
    def metrics(self, spans, wall_s: float, nops: int, nsteps: int,
                overhead: float) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Per-layer metrics per operation (a step, or a ladder pass), and
        the raw self-time table they come from."""
        table = attribute(spans, self.hot_s, wall_s)
        per = 1.0 / max(nops, 1)

        def sec(*names: str) -> float:
            return sum(table.get(n, 0.0) for n in names) * per

        gravity = table.get("kernels.gravity", 0.0)
        out = {
            "upc.word_access.calls": self.calls["upc.word_access"] * per,
            "upc.run_waiting.s": sec("upc.run_waiting"),
            "upc.lock.calls": self.calls["upc.lock"] * per,
            **{f"core.phase.{p}.s": sec(f"core.phase.{p}") for p in PHASES},
            "core.subforest.s": sec("core.subforest"),
            "core.frontier.s": sec("core.frontier"),
            "octree.insert.s": sec("octree.insert"),
            "octree.insert.calls": self.calls["octree.insert"] * per,
            "octree.cofm.s": sec("octree.cofm"),
            "octree.traverse.s": sec("octree.traverse"),
            "octree.morton_build.s": sec("octree.morton_build"),
            "octree.morton_build.calls": (self.calls["octree.morton_build"]
                                          * per),
            "octree.costzones.s": sec("octree.costzones"),
            # object trees (new roots, subspace top trees) plus flat trees
            "octree.trees_per_step": sum(
                self.calls[n] for n in ("octree.new_root", "core.subforest",
                                        "octree.morton_build",
                                        "octree.from_cell")) / max(nsteps, 1),
            "backends.begin_step.s": sec("backends.begin_step"),
            "backends.accelerations.s": sec("backends.accelerations"),
            "backends.accelerations.calls": (
                self.calls["backends.accelerations"] * per),
            "kernels.gravity.s": sec("kernels.gravity"),
            "kernels.walk.s": self.walk_busy_s * per,
            "kernels.walk_share": (self.walk_busy_s / gravity
                                   if gravity > 0 else 0.0),
            "kernels.interactions": self.interactions * per,
            "nbody.advance.s": sec("nbody.advance"),
            "nbody.bbox.s": sec("nbody.bbox"),
            "resilience.checkpoint.s": sec("resilience.checkpoint"),
            "resilience.checkpoint.bytes": self.checkpoint_bytes * per,
            "resilience.guards.s": sec("resilience.guards"),
            "obs.collect.s": sec("obs.collect"),
            "obs.trace_overhead": overhead,
            **{f"experiments.table.{t}.s": sec(f"experiments.table.{t}")
               for t in TABLES},
            "unattributed.s": sec("unattributed"),
            "unattributed.share": (table["unattributed"] / wall_s
                                   if wall_s > 0 else 0.0),
            "traced.wall.s": wall_s * per,
        }
        return out, table
