"""Graceful backend degradation: the force-engine fallback ladder.

:class:`ResilientBackend` wraps the variant's primary force engine and,
when a call into it raises, transparently serves the rest of the step
from the next rung of the ladder declared by the backends themselves
(``ForceBackend.fallback_name``), descending further while a rung
raises too::

    flat-c  ->  flat  ->  object-tree  ->  direct  ->  (none: structured
                                                        fault)

The wrapper proxies every attribute to the primary engine -- ``name``
included, so ``VariantBase.backend_force_active`` and the flat-specific
telemetry (``tree_nbytes_per_step``) keeps working -- and
only interposes on ``begin_step`` / ``accelerations``.  The primary is
re-tried at the next step's ``begin_step`` (transient-fault model) until
``BHConfig.max_backend_fallbacks`` degraded steps have been served, after
which the wrapper pins the last rung that served rather than failing over
every step.  A ladder with no rung left re-raises as a
:class:`~repro.resilience.faults.SimulationFault` (``traversal`` cause),
which the policy engine surfaces with phase/step context.

Every engine the wrapper starts gets the step's inputs as the variant
passed them (``root``, ``box``, and a prebuilt ``tree``), so a ``flat``
rung below ``flat-c`` serves the same ``FlatTree``.  When the variant
built no ``Cell`` tree (the subspace variant on a flat engine's Morton
path) and the ladder reaches a rung that reads one (``object-tree``), the
wrapper builds it on demand by plain insertion plus
:func:`~repro.octree.cofm.compute_cofm` over the variant's box -- outside
the cost model, so the runtime is not charged twice for the tree.

Fallback engines produce the same physics to float64 round-off, not
bit-identically (summation order differs between engines), so a degraded
step trades exact replay for survival -- by design.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..backends.registry import make_backend
from ..nbody.bbox import RootBox, compute_root
from ..nbody.bodies import BodySoA
from ..obs.trace import get_tracer
from ..octree.build import build_tree
from ..octree.cofm import compute_cofm
from .faults import CAUSE_TRAVERSAL, InjectedFault, SimulationFault


class ResilientBackend:
    """Failure-absorbing proxy around one primary force engine."""

    def __init__(self, primary, cfg, tracer=None, manager=None):
        # NOTE: assign ``primary`` first -- ``__getattr__`` proxies to it
        self.primary = primary
        self.cfg = cfg
        self.tracer = tracer if tracer is not None else get_tracer()
        self.manager = manager
        self.max_fallbacks = int(getattr(cfg, "max_backend_fallbacks", 3))
        #: the rung that served last (pinned once ``permanent``)
        self.fallback = None
        self._rungs: dict = {}
        #: degraded steps served so far; at ``max_fallbacks`` the wrapper
        #: stops re-trying the primary ("permanent" degradation)
        self.fallbacks_served = 0
        self.permanent = False
        self._serving = None
        self._root = None
        self._bodies: Optional[BodySoA] = None
        self._step_box: Optional[RootBox] = None
        self._step_tree = None

    def __getattr__(self, attr):
        # only reached for attributes the wrapper itself lacks
        return getattr(object.__getattribute__(self, "primary"), attr)

    # ------------------------------------------------------------------ #
    # ForceBackend surface                                               #
    # ------------------------------------------------------------------ #
    def begin_step(self, root, bodies: BodySoA,
                   box: Optional[RootBox] = None, tree=None) -> None:
        self._root, self._bodies = root, bodies
        self._step_box, self._step_tree = box, tree
        engine = self.fallback if self.permanent else self.primary
        self._serving = self._start(engine, "begin_step")

    def accelerations(self, body_idx: np.ndarray, bodies: BodySoA):
        engine = self._serving if self._serving is not None \
            else self.primary
        while True:
            try:
                if engine is self.primary:
                    self._take_injected_fault()
                return engine.accelerations(body_idx, bodies)
            except Exception as exc:
                # the rung below missed this step's begin_step; run it
                # now over the same inputs so it serves the remaining
                # groups
                engine = self._start(
                    self._degrade("accelerations", exc, engine),
                    "begin_step")
                self._serving = engine

    def _take_injected_fault(self) -> None:
        inj = self.manager.injector if self.manager is not None else None
        if inj is not None and inj.take_backend_fault():
            raise InjectedFault(
                f"backend:{self.primary.name} [{inj.backend_fault_point}]",
                self.manager.current_step)

    def _start(self, engine, point: str):
        """``begin_step`` on ``engine``, descending the ladder while it
        raises; returns the engine that started."""
        while True:
            try:
                self._begin(engine)
                return engine
            except Exception as exc:
                engine = self._degrade(point, exc, engine)

    def _begin(self, engine) -> None:
        """``engine.begin_step`` over this step's inputs, with a ``Cell``
        tree built on demand if the engine reads one and none was passed."""
        if self._root is None and engine.needs_tree:
            self._root = self._object_tree()
        engine.begin_step(self._root, self._bodies, box=self._step_box,
                          tree=self._step_tree)

    def _object_tree(self):
        """The step's ``Cell`` tree by plain insertion (no cost charges)."""
        bodies = self._bodies
        box = self._step_box
        if box is None:
            box = compute_root(bodies.pos,
                               getattr(self.cfg, "initial_rsize", 4.0))
        root = build_tree(bodies.pos, box)
        compute_cofm(root, bodies.pos, bodies.mass, bodies.cost)
        return root

    # ------------------------------------------------------------------ #
    # the ladder                                                         #
    # ------------------------------------------------------------------ #
    def _rung(self, name: str):
        engine = self._rungs.get(name)
        if engine is None:
            engine = self._rungs[name] = make_backend(name, self.cfg,
                                                      tracer=self.tracer)
        return engine

    def _degrade(self, point: str, exc: BaseException, failed):
        """The rung below ``failed`` (which raised ``exc`` at ``point``)."""
        if isinstance(exc, SimulationFault) and exc.cause == CAUSE_TRAVERSAL:
            raise exc  # already past the bottom of the ladder
        rung = getattr(type(failed), "fallback_name", None)
        if rung is None:
            raise SimulationFault(
                CAUSE_TRAVERSAL,
                detail=f"backend {failed.name!r} failed and the "
                       f"ladder has no rung below it",
                original=exc) from exc
        fb = self.fallback = self._rung(rung)
        if failed is self.primary:
            self.fallbacks_served += 1
            if self.fallbacks_served >= self.max_fallbacks:
                self.permanent = True
        if self.manager is not None:
            self.manager.bump("backend_fallbacks",
                              f"{failed.name}->{fb.name}")
        if self.tracer.enabled:
            self.tracer.instant(
                "backend_fallback", "resilience", point=point,
                src=failed.name, dst=fb.name,
                error=type(exc).__name__,
                permanent=self.permanent)
        return fb
