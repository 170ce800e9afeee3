"""The default backend: the linked-cell vectorized recursion.

Wraps :func:`repro.octree.traverse.gravity_traversal` over the per-step
object tree -- bit-identical to what the variants have always computed.
When a variant runs with this backend selected it keeps its own
policy-instrumented call path (the cost model needs the per-cell hooks);
this class exists so the same engine is also available behind the uniform
:class:`~repro.backends.base.ForceBackend` interface for parity tests and
benchmarks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nbody.bodies import BodySoA
from ..octree.cell import Cell
from ..octree.traverse import TraversalPolicy, gravity_traversal
from .base import ForceBackend, ForceResult


class ObjectTreeBackend(ForceBackend):
    """Per-group recursion over the linked ``Cell``/``Leaf`` tree."""

    name = "object-tree"
    #: degradation rung: exact but O(n^2) -- survival over speed
    fallback_name = "direct"

    def __init__(self, cfg, tracer=None):
        super().__init__(cfg, tracer=tracer)
        self.root: Optional[Cell] = None

    def begin_step(self, root: Optional[Cell], bodies: BodySoA,
                   box=None, tree=None) -> None:
        self.root = root

    def accelerations(self, body_idx: np.ndarray,
                      bodies: BodySoA,
                      policy: Optional[TraversalPolicy] = None) -> ForceResult:
        tr = self.tracer
        traced = tr.enabled
        if traced:
            tr.begin("object-tree.accelerations", "backend",
                     nbodies=len(body_idx))
        acc, work = gravity_traversal(
            self.root, body_idx, bodies.pos, bodies.mass,
            self.cfg.theta, self.cfg.eps, policy,
            open_self_cells=self.cfg.open_self_cells,
        )
        if traced:
            tr.end(interactions=float(work.sum()))
        return ForceResult(acc=acc, work=work)
