"""The flat backend: SoA octree + level-synchronous vectorized traversal.

Each step the engine serves one :class:`~repro.octree.flat.FlatTree`
(contiguous numpy arrays) over the current bodies.  Two build paths
exist, selected by ``BHConfig.flat_build``:

* ``"morton"`` (default) -- :func:`~repro.octree.morton_build.build_flat_tree`
  constructs the CSR arrays directly from sorted octant keys over the
  variant's root box, never touching ``Cell`` objects.  This is the one
  tree of the step: the subspace variant builds it in its subforest phase
  through :meth:`FlatBackend.build_step_tree` (and derives its emulated
  tree-build charges from the tree's keys, building no ``Cell`` objects)
  and hands it back to :meth:`FlatBackend.begin_step`; the other variants
  still build their ``Cell`` tree for the cost model, and ``begin_step``
  builds the ``FlatTree`` from the box they pass.
* ``"insertion"`` -- flatten the variant's freshly built object tree via
  :meth:`FlatTree.from_cell` (the original path; structurally identical,
  kept for A/B checks and for callers that mutate ``Cell`` hooks).  Only
  this path reads ``Cell`` objects, so only it sets ``needs_tree``.

The Morton path needs no object tree at all: without a box it derives
the root box from the body positions.  The insertion path cannot, and
raises on ``root=None`` instead of silently serving a ``None`` tree
(zero forces) as it used to.  Every build is fresh; the backend carries
no build state between steps.

:meth:`FlatBackend.accelerations` then runs
:func:`~repro.octree.flat.flat_gravity`, whose Python-level work scales
with tree depth instead of visited nodes.  Forces match the object-tree
engine to float64 round-off (identical interaction sets; only summation
order differs).  Aggregate traversal counters (cell tests/accepts/opens,
leaf interactions, levels) are surfaced through the returned
:class:`~repro.backends.base.ForceResult` and land in the run's
:class:`~repro.upc.stats.StatsLog` under ``backend_*`` keys.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from ..nbody.bbox import RootBox, compute_root
from ..nbody.bodies import BodySoA
from ..octree.cell import Cell
from ..octree.flat import FlatTree, flat_gravity, prepare_bodies
from ..octree.morton_build import build_flat_tree
from .base import ForceBackend, ForceResult

#: per-step tree-size samples kept for run metrics (bounds memory on
#: long-running simulations; run metrics see at most this many steps)
TREE_NBYTES_HISTORY = 4096


class FlatBackend(ForceBackend):
    """Array-native tree engine (the fast path for real wall-clock work)."""

    name = "flat"
    #: the Morton path builds its own tree from the root box
    needs_tree = False
    #: degradation rung: the linked-cell recursion computes the same
    #: physics from the variant's object tree (built on demand by the
    #: degradation wrapper when the variant built none)
    fallback_name = "object-tree"

    def __init__(self, cfg, tracer=None):
        super().__init__(cfg, tracer=tracer)
        if self.build_path == "insertion":
            self.needs_tree = True
        self.tree: Optional[FlatTree] = None
        self._prepared = None
        #: FlatTree memory footprint per step (feeds run metrics; bounded)
        self.tree_nbytes_per_step: "deque[int]" = deque(
            maxlen=TREE_NBYTES_HISTORY)

    @property
    def build_path(self) -> str:
        """Configured tree construction path (see module docstring)."""
        return getattr(self.cfg, "flat_build", "morton")

    def _build_tree(self, root: Optional[Cell], box: Optional[RootBox],
                    bodies: BodySoA) -> FlatTree:
        path = self.build_path
        if path == "insertion":
            if root is None:
                raise ValueError(
                    "flat_build='insertion' flattens the object tree, but "
                    "begin_step received root=None; build the object tree "
                    "first or use flat_build='morton'")
            return FlatTree.from_cell(root)
        tr = self.tracer
        # the variant's box (whose floats its ``Cell`` tree, if any, was
        # built on, so the octant keys replay the insertion build's
        # midpoint comparisons), else one derived from the positions
        if box is None:
            box = compute_root(bodies.pos,
                               getattr(self.cfg, "initial_rsize", 4.0))
        return build_flat_tree(bodies.pos, bodies.mass, box,
                               costs=bodies.cost,
                               tracer=tr if tr.enabled else None)

    def build_step_tree(self, bodies: BodySoA,
                        box: RootBox) -> Optional[FlatTree]:
        """The Morton path's tree over ``box`` (None on the insertion
        path, which flattens the variant's object tree instead)."""
        if self.build_path != "morton":
            return None
        return self._build_tree(None, box, bodies)

    def begin_step(self, root: Optional[Cell], bodies: BodySoA,
                   box: Optional[RootBox] = None,
                   tree: Optional[FlatTree] = None) -> None:
        tr = self.tracer
        traced = tr.enabled
        if traced:
            tr.begin("flat.begin_step", "backend", build=self.build_path)
        self.tree = tree if tree is not None \
            else self._build_tree(root, box, bodies)
        # body-side arrays are shared by every thread group of the step
        self._prepared = prepare_bodies(bodies.pos, bodies.mass)
        nbytes = self.tree.nbytes
        self.tree_nbytes_per_step.append(nbytes)
        if traced:
            tr.end(tree_cells=self.tree.ncells, tree_nbytes=nbytes)

    def accelerations(self, body_idx: np.ndarray,
                      bodies: BodySoA) -> ForceResult:
        if self.tree is None:
            raise RuntimeError(
                "FlatBackend.accelerations called before begin_step; the "
                "per-step tree has not been built")
        tr = self.tracer
        traced = tr.enabled
        if traced:
            tr.begin("flat.accelerations", "backend", nbodies=len(body_idx))
        acc, work, counters = flat_gravity(
            self.tree, body_idx, bodies.pos, bodies.mass,
            self.cfg.theta, self.cfg.eps,
            open_self_cells=self.cfg.open_self_cells,
            prepared=self._prepared,
            tracer=tr if traced else None,
        )
        if traced:
            tr.end(interactions=float(work.sum()), **counters)
        return ForceResult(acc=acc, work=work, counters=counters)
