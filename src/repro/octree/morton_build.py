"""Vectorized Morton-direct :class:`~repro.octree.flat.FlatTree` construction.

The insertion builder (:mod:`repro.octree.build`) descends the tree once per
body in Python; at n = 16k that per-body loop plus :meth:`FlatTree.from_cell`
flattening dominates the step when the flat traversal does the forces.  This
module builds the *identical* tree directly in CSR form from sorted octant
keys -- the sorted-key domain decomposition of Ferrell & Bertschinger
(astro-ph/9503042), which is also the construction extreme-scale
key-indexed SoA tree codes use (Iwasawa et al., arXiv:1907.02289).  No
``Cell``/``Leaf`` objects exist on this path at all.

The algorithm:

1. **Keys.** :func:`octant_keys` derives each body's 21 octant digits with
   the *same chained-midpoint float arithmetic* the insertion builder uses
   (``p > center`` per axis, child center = parent center +- size/4), packed
   most-significant-first into an int64.  Quantized Morton keys
   (:func:`repro.octree.morton.morton_keys`) encode the same digits but via
   one global scale-and-truncate, which can disagree with the recursive
   midpoint tests within a few ulps of a cell boundary; deriving the digits
   from the midpoint comparisons themselves makes the resulting tree
   *structurally identical by construction*, not just almost always.
2. **Sort.** One ``argsort`` makes every cell of every level a contiguous
   run of the sorted order (a key prefix = a cell).
3. **Levels.** Per level, one round of whole-array ops finds the run
   boundaries (``(group, digit)`` changes between neighbours), classifies
   each run (singleton -> leaf, multi-body -> child cell, multi-body at
   ``MAX_DEPTH`` -> bucket leaf), and emits the level's ``child`` rows,
   centers, and leaf spans.  Runs deeper than the 21 packed digits (bodies
   closer than ~rsize / 2^21 -- near-coincident clusters) continue with
   freshly computed comparison digits until ``MAX_DEPTH``.
4. **Aggregate.** Masses, centers of mass, body counts, and costs are
   filled bottom-up level by level with masked segment sums, folding each
   cell's eight slots in ascending order -- the same association order as
   :func:`repro.octree.cofm.compute_cofm`, so the float results are
   bit-identical on bucket-free trees.

Cell rows come out level-major in ``(parent row, octant)`` scan order and
leaf ids in the same scan order, which is exactly the BFS order
:meth:`FlatTree.from_cell` produces -- on bucket-free inputs the two
builders return byte-identical arrays (buckets only reorder near-coincident
bodies' summation, which the parity tests bound at float64 round-off).

:class:`MortonBuildState` carries per-step build state across steps.  At
its lightest (``BHConfig(flat_build_reuse_order=True)``) it holds only the
previous sorted order so the next build stable-sorts an almost sorted key
sequence.  With ``keep_structure`` set it additionally snapshots the sorted
key array, the built tree, and per-level sorted-span tables, which is what
:func:`build_flat_tree_incremental` (``BHConfig(flat_build="incremental")``)
diffs against: consecutive key arrays are compared to classify octant runs
as *clean* (same members, same sorted order, every member's key unchanged
down to its old leaf depth) or *dirty*; clean runs' CSR rows, centers, and
leaf spans are spliced verbatim from the previous tree while only dirty
runs re-run the per-level machinery, and aggregates are recomputed
bottom-up so the output is byte-identical to a fresh build over the same
root box.  The state is only meaningful for one body set advancing in time
-- call :meth:`MortonBuildState.reset` when retargeting a builder (it bumps
the generation tag that guards against silently sorting with another body
set's carried order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..nbody.bbox import RootBox
from .cell import MAX_DEPTH, NSUB
from .flat import EMPTY, FlatTree, _ranges, decode_leaf, encode_leaf

#: octant digits packed into one int64 key (3 * 21 = 63 bits)
KEY_LEVELS = 21

#: span category for build-phase telemetry (see :mod:`repro.obs.trace`)
CAT_BUILD = "build"


def octant_keys(positions: np.ndarray, box: RootBox,
                levels: int = KEY_LEVELS) -> np.ndarray:
    """Packed octant-digit keys, bit-identical to the insertion builder.

    Digit ``d`` (most significant first) is the octant index body ``i``
    takes at tree depth ``d``:  ``(px > cx) | (py > cy) << 1 | (pz > cz)
    << 2`` against the chained midpoint ``c`` -- the exact comparisons and
    float updates :func:`repro.octree.build.insert` performs, vectorized
    over all bodies.  Sorting by these keys therefore sorts bodies into
    the in-order (Morton) leaf sequence of the insertion-built octree.
    """
    pos = np.asarray(positions, dtype=np.float64)
    n = len(pos)
    px = np.ascontiguousarray(pos[:, 0])
    py = np.ascontiguousarray(pos[:, 1])
    pz = np.ascontiguousarray(pos[:, 2])
    cx = np.full(n, float(box.center[0]))
    cy = np.full(n, float(box.center[1]))
    cz = np.full(n, float(box.center[2]))
    size = float(box.rsize)
    keys = np.zeros(n, dtype=np.int64)
    for _ in range(levels):
        q = size / 4.0
        bx = px > cx
        by = py > cy
        bz = pz > cz
        dig = bx.astype(np.int64)
        dig |= by.astype(np.int64) << 1
        dig |= bz.astype(np.int64) << 2
        keys <<= 3
        keys |= dig
        cx = cx + np.where(bx, q, -q)
        cy = cy + np.where(by, q, -q)
        cz = cz + np.where(bz, q, -q)
        size /= 2.0
    return keys


@dataclass
class MortonBuildState:
    """Carry-over between successive builds of one simulation.

    ``order`` is the previous step's sorted body order.  Feeding it back
    makes the next sort run over nearly sorted keys (bodies rarely change
    their key prefix in one time-step), which numpy's stable timsort
    handles in near-linear time -- the first rung of the incremental
    rebuild ladder.  Note the tie order among *identical* keys then
    follows the previous step's order rather than ascending body index,
    so bucket leaves may list near-coincident bodies in a different
    (roundoff-equivalent) order than a fresh build.

    With ``keep_structure`` set (the incremental path does this), each
    build additionally snapshots everything the next step needs to splice
    unchanged subtrees verbatim: the sorted key array, the sorted body
    ids, the exact root-box floats, the finished :class:`FlatTree`, and
    per-level CSR row / leaf-id spans keyed by sorted-array position.

    Validity is governed by ``generation``: :meth:`reset` bumps it and
    clears every carried array.  A backend MUST call :meth:`reset`
    whenever the body set it serves changes identity (a new run, a
    restarted simulation, a permuted body array) -- carried-over state is
    only meaningful for *the same bodies advancing in time*.  The sorted
    order is additionally stamped with ``(generation, n)`` at store time
    and reused only when the stamp still matches, so stale state can
    never leak across a reset even if fields are assigned by hand.
    """

    order: Optional[np.ndarray] = None
    #: epoch tag; bumped by :meth:`reset` to invalidate carried state
    generation: int = 0
    #: ``(generation, n)`` recorded when ``order`` was stored
    order_stamp: "tuple[int, int]" = (-1, -1)
    #: snapshot structure spans for the incremental splice path
    keep_structure: bool = False

    # -- structure snapshot (populated when ``keep_structure``) ----------
    n: int = -1
    box_center: Optional[np.ndarray] = None
    box_rsize: float = 0.0
    sorted_keys: Optional[np.ndarray] = None   # keys[order] of last build
    sorted_bodies: Optional[np.ndarray] = None  # order of last build
    tree: Optional["FlatTree"] = None
    #: per build-iteration ``d``: sorted-array start positions of the
    #: cells created at level ``d + 1`` (ascending = CSR row scan order)
    level_cell_starts: Optional[List[np.ndarray]] = None
    #: per iteration ``d``: start positions of the leaves at level ``d+1``
    level_leaf_starts: Optional[List[np.ndarray]] = None
    #: per iteration ``d``: global row of the first level-``d+1`` cell
    level_cell_base: Optional[List[int]] = None
    #: per iteration ``d``: global id of the first level-``d+1`` leaf
    level_leaf_base: Optional[List[int]] = None
    #: reuse telemetry of the most recent incremental build
    last_reuse: Optional[dict] = None

    def consistent(self) -> bool:
        """Whether the carried structure snapshot is internally coherent.

        The splice path indexes the previous sorted key/body arrays by
        positions derived from ``n``; a snapshot whose arrays do not all
        cover ``n`` sorted positions (state damage, partial hand
        assignment) would crash or splice garbage, so
        :func:`_incremental_usable` demands coherence and the builder
        falls back to one fresh, snapshot-re-seeding build instead.
        """
        if (self.sorted_keys is None or self.sorted_bodies is None
                or self.tree is None or self.level_cell_starts is None
                or self.level_leaf_starts is None
                or self.level_cell_base is None
                or self.level_leaf_base is None):
            return False
        return (len(self.sorted_keys) == self.n
                and len(self.sorted_bodies) == self.n)

    def reset(self) -> None:
        """Invalidate all carried state (new run / new body set / resize)."""
        self.generation += 1
        self.order = None
        self.order_stamp = (-1, -1)
        self.n = -1
        self.box_center = None
        self.box_rsize = 0.0
        self.sorted_keys = None
        self.sorted_bodies = None
        self.tree = None
        self.level_cell_starts = None
        self.level_leaf_starts = None
        self.level_cell_base = None
        self.level_leaf_base = None
        self.last_reuse = None


def _sorted_order(keys: np.ndarray, state: Optional[MortonBuildState]
                  ) -> "tuple[np.ndarray, bool]":
    """Stable sorted order of ``keys``; reuses ``state.order`` when valid.

    Validity requires the carried order to match the current body count
    *and* carry the stamp of the state's current generation -- a bare
    length check would silently adopt another body set's tie order (see
    :meth:`MortonBuildState.reset`).
    """
    n = len(keys)
    prev = state.order if state is not None else None
    reused = (prev is not None and len(prev) == n
              and state.order_stamp == (state.generation, n))
    if reused:
        order = prev[np.argsort(keys[prev], kind="stable")]
    else:
        order = np.argsort(keys, kind="stable")
    if state is not None:
        state.order = order
        state.order_stamp = (state.generation, n)
    return order, reused


def shared_digits(xor: np.ndarray) -> np.ndarray:
    """Leading octant digits two packed keys share, given their XOR.

    Identical keys (``xor == 0``) share all ``KEY_LEVELS`` digits.
    """
    shared = np.full(len(xor), KEY_LEVELS, dtype=np.int64)
    nz = xor != 0
    xv = xor[nz]
    # exact floor(log2): the float approximation can land one too high
    # when xv rounds up across a power of two, so correct it
    b = np.log2(xv.astype(np.float64)).astype(np.int64)
    b -= ((np.uint64(1) << b.astype(np.uint64)) > xv.astype(np.uint64)
          ).astype(np.int64)
    # digit 0 occupies bits 62..60, so the first difference at bit ``b``
    # leaves (62 - b) // 3 leading digits shared
    shared[nz] = (62 - b) // 3
    return shared


def _leaf_depths(sorted_keys: np.ndarray) -> np.ndarray:
    """Leaf depth per sorted position, derived from key neighbour LCPs.

    A body's leaf depth in the built tree is one below the deepest cell
    it shares with any other body, i.e. ``max(lcp with left neighbour,
    lcp with right neighbour) + 1`` in 3-bit digits.  Values above
    ``KEY_LEVELS`` flag *deep* bodies -- key-identical near-coincident
    clusters whose true depth the packed digits cannot resolve (bucket
    candidates); the incremental classifier treats those as unstable.
    """
    n = len(sorted_keys)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if n == 1:
        return np.ones(1, dtype=np.int64)
    x = sorted_keys[1:] ^ sorted_keys[:-1]
    shared = shared_digits(x)
    shared[x == 0] = KEY_LEVELS + 9  # identical keys: force "deep"
    ld = np.zeros(n, dtype=np.int64)
    ld[:-1] = shared
    np.maximum(ld[1:], shared, out=ld[1:])
    return ld + 1


def build_flat_tree(positions: np.ndarray, masses: np.ndarray,
                    box: RootBox, costs: Optional[np.ndarray] = None,
                    tracer=None,
                    state: Optional[MortonBuildState] = None) -> FlatTree:
    """Construct a :class:`FlatTree` directly from sorted octant keys.

    Produces the same tree as ``build_tree`` + ``compute_cofm`` +
    ``FlatTree.from_cell`` (byte-identical arrays on bucket-free inputs;
    float64-roundoff-equivalent when near-coincident bodies share bucket
    leaves) without creating a single ``Cell`` object.  ``home`` is left 0
    everywhere -- thread affinity is a property of the simulated insertion
    build, not of the tree.

    The returned tree keeps the octant ``keys`` (body-index order) and
    the sorted body ``order`` the build computed, so callers that need
    the key-sorted view of the same bodies (the subspace variant's
    emulated-cost accounting) do not recompute it.

    ``tracer`` (a :class:`repro.obs.trace.Tracer`, or ``None``) records
    ``build``-category spans for the key, sort, per-level structure, and
    aggregation stages.  ``state`` opts into sorted-order reuse across
    steps (see :class:`MortonBuildState`).
    """
    if tracer is not None and not tracer.enabled:
        tracer = None
    pos = np.asarray(positions, dtype=np.float64)
    masses = np.asarray(masses, dtype=np.float64)
    n = len(pos)

    if tracer is not None:
        tracer.begin("morton.keys", CAT_BUILD, nbodies=n)
    keys = octant_keys(pos, box)
    if tracer is not None:
        tracer.end()
        tracer.begin("morton.sort", CAT_BUILD)
    order, reused = _sorted_order(keys, state)
    if tracer is not None:
        tracer.end(reused_order=reused)

    # ---- structure, level by level ----------------------------------- #
    # Active state at depth d: ``abod`` -- body ids of every cell at this
    # depth, concatenated cell-major (within a cell: key-sorted); ``glen``
    # -- bodies per cell; ``gcx/gcy/gcz`` -- cell centers, chained from
    # the root exactly like Cell.child_center.
    rsize = float(box.rsize)
    cenx_levels: List[np.ndarray] = [np.array([float(box.center[0])])]
    ceny_levels: List[np.ndarray] = [np.array([float(box.center[1])])]
    cenz_levels: List[np.ndarray] = [np.array([float(box.center[2])])]
    size_levels: List[float] = [rsize]
    level_counts: List[int] = [1]
    child_levels: List[np.ndarray] = []
    leaf_chunks: List[np.ndarray] = []
    leaf_count_chunks: List[np.ndarray] = []

    # with keep_structure, track each body's position in the full sorted
    # array (``apos``) so cell/leaf runs can be located next step, and
    # record the per-iteration span tables the splice path consumes
    record = state is not None and state.keep_structure
    rec_cell_starts: List[np.ndarray] = []
    rec_leaf_starts: List[np.ndarray] = []
    rec_cell_base: List[int] = []
    rec_leaf_base: List[int] = []
    apos = np.arange(n, dtype=np.int64) if record else None

    abod = order
    glen = np.array([n], dtype=np.int64)
    gcx, gcy, gcz = cenx_levels[0], ceny_levels[0], cenz_levels[0]
    size = rsize
    row_next = 1
    leaf_next = 0
    d = 0
    while glen.size:
        G = glen.size
        A = abod.size
        if tracer is not None:
            tracer.begin("build.level", CAT_BUILD, level=d, cells=G,
                         bodies=A)
        gid = np.repeat(np.arange(G, dtype=np.int64), glen)
        if d < KEY_LEVELS:
            dig = (keys[abod] >> (3 * (KEY_LEVELS - 1 - d))) & 7
        else:
            # past the packed digits (near-coincident clusters): derive
            # the next digit from the midpoint comparisons and restore
            # the cell-major digit ordering the boundary scan expects
            bx = pos[abod, 0] > gcx[gid]
            by = pos[abod, 1] > gcy[gid]
            bz = pos[abod, 2] > gcz[gid]
            dig = bx.astype(np.int64)
            dig |= by.astype(np.int64) << 1
            dig |= bz.astype(np.int64) << 2
            srt = np.argsort(gid * NSUB + dig, kind="stable")
            abod = abod[srt]
            dig = dig[srt]
            if record:
                apos = apos[srt]
        sk = gid * NSUB + dig
        if A:
            brk = np.empty(A, dtype=bool)
            brk[0] = True
            np.not_equal(sk[1:], sk[:-1], out=brk[1:])
            gstart = np.flatnonzero(brk)
        else:
            gstart = np.empty(0, dtype=np.int64)
        gcount = np.diff(np.append(gstart, A))
        pgid = gid[gstart]
        pdig = dig[gstart]
        # an occupied octant becomes a child cell when it holds several
        # bodies and there is depth left; otherwise a (bucket) leaf
        is_cell = (gcount >= 2) & (d < MAX_DEPTH)
        is_leaf = ~is_cell
        if record:
            rec_cell_base.append(row_next)
            rec_leaf_base.append(leaf_next)
            rec_cell_starts.append(apos[gstart[is_cell]])
            rec_leaf_starts.append(apos[gstart[is_leaf]])
        ncell_new = int(is_cell.sum())
        nleaf_new = len(gcount) - ncell_new
        childlvl = np.full((G, NSUB), EMPTY, dtype=np.int64)
        childlvl[pgid[is_cell], pdig[is_cell]] = (
            row_next + np.arange(ncell_new, dtype=np.int64))
        childlvl[pgid[is_leaf], pdig[is_leaf]] = encode_leaf(
            leaf_next + np.arange(nleaf_new, dtype=np.int64))
        child_levels.append(childlvl)
        gix = np.repeat(np.arange(len(gcount), dtype=np.int64), gcount)
        body_in_cell = is_cell[gix]
        leaf_chunks.append(abod[~body_in_cell])
        leaf_count_chunks.append(gcount[is_leaf])
        row_next += ncell_new
        leaf_next += nleaf_new
        # next level: surviving runs become cells one level down
        q = size / 4.0
        pc = pgid[is_cell]
        pd = pdig[is_cell]
        gcx = gcx[pc] + np.where(pd & 1, q, -q)
        gcy = gcy[pc] + np.where(pd & 2, q, -q)
        gcz = gcz[pc] + np.where(pd & 4, q, -q)
        abod = abod[body_in_cell]
        if record:
            apos = apos[body_in_cell]
        glen = gcount[is_cell]
        size /= 2.0
        d += 1
        if tracer is not None:
            tracer.end(new_cells=ncell_new, new_leaves=nleaf_new)
        if glen.size:
            cenx_levels.append(gcx)
            ceny_levels.append(gcy)
            cenz_levels.append(gcz)
            size_levels.append(size)
            level_counts.append(int(glen.size))

    C = row_next
    child = np.concatenate(child_levels, axis=0)
    centerx = np.concatenate(cenx_levels)
    centery = np.concatenate(ceny_levels)
    centerz = np.concatenate(cenz_levels)
    sizes = np.concatenate(
        [np.full(c, s) for c, s in zip(level_counts, size_levels)])
    counts = np.concatenate(leaf_count_chunks) if leaf_count_chunks \
        else np.empty(0, dtype=np.int64)
    leaf_ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=leaf_ptr[1:])
    leaf_bodies = np.concatenate(leaf_chunks) if leaf_chunks \
        else np.empty(0, dtype=np.int64)

    mass, cofm, nbodies, cost = _aggregate(
        child, level_counts, centerx, centery, centerz,
        counts, leaf_ptr, leaf_bodies, pos, masses, costs, tracer)

    tree = FlatTree(
        center=np.stack([centerx, centery, centerz], axis=1),
        size=sizes,
        mass=mass,
        cofm=cofm,
        nbodies=nbodies,
        cost=cost,
        home=np.zeros(C, dtype=np.int32),
        child=child,
        leaf_ptr=leaf_ptr,
        leaf_bodies=leaf_bodies,
        keys=keys,
        order=order,
    )
    if record:
        _snapshot_state(state, tree, keys, order, box, n,
                        rec_cell_starts, rec_leaf_starts,
                        rec_cell_base, rec_leaf_base)
    return tree


def _snapshot_state(state: MortonBuildState, tree: FlatTree,
                    keys: np.ndarray, order: np.ndarray, box: RootBox,
                    n: int, cell_starts: "List[np.ndarray]",
                    leaf_starts: "List[np.ndarray]",
                    cell_base: "List[int]", leaf_base: "List[int]") -> None:
    """Record the structure spans the next incremental build splices from."""
    state.n = n
    state.box_center = np.asarray(box.center, dtype=np.float64).copy()
    state.box_rsize = float(box.rsize)
    state.sorted_keys = keys[order]
    state.sorted_bodies = order
    state.tree = tree
    state.level_cell_starts = cell_starts
    state.level_leaf_starts = leaf_starts
    state.level_cell_base = cell_base
    state.level_leaf_base = leaf_base


def _aggregate(child: np.ndarray, level_counts: "List[int]",
               centerx: np.ndarray, centery: np.ndarray,
               centerz: np.ndarray, counts: np.ndarray,
               leaf_ptr: np.ndarray, leaf_bodies: np.ndarray,
               pos: np.ndarray, masses: np.ndarray,
               costs: Optional[np.ndarray], tracer
               ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Bottom-up mass / c-of-m / counts / cost over finished structure.

    Shared verbatim by the fresh and incremental paths: identical
    structure arrays in, bit-identical aggregates out.
    """
    C = len(centerx)
    if tracer is not None:
        tracer.begin("morton.aggregate", CAT_BUILD, cells=C,
                     leaves=len(counts))
    mass = np.zeros(C)
    cofmx = np.zeros(C)
    cofmy = np.zeros(C)
    cofmz = np.zeros(C)
    nbodies = np.zeros(C, dtype=np.int64)
    cost = np.zeros(C)
    L = len(counts)
    if L:
        lb = leaf_bodies
        lm = masses[lb]
        starts = leaf_ptr[:-1]
        leaf_mass = np.add.reduceat(lm, starts)
        leaf_mx = np.add.reduceat(lm * pos[lb, 0], starts)
        leaf_my = np.add.reduceat(lm * pos[lb, 1], starts)
        leaf_mz = np.add.reduceat(lm * pos[lb, 2], starts)
        leaf_cost = np.add.reduceat(
            np.asarray(costs, dtype=np.float64)[lb], starts) \
            if costs is not None else None
    base = np.concatenate([[0], np.cumsum(level_counts)])
    for lvl in range(len(level_counts) - 1, -1, -1):
        r0, r1 = int(base[lvl]), int(base[lvl + 1])
        ch = child[r0:r1]
        g = r1 - r0
        am = np.zeros(g)
        ax = np.zeros(g)
        ay = np.zeros(g)
        az = np.zeros(g)
        anb = np.zeros(g, dtype=np.int64)
        ac = np.zeros(g)
        # fold the eight slots in ascending order -- the association
        # order of compute_cofm, for bit-equal floats
        for s in range(NSUB):
            v = ch[:, s]
            cm = v >= 0
            if cm.any():
                rows = v[cm]
                m = mass[rows]
                am[cm] += m
                ax[cm] += m * cofmx[rows]
                ay[cm] += m * cofmy[rows]
                az[cm] += m * cofmz[rows]
                anb[cm] += nbodies[rows]
                ac[cm] += cost[rows]
            lmask = v <= -2
            if lmask.any():
                lids = decode_leaf(v[lmask])
                am[lmask] += leaf_mass[lids]
                ax[lmask] += leaf_mx[lids]
                ay[lmask] += leaf_my[lids]
                az[lmask] += leaf_mz[lids]
                anb[lmask] += counts[lids]
                if leaf_cost is not None:
                    ac[lmask] += leaf_cost[lids]
        mass[r0:r1] = am
        occupied = am > 0
        denom = np.where(occupied, am, 1.0)
        cofmx[r0:r1] = np.where(occupied, ax / denom, centerx[r0:r1])
        cofmy[r0:r1] = np.where(occupied, ay / denom, centery[r0:r1])
        cofmz[r0:r1] = np.where(occupied, az / denom, centerz[r0:r1])
        nbodies[r0:r1] = anb
        cost[r0:r1] = ac
    if tracer is not None:
        tracer.end()
    return mass, np.stack([cofmx, cofmy, cofmz], axis=1), nbodies, cost


#: child-slot namespace for frozen-subtree roots inside the incremental
#: level loop (local encodings are remapped to real rows at assembly)
_FROZEN_MARK = np.int64(1) << 40


def _no_reuse_stats(fresh_fallback: bool = True) -> dict:
    return {"fresh_fallback": fresh_fallback, "reused_subtrees": 0,
            "reused_cell_rows": 0, "total_cell_rows": 0,
            "reused_leaf_rows": 0, "total_leaf_rows": 0,
            "reused_subtree_fraction": 0.0, "reused_row_fraction": 0.0,
            "stable_fraction": 0.0}


def _incremental_usable(state: MortonBuildState, box: RootBox,
                        n: int) -> bool:
    """Whether the carried snapshot can seed an incremental build.

    Two steps' key arrays are only comparable when derived from the
    *bit-identical* root box over the same ``n`` bodies; any mismatch
    (first step, post-reset, resized body set, re-centred box, damaged
    snapshot -- see :meth:`MortonBuildState.consistent`) falls back to a
    fresh build -- which re-seeds the snapshot.
    """
    return (state.n == n
            and state.consistent()
            and state.box_center is not None
            and state.box_rsize == float(box.rsize)
            and bool(np.array_equal(
                state.box_center,
                np.asarray(box.center, dtype=np.float64))))


def build_flat_tree_incremental(
        positions: np.ndarray, masses: np.ndarray, box: RootBox,
        costs: Optional[np.ndarray] = None, tracer=None,
        state: Optional[MortonBuildState] = None,
        reuse_depth: int = KEY_LEVELS) -> FlatTree:
    """Incremental Morton rebuild: splice unchanged subtrees, rebuild dirty.

    Produces arrays **byte-identical** to :func:`build_flat_tree` over the
    same positions and box, but reuses the previous step's work: octant
    runs whose membership *and* per-body key prefixes (down to each
    body's previous leaf depth) are unchanged are classified *clean*, and
    their entire subtree -- CSR child rows, centers, leaf spans and leaf
    body lists -- is spliced verbatim from the previous
    :class:`FlatTree`; only dirty runs descend through the per-level
    machinery.  Classification recurses into the sub-runs of dirty runs
    down to ``reuse_depth`` digits.

    Mass/c-of-m/cost aggregates are *not* spliced: bodies move every
    step even when the structure does not, so the bottom-up aggregation
    always reruns over current positions -- over identical structure it
    is bit-identical to a fresh build, which is what keeps incremental
    force parity at exactly zero.

    A clean run is one where (a) the previous sorted key array contains a
    same-sized run of the same prefix, (b) the sorted body-id sequences
    match, and (c) every member body kept its key digits down to its old
    leaf depth ("stable"; bodies beyond the packed digits -- bucket
    candidates -- are never stable).  (a)-(c) imply the old and new
    subtrees are structurally identical cell by cell, leaf by leaf.

    ``state`` is required and must be the same object across steps; call
    :meth:`MortonBuildState.reset` when the body set changes.  Reuse
    telemetry lands in ``state.last_reuse`` and on a ``build.reuse``
    span.
    """
    if state is None:
        raise ValueError(
            "build_flat_tree_incremental requires a MortonBuildState "
            "carried across steps")
    state.keep_structure = True
    if tracer is not None and not tracer.enabled:
        tracer = None
    pos = np.asarray(positions, dtype=np.float64)
    masses = np.asarray(masses, dtype=np.float64)
    n = len(pos)
    if n == 0 or not _incremental_usable(state, box, n):
        tree = build_flat_tree(pos, masses, box, costs=costs,
                               tracer=tracer, state=state)
        state.last_reuse = _no_reuse_stats()
        if tracer is not None:
            tracer.begin("build.reuse", CAT_BUILD)
            tracer.end(**state.last_reuse)
        return tree

    prev_sk = state.sorted_keys
    prev_sb = state.sorted_bodies
    old_tree = state.tree
    old_cell_starts = state.level_cell_starts
    old_leaf_starts = state.level_leaf_starts
    old_cell_base = state.level_cell_base
    old_leaf_base = state.level_leaf_base

    if tracer is not None:
        tracer.begin("morton.keys", CAT_BUILD, nbodies=n)
    keys = octant_keys(pos, box)
    if tracer is not None:
        tracer.end()
        tracer.begin("morton.sort", CAT_BUILD)
    order, reused = _sorted_order(keys, state)
    if tracer is not None:
        tracer.end(reused_order=reused)

    # ---- per-body stability vs the previous step --------------------- #
    if tracer is not None:
        tracer.begin("build.classify", CAT_BUILD)
    sk = keys[order]
    old_ld = np.empty(n, dtype=np.int64)
    old_ld[prev_sb] = _leaf_depths(prev_sk)
    old_keys = np.empty(n, dtype=np.int64)
    old_keys[prev_sb] = prev_sk
    deep = old_ld > KEY_LEVELS
    need = np.minimum(old_ld, KEY_LEVELS)
    stable = ((keys ^ old_keys) >> (3 * (KEY_LEVELS - need)) == 0) & ~deep
    cumstable = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(stable[order], out=cumstable[1:])
    if tracer is not None:
        tracer.end(stable_fraction=float(stable.mean()))

    # ---- level loop with freeze-as-you-go classification ------------- #
    rsize = float(box.rsize)
    depth_cap = max(1, min(int(reuse_depth), KEY_LEVELS))
    fresh_cenx: List[np.ndarray] = [np.array([float(box.center[0])])]
    fresh_ceny: List[np.ndarray] = [np.array([float(box.center[1])])]
    fresh_cenz: List[np.ndarray] = [np.array([float(box.center[2])])]
    fresh_cell_starts: List[np.ndarray] = [np.zeros(1, dtype=np.int64)]
    fresh_child: List[np.ndarray] = []
    fresh_leaf_starts: List[np.ndarray] = []
    fresh_leaf_counts: List[np.ndarray] = []
    fresh_leaf_bodies: List[np.ndarray] = []
    seg_level: List[np.ndarray] = []
    seg_new_start: List[np.ndarray] = []
    seg_count: List[np.ndarray] = []
    seg_old_start: List[np.ndarray] = []
    seg_total = 0

    abod = order
    apos = np.arange(n, dtype=np.int64)
    glen = np.array([n], dtype=np.int64)
    gcx, gcy, gcz = fresh_cenx[0], fresh_ceny[0], fresh_cenz[0]
    size = rsize
    d = 0
    while glen.size:
        G = glen.size
        A = abod.size
        if tracer is not None:
            tracer.begin("build.level", CAT_BUILD, level=d, cells=G,
                         bodies=A)
        gid = np.repeat(np.arange(G, dtype=np.int64), glen)
        if d < KEY_LEVELS:
            dig = (keys[abod] >> (3 * (KEY_LEVELS - 1 - d))) & 7
        else:
            bx = pos[abod, 0] > gcx[gid]
            by = pos[abod, 1] > gcy[gid]
            bz = pos[abod, 2] > gcz[gid]
            dig = bx.astype(np.int64)
            dig |= by.astype(np.int64) << 1
            dig |= bz.astype(np.int64) << 2
            srt = np.argsort(gid * NSUB + dig, kind="stable")
            abod = abod[srt]
            apos = apos[srt]
            dig = dig[srt]
        sk_run = gid * NSUB + dig
        if A:
            brk = np.empty(A, dtype=bool)
            brk[0] = True
            np.not_equal(sk_run[1:], sk_run[:-1], out=brk[1:])
            gstart = np.flatnonzero(brk)
        else:
            gstart = np.empty(0, dtype=np.int64)
        gcount = np.diff(np.append(gstart, A))
        pgid = gid[gstart]
        pdig = dig[gstart]
        is_cell = (gcount >= 2) & (d < MAX_DEPTH)

        # classify candidate child cells (depth d + 1) as clean/dirty
        frozen = np.zeros(len(gcount), dtype=bool)
        if d < depth_cap and d < len(old_cell_starts) and is_cell.any():
            cand = np.flatnonzero(is_cell)
            a = apos[gstart[cand]]
            cnt = gcount[cand]
            # (c) every member stable
            ok = (cumstable[a + cnt] - cumstable[a]) == cnt
            # (a) previous step has a same-sized run of this prefix
            shift = 3 * (KEY_LEVELS - (d + 1))
            pk = sk[a] >> shift
            po = prev_sk >> shift
            a2 = np.searchsorted(po, pk, side="left")
            ok &= (np.searchsorted(po, pk, side="right") - a2) == cnt
            if ok.any():
                # (b) identical sorted body-id sequences
                oki = np.flatnonzero(ok)
                lens = cnt[oki]
                bnd = np.zeros(len(lens), dtype=np.int64)
                np.cumsum(lens[:-1], out=bnd[1:])
                eq = order[_ranges(a[oki], lens)] \
                    == prev_sb[_ranges(a2[oki], lens)]
                good = oki[np.logical_and.reduceat(eq, bnd)]
                if len(good):
                    frozen[cand[good]] = True
                    seg_level.append(np.full(len(good), d + 1,
                                             dtype=np.int64))
                    seg_new_start.append(a[good])
                    seg_count.append(cnt[good])
                    seg_old_start.append(a2[good])

        descend = is_cell & ~frozen
        is_leaf = ~is_cell
        ncell_new = int(descend.sum())
        nleaf_new = int(is_leaf.sum())
        nfro = int(frozen.sum())
        # local encodings, remapped at assembly: child cells count from 0
        # per level, leaves likewise, frozen roots live at _FROZEN_MARK+
        childlvl = np.full((G, NSUB), EMPTY, dtype=np.int64)
        childlvl[pgid[descend], pdig[descend]] = np.arange(
            ncell_new, dtype=np.int64)
        childlvl[pgid[is_leaf], pdig[is_leaf]] = encode_leaf(
            np.arange(nleaf_new, dtype=np.int64))
        if nfro:
            childlvl[pgid[frozen], pdig[frozen]] = _FROZEN_MARK \
                + seg_total + np.arange(nfro, dtype=np.int64)
            seg_total += nfro
        fresh_child.append(childlvl)
        gix = np.repeat(np.arange(len(gcount), dtype=np.int64), gcount)
        in_descend = descend[gix]
        fresh_leaf_starts.append(apos[gstart[is_leaf]])
        fresh_leaf_counts.append(gcount[is_leaf])
        fresh_leaf_bodies.append(abod[is_leaf[gix]])
        q = size / 4.0
        pc = pgid[descend]
        pd = pdig[descend]
        nxx = gcx[pc] + np.where(pd & 1, q, -q)
        nxy = gcy[pc] + np.where(pd & 2, q, -q)
        nxz = gcz[pc] + np.where(pd & 4, q, -q)
        new_starts = apos[gstart[descend]]
        abod = abod[in_descend]
        apos = apos[in_descend]
        glen = gcount[descend]
        size /= 2.0
        d += 1
        if tracer is not None:
            tracer.end(new_cells=ncell_new, new_leaves=nleaf_new,
                       frozen_runs=nfro)
        if glen.size:
            gcx, gcy, gcz = nxx, nxy, nxz
            fresh_cenx.append(nxx)
            fresh_ceny.append(nxy)
            fresh_cenz.append(nxz)
            fresh_cell_starts.append(new_starts)

    tree = _splice_assemble(
        pos, masses, costs, box, keys, order, tracer, state,
        fresh_cenx, fresh_ceny, fresh_cenz, fresh_cell_starts,
        fresh_child, fresh_leaf_starts, fresh_leaf_counts,
        fresh_leaf_bodies, seg_level, seg_new_start, seg_count,
        seg_old_start, old_tree, old_cell_starts, old_leaf_starts,
        old_cell_base, old_leaf_base, float(stable.mean()))
    return tree


def _splice_assemble(pos, masses, costs, box, keys, order, tracer,
                     state, fresh_cenx, fresh_ceny, fresh_cenz,
                     fresh_cell_starts, fresh_child, fresh_leaf_starts,
                     fresh_leaf_counts, fresh_leaf_bodies, seg_level,
                     seg_new_start, seg_count, seg_old_start, old_tree,
                     old_cell_starts, old_leaf_starts, old_cell_base,
                     old_leaf_base, stable_fraction) -> FlatTree:
    """Merge freshly built runs with spliced clean subtrees into a tree.

    Every level's cells (and leaves) are a set of disjoint sorted-array
    intervals: individual fresh runs plus, per frozen segment, one
    contiguous block of the old tree's rows shifted by a constant
    position delta.  Sorting the intervals by start position reproduces
    the (parent row, octant) scan order of a fresh build exactly, so row
    and leaf-id assignment -- and therefore every output array -- is
    byte-identical to :func:`build_flat_tree`.
    """
    n = len(pos)
    rsize = float(box.rsize)
    empty_i = np.empty(0, dtype=np.int64)
    if seg_level:
        sL = np.concatenate(seg_level)
        sNS = np.concatenate(seg_new_start)
        sCT = np.concatenate(seg_count)
        sOS = np.concatenate(seg_old_start)
    else:
        sL = sNS = sCT = sOS = empty_i
    nseg = len(sL)
    dpos = sNS - sOS
    old_lp = old_tree.leaf_ptr
    old_counts = np.diff(old_lp)
    old_nlev = len(old_cell_starts)
    n_fresh_lev = len(fresh_cell_starts)
    LCAP = max(len(fresh_child), old_nlev if nseg else 0)

    # ---- pass 1: merge layout per level ------------------------------ #
    lev_rows = [1]
    row_base = [0, 1]
    rowmap_fresh: List[np.ndarray] = [np.zeros(1, dtype=np.int64)]
    leafmap_fresh: List[np.ndarray] = [empty_i]
    leaf_base_new = [0, 0]
    cen_levels = [(fresh_cenx[0], fresh_ceny[0], fresh_cenz[0])]
    starts_levels: List[np.ndarray] = [np.zeros(1, dtype=np.int64)]
    leaf_counts_levels: List[np.ndarray] = [empty_i]
    leaf_starts_levels: List[np.ndarray] = [empty_i]
    leaf_bodies_levels: List[np.ndarray] = [empty_i]
    splice_info: List[Optional[tuple]] = [None]
    seg_dcell = np.zeros((max(nseg, 1), LCAP + 2), dtype=np.int64)
    seg_dleaf = np.zeros((max(nseg, 1), LCAP + 2), dtype=np.int64)
    seg_root_row = np.zeros(max(nseg, 1), dtype=np.int64)
    reused_cells = 0
    reused_leaves = 0

    for lev in range(1, LCAP + 1):
        di = lev - 1
        in_old = nseg and di < old_nlev
        act_all = np.flatnonzero(sL <= lev) if in_old else empty_i

        # -- cells at this level -- #
        f_starts = fresh_cell_starts[lev] if lev < n_fresh_lev else empty_i
        F = len(f_starts)
        if len(act_all):
            oc = old_cell_starts[di]
            j0 = np.searchsorted(oc, sOS[act_all])
            j1 = np.searchsorted(oc, sOS[act_all] + sCT[act_all])
            nz = j1 > j0
            act, j0, j1 = act_all[nz], j0[nz], j1[nz]
        else:
            act, j0, j1 = empty_i, empty_i, empty_i
        B = len(act)
        blk_size = j1 - j0
        if B:
            blk_start = oc[j0] + dpos[act]
            old_first_row = old_cell_base[di] + j0
        else:
            blk_start = old_first_row = empty_i
        u_start = np.concatenate([f_starts, blk_start])
        u_size = np.concatenate(
            [np.ones(F, dtype=np.int64), blk_size])
        ordu = np.argsort(u_start, kind="stable")
        loc = np.zeros(len(ordu) + 1, dtype=np.int64)
        np.cumsum(u_size[ordu], out=loc[1:])
        unit_row0 = np.empty(len(ordu), dtype=np.int64)
        unit_row0[ordu] = loc[:-1]
        ncells = int(loc[-1])
        gbase = row_base[lev]
        rowmap_fresh.append(gbase + unit_row0[:F])
        cx_l = np.empty(ncells)
        cy_l = np.empty(ncells)
        cz_l = np.empty(ncells)
        st_l = np.empty(ncells, dtype=np.int64)
        if F:
            lr = unit_row0[:F]
            cx_l[lr] = fresh_cenx[lev]
            cy_l[lr] = fresh_ceny[lev]
            cz_l[lr] = fresh_cenz[lev]
            st_l[lr] = f_starts
        if B:
            blk_row0 = unit_row0[F:]
            seg_dcell[act, lev] = (gbase + blk_row0) - old_first_row
            isroot = sL[act] == lev
            seg_root_row[act[isroot]] = gbase + blk_row0[isroot]
            tgt = _ranges(blk_row0, blk_size)
            src = _ranges(old_first_row, blk_size)
            cx_l[tgt] = old_tree.ctx[src]
            cy_l[tgt] = old_tree.cty[src]
            cz_l[tgt] = old_tree.ctz[src]
            st_l[tgt] = oc[_ranges(j0, blk_size)] \
                + np.repeat(dpos[act], blk_size)
            splice_info.append((act, blk_size, blk_row0, old_first_row))
            reused_cells += int(blk_size.sum())
        else:
            splice_info.append(None)
        cen_levels.append((cx_l, cy_l, cz_l))
        starts_levels.append(st_l)
        lev_rows.append(ncells)
        row_base.append(gbase + ncells)

        # -- leaves at this level -- #
        if di < len(fresh_leaf_starts):
            fl_starts = fresh_leaf_starts[di]
            fl_counts = fresh_leaf_counts[di]
            fl_bodies = fresh_leaf_bodies[di]
        else:
            fl_starts = fl_counts = fl_bodies = empty_i
        FL = len(fl_starts)
        if len(act_all):
            ol = old_leaf_starts[di]
            k0 = np.searchsorted(ol, sOS[act_all])
            k1 = np.searchsorted(ol, sOS[act_all] + sCT[act_all])
            nzl = k1 > k0
            actl, k0, k1 = act_all[nzl], k0[nzl], k1[nzl]
        else:
            actl, k0, k1 = empty_i, empty_i, empty_i
        BL = len(actl)
        lblk_size = k1 - k0
        if BL:
            lblk_start = ol[k0] + dpos[actl]
            old_first_leaf = old_leaf_base[di] + k0
        else:
            lblk_start = old_first_leaf = empty_i
        v_start = np.concatenate([fl_starts, lblk_start])
        v_size = np.concatenate(
            [np.ones(FL, dtype=np.int64), lblk_size])
        ordv = np.argsort(v_start, kind="stable")
        lloc = np.zeros(len(ordv) + 1, dtype=np.int64)
        np.cumsum(v_size[ordv], out=lloc[1:])
        unit_leaf0 = np.empty(len(ordv), dtype=np.int64)
        unit_leaf0[ordv] = lloc[:-1]
        nleaf_l = int(lloc[-1])
        lgbase = leaf_base_new[lev]
        leafmap_fresh.append(lgbase + unit_leaf0[:FL])
        cnts_l = np.empty(nleaf_l, dtype=np.int64)
        lst_l = np.empty(nleaf_l, dtype=np.int64)
        if FL:
            cnts_l[unit_leaf0[:FL]] = fl_counts
            lst_l[unit_leaf0[:FL]] = fl_starts
        if BL:
            lrow0 = unit_leaf0[FL:]
            seg_dleaf[actl, lev] = (lgbase + lrow0) - old_first_leaf
            tgtl = _ranges(lrow0, lblk_size)
            srcl = _ranges(old_first_leaf, lblk_size)
            cnts_l[tgtl] = old_counts[srcl]
            lst_l[tgtl] = ol[_ranges(k0, lblk_size)] \
                + np.repeat(dpos[actl], lblk_size)
            reused_leaves += int(lblk_size.sum())
        boff = np.zeros(nleaf_l + 1, dtype=np.int64)
        np.cumsum(cnts_l, out=boff[1:])
        bod_l = np.empty(int(boff[-1]), dtype=np.int64)
        if FL:
            bod_l[_ranges(boff[unit_leaf0[:FL]], fl_counts)] = fl_bodies
        if BL:
            blk_nbod = old_lp[old_first_leaf + lblk_size] \
                - old_lp[old_first_leaf]
            bod_l[_ranges(boff[unit_leaf0[FL:]], blk_nbod)] = \
                old_tree.leaf_bodies[_ranges(old_lp[old_first_leaf],
                                             blk_nbod)]
        leaf_counts_levels.append(cnts_l)
        leaf_starts_levels.append(lst_l)
        leaf_bodies_levels.append(bod_l)
        leaf_base_new.append(lgbase + nleaf_l)

    # ---- pass 2: child arrays with remapped encodings ---------------- #
    child_levels: List[np.ndarray] = []
    for lev in range(0, LCAP + 1):
        ncl = lev_rows[lev] if lev < len(lev_rows) else 0
        if ncl == 0:
            continue
        ch_l = np.full((ncl, NSUB), EMPTY, dtype=np.int64)
        if lev < len(fresh_child):
            fc = fresh_child[lev].copy()
            mcell = (fc >= 0) & (fc < _FROZEN_MARK)
            mfro = fc >= _FROZEN_MARK
            mleaf = fc <= -2
            if mcell.any():
                fc[mcell] = rowmap_fresh[lev + 1][fc[mcell]]
            if mfro.any():
                fc[mfro] = seg_root_row[fc[mfro] - _FROZEN_MARK]
            if mleaf.any():
                fc[mleaf] = encode_leaf(
                    leafmap_fresh[lev + 1][decode_leaf(fc[mleaf])])
            ch_l[rowmap_fresh[lev] - row_base[lev]] = fc
        info = splice_info[lev] if lev < len(splice_info) else None
        if info is not None:
            act, blk_size, blk_row0, old_first_row = info
            tgt = _ranges(blk_row0, blk_size)
            oc_ch = old_tree.child[_ranges(old_first_row,
                                           blk_size)].copy()
            segrep = np.repeat(act, blk_size)
            mc = oc_ch >= 0
            ml = oc_ch <= -2
            if mc.any():
                dc = np.broadcast_to(
                    seg_dcell[segrep, lev + 1][:, None], oc_ch.shape)
                oc_ch[mc] += dc[mc]
            if ml.any():
                # encode_leaf(id + dl) == encoded - dl
                dl = np.broadcast_to(
                    seg_dleaf[segrep, lev + 1][:, None], oc_ch.shape)
                oc_ch[ml] -= dl[ml]
            ch_l[tgt] = oc_ch
        child_levels.append(ch_l)

    # ---- concatenate + aggregate ------------------------------------- #
    Lc = max(lev for lev in range(len(lev_rows)) if lev_rows[lev] > 0)
    level_counts = lev_rows[:Lc + 1]
    C = int(row_base[Lc + 1])
    child = np.concatenate(child_levels, axis=0)
    centerx = np.concatenate([c[0] for c in cen_levels[:Lc + 1]])
    centery = np.concatenate([c[1] for c in cen_levels[:Lc + 1]])
    centerz = np.concatenate([c[2] for c in cen_levels[:Lc + 1]])
    size_levels = []
    s = rsize
    for _ in range(Lc + 1):
        size_levels.append(s)
        s /= 2.0
    sizes = np.concatenate(
        [np.full(c, s_) for c, s_ in zip(level_counts, size_levels)])
    counts = np.concatenate(leaf_counts_levels)
    leaf_ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=leaf_ptr[1:])
    leaf_bodies = np.concatenate(leaf_bodies_levels) if n else empty_i

    mass, cofm, nbodies, cost = _aggregate(
        child, level_counts, centerx, centery, centerz,
        counts, leaf_ptr, leaf_bodies, pos, masses, costs, tracer)
    tree = FlatTree(
        center=np.stack([centerx, centery, centerz], axis=1),
        size=sizes,
        mass=mass,
        cofm=cofm,
        nbodies=nbodies,
        cost=cost,
        home=np.zeros(C, dtype=np.int32),
        child=child,
        leaf_ptr=leaf_ptr,
        leaf_bodies=leaf_bodies,
    )

    # ---- snapshot for the next step + reuse telemetry ---------------- #
    _snapshot_state(
        state, tree, keys, order, box, n,
        [starts_levels[di + 1] for di in range(Lc + 1)],
        [leaf_starts_levels[di + 1] for di in range(Lc + 1)],
        [int(row_base[di + 1]) for di in range(Lc + 1)],
        [int(leaf_base_new[di + 1]) for di in range(Lc + 1)])
    total_leaves = int(leaf_base_new[-1])
    state.last_reuse = {
        "fresh_fallback": False,
        "reused_subtrees": nseg,
        "reused_cell_rows": reused_cells,
        "total_cell_rows": C,
        "reused_leaf_rows": reused_leaves,
        "total_leaf_rows": total_leaves,
        "reused_subtree_fraction": reused_cells / max(C, 1),
        "reused_row_fraction": (reused_cells + reused_leaves)
        / max(C + total_leaves, 1),
        "stable_fraction": stable_fraction,
    }
    if tracer is not None:
        tracer.begin("build.reuse", CAT_BUILD)
        tracer.end(**state.last_reuse)
    return tree
