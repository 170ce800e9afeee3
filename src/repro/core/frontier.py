"""Non-blocking communication + message aggregation (paper section 5.5).

Listing 3 of the paper, reproduced at group granularity: each thread keeps a
working set of ``n1`` body groups being force-computed concurrently; per
group, a stack of (tree node, active body set) work items is processed until
it hits a cell whose children are not cached locally.  The cell's children
join a *needed remote nodes* list; once at least ``n3`` nodes are pending
and fewer than ``n2`` gathers are outstanding, one
``bupc_memget_vlist_async`` brings them in.  All children of a cell travel
in the same communication, so one gather handles between n3 and n3+7 nodes
(exactly the paper's accounting) -- and because the children of one cell
were allocated by one subtree creator, most gathers have a single source
thread (the paper measures >95% at 32 threads; the ablation bench measures
ours).  When no group can make progress the thread waits
on its oldest handle -- otherwise computation continues and latency hides.

The physics (per-body interaction sets, accelerations) is identical to the
blocking traversal in :mod:`repro.octree.traverse`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

import numpy as np

from ..nbody.constants import G
from ..octree.cell import Cell, Leaf
from ..upc.nonblocking import AsyncEngine
from .variants.base import (
    BODY_LEAF_WORDS,
    CELL_OPEN_WORDS,
    CELL_TEST_WORDS,
)

#: bodies per working group -- the vectorization granularity standing in for
#: one of the paper's "working bodies" (``n1`` counts groups, see above)
GROUP_BODIES = 32


class _Group:
    __slots__ = ("stack", "parked", "done")

    def __init__(self):
        self.stack: List[Tuple[object, np.ndarray]] = []
        self.parked = 0
        self.done = False


class FrontierStats:
    """Per-call measurements used by tests and the source-count ablation."""

    def __init__(self) -> None:
        self.gathers = 0
        self.forced_gathers = 0
        self.waits = 0
        self.cells_requested = 0


def frontier_force(variant, engine: AsyncEngine, tid: int,
                   idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray,
                                             FrontierStats]:
    """Force computation for thread ``tid``'s bodies, overlap-enabled."""
    rt = variant.rt
    cfg = variant.cfg
    m = rt.machine
    bodies = variant.bodies
    store = bodies.store
    root = variant.root
    stats = FrontierStats()

    k = len(idx)
    acc = np.zeros((k, 3), dtype=np.float64)
    work = np.zeros(k, dtype=np.float64)
    if k == 0 or root is None:
        return acc, work, stats
    pos = bodies.pos[idx]
    ids = np.asarray(idx, dtype=np.int64)
    eps_sq = cfg.eps * cfg.eps
    theta_sq = cfg.theta * cfg.theta
    open_self = cfg.open_self_cells

    local_word = m.local_word_cost
    interaction = m.interaction_cost

    # L_root: localize the root struct itself
    if root.home != tid:
        rt.memget(tid, root.home, m.cell_nbytes, key="cache_fetch")
    else:
        rt.charge_compute(tid, 4 * local_word)

    localized: set = set()
    parked: Dict[int, Tuple[Cell, List[Tuple[_Group, np.ndarray]]]] = {}
    pool: List[Cell] = []  # frontier cells whose children are needed
    pool_nodes = 0  # pending child nodes across the pool (the n3 unit)
    outstanding: Deque[Tuple[object, List[Cell]]] = deque()

    def nchildren(cell: Cell) -> int:
        return sum(1 for ch in cell.children if ch is not None)

    groups: List[_Group] = []
    for lo in range(0, k, GROUP_BODIES):
        g = _Group()
        g.stack.append((root, np.arange(lo, min(lo + GROUP_BODIES, k),
                                        dtype=np.int64)))
        groups.append(g)
    active: Deque[_Group] = deque(groups[: cfg.n1])
    next_group = len(active)
    finished = 0

    # ------------------------------------------------------------------ #
    def children_all_local(cell: Cell) -> bool:
        for ch in cell.children:
            if ch is None:
                continue
            if isinstance(ch, Leaf):
                if any(store[b] != tid for b in ch.indices):
                    return False
            elif ch.home != tid:
                return False
        return True

    def issue(cells: List[Cell], forced: bool) -> None:
        per_source: Dict[int, int] = {}
        for c in cells:
            for ch in c.children:
                if ch is None:
                    continue
                if isinstance(ch, Leaf):
                    for b in ch.indices:
                        o = int(store[b])
                        if o != tid:
                            per_source[o] = per_source.get(o, 0) + 1
                elif ch.home != tid:
                    per_source[ch.home] = per_source.get(ch.home, 0) + 1
        handle = engine.memget_vlist_async(tid, per_source, m.cell_nbytes)
        outstanding.append((handle, cells))
        stats.gathers += 1
        stats.cells_requested += len(cells)
        if forced:
            stats.forced_gathers += 1

    def complete(cells: List[Cell]) -> None:
        for c in cells:
            localized.add(id(c))
            entry = parked.pop(id(c), None)
            if entry is None:
                continue
            for g, active_set in entry[1]:
                g.stack.append((("expand", c), active_set))
                g.parked -= 1

    def drain_ready_handles() -> bool:
        any_done = False
        while outstanding:
            handle, cells = outstanding[0]
            if engine.trysync(tid, handle):
                outstanding.popleft()
                complete(cells)
                any_done = True
            else:
                break
        return any_done

    def issue_ready() -> None:
        """Issue gathers while >= n3 nodes are pending (listing 3)."""
        nonlocal pool_nodes
        while pool_nodes >= cfg.n3 and len(outstanding) < cfg.n2:
            chunk: List[Cell] = []
            cnt = 0
            while pool and cnt < cfg.n3:
                c = pool.pop(0)
                cnt += nchildren(c)
                chunk.append(c)
            pool_nodes -= cnt
            issue(chunk, forced=False)

    # ------------------------------------------------------------------ #
    def process(g: _Group, node, active_set: np.ndarray) -> None:
        nonlocal pool_nodes
        n_active = len(active_set)
        if isinstance(node, tuple):  # ("expand", cell): children now local
            cell = node[1]
            rt.charge_compute(tid, CELL_OPEN_WORDS * n_active * local_word)
            for ch in cell.children:
                if ch is not None:
                    g.stack.append((ch, active_set))
            return
        if isinstance(node, Leaf):
            rt.charge_compute(
                tid,
                BODY_LEAF_WORDS * n_active * len(node.indices) * local_word,
            )
            p_act = pos[active_set]
            n_int = 0
            for b in node.indices:
                d = bodies.pos[b] - p_act
                dsq = np.einsum("ij,ij->i", d, d) + eps_sq
                inv = (G * bodies.mass[b]) / (dsq * np.sqrt(dsq))
                notself = ids[active_set] != b
                inv *= notself
                acc[active_set] += d * inv[:, None]
                work[active_set] += notself
                n_int += int(notself.sum())
            rt.charge_compute(tid, n_int * interaction)
            rt.count(tid, "interactions", n_int)
            return

        cell = node
        rt.charge_compute(tid, CELL_TEST_WORDS * n_active * local_word)
        d = cell.cofm - pos[active_set]
        dsq = np.einsum("ij,ij->i", d, d)
        far = (cell.size * cell.size) < theta_sq * dsq
        if open_self and far.any():
            half = cell.size / 2.0
            inside = np.all(
                np.abs(pos[active_set] - cell.center) <= half, axis=1
            )
            far &= ~inside
        n_far = int(far.sum())
        if n_far:
            sel = active_set[far]
            dd = d[far]
            dq = dsq[far] + eps_sq
            inv = (G * cell.mass) / (dq * np.sqrt(dq))
            acc[sel] += dd * inv[:, None]
            work[sel] += 1.0
            rt.charge_compute(tid, n_far * interaction)
            rt.count(tid, "interactions", n_far)
        if n_far == n_active:
            return
        near = active_set if n_far == 0 else active_set[~far]
        if id(cell) in localized:
            rt.charge_compute(tid, CELL_OPEN_WORDS * len(near) * local_word)
            for ch in cell.children:
                if ch is not None:
                    g.stack.append((ch, near))
            return
        if children_all_local(cell):
            localized.add(id(cell))
            rt.charge_compute(tid, CELL_OPEN_WORDS * len(near) * local_word)
            for ch in cell.children:
                if ch is not None:
                    g.stack.append((ch, near))
            return
        # frontier cell: park this item, request the cell's children
        entry = parked.get(id(cell))
        if entry is None:
            parked[id(cell)] = (cell, [(g, near)])
            pool.append(cell)
            pool_nodes += nchildren(cell)
        else:
            entry[1].append((g, near))
        g.parked += 1

    # ------------------------------------------------------------------ #
    while finished < len(groups):
        progressed = False
        for g in list(active):
            while g.stack:
                node, active_set = g.stack.pop()
                process(g, node, active_set)
                progressed = True
                issue_ready()
            if not g.done and g.parked == 0 and not g.stack:
                g.done = True
                finished += 1
                active.remove(g)
                if next_group < len(groups):
                    active.append(groups[next_group])
                    next_group += 1
                progressed = True
        if drain_ready_handles():
            progressed = True
        if progressed:
            continue
        # stalled: everything active is waiting on data
        if outstanding:
            handle, cells = outstanding.popleft()
            engine.waitsync(tid, handle)
            stats.waits += 1
            complete(cells)
        elif pool:
            chunk = list(pool)
            pool.clear()
            pool_nodes = 0
            issue(chunk, forced=True)
        else:  # pragma: no cover - would be a bookkeeping bug
            raise RuntimeError("frontier force deadlock")

    return acc, work, stats
