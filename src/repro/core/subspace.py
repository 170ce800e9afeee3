"""Cost-based subspace tree building (paper section 6).

The algorithm (a scalable derivative of Shan & Singh's):

1. **Split loop** -- all threads walk the implicit octree level by level.
   At each level every thread sums the costs of *its* bodies per subspace,
   then one collective reduction produces global subspace costs (ONE vector
   reduction per level when ``vector_reduction`` is on -- the paper's key
   change; one scalar reduction per subspace otherwise, which Figure 10
   shows becoming prohibitive).  Subspaces with global cost above
   ``tau = alpha * Cost / THREADS`` are split into 8 children and their
   bodies re-bucketed.
2. **Leaf allocation** -- leaves, in tree (Morton) order, are assigned to
   threads in contiguous runs of roughly equal cost; every thread computes
   the identical allocation locally.  Because no leaf exceeds tau, no
   thread receives more than (1 + alpha) * Cost / THREADS.
3. **Body exchange** -- one all-to-all ships every body to its owner.
4. **Subforest build + hook** -- each thread builds the subtrees of its
   leaves locally (sequential, lock-free), computes their centers of mass,
   and hooks each subtree into thread 0's top tree with a single remote
   pointer write; the writes touch disjoint slots, so no locks are needed.
5. **Top c-of-m** -- thread 0 finishes the O(#subspaces) top cells.

Steps 4-5 exist twice.  :func:`build_subforest_and_hook` builds the
``Cell`` subforest by insertion -- the reference, and the tree the
object-tree force engine reads.  :func:`account_subforest` serves engines
that never read ``Cell`` objects (the flat engines on their Morton path):
it takes the step's one :class:`~repro.octree.flat.FlatTree` and derives
the identical UPC charges from its sorted octant keys, creating no cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..nbody.bbox import RootBox
from ..octree.build import insert
from ..octree.cell import Cell, Leaf
from ..octree.cofm import compute_cofm, fold_cell
from ..octree.flat import FlatTree
from ..octree.morton_build import KEY_LEVELS, shared_digits
from ..upc.collectives import allreduce_scalar, allreduce_vector, alltoallv
from ..upc.runtime import UpcRuntime

#: local work per body examined in the split loop (cost scan / re-bucket)
SCAN_COST = 10e-9
#: local work per subspace entry handled per level
SUBSPACE_COST = 50e-9
#: guard against pathological splitting (coincident heavy bodies)
MAX_SPLIT_LEVELS = 40


@dataclass
class SubspaceTree:
    """Implicit octree of subspaces shared (structurally) by all threads."""

    centers: np.ndarray  # (N, 3)
    sizes: np.ndarray  # (N,)
    parent: np.ndarray  # (N,)
    oct: np.ndarray  # (N,) child slot in parent
    child_base: np.ndarray  # (N,) index of first child or -1
    global_cost: np.ndarray  # (N,)
    global_count: np.ndarray  # (N,)
    depth: np.ndarray  # (N,) split levels below the root
    levels: List[np.ndarray] = field(default_factory=list)
    leaves: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))

    @property
    def n_nodes(self) -> int:
        return len(self.sizes)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def is_leaf(self, node: int) -> bool:
        return self.child_base[node] < 0

    def leaves_in_order(self) -> np.ndarray:
        """Leaf ids in tree (Morton) order."""
        order: List[int] = []
        stack = [0]
        while stack:
            node = stack.pop()
            base = self.child_base[node]
            if base < 0:
                order.append(node)
            else:
                for o in range(7, -1, -1):
                    stack.append(int(base) + o)
        return np.asarray(order, dtype=np.int64)


def split_subspaces(rt: UpcRuntime, pos: np.ndarray, cost: np.ndarray,
                    store: np.ndarray, box: RootBox, alpha: float,
                    vector_reduction: bool) -> "tuple[SubspaceTree, np.ndarray]":
    """Run the split loop; returns the subspace tree and body->leaf map."""
    P = rt.nthreads
    n = len(cost)
    centers = [np.asarray(box.center, dtype=np.float64)]
    sizes = [float(box.rsize)]
    parent = [-1]
    depths = [0]
    octs = [0]
    child_base = [-1]
    g_cost = [0.0]
    g_count = [0]
    body_ss = np.zeros(n, dtype=np.int64)
    level = np.array([0], dtype=np.int64)
    levels: List[np.ndarray] = []
    tau: Optional[float] = None

    per_thread = np.bincount(store, minlength=P).astype(np.float64)

    depth = 0
    while len(level) and depth < MAX_SPLIT_LEVELS:
        levels.append(level)
        depth += 1
        in_level = np.isin(body_ss, level)
        # local cost/count accumulation, then one reduction per level
        lvl_pos = np.searchsorted(level, body_ss[in_level])
        lcost = np.bincount(lvl_pos, weights=cost[in_level],
                            minlength=len(level))
        lcount = np.bincount(lvl_pos, minlength=len(level))
        for t in range(P):
            mine = int((store[in_level] == t).sum())
            rt.charge_compute(t, mine * SCAN_COST
                              + len(level) * SUBSPACE_COST)
        if vector_reduction:
            # costs and counts in one vector reduction for the whole level
            allreduce_vector(rt, 2 * len(level))
        else:
            for _ in range(len(level)):
                allreduce_scalar(rt)
        for j, node in enumerate(level):
            g_cost[node] = float(lcost[j])
            g_count[node] = int(lcount[j])
        if tau is None:
            total = g_cost[0]
            tau = alpha * total / P
        fat = [int(nd) for j, nd in enumerate(level)
               if lcost[j] > tau and lcount[j] > 1]
        if not fat:
            break
        # allocate 8 children per fat node (contiguous, octant order)
        base_of = np.full(len(centers) + 8 * len(fat), -1, dtype=np.int64)
        new_level = np.empty(8 * len(fat), dtype=np.int64)
        for j, f in enumerate(fat):
            base = len(centers)
            child_base[f] = base
            base_of[f] = base
            cf = centers[f]
            q = sizes[f] / 4.0
            for o in range(8):
                off = np.array([q if (o & 1) else -q,
                                q if (o & 2) else -q,
                                q if (o & 4) else -q])
                centers.append(cf + off)
                sizes.append(sizes[f] / 2.0)
                parent.append(f)
                depths.append(depths[f] + 1)
                octs.append(o)
                child_base.append(-1)
                g_cost.append(0.0)
                g_count.append(0)
            new_level[8 * j: 8 * j + 8] = np.arange(base, base + 8)
        # re-bucket bodies living in fat subspaces (vectorized octant)
        fat_arr = np.asarray(fat, dtype=np.int64)
        sel = np.isin(body_ss, fat_arr)
        if sel.any():
            ctr = np.asarray(centers)[body_ss[sel]]
            p = pos[sel]
            o = ((p[:, 0] > ctr[:, 0]).astype(np.int64)
                 | ((p[:, 1] > ctr[:, 1]).astype(np.int64) << 1)
                 | ((p[:, 2] > ctr[:, 2]).astype(np.int64) << 2))
            body_ss[sel] = base_of[body_ss[sel]] + o
            for t in range(P):
                mine = int((store[sel] == t).sum())
                rt.charge_compute(t, mine * 4 * SCAN_COST)
        level = new_level

    tree = SubspaceTree(
        centers=np.asarray(centers),
        sizes=np.asarray(sizes),
        parent=np.asarray(parent, dtype=np.int64),
        oct=np.asarray(octs, dtype=np.int64),
        child_base=np.asarray(child_base, dtype=np.int64),
        global_cost=np.asarray(g_cost),
        global_count=np.asarray(g_count, dtype=np.int64),
        depth=np.asarray(depths, dtype=np.int64),
        levels=levels,
    )
    tree.leaves = tree.leaves_in_order()
    return tree, body_ss


def allocate_leaves(rt: UpcRuntime, tree: SubspaceTree) -> np.ndarray:
    """Greedy contiguous allocation of leaves to threads by cost.

    Every thread computes the identical allocation from the globally known
    leaf costs (no communication).  Returns ``owner[leaf_rank]``.
    """
    P = rt.nthreads
    leaves = tree.leaves
    costs = tree.global_cost[leaves]
    total = float(costs.sum())
    owner = np.zeros(len(leaves), dtype=np.int32)
    if total <= 0 or P == 1:
        for t in range(P):
            rt.charge_compute(t, len(leaves) * SUBSPACE_COST)
        return owner
    target = total / P
    t = 0
    acc = 0.0
    for i, c in enumerate(costs):
        if acc >= target and t < P - 1:
            t += 1
            acc -= target
        owner[i] = t
        acc += float(c)
    for tt in range(P):
        rt.charge_compute(tt, len(leaves) * SUBSPACE_COST)
    return owner


def exchange_bodies(rt: UpcRuntime, tree: SubspaceTree, body_ss: np.ndarray,
                    leaf_owner: np.ndarray, assign: np.ndarray,
                    store: np.ndarray) -> float:
    """All-to-all body redistribution to leaf owners; returns migration
    fraction.  Mutates ``assign`` and ``store`` in place."""
    P = rt.nthreads
    owner_of_node = np.zeros(tree.n_nodes, dtype=np.int32)
    owner_of_node[tree.leaves] = leaf_owner
    new_assign = owner_of_node[body_ss]
    moved = new_assign != store
    matrix = np.zeros((P, P), dtype=np.float64)
    if moved.any():
        np.add.at(matrix, (store[moved], new_assign[moved]),
                  float(rt.machine.body_nbytes))
    alltoallv(rt, matrix, key="body_exchange")
    frac = float(moved.sum()) / len(body_ss) if len(body_ss) else 0.0
    assign[:] = new_assign
    store[:] = new_assign
    return frac


#: local computation per cell during subforest building
CELL_COMPUTE = 100e-9
CELL_VISIT_WORDS = 2


def _group_by_leaf(body_ss: np.ndarray) -> Dict[int, np.ndarray]:
    """Body ids per leaf subspace, ascending (the insertion order)."""
    if len(body_ss) == 0:
        return {}
    order = np.argsort(body_ss, kind="stable")
    sorted_ss = body_ss[order]
    bounds = np.concatenate(
        ([0], np.flatnonzero(np.diff(sorted_ss)) + 1, [len(order)]))
    return {int(sorted_ss[lo]): order[lo:hi]
            for lo, hi in zip(bounds[:-1], bounds[1:])}


def _insert_subtree(tree: SubspaceTree, leaf: int, sel: np.ndarray,
                    pos: np.ndarray, t: int) -> "tuple[Cell, int, int]":
    """Insert ``sel`` into a fresh subtree at ``leaf``; returns the subtree
    root and the (cell visits, cell allocations) the insertion made."""
    cell = Cell(tree.centers[leaf].copy(), float(tree.sizes[leaf]), home=t)
    n = [0, 0]

    def on_visit(c):
        n[0] += 1

    def on_alloc(c):
        n[1] += 1

    for b in sel:
        insert(cell, int(b), pos, home=t, on_visit=on_visit,
               on_alloc=on_alloc)
    return cell, n[0], n[1]


def _charge_subtree(variant, t: int, visits: int, allocs: int) -> None:
    """Thread ``t``'s charges for one local subtree: its ``allocs + 1``
    cells allocated, the insertion walk, and the local c-of-m pass."""
    rt: UpcRuntime = variant.rt
    m = rt.machine
    ncells = allocs + 1
    rt.heap.upc_alloc_many(t, m.cell_nbytes, ncells)
    rt.charge_compute(t, visits * CELL_VISIT_WORDS * m.local_word_cost
                      + ncells * CELL_COMPUTE)
    variant.ncells += ncells
    rt.charge_compute(t, ncells * CELL_COMPUTE)


def _finish_top(variant, ntop: int, child_homes: List[int],
                local_times: np.ndarray) -> None:
    """Thread 0 finishes the top cells: it gathers the (mass, cofm) of all
    hooked subtree roots -- one indexed gather per source thread, using the
    same aggregation machinery as the force phase -- then runs a local
    bottom-up pass over the O(#subspaces) top cells.

    ``child_homes`` lists every occupied child slot of the top cells, in
    top-cell then octant order: the home thread of a child cell, or -1 for
    a single-body leaf.
    """
    rt: UpcRuntime = variant.rt
    per_source: Dict[int, int] = {}
    for home in child_homes:
        if home > 0:
            per_source[home] = per_source.get(home, 0) + 1
    for src, cnt in per_source.items():
        rt.memget_ilist(0, src, cnt, rt.machine.cell_nbytes,
                        key="top_cofm_gathers")
    rt.charge_compute(0, (ntop + len(child_homes)) * CELL_COMPUTE)
    variant.treebuild_subphases.append(
        {"local": local_times, "merge": np.zeros(rt.nthreads)})


def build_subforest_and_hook(variant, tree: SubspaceTree,
                             body_ss: np.ndarray,
                             leaf_owner: np.ndarray) -> Cell:
    """Phases 4-5: local subforests, lock-free hooking, top c-of-m.

    Returns the global root cell (thread 0's top tree).  This is the
    reference build; :func:`account_subforest` issues the same charges
    from octant keys for engines that never read ``Cell`` objects.
    """
    rt: UpcRuntime = variant.rt
    bodies = variant.bodies
    P = rt.nthreads

    # thread 0's top-tree cells, one per internal (split) subspace
    top: Dict[int, Cell] = {}
    internal = np.nonzero(tree.child_base >= 0)[0]
    root_cell = Cell(tree.centers[0].copy(), float(tree.sizes[0]), home=0)
    top[0] = root_cell
    for node in internal:
        if node != 0 and node not in top:
            top[int(node)] = Cell(tree.centers[node].copy(),
                                  float(tree.sizes[node]), home=0)
    rt.charge_compute(0, len(top) * CELL_COMPUTE)
    for node in internal:
        base = int(tree.child_base[node])
        for o in range(8):
            ch = base + o
            if tree.child_base[ch] >= 0:
                top[int(node)].children[o] = top[ch]
    variant.ncells = len(top)

    groups = _group_by_leaf(body_ss)
    local_times = np.zeros(P)
    for t in range(P):
        start = float(rt.clock[t])
        for leaf in tree.leaves[leaf_owner == t]:
            leaf = int(leaf)
            sel = groups.get(leaf)
            if sel is None:
                continue
            if len(sel) == 1 and leaf != 0:
                node: "Cell | Leaf" = Leaf(int(sel[0]))
            else:
                node, visits, allocs = _insert_subtree(tree, leaf, sel,
                                                       bodies.pos, t)
                # local c-of-m for the subtree (no communication)
                compute_cofm(node, bodies.pos, bodies.mass, bodies.cost)
                _charge_subtree(variant, t, visits, allocs)
            if leaf == 0:
                # degenerate: the root itself is a leaf subspace
                root_cell.children = node.children
                root_cell.home = t
                continue
            par = int(tree.parent[leaf])
            top[par].children[int(tree.oct[leaf])] = node
            rt.word_access(t, 0, words=1.0, key="subtree_hooks")
        local_times[t] = float(rt.clock[t]) - start

    child_homes = [ch.home if isinstance(ch, Cell) else -1
                   for cell in top.values() for ch in cell.children
                   if ch is not None]
    _finish_top(variant, len(top), child_homes, local_times)
    # the subtrees are finished; fold only the top cells, children first
    # (a child subspace always has a higher node id than its parent)
    for node in sorted(top, reverse=True):
        fold_cell(top[node], bodies.pos, bodies.mass, bodies.cost)
    return root_cell


def _key_counts(tree: SubspaceTree, body_ss: np.ndarray, keys: np.ndarray,
                order: np.ndarray) -> "tuple[np.ndarray, ...]":
    """Per subspace node: bodies, insertion visits and cell allocations of
    its local subtree, and whether the keys cannot resolve it (``deep``).

    Inserting bodies one at a time into a leaf subspace at depth ``D``
    makes a cell for every key prefix longer than ``D`` that two of them
    share, so over the leaf's bodies in key order, with ``h`` the shared
    digits of each adjacent pair:

    * allocations = sum of ``max(0, h - h_prev)`` (``h_prev = D`` for the
      first pair) -- the distinct shared prefixes;
    * visits = bodies + sum of ``h - D`` -- each body visits the subtree
      root plus every cell of its path that an earlier body shares, and
      at every depth all but the first-inserted body of each prefix group
      do (so the total does not depend on the insertion order).

    A leaf with a pair sharing all ``KEY_LEVELS`` digits is ``deep``: its
    structure lies below the packed keys (and may end in ``MAX_DEPTH``
    buckets counted from the subtree root), so only insertion can count it.
    """
    n_nodes = tree.n_nodes
    count = np.bincount(body_ss, minlength=n_nodes)
    # bodies grouped by leaf, key-sorted within each leaf
    perm = order[np.argsort(body_ss[order], kind="stable")]
    ss = body_ss[perm]
    sk = keys[perm]
    same = ss[1:] == ss[:-1]
    pleaf = ss[1:][same]
    h = shared_digits(sk[1:][same] ^ sk[:-1][same])
    depth = tree.depth[pleaf]
    deep = np.zeros(n_nodes, dtype=bool)
    deep[pleaf[h >= KEY_LEVELS]] = True
    first = np.ones(len(h), dtype=bool)
    first[1:] = pleaf[1:] != pleaf[:-1]
    h_prev = np.empty_like(h)
    h_prev[1:] = h[:-1]
    h_prev[first] = depth[first]
    visits = count + np.bincount(pleaf, weights=h - depth,
                                 minlength=n_nodes).astype(np.int64)
    allocs = np.bincount(pleaf, weights=np.maximum(h - h_prev, 0),
                         minlength=n_nodes).astype(np.int64)
    return count, visits, allocs, deep


def account_subforest(variant, tree: SubspaceTree, body_ss: np.ndarray,
                      leaf_owner: np.ndarray, flat: FlatTree) -> None:
    """Phases 4-5 without ``Cell`` objects: the charges of
    :func:`build_subforest_and_hook`, bit for bit, derived from the octant
    keys of ``flat`` (the step's Morton-built tree over the same root box).

    The subspace split compares positions against the same chained
    midpoints the keys encode, so a leaf subspace at depth ``D`` is a key
    prefix of length ``D`` and its local subtree is the key trie below it
    (see :func:`_key_counts`).  Leaves the keys cannot resolve fall back
    to real insertion.
    """
    rt: UpcRuntime = variant.rt
    pos = variant.bodies.pos
    P = rt.nthreads

    ntop = max(int((tree.child_base >= 0).sum()), 1)
    rt.charge_compute(0, ntop * CELL_COMPUTE)
    variant.ncells = ntop

    count, visits, allocs, deep = _key_counts(tree, body_ss, flat.keys,
                                              flat.order)
    home = np.full(tree.n_nodes, -1, dtype=np.int64)
    root_cell: Optional[Cell] = None
    local_times = np.zeros(P)
    for t in range(P):
        start = float(rt.clock[t])
        for leaf in tree.leaves[leaf_owner == t]:
            leaf = int(leaf)
            k = int(count[leaf])
            if k == 0:
                continue
            if k > 1 or leaf == 0:
                if deep[leaf]:
                    sel = np.flatnonzero(body_ss == leaf)
                    cell, v, a = _insert_subtree(tree, leaf, sel, pos, t)
                    if leaf == 0:
                        root_cell = cell
                else:
                    v, a = int(visits[leaf]), int(allocs[leaf])
                _charge_subtree(variant, t, v, a)
                home[leaf] = t
            if leaf == 0:
                continue
            rt.word_access(t, 0, words=1.0, key="subtree_hooks")
        local_times[t] = float(rt.clock[t]) - start

    if tree.child_base[0] < 0:
        child_homes = _root_leaf_child_homes(flat, int(home[0]), root_cell)
    else:
        child_homes = []
        for node in np.flatnonzero(tree.child_base >= 0):
            for ch in range(tree.child_base[node], tree.child_base[node] + 8):
                if tree.child_base[ch] >= 0:
                    child_homes.append(0)  # a top cell
                elif count[ch] == 1:
                    child_homes.append(-1)
                elif count[ch] > 1:
                    child_homes.append(int(home[ch]))
    _finish_top(variant, ntop, child_homes, local_times)


def _root_leaf_child_homes(flat: FlatTree, home: int,
                           root_cell: Optional[Cell]) -> List[int]:
    """Child homes of a root that is itself a leaf subspace: its children
    are the first-level slots of the whole tree."""
    if root_cell is not None:  # resolved by insertion
        return [ch.home if isinstance(ch, Cell) else -1
                for ch in root_cell.children if ch is not None]
    first = flat.keys >> (3 * (KEY_LEVELS - 1))
    occupied = np.bincount(first, minlength=8)
    return [home if c > 1 else -1 for c in occupied if c > 0]
