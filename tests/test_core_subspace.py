"""Subspace tree building (section 6): splitting, allocation, exchange,
and the subforest build -- by insertion and from octant keys."""

import copy

import numpy as np
import pytest

from repro.core.app import BarnesHutSimulation
from repro.core.config import BHConfig
from repro.core.subspace import (
    _key_counts,
    account_subforest,
    allocate_leaves,
    build_subforest_and_hook,
    exchange_bodies,
    split_subspaces,
)
from repro.nbody.bbox import compute_root
from repro.nbody.distributions import make_distribution
from repro.nbody.plummer import plummer
from repro.octree.flat import RootSummary
from repro.octree.morton_build import build_flat_tree
from repro.upc.memory import SharedArray
from repro.upc.params import MachineConfig
from repro.upc.runtime import UpcRuntime


@pytest.fixture()
def split_setup():
    bodies = plummer(400, seed=21)
    P = 8
    rt = UpcRuntime(P, MachineConfig())
    store = SharedArray.block_distributed(P, 400)
    cost = np.ones(400)
    box = compute_root(bodies.pos)
    with rt.phase("s"):
        tree, body_ss = split_subspaces(rt, bodies.pos, cost, store, box,
                                        alpha=2 / 3,
                                        vector_reduction=True)
    return rt, bodies, tree, body_ss, cost, store


class TestSplit:
    def test_no_leaf_exceeds_tau(self, split_setup):
        rt, bodies, tree, body_ss, cost, store = split_setup
        tau = (2 / 3) * cost.sum() / rt.nthreads
        for leaf in tree.leaves:
            c = tree.global_cost[leaf]
            if tree.global_count[leaf] > 1:
                assert c <= tau + 1e-9

    def test_bodies_land_in_leaves(self, split_setup):
        rt, bodies, tree, body_ss, cost, store = split_setup
        leaf_set = set(int(l) for l in tree.leaves)
        assert all(int(s) in leaf_set for s in body_ss)

    def test_costs_counts_consistent(self, split_setup):
        rt, bodies, tree, body_ss, cost, store = split_setup
        assert tree.global_cost[0] == pytest.approx(cost.sum())
        assert tree.global_count[0] == 400
        counts = np.bincount(body_ss, minlength=tree.n_nodes)
        for leaf in tree.leaves:
            assert counts[leaf] == tree.global_count[leaf]

    def test_geometry_halves(self, split_setup):
        rt, bodies, tree, body_ss, cost, store = split_setup
        for node in range(tree.n_nodes):
            par = tree.parent[node]
            if par >= 0:
                assert tree.sizes[node] == pytest.approx(
                    tree.sizes[par] / 2.0)

    def test_bodies_inside_their_subspace(self, split_setup):
        rt, bodies, tree, body_ss, cost, store = split_setup
        ctr = tree.centers[body_ss]
        half = tree.sizes[body_ss][:, None] / 2.0 * (1 + 1e-9)
        assert np.all(np.abs(bodies.pos - ctr) <= half)

    def test_vector_reduction_counts_levels(self):
        bodies = plummer(400, seed=22)
        P = 8
        rt = UpcRuntime(P, MachineConfig())
        store = SharedArray.block_distributed(P, 400)
        box = compute_root(bodies.pos)
        with rt.phase("s"):
            tree, _ = split_subspaces(rt, bodies.pos, np.ones(400), store,
                                      box, 2 / 3, vector_reduction=True)
        rec = rt.log.records[-1]
        assert rec.counters.total("vector_reductions") == tree.n_levels
        assert rec.counters.total("scalar_reductions") == 0

    def test_scalar_reduction_counts_subspaces(self):
        bodies = plummer(400, seed=22)
        P = 8
        rt = UpcRuntime(P, MachineConfig())
        store = SharedArray.block_distributed(P, 400)
        box = compute_root(bodies.pos)
        with rt.phase("s"):
            tree, _ = split_subspaces(rt, bodies.pos, np.ones(400), store,
                                      box, 2 / 3, vector_reduction=False)
        rec = rt.log.records[-1]
        examined = sum(len(lvl) for lvl in tree.levels)
        assert rec.counters.total("scalar_reductions") == examined
        assert examined > tree.n_levels

    def test_smaller_alpha_more_subspaces(self):
        bodies = plummer(400, seed=23)
        box = compute_root(bodies.pos)
        store = SharedArray.block_distributed(8, 400)
        counts = []
        for alpha in (2.0, 2 / 3, 0.2):
            rt = UpcRuntime(8, MachineConfig())
            with rt.phase("s"):
                tree, _ = split_subspaces(rt, bodies.pos, np.ones(400),
                                          store, box, alpha, True)
            counts.append(tree.n_nodes)
        assert counts[0] <= counts[1] <= counts[2]

    def test_leaves_in_morton_order(self, split_setup):
        rt, bodies, tree, body_ss, cost, store = split_setup
        leaves = tree.leaves
        # octant-ordered DFS: leaf sequence visits each parent's children
        # in increasing octant order
        seen_parent_oct = {}
        for leaf in leaves:
            par = int(tree.parent[leaf])
            o = int(tree.oct[leaf])
            last = seen_parent_oct.get(par, -1)
            assert o > last
            seen_parent_oct[par] = o


class TestAllocation:
    def test_load_balance_bound(self, split_setup):
        """The paper's bound: <= (1 + alpha) * Cost / THREADS per thread."""
        rt, bodies, tree, body_ss, cost, store = split_setup
        owner = allocate_leaves(rt, tree)
        leaf_costs = tree.global_cost[tree.leaves]
        per_thread = np.bincount(owner, weights=leaf_costs,
                                 minlength=rt.nthreads)
        bound = (1 + 2 / 3) * cost.sum() / rt.nthreads
        assert per_thread.max() <= bound + 1e-9

    def test_owners_contiguous(self, split_setup):
        rt, bodies, tree, body_ss, cost, store = split_setup
        owner = allocate_leaves(rt, tree)
        assert np.all(np.diff(owner) >= 0)

    def test_single_thread_owns_all(self):
        bodies = plummer(100, seed=30)
        rt = UpcRuntime(1, MachineConfig())
        store = np.zeros(100, dtype=np.int32)
        box = compute_root(bodies.pos)
        with rt.phase("s"):
            tree, _ = split_subspaces(rt, bodies.pos, np.ones(100), store,
                                      box, 2 / 3, True)
            owner = allocate_leaves(rt, tree)
        assert np.all(owner == 0)


class TestExchange:
    def test_store_follows_owner(self, split_setup):
        rt, bodies, tree, body_ss, cost, store = split_setup
        owner = allocate_leaves(rt, tree)
        assign = store.copy()
        with rt.phase("x"):
            frac = exchange_bodies(rt, tree, body_ss, owner, assign, store)
        assert np.array_equal(assign, store)
        owner_of_node = np.zeros(tree.n_nodes, dtype=np.int32)
        owner_of_node[tree.leaves] = owner
        assert np.array_equal(assign, owner_of_node[body_ss])
        assert 0.0 <= frac <= 1.0

    def test_second_exchange_is_noop(self, split_setup):
        rt, bodies, tree, body_ss, cost, store = split_setup
        owner = allocate_leaves(rt, tree)
        assign = store.copy()
        with rt.phase("x"):
            exchange_bodies(rt, tree, body_ss, owner, assign, store)
        with rt.phase("x2"):
            frac = exchange_bodies(rt, tree, body_ss, owner, assign, store)
        assert frac == 0.0


class TestEndToEnd:
    def test_variant_tree_matches_bodies(self):
        cfg = BHConfig(nbodies=300, nsteps=2, warmup_steps=1, seed=5)
        sim = BarnesHutSimulation(cfg, 8, variant="subspace")
        res = sim.run()
        # every body advanced (positions changed from ICs)
        ics = plummer(300, seed=5)
        assert not np.allclose(res.bodies.pos, ics.pos)
        # subspace stats recorded per step
        assert len(res.variant_stats["subspace_counts"]) == 2
        assert all(c >= 1 for c in res.variant_stats["subspace_counts"])


# --------------------------------------------------------------------- #
# subforest from octant keys == subforest by insertion                   #
# --------------------------------------------------------------------- #
class _Accounts:
    """What the subforest builders read and write on a variant."""

    def __init__(self, rt, bodies):
        self.rt = rt
        self.bodies = bodies
        self.ncells = 0
        self.treebuild_subphases = []


def _records(log):
    return [(r.name, r.step, r.duration, r.thread_times.tolist(),
             r.nic_times.tolist(),
             {k: r.counters.per_thread(k).tolist()
              for k in sorted(r.counters.keys())}) for r in log]


def _subforest_both_ways(bodies, P, alpha=2 / 3):
    """Run the split on one runtime, then both subforest builders on two
    clones of it; assert every charge matches bit for bit."""
    n = len(bodies)
    rt = UpcRuntime(P, MachineConfig())
    store = SharedArray.block_distributed(P, n)
    box = compute_root(bodies.pos)
    with rt.phase("split"):
        tree, body_ss = split_subspaces(rt, bodies.pos, bodies.cost, store,
                                        box, alpha, True)
        owner = allocate_leaves(rt, tree)
    flat = build_flat_tree(bodies.pos, bodies.mass, box, costs=bodies.cost)
    ref = _Accounts(copy.deepcopy(rt), bodies)
    key = _Accounts(copy.deepcopy(rt), bodies)
    with ref.rt.phase("subforest"):
        root = build_subforest_and_hook(ref, tree, body_ss, owner)
    with key.rt.phase("subforest"):
        account_subforest(key, tree, body_ss, owner, flat)
    assert np.array_equal(key.rt.clock, ref.rt.clock)
    assert np.array_equal(key.rt.heap.allocated, ref.rt.heap.allocated)
    assert np.array_equal(key.rt.heap.live_objects,
                          ref.rt.heap.live_objects)
    assert _records(key.rt.log) == _records(ref.rt.log)
    assert key.ncells == ref.ncells
    if tree.child_base[0] >= 0:  # a leaf root also counts its subtree root
        assert key.ncells == root.count_cells()
    assert len(key.treebuild_subphases) == 1
    for part in ("local", "merge"):
        assert np.array_equal(key.treebuild_subphases[0][part],
                              ref.treebuild_subphases[0][part])
    return tree, body_ss, flat, root


def _with_cluster(bodies):
    """Near-coincident bodies (closer than the 21 packed key digits
    resolve) plus an exact duplicate, which ends in a bucket leaf."""
    bodies = bodies.copy()
    for k in range(1, 6):
        bodies.pos[k] = bodies.pos[0] + 1e-13 * k
    bodies.pos[6] = bodies.pos[0]
    return bodies


@pytest.mark.parametrize("P", [1, 4, 16])
@pytest.mark.parametrize("dist", ["plummer", "collision", "disk"])
def test_key_subforest_matches_insertion(dist, P):
    bodies = make_distribution(dist, 600, seed=P)
    tree, body_ss, flat, root = _subforest_both_ways(bodies, P)
    assert len(tree.leaves) > 1
    # one tree, two constructions: the aggregates agree bit for bit
    summary = flat.root_summary()
    assert summary.mass == root.mass
    assert np.array_equal(summary.cofm, root.cofm)


@pytest.mark.parametrize("P", [1, 4])
def test_key_subforest_near_coincident_cluster_falls_back(P):
    bodies = _with_cluster(plummer(400, seed=9))
    tree, body_ss, flat, _ = _subforest_both_ways(bodies, P)
    *_, deep = _key_counts(tree, body_ss, flat.keys, flat.order)
    assert deep[body_ss[0]] and deep.sum() == 1


@pytest.mark.parametrize("cluster", [False, True])
def test_key_subforest_root_is_a_leaf(cluster):
    bodies = plummer(200, seed=4)
    if cluster:
        bodies = _with_cluster(bodies)
    # alpha >= P: the root's cost never exceeds tau, so it is never split
    tree, *_ = _subforest_both_ways(bodies, 4, alpha=8.0)
    assert tree.n_nodes == 1 and tree.child_base[0] < 0


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*a, **kw):
        calls.append(1)
        return original(*a, **kw)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_flat_morton_run_matches_insertion_run(monkeypatch):
    """subspace + flat: the key-derived subforest (no Cells, one tree per
    step) replays the Cell-building run exactly over 10 steps."""
    import repro.backends.flat as flat_backend
    import repro.core.subspace as subspace

    bodies = make_distribution("collision", 512, seed=2)
    runs = {}
    for build in ("insertion", "morton"):
        cfg = BHConfig(nbodies=512, nsteps=10, warmup_steps=1, seed=2,
                       distribution="collision", force_backend="flat",
                       flat_build=build)
        inserts = _counting(monkeypatch, subspace, "insert")
        builds = _counting(monkeypatch, flat_backend, "build_flat_tree")
        sim = BarnesHutSimulation(cfg, 4, variant="subspace", bodies=bodies)
        runs[build] = (sim.run(), len(inserts), len(builds))
        monkeypatch.undo()
        if build == "morton":
            assert isinstance(sim.variant.root, RootSummary)
    (ins, ins_inserts, ins_builds), (mor, mor_inserts, mor_builds) = \
        runs["insertion"], runs["morton"]
    assert ins_inserts > 0 and ins_builds == 0
    assert mor_inserts == 0 and mor_builds == 10
    assert np.array_equal(mor.bodies.pos, ins.bodies.pos)
    assert np.array_equal(mor.bodies.vel, ins.bodies.vel)
    assert _records(mor.log) == _records(ins.log)
    assert mor.phase_times.as_rows() == ins.phase_times.as_rows()
