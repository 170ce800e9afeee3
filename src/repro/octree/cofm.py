"""Bottom-up center-of-mass computation.

``compute_cofm`` is the sequential reference used for local trees and for
validation; the parallel variants (baseline done-flag waiting, section-5.4
merge-time weighted averaging) live in the variant code and reuse
``merge_cofm`` for the commutative weighted-average update the paper relies
on ("this weighted average computation is associative and commutative, so
the merges can occur in any order").
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .cell import Cell, Leaf


def compute_cofm(root: Cell, positions: np.ndarray, masses: np.ndarray,
                 costs: Optional[np.ndarray] = None,
                 on_cell: Optional[Callable[[Cell], None]] = None) -> None:
    """Fill ``mass``, ``cofm``, ``nbodies`` (and ``cost``) for every cell.

    Iterative post-order traversal; ``on_cell`` fires once per finished
    cell (used by variants to charge per-cell computation).
    """
    # post-order via two stacks
    stack = [root]
    order = []
    while stack:
        c = stack.pop()
        order.append(c)
        for ch in c.children:
            if isinstance(ch, Cell):
                stack.append(ch)
    for c in reversed(order):
        fold_cell(c, positions, masses, costs)
        if on_cell is not None:
            on_cell(c)


def fold_cell(c: Cell, positions: np.ndarray, masses: np.ndarray,
              costs: Optional[np.ndarray] = None) -> None:
    """Aggregate one cell from its slots; child cells must be finished.

    Slots fold in ascending octant order -- the association order every
    bit-identity claim about c-of-m values relies on.
    """
    mass = 0.0
    cofm = np.zeros(3, dtype=np.float64)
    nbodies = 0
    cost = 0.0
    for ch in c.children:
        if ch is None:
            continue
        if isinstance(ch, Leaf):
            for idx in ch.indices:
                m = masses[idx]
                mass += m
                cofm += m * positions[idx]
                nbodies += 1
                if costs is not None:
                    cost += costs[idx]
        else:
            mass += ch.mass
            cofm += ch.mass * ch.cofm
            nbodies += ch.nbodies
            cost += ch.cost
    c.mass = mass
    c.cofm = cofm / mass if mass > 0 else c.center.copy()
    c.nbodies = nbodies
    c.cost = cost


def merge_cofm(mass_a: float, cofm_a: np.ndarray,
               mass_b: float, cofm_b: np.ndarray) -> "tuple[float, np.ndarray]":
    """Weighted-average merge of two (mass, cofm) pairs (section 5.4)."""
    m = mass_a + mass_b
    if m == 0.0:
        return 0.0, cofm_a.copy()
    return m, (mass_a * cofm_a + mass_b * cofm_b) / m
