"""Shared-heap bookkeeping: affinity, allocation, block-cyclic arrays.

The functional data (bodies, cells) lives in ordinary Python/numpy objects;
what the simulation tracks here is *where each shared object has affinity*
and how much shared memory each thread has allocated, so that the runtime
can meter accesses and the tests can check distribution rules:

* ``upc_global_alloc`` -- called by one thread, distributes blocks across all
  threads (used for ``bodytab`` in the baseline, section 4);
* ``upc_alloc`` -- allocates in the calling thread's shared space (used for
  cells and for local cache copies, listings 1 and 2).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .pointers import GlobalPtr


class SharedHeap:
    """Per-thread shared-memory accounting for one SPMD execution."""

    def __init__(self, nthreads: int):
        if nthreads < 1:
            raise ValueError("need at least one thread")
        self.nthreads = nthreads
        self.allocated = np.zeros(nthreads, dtype=np.int64)
        self.live_objects = np.zeros(nthreads, dtype=np.int64)

    def upc_alloc(self, tid: int, nbytes: int, target: Any = None) -> GlobalPtr:
        """Allocate ``nbytes`` in thread ``tid``'s shared space."""
        self._check_tid(tid)
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.allocated[tid] += nbytes
        self.live_objects[tid] += 1
        return GlobalPtr(tid, target, nbytes)

    def upc_alloc_many(self, tid: int, nbytes: int, count: int) -> None:
        """``count`` allocations of ``nbytes`` each, without the pointers
        (the bookkeeping of ``count`` :meth:`upc_alloc` calls)."""
        self._check_tid(tid)
        if nbytes < 0 or count < 0:
            raise ValueError("nbytes and count must be non-negative")
        self.allocated[tid] += nbytes * count
        self.live_objects[tid] += count

    def upc_free(self, ptr: GlobalPtr) -> None:
        """Release one allocation (bookkeeping only)."""
        self.allocated[ptr.thread] -= ptr.nbytes
        self.live_objects[ptr.thread] -= 1

    def upc_global_alloc(self, nblocks: int, block_nbytes: int) -> "SharedArray":
        """Allocate ``nblocks`` blocks round-robin across all threads."""
        arr = SharedArray(self.nthreads, nblocks, block_nbytes)
        for t in range(self.nthreads):
            nb = arr.blocks_on(t) * block_nbytes
            self.allocated[t] += nb
            if nb:
                self.live_objects[t] += 1
        return arr

    def _check_tid(self, tid: int) -> None:
        if not (0 <= tid < self.nthreads):
            raise ValueError(f"thread id {tid} out of range")


class SharedArray:
    """A block-cyclic shared array of ``nblocks`` blocks.

    Affinity follows the UPC layout rule: block ``i`` lives on thread
    ``i % THREADS``.  The baseline ``bodytab`` uses one big block per thread
    (block size ``ceil(n/THREADS)`` elements), which this class expresses by
    making each *block* one element and choosing ``affinity`` accordingly via
    :meth:`block_distributed`.
    """

    def __init__(self, nthreads: int, nblocks: int, block_nbytes: int):
        if nblocks < 0:
            raise ValueError("nblocks must be non-negative")
        self.nthreads = nthreads
        self.nblocks = nblocks
        self.block_nbytes = block_nbytes

    def affinity(self, block: int) -> int:
        """Owning thread of block ``block`` (cyclic layout)."""
        if not (0 <= block < self.nblocks):
            raise IndexError("block out of range")
        return block % self.nthreads

    def blocks_on(self, tid: int) -> int:
        """Number of blocks with affinity to thread ``tid``."""
        if self.nblocks == 0:
            return 0
        full, rem = divmod(self.nblocks, self.nthreads)
        return full + (1 if tid < rem else 0)

    @staticmethod
    def block_distributed(nthreads: int, nelems: int) -> np.ndarray:
        """Affinity map for a ``[nelems]`` array distributed in ``THREADS``
        contiguous chunks (the baseline body table layout).

        Returns an int array ``owner[i]`` = thread hosting element ``i``.
        """
        if nelems < 0:
            raise ValueError("nelems must be non-negative")
        chunk = (nelems + nthreads - 1) // nthreads if nthreads else 0
        if chunk == 0:
            return np.zeros(0, dtype=np.int32)
        owner = np.arange(nelems, dtype=np.int64) // chunk
        return np.minimum(owner, nthreads - 1).astype(np.int32)


def distribution_counts(owner: np.ndarray, nthreads: int) -> np.ndarray:
    """Histogram of elements per thread for an affinity map."""
    return np.bincount(owner, minlength=nthreads).astype(np.int64)
