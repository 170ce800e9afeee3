"""Simulated UPC/PGAS runtime substrate.

Real: the program's data and control flow -- every shared access, lock,
collective and allocation the paper's UPC code performs is issued here.
Modeled: their cost, charged to per-thread virtual clocks by the
:mod:`~repro.upc.costmodel` of a :class:`MachineConfig` cluster.  Public
surface:

* :class:`MachineConfig` -- the modeled cluster,
* :class:`UpcRuntime` -- virtual clocks, phases, charged operations,
* :class:`ThreadCtx` -- MYTHREAD-facing facade,
* :class:`AsyncEngine` -- non-blocking gathers (BUPC extensions),
* collectives (:func:`allreduce_vector`, :func:`alltoallv`, ...),
* :class:`UpcLock`, :class:`GlobalPtr`, :class:`SharedHeap`.
"""

from .collectives import (
    allreduce_scalar,
    allreduce_vector,
    alltoallv,
    barrier_all,
    broadcast,
)
from .context import ThreadCtx, contexts
from .costmodel import Charge, CostModel
from .locks import UpcLock
from .memory import SharedArray, SharedHeap, distribution_counts
from .nonblocking import AsyncEngine, Handle
from .params import (
    DEFAULT_MACHINE,
    MachineConfig,
    paper_section5_machine,
    paper_section6_machine,
)
from .pointers import NULL, GlobalPtr, LocalPtr, PointerError
from .runtime import UpcRuntime
from .stats import Counters, PhaseRecord, StatsLog

__all__ = [
    "AsyncEngine",
    "Charge",
    "CostModel",
    "Counters",
    "DEFAULT_MACHINE",
    "GlobalPtr",
    "Handle",
    "LocalPtr",
    "MachineConfig",
    "NULL",
    "PhaseRecord",
    "PointerError",
    "SharedArray",
    "SharedHeap",
    "StatsLog",
    "ThreadCtx",
    "UpcLock",
    "UpcRuntime",
    "allreduce_scalar",
    "allreduce_vector",
    "alltoallv",
    "barrier_all",
    "broadcast",
    "contexts",
    "distribution_counts",
    "paper_section5_machine",
    "paper_section6_machine",
]
