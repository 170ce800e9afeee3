"""Runners for the paper's Figures 5-13.

* Figure 5 -- cumulative-optimization speedup curves (from Tables 2-8).
* Figure 6 -- per-phase time at 112 threads per optimization level.
* Figure 7 -- weak scaling of the L5 code (tree building blows up).
* Figure 8 -- per-thread tree-build sub-phase times (merge imbalance).
* Figure 10/11 -- weak scaling of the subspace build without/with vector
  reduction.
* Figure 12 -- weak scaling varying threads per node (+ process mode).
* Figure 13 -- strong-scaling speedup with the inflection where per-thread
  work runs out.

Figures 1-4 and 9 are illustrative diagrams with no data; Table 1 is a
taxonomy.  Neither is reproduced.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.app import run_variant
from ..core.phases import ALL_PHASES
from ..upc.params import MachineConfig, paper_section6_machine
from .common import BENCH, Scale, SeriesResult, TableResult
from .tables import TABLE_RUNNERS

#: ladder order used by figures 5 and 6 (table id per cumulative level)
FIG5_TABLES = ["table2", "table3", "table4", "table5", "table6", "table7",
               "table8"]
FIG5_LABELS = {
    "table2": "baseline",
    "table3": "+replicate",
    "table4": "+redistribute",
    "table5": "+cache",
    "table6": "+localbuild",
    "table7": "+async",
    "table8": "+subspace",
}


def run_fig5(scale: Scale = BENCH,
             tables: Optional[Dict[str, TableResult]] = None) -> SeriesResult:
    """Self-relative speedup (T_level(1)/T_level(P)) per cumulative level.

    The paper reports 81.4x at 112 threads for the fully optimized code.
    """
    if tables is None:
        tables = {tid: TABLE_RUNNERS[tid](scale) for tid in FIG5_TABLES}
    threads = tables[FIG5_TABLES[0]].thread_counts
    series: Dict[str, List[float]] = {}
    for tid in FIG5_TABLES:
        res = tables[tid]
        t1 = res.totals[0] if res.thread_counts[0] == 1 else res.totals[0]
        series[FIG5_LABELS[tid]] = [t1 / t for t in res.totals]
    return SeriesResult(figure_id="fig5", x_label="threads",
                        x=[float(p) for p in threads], series=series)


def run_fig6(scale: Scale = BENCH,
             tables: Optional[Dict[str, TableResult]] = None) -> SeriesResult:
    """Per-phase time at the largest thread count, per optimization level."""
    if tables is None:
        tables = {tid: TABLE_RUNNERS[tid](scale) for tid in FIG5_TABLES}
    series: Dict[str, List[float]] = {ph: [] for ph in ALL_PHASES}
    series["total"] = []
    x = []
    for i, tid in enumerate(FIG5_TABLES):
        res = tables[tid]
        x.append(float(i))
        for ph in ALL_PHASES:
            series[ph].append(res.phase_row(ph)[-1])
        series["total"].append(res.totals[-1])
    series = {k: v for k, v in series.items() if any(val > 0 for val in v)}
    notes = {"levels": [FIG5_LABELS[t] for t in FIG5_TABLES],
             "threads": tables[FIG5_TABLES[0]].thread_counts[-1]}
    return SeriesResult(figure_id="fig6", x_label="level",
                        x=x, series=series, notes=notes)


def _weak_scaling(figure_id: str, variant: str, scale: Scale,
                  threads_per_node: int = 16,
                  vector_reduction: bool = True) -> SeriesResult:
    """Weak scaling (constant bodies/thread) phase-time series."""
    series: Dict[str, List[float]] = {ph: [] for ph in ALL_PHASES}
    series["total"] = []
    x: List[float] = []
    notes: Dict[str, object] = {}
    for p in scale.weak_thread_counts:
        cfg = scale.config(
            nbodies=scale.weak_bodies_per_thread * p,
            vector_reduction=vector_reduction,
        )
        machine = paper_section6_machine(threads_per_node)
        res = run_variant(variant, cfg, p, machine=machine)
        x.append(float(p))
        for ph in ALL_PHASES:
            series[ph].append(res.phase_times[ph])
        series["total"].append(res.phase_times.total)
        if "subspace_counts" in res.variant_stats:
            notes.setdefault("subspace_counts", []).append(
                res.variant_stats["subspace_counts"][-1])
            notes.setdefault("level_counts", []).append(
                res.variant_stats["level_counts"][-1])
    series = {k: v for k, v in series.items() if any(val > 0 for val in v)}
    return SeriesResult(figure_id=figure_id, x_label="threads", x=x,
                        series=series, notes=notes)


def run_fig7(scale: Scale = BENCH) -> SeriesResult:
    """Weak scaling of the L5 (merge-build) code, 16 threads/node.

    The paper's claim: every phase scales except tree building, which
    becomes the most expensive phase above ~512 threads because of merge
    imbalance."""
    return _weak_scaling("fig7", "async", scale)


def run_fig8(scale: Scale = BENCH, nthreads: int = 128) -> SeriesResult:
    """Per-thread local-build vs merge time in one tree-build (L4+).

    The paper (128 threads, 250k bodies/thread): local build is balanced
    and < 0.5s; merge time ranges from ~0 to 26s."""
    cfg = scale.config(nbodies=scale.weak_bodies_per_thread * nthreads)
    machine = paper_section6_machine(16)
    res = run_variant("async", cfg, nthreads, machine=machine)
    sub = res.variant_stats["treebuild_subphases"][-1]
    x = [float(t) for t in range(nthreads)]
    return SeriesResult(
        figure_id="fig8", x_label="thread",
        x=x,
        series={"local_build": list(map(float, sub["local"])),
                "merge": list(map(float, sub["merge"]))},
        notes={"nthreads": nthreads},
    )


def run_fig10(scale: Scale = BENCH) -> SeriesResult:
    """Weak scaling, subspace build WITHOUT vector reduction."""
    return _weak_scaling("fig10", "subspace", scale, vector_reduction=False)


def run_fig11(scale: Scale = BENCH) -> SeriesResult:
    """Weak scaling, subspace build WITH vector reduction."""
    return _weak_scaling("fig11", "subspace", scale, vector_reduction=True)


def run_fig12(scale: Scale = BENCH) -> SeriesResult:
    """Weak scaling while varying threads per node (and process mode).

    The paper: configurations with fewer nodes win, but not by much
    (16 t/node on 4 nodes ~7% faster than 1 t/node on 64 nodes); disabling
    pthreads (process mode) improves ~50% over "1 thread/node"."""
    total_threads = [p for p in scale.weak_thread_counts if p <= 128]
    series: Dict[str, List[float]] = {}
    for tpn in (1, 4, 8, 16):
        key = f"{tpn} thread/node" if tpn == 1 else f"{tpn} threads/node"
        series[key] = []
        for p in total_threads:
            cfg = scale.config(nbodies=scale.weak_bodies_per_thread * p)
            machine = MachineConfig(threads_per_node=tpn, mode="pthread")
            res = run_variant("subspace", cfg, p, machine=machine)
            series[key].append(res.phase_times.total)
    series["1 process/node"] = []
    for p in total_threads:
        cfg = scale.config(nbodies=scale.weak_bodies_per_thread * p)
        machine = MachineConfig(threads_per_node=1, mode="process")
        res = run_variant("subspace", cfg, p, machine=machine)
        series["1 process/node"].append(res.phase_times.total)
    return SeriesResult(figure_id="fig12", x_label="threads",
                        x=[float(p) for p in total_threads], series=series)


def run_fig13(scale: Scale = BENCH,
              thread_counts: Optional[List[int]] = None) -> SeriesResult:
    """Strong-scaling speedup of the fully optimized code.

    The paper runs 2M bodies out to 512 threads; the inflection point lands
    where each thread has ~4k bodies.  At our scaled body count the
    inflection appears at the same *bodies per thread*, i.e. at a smaller
    thread count."""
    if thread_counts is None:
        thread_counts = [p for p in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
                         if p <= 8 * scale.nbodies]
    cfg = scale.config()
    totals: List[float] = []
    for p in thread_counts:
        machine = (MachineConfig(threads_per_node=1, mode="process")
                   if p <= 112 else paper_section6_machine(16))
        res = run_variant("subspace", cfg, p, machine=machine)
        totals.append(res.phase_times.total)
    base = totals[0]
    return SeriesResult(
        figure_id="fig13", x_label="threads",
        x=[float(p) for p in thread_counts],
        series={"total": totals,
                "speedup": [base / t for t in totals],
                "bodies_per_thread": [scale.nbodies / p
                                      for p in thread_counts]},
    )


FIGURE_RUNNERS = {
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig13": run_fig13,
}
