"""What the numbers were measured on, and the program's set-up time.

* :func:`hardware` records the CPU, affinity and library versions, plus an
  effective-parallelism probe: one ``kernel_gravity`` call on a fixed tree
  at ``threads=1`` and at ``threads=nproc``.  On a box whose logical CPUs
  share one core the ratio reads ~1.0 -- a property of the box, stated so
  no result reads as a thread-scaling claim.
* :func:`measure_setup` times ``setup_probe.py`` in fresh interpreters.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def parallelism_probe(nbodies: int = 8192,
                      repeats: int = 3) -> Dict[str, float]:
    """Best-of-``repeats`` wall of one kernel call at 1 and nproc threads."""
    import numpy as np
    from repro.kernels import kernel_gravity, load_kernel
    from repro.nbody.bbox import compute_root
    from repro.nbody.plummer import plummer
    from repro.octree.flat import prepare_bodies
    from repro.octree.morton_build import build_flat_tree

    kernel = load_kernel()
    if kernel is None:
        return {}
    bodies = plummer(nbodies, seed=0)
    tree = build_flat_tree(bodies.pos, bodies.mass, compute_root(bodies.pos))
    prepared = prepare_bodies(bodies.pos, bodies.mass)
    idx = np.arange(nbodies)
    out = {}
    for threads in sorted({1, nproc()}):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            kernel_gravity(tree, idx, bodies.pos, bodies.mass, 0.5, 0.05,
                           prepared=prepared, threads=threads, kernel=kernel)
            best = min(best, time.perf_counter() - t0)
        out[f"kernel_s_threads{threads}"] = best
    out["thread_speedup"] = (out["kernel_s_threads1"]
                             / out[f"kernel_s_threads{nproc()}"])
    return out


def hardware() -> Dict[str, object]:
    import numpy

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = []
    return {
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": affinity,
        "cpu_model": cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "parallelism_probe": parallelism_probe(),
    }


def measure_setup(workload: str, seed: int,
                  repeats: int) -> List[Dict[str, float]]:
    """Run the set-up probe ``repeats`` times, each in a fresh interpreter
    (so ``import repro`` is paid every time), and return its timings."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed)],
            cwd=HERE.parent, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return runs
