"""Time the program's set-up for one workload, in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints one JSON line: ``import_s`` (``import repro`` plus loading the
compiled kernel, whose compile cache the caller has already warmed),
``construct_s`` (``BarnesHutSimulation`` construction for the workload's
first run) and their sum ``setup_s``.  Body generation is the benchmark's
own work and is excluded.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    import repro  # noqa: F401
    from repro.kernels import load_kernel

    if name == "paper-ladder":
        import repro.experiments.tables  # noqa: F401
    load_kernel()
    import_s = time.perf_counter() - t0

    from workloads import WORKLOADS

    spec = WORKLOADS[name]
    bodies = spec.make_bodies(seed)
    with tempfile.TemporaryDirectory() as tmp:  # $TMPDIR, set by run.py
        t1 = time.perf_counter()
        spec.make_sim(seed, bodies, tmp)
        construct_s = time.perf_counter() - t1
    print(json.dumps({"import_s": import_s, "construct_s": construct_s,
                      "setup_s": import_s + construct_s}))


if __name__ == "__main__":
    main()
