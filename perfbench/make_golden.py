"""Regenerate the paper-ladder golden files.

    python3 perfbench/make_golden.py [SEED ...]

Runs tables 2-9 at the paper-ladder workload's scale for each input seed
(default: every supported one) and writes ``golden/paper-ladder-seed<k>.json``
with the simulated totals and phase rows as exact hex floats.  Only
regenerate when a change is meant to alter the simulated tables.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import GOLDEN_DIR, golden_path, table_record  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv) -> None:
    from repro.experiments.tables import TABLE_RUNNERS

    spec = WORKLOADS["paper-ladder"]
    seeds = [int(a) for a in argv] or list(range(spec.golden_seeds))
    GOLDEN_DIR.mkdir(exist_ok=True)
    for seed in seeds:
        scale = spec.scale(seed)
        doc = {tid: table_record(runner(scale))
               for tid, runner in TABLE_RUNNERS.items()}
        golden_path(seed).write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {golden_path(seed).relative_to(HERE.parent)}",
              flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
