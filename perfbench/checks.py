"""Output checks: the paper-table golden files and the force-error oracle.

Every check returns a list of failure messages (empty = passed); the
benchmark prints each by name and counts the operation it belongs to as
failed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


# ---------------------------------------------------------------------- #
# paper-table goldens                                                    #
# ---------------------------------------------------------------------- #
def table_record(result) -> Dict[str, object]:
    """The simulated outputs of one ``TableResult``, floats as exact hex."""
    return {
        "thread_counts": list(result.thread_counts),
        "totals": [float(v).hex() for v in result.totals],
        "phases": {ph: [float(v).hex() for v in row]
                   for ph, row in result.phases.items()},
    }


def golden_path(seed: int) -> Path:
    return GOLDEN_DIR / f"paper-ladder-seed{seed}.json"


def load_golden(seed: int) -> Dict[str, dict]:
    return json.loads(golden_path(seed).read_text())


def check_table(table_id: str, got: Dict[str, object],
                want: Dict[str, object]) -> List[str]:
    """Bit-exact comparison of one table's simulated totals and phases."""
    if want is None:
        return [f"{table_id}: no golden record"]
    fails = []
    if got["thread_counts"] != want["thread_counts"]:
        return [f"{table_id}: thread counts {got['thread_counts']} != "
                f"{want['thread_counts']}"]
    threads = got["thread_counts"]
    rows = [("total", got["totals"], want["totals"])]
    rows += [(ph, got["phases"].get(ph), row)
             for ph, row in want["phases"].items()]
    rows += [(ph, row, None) for ph, row in got["phases"].items()
             if ph not in want["phases"]]
    for name, g, w in rows:
        if g is None or w is None:
            fails.append(f"{table_id} {name}: row present on one side only")
            continue
        for p, gv, wv in zip(threads, g, w):
            if float.fromhex(gv) != float.fromhex(wv):
                fails.append(f"{table_id} {name}[P={p}]: simulated "
                             f"{float.fromhex(gv)!r} != golden "
                             f"{float.fromhex(wv)!r}")
    return fails


# ---------------------------------------------------------------------- #
# force error vs direct summation                                        #
# ---------------------------------------------------------------------- #
def direct_acc_sample(pos: np.ndarray, mass: np.ndarray, eps: float,
                      idx: np.ndarray, chunk: int = 64) -> np.ndarray:
    """Plummer-softened direct-sum accelerations (G = 1) at bodies
    ``idx`` from every body: the O(k n) reference, written here rather
    than taken from the program so the oracle is independent of it."""
    x, y, z = (np.ascontiguousarray(pos[:, i]) for i in range(3))
    out = np.empty((len(idx), 3))
    eps_sq = eps * eps
    for lo in range(0, len(idx), chunk):
        sel = idx[lo:lo + chunk]
        dx = x[None, :] - x[sel, None]
        dy = y[None, :] - y[sel, None]
        dz = z[None, :] - z[sel, None]
        w = dx * dx
        w += dy * dy
        w += dz * dz
        w += eps_sq
        w *= np.sqrt(w)
        np.divide(mass[None, :], w, out=w)
        w[np.arange(len(sel)), sel] = 0.0  # no self-interaction
        out[lo:lo + len(sel), 0] = (w * dx).sum(axis=1)
        out[lo:lo + len(sel), 1] = (w * dy).sum(axis=1)
        out[lo:lo + len(sel), 2] = (w * dz).sum(axis=1)
    return out


def force_errors(pos: np.ndarray, mass: np.ndarray, acc: np.ndarray,
                 eps: float, idx: np.ndarray) -> np.ndarray:
    """Per-body relative acceleration error |a - a_direct| / |a_direct|."""
    ref = direct_acc_sample(pos, mass, eps, idx)
    return (np.linalg.norm(acc[idx] - ref, axis=1)
            / np.linalg.norm(ref, axis=1))


def accuracy_sample(n: int, k: int, seed: int) -> np.ndarray:
    """A fixed seeded sample of ``k`` body ids (all of them if k >= n)."""
    if k >= n:
        return np.arange(n)
    rng = np.random.default_rng([seed, 0xACC])
    return np.sort(rng.choice(n, size=k, replace=False))


def finite_state(bodies) -> List[str]:
    """Names of body arrays holding NaN or Inf."""
    return [name for name in ("pos", "vel", "acc")
            if not np.isfinite(getattr(bodies, name)).all()]


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))
