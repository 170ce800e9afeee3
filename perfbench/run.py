"""Step-level benchmark of the Barnes-Hut reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  ``--trace 0`` measures the
end-to-end metrics with no wrappers installed; ``--trace 1`` runs the same
workload untraced and then traced, and reports per-layer self times (see
``layers.py``) with the tracing overhead.  Human-readable lines come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Details (hardware, kernel
status, every failure) also go to ``.bench_build/perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

#: end-to-end metrics (all workloads): name -> unit
END_TO_END = {
    "setup_s": "s",
    "step_s_p90": "s",
    "ladder_s": "s",
    "force_err_p50": "ratio",
    "force_err_p99": "ratio",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 9
#: a tail percentile needs this many samples beyond it
TAIL_MIN_BEYOND = 10


def tail(values: List[float], q: float = 0.9) -> Tuple[float, float]:
    """The ``q`` percentile, lowered until TAIL_MIN_BEYOND samples lie
    beyond it but never below the median; returns (value, quantile)."""
    from checks import percentile

    n = len(values)
    q = max(0.5, min(q, 1.0 - TAIL_MIN_BEYOND / n))
    return percentile(values, 100.0 * q), q


def pass_wall(walls: List[List[float]]) -> float:
    """The run's slowest pass of a fixed operation list, position by
    position: the sum of each position's slowest wall.  ``walls[k]``
    holds the walls of position ``k`` across the passes.

    On a shared host whose speed swings by tens of percent within
    seconds, and in unequal shares from one run to the next, medians of
    the same code spread by 0.15-0.35 across runs; the slow end, where
    the run is contended, repeats.  A run holds ~9 ladder passes, too
    few to read a 90th percentile at each position."""
    return sum(max(w) for w in walls)


def say(text: str) -> None:
    print(text, flush=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One benchmark invocation: its checks, metrics and report."""

    def __init__(self, args):
        from workloads import WORKLOADS, OpLog

        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.log = OpLog()
        self.metrics: Dict[str, float] = {}
        self.notes: Dict[str, object] = {}
        #: run-level failures (not tied to one operation)
        self.faults: List[str] = []

    # -- helpers --------------------------------------------------------- #
    def step_samples(self, values: List[float]) -> None:
        """Per-step wall times, with their median and 10th percentile
        (recorded and printed, not metrics: they do not repeat)."""
        from checks import percentile

        if values:
            self.notes["step_s_samples"] = values
            self.notes["step_s_median"] = statistics.median(values)
            self.notes["step_s_p10"] = percentile(values, 10.0)

    def setup(self) -> None:
        from machine import measure_setup

        runs = measure_setup(self.args.workload, self.args.seed,
                             SETUP_REPEATS)
        self.metrics["setup_s"] = statistics.median(r["setup_s"] for r in runs)
        self.notes["setup_runs"] = runs

    # -- workloads ------------------------------------------------------- #
    def sim(self) -> None:
        from workloads import Stepper, step_loop

        spec, seed, seconds = self.spec, self.args.seed, self.args.seconds
        if not self.args.trace:
            self.setup()
        bodies = spec.make_bodies(seed)
        with tempfile.TemporaryDirectory() as ckdir:
            stepper = Stepper(spec.make_sim(seed, bodies, ckdir))
            t0 = time.perf_counter()
            nxt, ok = step_loop(stepper.step, stepper.check, self.log, 0,
                                1 + spec.pass_steps,
                                0.0 if self.args.trace else seconds)
            if self.args.trace:
                if ok:
                    self.traced_sim(stepper, nxt,
                                    seconds - (time.perf_counter() - t0))
                return
        times = self.log.times[1:]
        self.metrics["peak_rss_mb"] = peak_rss_mb()
        self.step_samples(times)
        if times:
            value, q = tail(times)
            self.metrics["step_s_p90"] = value
            self.notes["step_s_p90_quantile"] = q
        # the passes tile the measured steps; a partial last pass is dropped
        k = spec.pass_steps
        whole = len(times) // k * k
        if whole:
            self.metrics["ladder_s"] = pass_wall(
                [times[pos:whole:k] for pos in range(k)])
        self.accuracy()

    def accuracy(self) -> None:
        from workloads import reference_force_error

        with tempfile.TemporaryDirectory() as ckdir:
            err, fails = reference_force_error(self.spec, ckdir)
        self.metrics.update(err)
        self.faults.extend(fails)

    def traced_sim(self, stepper, start: int, budget: float) -> None:
        """Alternate passes of traced and untraced steps, so the tracing
        overhead is a paired comparison that the box's slow speed drift
        cannot fake (whole passes, so periodic work such as checkpoints
        lands on both sides alike)."""
        from layers import LayerProbe
        from repro.obs import Tracer
        from workloads import step_loop

        self.tracer = Tracer()
        probe = self.layer_probe = LayerProbe(self.tracer)
        untraced: List[float] = []
        traced: List[float] = []

        def step(i: int) -> None:
            on = (i - start) // self.spec.pass_steps % 2 == 0
            if on:
                probe.op = i
                probe.install()
            try:
                t0 = time.perf_counter()
                stepper.step(i)
                (traced if on else untraced).append(time.perf_counter() - t0)
            finally:
                if on:
                    probe.uninstall()

        # at least one traced and one untraced pass
        step_loop(step, stepper.check, self.log, start,
                  2 * self.spec.pass_steps, budget)
        if traced and untraced:
            overhead = (statistics.median(traced)
                        / statistics.median(untraced) - 1.0)
            self.layer_report(sum(traced), len(traced), len(traced),
                              overhead)

    def ladder(self) -> None:
        from checks import load_golden

        spec, seed, seconds = self.spec, self.args.seed, self.args.seconds
        try:
            golden = load_golden(spec.ladder_seed(seed))
        except (OSError, ValueError) as exc:
            self.faults.append(f"golden file unreadable: {exc}")
            return
        if not self.args.trace:
            self.setup()
            passes = self.ladder_passes(golden, seconds)
            self.metrics["peak_rss_mb"] = peak_rss_mb()
            self.step_samples(self.log.times)
            self.notes["pass_s"] = passes
            if self.log.failed == 0:  # every table timed in every pass
                tables = list(self.notes["table_s"].values())
                ladder = pass_wall(tables)
                self.metrics["ladder_s"] = ladder
                # per simulated step of that pass: a run holds too few
                # passes, and tables too unlike to pool, for a percentile
                self.metrics["step_s_p90"] = ladder / (
                    len(tables) * spec.steps_per_table(seed))
            self.accuracy()
            return
        untraced = self.ladder_passes(golden, seconds / 2)
        with self.probe() as probe:
            traced = self.ladder_passes(golden, seconds / 2, probe)
        self.layer_report(sum(traced), len(traced),
                          spec.steps_per_table(seed) * 8 * len(traced),
                          statistics.median(traced)
                          / statistics.median(untraced) - 1.0)

    def ladder_passes(self, golden, budget: float, probe=None) -> List[float]:
        """Whole passes while the next one fits the budget (at least one)."""
        from workloads import ladder_pass

        passes: List[float] = []
        t0 = time.perf_counter()
        table_times = self.notes.setdefault("table_s", {})
        while True:
            passes.append(ladder_pass(self.spec, self.args.seed, golden,
                                      self.log, table_times, probe))
            if time.perf_counter() - t0 + passes[-1] > budget:
                return passes

    # -- traced run ------------------------------------------------------ #
    @contextmanager
    def probe(self):
        """Layer wrappers installed for the body of the ``with``."""
        from layers import LayerProbe
        from repro.obs import Tracer

        self.tracer = Tracer()
        self.layer_probe = LayerProbe(self.tracer).install()
        try:
            yield self.layer_probe
        finally:
            self.layer_probe.uninstall()

    def layer_report(self, wall: float, nops: int, nsteps: int,
                     overhead: float) -> None:
        """Per-layer metrics, the self-time table, and the span export.
        ``wall`` is the traced wall summed over ``nops`` operations (time
        steps, or ladder passes) that executed ``nsteps`` time steps."""
        from repro.obs.export import (
            load_and_validate_chrome_trace,
            write_chrome_trace,
        )

        spans = self.tracer.spans
        values, table = self.layer_probe.metrics(spans, wall, nops, nsteps,
                                                 overhead)
        self.metrics.update(values)
        say(f"{'layer (self time)':34s} {'s/op':>10s} {'share':>7s}")
        for name, sec in sorted(table.items(), key=lambda kv: -kv[1]):
            say(f"{name:34s} {sec / nops:10.4f} {sec / wall:7.1%}")
        say(f"{'traced wall':34s} {wall / nops:10.4f} "
                 f"over {nops} op(s); trace overhead {overhead:+.1%}")
        path = BUILD / "traces" / (f"{self.args.workload}-seed"
                                   f"{self.args.seed}.json")
        write_chrome_trace(path, spans, metadata={
            "workload": self.args.workload, "seed": self.args.seed})
        try:
            events = load_and_validate_chrome_trace(path)
        except ValueError as exc:
            self.faults.append(f"chrome trace invalid: {exc}")
        else:
            say(f"chrome trace: {path.relative_to(ROOT)} "
                     f"({events} events, validated)")

    # -- output ---------------------------------------------------------- #
    def finish(self, hardware: dict, kernel: dict) -> dict:
        from layers import PER_LAYER_METRICS

        if self.args.trace:
            wanted = {n: u for n, u, _ in PER_LAYER_METRICS}
        else:
            wanted = dict(END_TO_END)
        missing = [n for n in wanted if n not in self.metrics]
        if missing and not (self.log.failed or self.faults):
            self.faults.append(f"metrics not measured: {missing}")
        for msg in self.log.failures + self.faults:
            say(f"CHECK FAILED: {msg}")
        attempted = max(self.log.attempted, 1)
        failed = self.log.failed
        if self.faults:
            failed = attempted  # a run-level fault voids every operation
        say(f"error_rate {failed}/{attempted} = "
                 f"{failed / attempted:.3g} ratio")
        if not self.args.trace:
            for name, unit in END_TO_END.items():
                if name in self.metrics:
                    say(f"{name:16s} {self.metrics[name]:.6g} {unit}")
            for name in ("step_s_median", "step_s_p10"):
                if name in self.notes:
                    say(f"{name:16s} {self.notes[name]:.6g} s "
                        "(not a metric)")
        detail = {
            "workload": self.args.workload, "seed": self.args.seed,
            "seconds": self.args.seconds, "trace": self.args.trace,
            "hardware": hardware, "kernel": kernel,
            "failures": self.log.failures + self.faults,
            "notes": self.notes,
            "metrics": self.metrics,
        }
        out = BUILD / "results" / (f"{self.args.workload}-seed"
                                   f"{self.args.seed}-trace"
                                   f"{self.args.trace}.json")
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(detail, indent=1, default=str) + "\n")
        return {
            "correct": failed == 0 and not missing,
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": self.metrics[n], "unit": u}
                        for n, u in wanted.items() if n in self.metrics},
        }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run "
              "from the root of a source checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    # everything the run writes -- temp files (the compiler's too), the
    # kernel compile cache -- stays in the checkout; warming the cache here
    # means no timed region (nor the set-up probes) ever pays the compile
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    os.environ["REPRO_KERNEL_CACHE"] = str(BUILD / "kernel-cache")
    sys.path.insert(0, str(ROOT / "src"))
    from machine import hardware
    from repro.kernels import c_kernel_available, kernel_status, load_kernel

    kernel = load_kernel()
    kinfo = {"available": c_kernel_available(), "status": kernel_status(),
             "path": getattr(kernel, "path", None)}

    run = Run(args)
    say(f"perfbench {args.workload} seed={args.seed} "
            f"seconds={args.seconds:g} trace={args.trace}")
    if not kinfo["available"]:
        run.faults.append("compiled kernel unavailable: flat-c would serve "
                          f"the numpy engine ({kinfo['status']})")
    if args.workload == "paper-ladder":
        run.ladder()
    else:
        run.sim()
    hw = hardware()
    say(f"hardware: {json.dumps(hw)}")
    say(f"kernel: {json.dumps(kinfo)}")
    print(json.dumps(run.finish(hw, kinfo)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
