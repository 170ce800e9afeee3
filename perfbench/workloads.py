"""The benchmark's workloads and the loops that drive the program.

Everything here reaches the program through its public entry points:
``BarnesHutSimulation`` (stepped one time step at a time, exactly as
``BarnesHutSimulation.run`` steps it) on bodies the benchmark generates,
and ``repro.experiments.tables.TABLE_RUNNERS``.  The program is imported
lazily, so this module loads without it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from checks import (
    accuracy_sample,
    check_table,
    finite_state,
    force_errors,
    percentile,
    table_record,
)

#: input seed of the accuracy reference.  The force error is measured on
#: this one fixed input of each workload, so it reads the same in every
#: run and moves only when the program's accuracy does (across inputs it
#: varies by ~15% at p99, more than a useful bound)
ACCURACY_SEED = 0


@dataclass(frozen=True)
class SimWorkload:
    """``subspace`` + ``flat-c`` stepped for the run's time budget."""

    name: str
    why: str
    distribution: str
    nbodies: int
    nthreads: int
    theta: float
    #: stated accuracy envelope: the run fails if force_err_p99 exceeds it
    err_p99_envelope: float
    accuracy_bodies: int
    #: consecutive measured steps that make one pass of the fixed
    #: operation list ``ladder_s`` times (the sim's analog of a ladder
    #: pass); a run executes the startup step plus at least one pass
    pass_steps: int
    guards: bool = False
    checkpoint_every: int = 0
    #: the accuracy reference runs this many steps; the error is taken at
    #: the force phase of the last one
    accuracy_steps: int = 1

    def config(self, seed: int, checkpoint_dir: Optional[str] = None):
        from repro import BHConfig

        return BHConfig(
            nbodies=self.nbodies, theta=self.theta,
            distribution=self.distribution, force_backend="flat-c",
            # steps are driven one at a time; nsteps only bounds the loop
            nsteps=1_000_000, warmup_steps=1, seed=seed,
            guards=self.guards, checkpoint_every=self.checkpoint_every,
            checkpoint_dir=checkpoint_dir if self.checkpoint_every else None)

    def make_bodies(self, seed: int):
        from repro.nbody.distributions import make_distribution

        return make_distribution(self.distribution, self.nbodies, seed=seed)

    def make_sim(self, seed: int, bodies, checkpoint_dir: Optional[str]):
        from repro import BarnesHutSimulation

        return BarnesHutSimulation(self.config(seed, checkpoint_dir),
                                   self.nthreads, variant="subspace",
                                   bodies=bodies)

    def make_accuracy_sim(self, bodies, checkpoint_dir: Optional[str]):
        return self.make_sim(ACCURACY_SEED, bodies, checkpoint_dir)


@dataclass(frozen=True)
class LadderWorkload:
    """``TABLE_RUNNERS`` for tables 2-9 on the default object-tree engine."""

    name: str
    why: str
    nbodies: int
    thread_counts: Tuple[int, ...]
    err_p99_envelope: float
    #: goldens exist for input seeds 0 .. golden_seeds-1 (seed mod this)
    golden_seeds: int = 10

    def ladder_seed(self, seed: int) -> int:
        return seed % self.golden_seeds

    def scale(self, seed: int):
        from repro.experiments.common import TEST

        # TEST: nsteps=2 with 1 warm-up step
        return TEST.with_(name=self.name, nbodies=self.nbodies,
                          thread_counts=list(self.thread_counts),
                          seed=self.ladder_seed(seed))

    def steps_per_table(self, seed: int) -> int:
        sc = self.scale(seed)
        return len(sc.thread_counts) * sc.nsteps

    @property
    def accuracy_bodies(self) -> int:
        return self.nbodies

    @property
    def accuracy_steps(self) -> int:
        return self.scale(ACCURACY_SEED).nsteps

    def make_bodies(self, seed: int):
        from repro.core.app import make_bodies

        return make_bodies(self.scale(seed).config())

    def make_sim(self, seed: int, bodies, checkpoint_dir: Optional[str],
                 variant: str = "baseline"):
        """The ladder's first run (table 2: baseline at the smallest P),
        or the same configuration under another variant."""
        from repro import BarnesHutSimulation
        from repro.upc.params import paper_section5_machine

        return BarnesHutSimulation(self.scale(seed).config(),
                                   self.thread_counts[0],
                                   machine=paper_section5_machine(),
                                   variant=variant, bodies=bodies)

    def make_accuracy_sim(self, bodies, checkpoint_dir: Optional[str]):
        """Table 8's variant (subspace) on the ladder's engine."""
        return self.make_sim(ACCURACY_SEED, bodies, checkpoint_dir,
                             variant="subspace")


Workload = Union[SimWorkload, LadderWorkload]

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    SimWorkload(
        name="sim-collision-16k",
        why="subspace+flat-c steps of a theta=0.5 collision: emulated object "
            "tree + cofm and the C walk on a deep tree; guards and a "
            "checkpoint every 2 steps",
        distribution="collision", nbodies=16384, nthreads=16, theta=0.5,
        err_p99_envelope=0.04, accuracy_bodies=2048, pass_steps=4,
        guards=True, checkpoint_every=2),
    LadderWorkload(
        name="paper-ladder",
        why="tables 2-9 at n=512, P in {4, 16}: UPC emulation, frontier "
            "and object-tree traversal; never touches kernels or Morton build",
        nbodies=512, thread_counts=(4, 16), err_p99_envelope=0.2),
)}


# ---------------------------------------------------------------------- #
# operation accounting                                                   #
# ---------------------------------------------------------------------- #
@dataclass
class OpLog:
    """Attempted / failed operations (steps or tables) and their times."""

    times: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def record(self, seconds: Optional[float], failures: List[str]) -> bool:
        """One finished (or raised, ``seconds=None``) operation; returns
        whether it passed."""
        self.attempted += 1
        if seconds is not None:
            self.times.append(seconds)
        if failures:
            self.failed += 1
            self.failures.extend(failures)
        return not failures


def step_loop(step: Callable[[int], None], check: Callable[[int], List[str]],
              log: OpLog, start: int, min_steps: int,
              seconds: float) -> Tuple[int, bool]:
    """Run time steps from ``start`` until ``min_steps`` ran and
    ``seconds`` elapsed.  A step that raises or fails ``check`` is counted
    as a failed operation and ends the loop (the state is no longer
    trustworthy).  Returns (next step index, whether all steps passed)."""
    clock = time.perf_counter
    t_start = clock()
    i = start
    while i - start < min_steps or clock() - t_start < seconds:
        t0 = clock()
        try:
            step(i)
        except Exception as exc:  # counted, reported, and the loop ends
            log.record(None, [f"step {i} raised {type(exc).__name__}: {exc}"])
            return i + 1, False
        dt = clock() - t0
        if not log.record(dt, [f"step {i}: {m}" for m in check(i)]):
            return i + 1, False
        i += 1
    return i, True


class Stepper:
    """Steps one ``BarnesHutSimulation`` and snapshots the force phase of
    ``accuracy_step``, if given: positions before the step, accelerations
    after it (the advance phase leaves ``acc`` alone)."""

    def __init__(self, sim, accuracy_step: Optional[int] = None):
        self.sim = sim
        self.accuracy_step = accuracy_step
        self.snapshot: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def step(self, i: int) -> None:
        sim = self.sim
        pos = sim.bodies.pos.copy() if i == self.accuracy_step else None
        sim.variant.step(i)
        if sim.resilience is not None:
            sim.resilience.after_step(sim, i)
        if pos is not None:
            self.snapshot = (pos, sim.bodies.acc.copy())

    def check(self, _i: int) -> List[str]:
        fails = [f"non-finite {name}"
                 for name in finite_state(self.sim.bodies)]
        backend = self.sim.variant.force_backend
        if self.sim.cfg.force_backend != "flat-c":
            return fails
        primary = getattr(backend, "primary", backend)
        if not getattr(primary, "kernel_active", False):
            fails.append("flat-c kernel inactive: the numpy engine served "
                         "the force phase")
        if getattr(backend, "fallbacks_served", 0):
            fails.append("force backend degraded to a fallback engine")
        return fails

    def force_error(self, sample: int, seed: int,
                    envelope: float) -> Tuple[Dict[str, float], List[str]]:
        """p50/p99 relative force error at the snapshot, and failures."""
        if self.snapshot is None:
            return {}, [f"accuracy step {self.accuracy_step} not reached"]
        pos, acc = self.snapshot
        idx = accuracy_sample(len(pos), sample, seed)
        errs = force_errors(pos, self.sim.bodies.mass, acc, self.sim.cfg.eps,
                            idx)
        out = {"force_err_p50": percentile(errs, 50),
               "force_err_p99": percentile(errs, 99)}
        fails = []
        if not np.isfinite(errs).all():
            fails.append("force error: non-finite")
        elif out["force_err_p99"] > envelope:
            fails.append(f"force_err_p99 {out['force_err_p99']:.4g} outside "
                         f"the envelope {envelope:g}")
        return out, fails


def reference_force_error(spec: Workload, workdir: Optional[str]
                          ) -> Tuple[Dict[str, float], List[str]]:
    """force_err_p50/p99 of the workload's accuracy reference (its own
    configuration at ACCURACY_SEED), and any failures."""
    sim = spec.make_accuracy_sim(spec.make_bodies(ACCURACY_SEED), workdir)
    stepper = Stepper(sim, spec.accuracy_steps - 1)
    log = OpLog()
    step_loop(stepper.step, stepper.check, log, 0, spec.accuracy_steps, 0.0)
    err, fails = stepper.force_error(spec.accuracy_bodies, ACCURACY_SEED,
                                     spec.err_p99_envelope)
    return err, [f"accuracy reference: {m}" for m in log.failures + fails]


# ---------------------------------------------------------------------- #
# paper ladder                                                           #
# ---------------------------------------------------------------------- #
def ladder_pass(spec: LadderWorkload, seed: int, golden: Dict[str, dict],
                log: OpLog, table_times: Dict[str, List[float]],
                probe=None) -> float:
    """Regenerate tables 2-9 once, checking each against the golden file.
    ``log`` gets one wall-per-simulated-step sample per table."""
    from repro.experiments.tables import TABLE_RUNNERS

    clock = time.perf_counter
    scale = spec.scale(seed)
    steps = spec.steps_per_table(seed)
    t_pass = clock()
    for tid, runner in TABLE_RUNNERS.items():
        t0 = clock()
        if probe is not None:
            probe.op = tid
            probe.push(f"experiments.table.{tid}")
        try:
            result = runner(scale)
        except Exception as exc:  # counted, reported, the pass goes on
            log.record(None, [f"{tid} raised {type(exc).__name__}: {exc}"])
            continue
        finally:
            if probe is not None:
                probe.pop()
        dt = clock() - t0
        table_times.setdefault(tid, []).append(dt)
        log.record(dt / steps,
                   check_table(tid, table_record(result), golden.get(tid)))
    return clock() - t_pass
