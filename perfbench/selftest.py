"""Self-tests of the benchmark's own arithmetic and checks.

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py     # the same tests

They need numpy but not the program, except where a test says so.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

from checks import check_table, golden_path  # noqa: E402
from layers import (  # noqa: E402
    PER_LAYER_METRICS,
    LayerProbe,
    attribute,
    self_times,
)
from run import END_TO_END, pass_wall, tail  # noqa: E402
from workloads import WORKLOADS, OpLog, step_loop  # noqa: E402


class _Span:
    """Just the fields self_times reads (repro.obs.trace.Span has them)."""

    def __init__(self, name, ts, dur, depth, **args):
        self.name, self.depth = name, depth
        self.wall_ts, self.wall_dur = ts, dur
        self.args = args

    @property
    def wall_end(self):
        return self.wall_ts + self.wall_dur


def test_self_times_nested():
    spans = [
        _Span("c", 6.0, 1.0, 2),          # closed first, as a tracer logs
        _Span("b", 5.0, 4.0, 1),
        _Span("a", 1.0, 3.0, 1, hot_s=1.0),
        _Span("root", 0.0, 10.0, 0),
        _Span("root", 10.5, 1.0, 0),      # a sibling root, no children
    ]
    st = self_times(spans)
    assert st == {"root": 10.0 - 3.0 - 4.0 + 1.0, "a": 2.0, "b": 3.0,
                  "c": 1.0}
    table = attribute(spans, {"hot": 1.0}, wall_s=12.0)
    assert table["hot"] == 1.0
    assert table["unattributed"] == 12.0 - 11.0
    assert abs(sum(table.values()) - 12.0) < 1e-12


def test_probe_wrappers_add_up():
    """Spans, hot calls and the remainder tile the wall exactly."""
    from repro.obs import Tracer

    ticks = iter(range(1000))
    clock = lambda: float(next(ticks))  # noqa: E731 -- 1 s per reading
    tracer = Tracer(clock=clock)
    probe = LayerProbe(tracer, clock=clock)
    leaf = probe.hot("hot.leaf", lambda: None)
    inner = probe.span("mid", lambda: leaf())
    outer = probe.span("outer", lambda: (inner(), inner()))
    t0 = clock()
    outer()
    wall = clock() - t0
    table = attribute(tracer.spans, probe.hot_s, wall)
    assert probe.calls == {"outer": 1, "mid": 2, "hot.leaf": 2}
    assert table["hot.leaf"] == 2.0
    assert table["mid"] == 2 * (3.0 - 1.0)
    assert abs(sum(table.values()) - wall) < 1e-12
    assert table["unattributed"] >= 0.0


def _record(values):
    return {"thread_counts": [4, 64],
            "totals": [float(v).hex() for v in values],
            "phases": {"force": [float(v).hex() for v in values]}}


def test_golden_trips_on_one_ulp():
    want = _record([0.123, 4.5e-3])
    assert check_table("table2", _record([0.123, 4.5e-3]), want) == []
    got = _record([0.123, np.nextafter(4.5e-3, 1.0)])
    fails = check_table("table2", got, want)
    assert len(fails) == 2 and "P=64" in fails[0]
    path = golden_path(0)
    if path.exists():  # the shipped golden, perturbed by one ulp
        import json

        rec = json.loads(path.read_text())["table5"]
        bumped = dict(rec, totals=list(rec["totals"]))
        bumped["totals"][0] = np.nextafter(
            float.fromhex(rec["totals"][0]), np.inf).hex()
        assert check_table("table5", rec, rec) == []
        assert check_table("table5", bumped, rec)


def test_raising_step_is_counted():
    def step(i):
        if i == 2:
            raise RuntimeError("boom")

    log = OpLog()
    nxt, ok = step_loop(step, lambda i: [], log, 0, min_steps=5, seconds=0)
    assert (nxt, ok) == (3, False)
    assert (log.attempted, log.failed, len(log.times)) == (3, 1, 2)
    assert "raised RuntimeError: boom" in log.failures[0]


def test_failed_check_is_counted():
    log = OpLog()
    nxt, ok = step_loop(lambda i: None, lambda i: ["bad"] if i == 1 else [],
                        log, 0, min_steps=4, seconds=0)
    assert (nxt, ok, log.attempted, log.failed) == (2, False, 2, 1)


def test_tail_needs_ten_beyond():
    assert tail(list(range(101)))[1] == 0.9
    assert tail(list(range(50)))[1] == 0.8
    value, q = tail([1.0, 2.0, 3.0])
    assert (value, q) == (2.0, 0.5)


def test_pass_wall_sums_positions():
    first = [5.0, 1.0, 9.0, 2.0]
    second = [0.5, 8.0, 3.0, 3.0]
    assert pass_wall([first, second]) == 9.0 + 8.0


def test_benchmark_json_matches_code():
    import json

    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == list(PER_LAYER_METRICS)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


if __name__ == "__main__":
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except Exception as exc:  # report every test, then exit 1
                failed += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
            else:
                print(f"ok   {name}")
    sys.exit(1 if failed else 0)
