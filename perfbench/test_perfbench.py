"""Tests of the benchmark itself: span accounting, failure counting, metric
names against BENCHMARK.json, binding restoration and the oracles."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def tinq_bindings() -> dict:
    import scipy.optimize
    import tinq.cli  # noqa: F401  (loaded by traced runs; load it up front)

    mods = {n: m for n, m in sys.modules.items() if n == "tinq" or n.startswith("tinq.")}
    mods["scipy.optimize"] = scipy.optimize
    return {(n, a): v for n, m in mods.items() for a, v in vars(m).items() if callable(v)}


def test_self_time_subtracts_direct_children():
    rec = spans.Recorder()
    rec.spans = [
        [0, "a", -1, 0.0, 10.0],
        [0, "b", 0, 1.0, 4.0],
        [0, "c", 1, 2.0, 3.0],
        [0, "b", 0, 5.0, 6.0],
    ]
    assert rec.self_times() == {"a": [1, 6.0], "b": [2, 3.0], "c": [1, 1.0]}


def test_wrapped_calls_nest_and_count():
    rec = spans.Recorder()
    inner = rec.wrap("m.inner", lambda x: x + 1)
    outer = rec.wrap("m.outer", lambda x: inner(inner(x)))
    with pytest.raises(ZeroDivisionError):
        rec.wrap("m.bad", lambda: 1 / 0)()
    assert outer(1) == 3
    parents = {name: parent for _, name, parent, _, _ in rec.spans}
    assert parents["m.outer"] == -1 and rec.spans[parents["m.inner"]][1] == "m.outer"
    times = rec.self_times()
    assert times["m.inner"][0] == 2 and times["m.outer"][0] == 1
    total = rec.spans[1][4] - rec.spans[1][3]
    assert sum(s for _, s in times.values()) == pytest.approx(
        total + rec.spans[0][4] - rec.spans[0][3])
    assert rec.errors["m.bad", "ZeroDivisionError"] == 1


@pytest.mark.parametrize("fault", ["raise", "wrong-output"])
def test_failed_op_raises_fail_frac(fault):
    wl = workloads.NumSlots(seed=3)
    good = wl.op

    def op(i):
        w, d = good(i)
        if i == 2:
            if fault == "raise":
                raise RuntimeError("injected")
            d = d + 5.0  # far outside the region
        return w, d

    wl.op = op
    res = run.timed_run(wl, 0.05)
    assert set(res["failures"]) == {2}
    assert res["attempted"] >= 3


def test_timed_run_of_healthy_workload_has_no_failures():
    res = run.timed_run(workloads.NumSlots(seed=4), 0.05)
    assert res["failures"] == {} and res["ops"] >= 1


def test_benchmark_json_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert set(BENCHMARK["workloads"][i]["name"] for i in range(3)) == set(workloads.WORKLOADS)
    e2e = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert all(m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())


def run_main(capsys, monkeypatch, trace: int) -> dict:
    for var, value in run.SERIAL_ENV.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "STARTUP_PROBES", 1)
    code = run.main(["--workload", "num-slots", "--seed", "5", "--seconds", "0.05",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


def test_printed_metric_names_match_benchmark_json(capsys, monkeypatch):
    before = tinq_bindings()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        metrics = run_main(capsys, monkeypatch, trace)
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {k: v["unit"] for k, v in metrics.items()} == declared
        assert all(NAME.match(k) for k in metrics)
        assert tinq_bindings() == before  # nothing left wrapped after either run


def test_tracing_wraps_every_binding_and_restores_them(monkeypatch):
    import tinq
    import tinq.cli
    import tinq.sim

    monkeypatch.setattr(spans, "TRACED", spans.TRACED + (("sim", ("no_such_function",)),))
    before = tinq_bindings()
    rec = spans.Recorder()
    with spans.Tracing(rec) as tracing:
        assert tinq.sim.generate_drop is not before["tinq.sim", "generate_drop"]
        assert tinq.generate_drop is tinq.sim.generate_drop
        assert tinq.cli.dispatch.traced_original is before["tinq.cli", "dispatch"]
        workloads.NumSlots(seed=1).op(0)
    assert tracing.missing == ["sim.no_such_function"]
    assert tinq_bindings() == before
    names = {name for _, name, _, _, _ in rec.spans}
    assert {"schedule.num_step", "optimize.max_weighted_gdof_lp", "scipy.linprog",
            "matching.max_matching_weight", "scipy.linear_sum_assignment"} <= names


def test_oracles_on_the_reference_network():
    a = np.array([[2.0, 0.5, 0.1], [0.2, 1.0, 0.5], [1.0, 0.5, 1.5]])
    np.testing.assert_allclose(oracle.min_power(a, [0.5, 0.6, 0.7]), [-1.2, -0.4, -0.7])
    assert oracle.min_power(a, [2.0, 1.0, 1.5]) is None
    assert oracle.polytope(a, (0, 1, 2))[(0, 1)] == pytest.approx(2.3)
    assert oracle.lp_point(a, np.ones(3))[0] == pytest.approx(2.5)
