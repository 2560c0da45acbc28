"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload num-slots --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``. With
``--trace 0`` the workload runs untraced in a closed loop for ``--seconds``
and the end-to-end metrics are printed; with ``--trace 1`` fixed passes of
the workload alternate untraced and traced and the per-module metrics are
printed. The second-to-last stdout line is a report (provenance, tail
percentile, failures, module shares); the last line is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 4     # fresh-interpreter set-ups per run, besides the run's own
STARTUP_PROBES = 3   # fresh interpreters per cli.import_s / cli.interpreter_s
TAIL_BEYOND = 10     # samples that must lie beyond the reported tail percentile
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
# All work runs serially: numpy's BLAS would otherwise spread matrix products
# over both cores of the 2-vCPU machine and add another process's noise.
SERIAL_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def percentile(ordered: list, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail(ordered: list) -> tuple[float, float]:
    """(value, percentile) of the highest of TAIL_PERCENTILES with at least
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    for p in TAIL_PERCENTILES:
        if len(ordered) * (100.0 - p) / 100.0 >= TAIL_BEYOND:
            return percentile(ordered, p), p
    return ordered[-1], 100.0


def run_op(op, i: int, outputs: dict, failures: dict) -> float:
    """Run op ``i``, keeping its output or its failure; return its latency."""
    t0 = perf_counter()
    try:
        outputs[i] = op(i)
    except Exception as e:  # a failed op is counted, not fatal
        failures[i] = f"{type(e).__name__}: {str(e)[:300]}"
    return perf_counter() - t0


def timed_run(workload, seconds: float) -> dict:
    """Closed loop: one warm-up op, then ops until ``seconds`` have passed
    and the op count is a whole number of the workload's cycles."""
    outputs, failures, lat = {}, {}, []
    run_op(workload.op, 0, outputs, failures)
    limit = getattr(workload, "max_ops", math.inf)
    start = perf_counter()
    i = 0
    while True:
        i += 1
        lat.append(run_op(workload.op, i, outputs, failures))
        elapsed = perf_counter() - start
        if (elapsed >= seconds and i % workload.cycle == 0) or i >= limit:
            break
    for j, why in workload.check({k: v for k, v in outputs.items() if k not in failures}).items():
        failures[j] = why
    lat.sort()
    tail_ms, tail_pct = tail(lat)
    return {
        "attempted": i + 1, "failures": failures, "ops": len(lat), "elapsed_s": elapsed,
        "op_p50_ms": 1e3 * percentile(lat, 50.0), "op_tail_ms": 1e3 * tail_ms,
        "tail_percentile": tail_pct,
        "ops_per_s": len(lat) / elapsed,
    }


def traced_run(workload, seconds: float) -> dict:
    """Fixed passes of ``workload.trace_ops`` ops, alternately untraced and
    traced, until ``seconds`` have passed (at least one of each)."""
    import spans

    indices = range(1, workload.trace_ops + 1)
    walls = {False: [], True: []}
    self_s: dict = {}
    failures: dict = {}
    attempted = 0
    last = None
    start = perf_counter()
    while not walls[True] or perf_counter() - start < seconds:
        for traced in (False, True):
            workload.reset()
            outputs, fails = {}, {}
            rec = spans.Recorder()
            tracing = spans.Tracing(rec) if traced else None
            t0 = perf_counter()
            try:
                for i in indices:
                    rec.op = i
                    run_op(workload.traced_op, i, outputs, fails)
            finally:
                if tracing is not None:
                    tracing.close()
            walls[traced].append(perf_counter() - t0)
            fails.update(workload.check({k: v for k, v in outputs.items() if k not in fails}))
            failures.update({f"{len(walls[traced])}{'t' if traced else 'u'}:{k}": v
                             for k, v in fails.items()})
            attempted += len(indices)
            if traced:
                for name, (_, s) in rec.self_times().items():
                    self_s.setdefault(name, []).append(s)
                last = (rec, tracing)
    rec, tracing = last
    return {
        "attempted": attempted, "failures": failures, "walls": walls,
        "self_s": {k: statistics.median(v) for k, v in self_s.items()},
        "recorder": rec, "tracing": tracing,
    }


def per_layer_metrics(tr: dict, import_s: float, interpreter_s: float) -> dict:
    import spans

    rec, tracing = tr["recorder"], tr["tracing"]
    calls = {name: c for name, (c, _) in rec.self_times().items()}
    counts = rec.counts
    m = {}
    for name in spans.span_names():
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (tr["self_s"].get(name, 0.0), "s")

    def ratio(num, den):
        return num / den if den else 0.0

    lp = "optimize.max_weighted_gdof_lp"
    m["region.tina_polytope.constraints"] = (counts["region.tina_polytope.constraints"], "count")
    m["power.solve_power_hungarian.label_rounds"] = (tracing.label_rounds, "count")
    m["optimize.gp_power_control.minimize_per_call"] = (
        ratio(calls.get("scipy.minimize", 0), calls.get("optimize.gp_power_control", 0)), "ratio")
    m[f"{lp}.empty_ratio"] = (ratio(rec.errors[lp, "EmptyPolytope"], calls.get(lp, 0)), "ratio")
    for s in spans.SCHEDULERS:
        m[f"schedule.{s}.admit_ratio"] = (ratio(counts[f"schedule.{s}.selected"],
                                                counts[f"schedule.{s}.candidates"]), "ratio")
    m["schedule.itlinq_plus_schedule.messages"] = (
        counts["schedule.itlinq_plus_schedule.messages"], "count")
    m["sim.run_experiment.excluded"] = (counts["sim.run_experiment.excluded"], "count")
    m["cli.import_s"] = (import_s, "s")
    m["cli.interpreter_s"] = (interpreter_s, "s")
    untraced = statistics.median(tr["walls"][False])
    traced = statistics.median(tr["walls"][True])
    m["trace.untraced_s"] = (untraced, "s")
    m["trace.traced_s"] = (traced, "s")
    m["trace.overhead_s"] = (traced - untraced, "s")
    return m


def module_shares(tr: dict) -> dict:
    """Self time per module (scipy apart) as a share of the traced pass."""
    wall = statistics.median(tr["walls"][True])
    shares: dict = {}
    for name, s in tr["self_s"].items():
        mod = name.split(".")[0]
        shares[mod] = shares.get(mod, 0.0) + s / wall
    shares["outside spans"] = 1.0 - sum(shares.values())
    return {k: round(v, 4) for k, v in sorted(shares.items())}


def startup_probe(code: str) -> float:
    """Median wall time of fresh interpreters running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(STARTUP_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def import_probe() -> float:
    """Median in-process time of a fresh ``import tinq.cli``."""
    code = ("import time; t = time.perf_counter(); import tinq.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(STARTUP_PROBES))


def setup_probes(args) -> list:
    """Set-up times measured by fresh interpreters running this script with
    ``--setup-probe``."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            check=True, capture_output=True, text=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def provenance(workloads_mod) -> dict:
    import numpy
    import scipy

    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):  # no git installed
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines,
        "tinq": workloads_mod.tinq.__version__,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("num-slots", "d2d-drops", "cli-queries"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print the set-up time and exit")
    args = p.parse_args(argv)
    if not (SRC / "tinq" / "__init__.py").is_file():
        print(f"error: no tinq sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    os.environ.update(SERIAL_ENV)  # before numpy loads; inherited by every child
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        t0 = perf_counter()
        sys.path.insert(0, str(SRC))
        import workloads

        cls = workloads.WORKLOADS[args.workload]
        kw = {}
        if cls is workloads.CliQueries:
            # a distinct network for every query the run can reach
            cycles = max(3, math.ceil(args.seconds / 3.0))
            kw["n_queries"] = 1 + cycles * len(workloads.MIX)
        workload = cls(args.seed, workdir, **kw)
        setup_s = perf_counter() - t0
        if args.setup_probe:
            print(setup_s)
            return 0

        if args.trace == 0:
            res = timed_run(workload, args.seconds)
            # read before the set-up probes, which are children too
            who = resource.RUSAGE_CHILDREN if cls is workloads.CliQueries else resource.RUSAGE_SELF
            peak_kb = resource.getrusage(who).ru_maxrss
            setups = [setup_s] + setup_probes(args)
            ok_frac = 1.0 - len(res["failures"]) / res["attempted"]
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "ops_per_s": (res["ops_per_s"], "1/s"),
                "ok_frac": (ok_frac, "ratio"),
                "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            }
            # Printed but not gated: on the shared host their run-to-run
            # spread is wider than any bound the benchmark may set.
            extra = {"ops": res["ops"], "timed_s": res["elapsed_s"],
                     "op_p50_ms": res["op_p50_ms"], "op_tail_ms": res["op_tail_ms"],
                     "tail_percentile": res["tail_percentile"], "fail_frac": 1.0 - ok_frac,
                     "setup_samples_s": setups}
        else:
            res = traced_run(workload, args.seconds)
            metrics = per_layer_metrics(res, import_probe(), startup_probe("pass"))
            write_spans(res["recorder"], args)
            extra = {"passes": len(res["walls"][True]), "ops_per_pass": workload.trace_ops,
                     "module_shares": module_shares(res), "missing": res["tracing"].missing}
        failures = res["failures"]
        report = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, **extra, "provenance": provenance(workloads),
            "failures": dict(list(failures.items())[:10]),
        }
        print(json.dumps({"report": report}))
        print(json.dumps({
            "correct": not failures,
            "attempted": res["attempted"],
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def write_spans(rec, args) -> None:
    """The last traced pass's spans, one JSON array per line:
    [op, name, parent index, start s, end s] relative to the pass start."""
    OUT.mkdir(exist_ok=True)
    base = rec.spans[0][3] if rec.spans else 0.0
    with open(OUT / f"spans-{args.workload}-{args.seed}.jsonl", "w") as fh:
        for op, name, parent, t0, t1 in rec.spans:
            fh.write(json.dumps([op, name, parent, t0 - base, t1 - base]) + "\n")


if __name__ == "__main__":
    sys.exit(main())
