"""In-memory span recorder for the traced benchmark run.

Spans wrap public tinq functions (and the scipy solvers tinq calls) by
rebinding the module attributes that hold them, so the library itself is not
edited. Every tinq module that imported a function gets the same wrapper, and
``Tracing.close`` puts every original binding back. A function missing from
the library (renamed or removed later) is listed in ``missing`` rather than
failing the run.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function) pairs whose spans are recorded, as named in the metrics.
TRACED = (
    ("sim", ("run_experiment", "generate_drop")),
    ("schedule", ("num_step", "itlinq_plus_schedule", "itlinq_schedule",
                  "flashlinq_schedule")),
    ("optimize", ("max_weighted_gdof_lp", "max_weighted_gdof_exact",
                  "gp_power_control", "gp_then_assignment", "decentralized_gp")),
    ("power", ("solve_power_hungarian", "solve_power_auction", "is_feasible")),
    ("region", ("tina_polytope", "tina_polytope_cyclic", "check_conditions")),
    ("matching", ("max_matching_weight",)),
    ("model", ("strength_from_physical", "achieved_gdof", "parse_network")),
    ("cli", ("dispatch",)),
)
# The scipy boundary layer below optimize and matching.
SCIPY = ("linprog", "minimize", "linear_sum_assignment")
SCHEDULERS = ("itlinq_plus_schedule", "itlinq_schedule", "flashlinq_schedule")


def span_names() -> list:
    names = [f"{mod}.{fn}" for mod, fns in TRACED for fn in fns]
    return names + [f"scipy.{fn}" for fn in SCIPY]


class Recorder:
    """Spans as [op, name, parent index, start, end]; counters by name."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = 0
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(counts, args, kwargs, result)`` adds
        counters for calls that return."""
        rec = self

        def traced(*args, **kwargs):
            idx = len(rec.spans)
            span = [rec.op, name, rec.stack[-1] if rec.stack else -1, perf_counter(), 0.0]
            rec.spans.append(span)
            rec.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                rec.errors[name, type(e).__name__] += 1
                raise
            finally:
                rec.stack.pop()
                span[4] = perf_counter()
            if after is not None:
                after(rec.counts, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.traced_original = fn
        return traced

    def self_times(self) -> dict:
        """name -> [calls, self seconds]: each span's duration minus the
        durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _, _, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = defaultdict(lambda: [0, 0.0])
        for i, (_, name, _, t0, t1) in enumerate(self.spans):
            out[name][0] += 1
            out[name][1] += (t1 - t0) - child[i]
        return dict(out)


def _count_constraints(counts, args, kwargs, result):
    counts["region.tina_polytope.constraints"] += len(result.constraints)


def _count_admitted(name):
    def after(counts, args, kwargs, result):
        snr = args[0] if args else kwargs["snr"]
        counts[f"schedule.{name}.candidates"] += len(snr)
        counts[f"schedule.{name}.selected"] += len(result.selected)
        if name == "itlinq_plus_schedule":
            counts["schedule.itlinq_plus_schedule.messages"] += result.messages
    return after


def _count_excluded(counts, args, kwargs, result):
    counts["sim.run_experiment.excluded"] += result.excluded


def _with_label_rounds(fn):
    """Hungarian solver that always asks for its public trace and counts its
    label rounds, returning what the caller asked for."""
    if "return_trace" not in inspect.signature(fn).parameters:
        return fn, None

    def call(*args, return_trace=False, **kwargs):
        r, labels, trace = fn(*args, return_trace=True, **kwargs)
        call.rounds += trace.rounds
        return (r, labels, trace) if return_trace else (r, labels)

    call.rounds = 0
    return call, call


AFTER = {
    "region.tina_polytope": _count_constraints,
    "sim.run_experiment": _count_excluded,
    **{f"schedule.{s}": _count_admitted(s) for s in SCHEDULERS},
}


class Tracing:
    """Rebinds every traced function in every loaded tinq module (and in
    scipy.optimize) to a span-recording wrapper until ``close``."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.missing: list = []
        self._patched: list = []
        self._hungarian = None
        wrappers = {}  # id(original) -> wrapper
        for mod, fns in TRACED:
            module = importlib.import_module(f"tinq.{mod}")
            for fn in fns:
                name = f"{mod}.{fn}"
                orig = getattr(module, fn, None)
                if not callable(orig):
                    self.missing.append(name)
                    continue
                inner = orig
                if name == "power.solve_power_hungarian":
                    inner, self._hungarian = _with_label_rounds(orig)
                    if self._hungarian is None:
                        self.missing.append("power.solve_power_hungarian.label_rounds")
                wrappers[id(orig)] = recorder.wrap(name, inner, AFTER.get(name))
        scipy_opt = importlib.import_module("scipy.optimize")
        for fn in SCIPY:
            orig = getattr(scipy_opt, fn)
            wrappers[id(orig)] = recorder.wrap(f"scipy.{fn}", orig)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "tinq" or n.startswith("tinq."))]
        for module in modules + [scipy_opt]:
            for attr, val in list(vars(module).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    self._patched.append((module, attr, val))
                    setattr(module, attr, wrapper)

    @property
    def label_rounds(self) -> int:
        return self._hungarian.rounds if self._hungarian is not None else 0

    def close(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
