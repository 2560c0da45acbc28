"""The benchmark's three workloads: inputs made from the seed, one op, and the
checks that decide whether an op's output is correct.

Each workload is driven by one client in a closed loop, serially. Library
functions are looked up on their modules at call time (``schedule.num_step``,
not a captured reference), so the traced run's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import tinq
from tinq import schedule, sim

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCES = Path(__file__).with_name("references.json")
DEFAULT_SEED = 0
REL, ABS = 1e-6, 1e-9  # pytest.approx's relative tolerance, the tests' 1e-9 floor


def rng_for(seed: int, *tags) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *tags]))


def weak_network(rng: np.random.Generator, k: int) -> np.ndarray:
    """Direct strengths U[1, 2], cross strengths U[0, 1]."""
    a = rng.uniform(0.0, 1.0, size=(k, k))
    np.fill_diagonal(a, rng.uniform(1.0, 2.0, size=k))
    return a


def load_references(workload: str, seed: int) -> dict:
    if seed != DEFAULT_SEED or not REFERENCES.is_file():
        return {}
    return json.loads(REFERENCES.read_text()).get(workload, {})


def close(x, y, rel=REL, abs_=ABS) -> bool:
    """JSON-tree equality with float tolerance; None only equals None."""
    if isinstance(x, dict) and isinstance(y, dict):
        return x.keys() == y.keys() and all(close(x[k], y[k], rel, abs_) for k in x)
    if isinstance(x, list) and isinstance(y, list):
        return len(x) == len(y) and all(close(u, v, rel, abs_) for u, v in zip(x, y))
    if isinstance(x, bool) or isinstance(y, bool) or x is None or y is None:
        return x == y
    if isinstance(x, (int, float)) and isinstance(y, (int, float)):
        return math.isclose(x, y, rel_tol=rel, abs_tol=abs_)
    return x == y


class NumSlots:
    """Drift-plus-penalty slots with the ``lp`` solver on one K=6 network."""

    name = "num-slots"
    cycle = 1
    trace_ops = 300
    CHECK_OPTIMUM_EVERY = 50

    def __init__(self, seed: int, workdir: Path | None = None):
        self.a = weak_network(rng_for(seed, 1), 6)
        self.alpha = tinq.ChannelMatrix(self.a)
        self.reset()

    def reset(self) -> None:
        self.state = schedule.NumState(np.ones(6), v=10.0, a_max=1.0, fairness=1.0)

    def op(self, i: int):
        w = self.state.weights
        d, _, self.state = schedule.num_step(self.state, self.alpha, "lp")
        return w, np.array(d.d)

    traced_op = op

    def check(self, outputs: dict) -> dict:
        bad = {}
        for i, (w, d) in outputs.items():
            if oracle.min_power(self.a, d) is None:
                bad[i] = f"service {d.tolist()} is outside the TIN region"
            elif i % self.CHECK_OPTIMUM_EVERY == 0:
                # num_step snaps residue-scale weights and serves uniform
                # weights when the backlog is empty
                w = np.where(w > 1e-9, w, 0.0)
                if not np.any(w > 0):
                    w = np.ones_like(w)
                best, _ = oracle.lp_point(self.a, w)
                if float(w @ d) < best - 1e-7 * (1.0 + abs(best)):
                    bad[i] = f"weighted service {float(w @ d)} below the optimum {best}"
        return bad


class D2dDrops:
    """One ``run_experiment`` call per scenario-1 drop of 256 links, all four
    schedulers, GP then assignment power control."""

    name = "d2d-drops"
    cycle = 1
    trace_ops = 4
    SCHEMES = ("none", "flashlinq", "itlinq", "itlinq+")
    N_LINKS = 256

    def __init__(self, seed: int, workdir: Path | None = None):
        self.seed = seed
        self.scenario = sim.scenario1(self.N_LINKS)
        self.references = load_references(self.name, seed)

    def reset(self) -> None:
        pass

    def drop_seed(self, i: int) -> int:
        return int(np.random.SeedSequence([self.seed, 3, i]).generate_state(1)[0])

    def op(self, i: int):
        return sim.run_experiment(self.scenario, self.SCHEMES, 1, self.drop_seed(i),
                                  power_mode="gp+assignment", jobs=1)

    traced_op = op

    @staticmethod
    def rows(result) -> list:
        return [[r.scheme, r.sum_tput_bps_hz, r.energy_bits_per_joule, r.active_links]
                for r in result.rows]

    def check(self, outputs: dict) -> dict:
        bad = {}
        for i, res in outputs.items():
            rows = self.rows(res)
            if res.excluded != 0:
                bad[i] = f"drop excluded ({res.excluded})"
            elif [r[0] for r in rows] != list(self.SCHEMES):
                bad[i] = f"schemes {[r[0] for r in rows]}"
            elif not all(math.isfinite(t) and t >= 0 and math.isfinite(e) and e >= 0
                         and 0 <= n <= self.N_LINKS for _, t, e, n in rows):
                bad[i] = f"row invariants broken: {rows}"
            elif str(i) in self.references and not close(rows, self.references[str(i)]):
                bad[i] = f"rows {rows} differ from reference {self.references[str(i)]}"
        return bad


# The fixed query mix, one network-size per query kind (None: no network).
MIX = (
    ("version", None), ("region", 8), ("region-cyclic", 6), ("check", 8),
    ("power", 6), ("power-auction", 6), ("feasible", 6), ("sumgdof-lp", 8),
    ("sumgdof-exact", 6), ("sumgdof-gp", 32), ("sumgdof-dgp", 6),
    ("schedule", 32), ("num", 3), ("simulate", None),
)
AUCTION_EPSILON = 1e-5  # the CLI default
GP_SNR = 1e4            # the CLI's default --snr-db 40
NUM_SLOTS = 50
SIM_LINKS, SIM_DROPS = 16, 10


class CliQueries:
    """Cold ``python -m tinq.cli`` calls over a fixed mix, each query on a
    network of its own written at set-up."""

    name = "cli-queries"
    cycle = len(MIX)
    trace_ops = len(MIX)

    def __init__(self, seed: int, workdir: Path, n_queries: int = 1 + 3 * len(MIX)):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.sim_seed = int(rng_for(seed, 2).integers(0, 2**31))
        self.queries = [self._make(i) for i in range(n_queries)]
        self.references = load_references(self.name, seed)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    @property
    def max_ops(self) -> int:
        return len(self.queries) - 1

    def _make(self, i: int) -> dict:
        kind, k = MIX[i % len(MIX)]
        q = {"kind": kind}
        if kind == "version":
            q["argv"] = ["--version"]
            return q
        if kind == "simulate":
            q["argv"] = ["simulate", "--links", str(SIM_LINKS), "--drops", str(SIM_DROPS),
                         "--seed", str(self.sim_seed)]
            return q
        rng = rng_for(self.seed, 2, i)
        a = weak_network(rng, k)
        path = self.workdir / f"q{i}.json"
        path.write_text(json.dumps({"k": k, "alpha": a.tolist()}))
        q["a"] = a
        argv = [kind.split("-")[0], "--network", str(path)]
        if kind == "region-cyclic":
            argv += ["--form", "cyclic"]
        elif kind in ("power", "power-auction", "feasible"):
            # half of an LP optimum lies inside the (convex) region
            _, d = oracle.lp_point(a, np.ones(k))
            q["target"] = d / 2.0
            argv += ["--gdof", ",".join(repr(float(x)) for x in q["target"])]
            if kind == "power-auction":
                argv += ["--solver", "auction"]
        elif kind.startswith("sumgdof"):
            q["w"] = np.round(rng.uniform(0.5, 1.5, size=k), 3)
            argv += ["--weights", ",".join(repr(float(x)) for x in q["w"]),
                     "--method", kind.split("-")[1]]
        elif kind == "schedule":
            argv += ["--scheme", "itlinq+"]
        elif kind == "num":
            argv += ["--slots", str(NUM_SLOTS)]
        q["argv"] = argv
        return q

    def reset(self) -> None:
        pass

    def op(self, i: int):
        proc = subprocess.run([sys.executable, "-m", "tinq.cli", *self.queries[i]["argv"]],
                              capture_output=True, env=self.env, timeout=120)
        return proc.returncode, proc.stdout

    def traced_op(self, i: int):
        """The same query dispatched in-process, so its spans are recorded."""
        import tinq.cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = tinq.cli.dispatch(self.queries[i]["argv"])
            except SystemExit as e:
                code = e.code
        return code, out.getvalue().encode()

    def check(self, outputs: dict) -> dict:
        bad = {}
        first = {}
        for i in sorted(outputs):
            code, stdout = outputs[i]
            q = self.queries[i]
            try:
                if code != 0:
                    raise AssertionError(f"exit code {code}")
                if q["kind"] in ("version", "simulate"):
                    # the same query again must print the same bytes
                    if first.setdefault(q["kind"], stdout) != stdout:
                        raise AssertionError("output differs from the same query earlier")
                text = stdout.decode()
                out = text if q["kind"] == "version" else json.loads(text)
                _check_query(q, out)
                ref = self.references.get(str(i))
                if ref is not None and not close(out, ref):
                    raise AssertionError(f"differs from the reference {ref}")
            except (AssertionError, ValueError, KeyError, TypeError) as e:
                bad[i] = f"{q['kind']}: {type(e).__name__}: {str(e)[:300]}"
        return bad


def expect(ok, detail="") -> None:
    """An output check that holds under ``python -O`` too."""
    if not ok:
        raise AssertionError(detail)


def _vec(values) -> np.ndarray:
    return np.array([-np.inf if v is None else v for v in values], dtype=float)


def _same(x, y, abs_=1e-8) -> bool:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and bool(np.all((x == y) | (np.abs(x - y) <= abs_ + REL * np.abs(y))))


def _check_query(q: dict, out) -> None:
    """Raise AssertionError unless ``out`` is the right answer to query ``q``."""
    kind = q["kind"]
    a = q.get("a")
    if kind == "version":
        lines = out.splitlines()
        expect(lines[0] == f"tinq {tinq.__version__}" and len(lines) >= 3, out)
    elif kind in ("region", "region-cyclic"):
        k = a.shape[0]
        want = oracle.polytope(a, tuple(range(k)))
        got = {tuple(c["users"]): c["bound"] for c in out["constraints"]}
        expect(out["k"] == k and out["subset"] == list(range(k)), out["subset"])
        expect(got.keys() == want.keys(), "constraint sets differ")
        expect(all(abs(got[t] - want[t]) <= 1e-9 for t in want), "bounds differ")
    elif kind == "check":
        gnaj, c1, c2, witness = oracle.conditions(a)
        expect(out["gnaj"] == gnaj and out["c1"] == c1, (out["gnaj"], out["c1"]))
        expect(out["gnaj_violations"] == [k for k, ok in enumerate(gnaj) if not ok])
        expect(out["c1_violations"] == [k for k, ok in enumerate(c1) if not ok])
        expect(out["c2"] == c2 and out["c2_witness"] == witness, (out["c2"], out["c2_witness"]))
    elif kind in ("power", "power-auction"):
        r_min = oracle.min_power(a, q["target"])
        r = _vec(out["r"])
        live = np.isfinite(r_min)
        expect(np.array_equal(np.isfinite(r), live), out["r"])
        if kind == "power":
            expect(_same(r[live], r_min[live]), (out["r"], r_min.tolist()))
            expect(_same(_vec(out["y_u"]), -r_min[live]), out["y_u"])
        else:
            gap = a.shape[0] * AUCTION_EPSILON + 1e-9
            expect(np.all(np.abs(r[live] - r_min[live]) <= gap), (out["r"], r_min.tolist()))
    elif kind == "feasible":
        expect(out["feasible"] is True and oracle.min_power(a, q["target"]) is not None)
    elif kind in ("sumgdof-lp", "sumgdof-exact"):
        w, d = q["w"], np.array(out["d"])
        best = (oracle.lp_point(a, w)[0] if kind == "sumgdof-lp"
                else oracle.union_optimum(a, w))
        expect(math.isclose(out["objective"], best, rel_tol=1e-7, abs_tol=1e-8), (out, best))
        expect(math.isclose(float(w @ d), best, rel_tol=1e-7, abs_tol=1e-8), out["d"])
        expect(oracle.min_power(a, d) is not None, f"d {out['d']} outside the region")
    elif kind == "sumgdof-gp":
        w, p = q["w"], np.array(out["powers"])
        g = GP_SNR ** a
        sinr = np.diag(g) * p / (1.0 + g.T @ p - np.diag(g) * p)
        expect(np.all((p > 0) & (p <= 1.0 + 1e-12)), "powers outside (0, 1]")
        expect(out["subset"] == list(range(a.shape[0])))
        expect(_same(out["sinr"], sinr), "SINR does not follow from the powers")
        expect(math.isclose(out["objective_bits"], float(w @ np.log2(1.0 + sinr)),
                            rel_tol=REL), out["objective_bits"])
    elif kind == "sumgdof-dgp":
        r, d = _vec(out["r"]), np.array(out["d"])
        expect(np.all(r <= 0), out["r"])
        expect(_same(d, oracle.achieved_gdof(a, r)), (out["d"], out["r"]))
        expect(math.isclose(out["objective"], float(q["w"] @ d), rel_tol=REL, abs_tol=ABS))
    elif kind == "schedule":
        g = GP_SNR ** a
        selected, min_in, min_out, messages = oracle.itlinq_plus(np.diag(g).copy(), g)
        expect(out["selected"] == selected and out["messages"] == messages, out["selected"])
        expect(close(out["min_in"], {str(k): v for k, v in sorted(min_in.items())}))
        expect(close(out["min_out"], {str(k): v for k, v in sorted(min_out.items())}))
    elif kind == "num":
        avg = np.array(out["avg_d"])
        expect(out["slots"] == NUM_SLOTS and min(out["final_weights"]) >= 0)
        expect(np.all((avg >= 0) & (avg <= np.diag(a) + 1e-9)), out["avg_d"])
        expect(math.isclose(out["utility"], float(np.sum(np.log(avg))), abs_tol=1e-6))
    elif kind == "simulate":
        aggs = out["aggregates"]
        expect(out["excluded"] == 0 and out["valid"] is True and out["n_drops"] == SIM_DROPS)
        expect([g["scheme"] for g in aggs] == sorted(D2dDrops.SCHEMES), aggs)
        expect(all(g["n"] == SIM_DROPS and 0 <= g["mean_active_links"] <= SIM_LINKS
                   and g["mean_tput_bps_hz"] >= 0 and g["mean_energy_bits_per_joule"] >= 0
                   for g in aggs), aggs)


WORKLOADS = {w.name: w for w in (NumSlots, D2dDrops, CliQueries)}
