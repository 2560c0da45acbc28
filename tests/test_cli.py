"""Command-line surface: subcommands, exit codes, JSON output, determinism."""

import concurrent.futures
import inspect
import io
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import tinq
from tinq import optimize, power, schedule, sim
from oracles import random_alpha
from tinq.cli import _build_parser, _jsonable, dispatch
from tinq.exceptions import DomainError
from tinq.fixtures import fixture_checksums

ALPHA_A = [[2, 0.5, 0.1], [0.2, 1, 0.5], [1, 0.5, 1.5]]
ALPHA_B = [[1, 0.3, 0], [0.6, 1, 0.1], [0.8, 0.6, 1]]


@pytest.fixture
def net_a(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"k": 3, "alpha": ALPHA_A}))
    return str(path)


@pytest.fixture
def net_b(tmp_path):
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"k": 3, "alpha": ALPHA_B}))
    return str(path)


def run(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_version_lists_fixture_checksums(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["--version"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == f"tinq {tinq.__version__}"
    sums = fixture_checksums()
    assert lines[1] == f"network_a sha256 {sums['network_a']}"
    assert lines[2] == f"network_b sha256 {sums['network_b']}"


def test_package_exports_each_submodules_public_names():
    modules = (tinq.exceptions, tinq.fixtures, tinq.matching, tinq.model, tinq.optimize,
               tinq.power, tinq.region, tinq.schedule, tinq.sim)
    assert tinq.__all__ == [name for m in modules for name in m.__all__]
    assert len(set(tinq.__all__)) == len(tinq.__all__)
    for m in modules:
        for name in m.__all__:
            assert getattr(tinq, name) is getattr(m, name), name
    assert tinq.solve_power_potentials is power.solve_power_potentials


def test_region_bounds(capsys, net_a):
    code, out = run(capsys, ["region", "--network", net_a])
    assert code == 0
    assert out["k"] == 3 and out["subset"] == [0, 1, 2]
    assert out["constraints"] == [
        {"users": [0], "bound": 2.0},
        {"users": [1], "bound": 1.0},
        {"users": [2], "bound": 1.5},
        {"users": [0, 1], "bound": 2.3},
        {"users": [0, 2], "bound": 2.4},
        {"users": [1, 2], "bound": 1.5},
        {"users": [0, 1, 2], "bound": 2.5},
    ]


def test_region_cyclic_form_agrees(capsys, net_a):
    code1, out1 = run(capsys, ["region", "--network", net_a])
    code2, out2 = run(capsys, ["region", "--network", net_a, "--form", "cyclic"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_region_subset(capsys, net_a):
    code, out = run(capsys, ["region", "--network", net_a, "--subset", "0,1"])
    assert code == 0
    assert out["constraints"] == [
        {"users": [0], "bound": 2.0},
        {"users": [1], "bound": 1.0},
        {"users": [0, 1], "bound": 2.3},
    ]


def test_power_hungarian(capsys, net_a):
    code, out = run(capsys, ["power", "--network", net_a,
                             "--gdof", "0.5,0.6,0.7"])
    assert code == 0
    assert out["r"] == pytest.approx([-1.2, -0.4, -0.7])
    assert out["y_u"] == pytest.approx([1.2, 0.4, 0.7])
    assert out["y_v"] == pytest.approx([0.3, 0.0, 0.1])
    assert isinstance(out["rounds"], int) and out["rounds"] >= 1


def test_power_auction_snap(capsys, net_a):
    code, out = run(capsys, ["power", "--network", net_a,
                             "--gdof", "0.5,0.6,0.7",
                             "--solver", "auction", "--snap"])
    assert code == 0
    assert out["r"] == pytest.approx([-1.2, -0.4, -0.7], abs=1e-9)
    assert out["rounds"] is None


def test_power_silenced_user_serializes_null(capsys, net_a):
    code, out = run(capsys, ["power", "--network", net_a, "--gdof", "1,0.5,0"])
    assert code == 0
    assert out["r"][2] is None
    assert all(isinstance(v, float) for v in out["r"][:2])


def test_power_infeasible_exits_3(capsys, net_a):
    code, out = run(capsys, ["power", "--network", net_a, "--gdof", "2,1,1.5"])
    assert code == 3
    assert out["infeasible"] is True


def test_feasible_exit_codes(capsys, net_a):
    code, out = run(capsys, ["feasible", "--network", net_a,
                             "--gdof", "0.5,0.6,0.7"])
    assert code == 0 and out == {"feasible": True}
    code, out = run(capsys, ["feasible", "--network", net_a,
                             "--gdof", "2,1,1.5"])
    assert code == 3 and out == {"feasible": False}


@pytest.mark.parametrize("alpha, gdof, want", [
    (ALPHA_A, "2,1,1.5", 3),
    ([[1, 0.9], [0.9, 1]], "0.95,1e-10", 0),
    ([[1, 0.9], [0.9, 1]], "0.95,-0.1", 2),
], ids=["outside", "entry-below-tol", "negative-entry"])
@pytest.mark.oldest_pins
def test_feasible_power_and_auction_give_one_exit_code(capsys, tmp_path, alpha, gdof, want):
    # one target rule and one verdict: outside the region (the auction used
    # to return powers here), an entry at or below TOL that is switched off
    # (power used to keep it on and refuse), and a negative entry (feasible
    # used to answer false)
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"k": len(alpha), "alpha": alpha}))
    for cmd in (["feasible"], ["power"], ["power", "--solver", "auction"]):
        code, out = run(capsys, cmd + ["--network", str(path), "--gdof", gdof])
        assert code == want, cmd
        if want == 0 and cmd[0] == "power":
            assert out["r"][0] is not None and out["r"][1] is None


def test_check_report(capsys, net_b):
    code, out = run(capsys, ["check", "--network", net_b])
    assert code == 0
    assert out == {
        "gnaj": [False, False, True],
        "c1": [True, True, True],
        "c2": True,
        "gnaj_violations": [0, 1],
        "c1_violations": [],
        "c2_witness": None,
        "c2_skipped": False,
    }


def test_sumgdof_lp_and_exact(capsys, net_b):
    code, out = run(capsys, ["sumgdof", "--network", net_b, "--weights", "1,1,1"])
    assert code == 0
    assert out["method"] == "lp" and out["objective"] == pytest.approx(1.8)
    assert sum(out["d"]) == pytest.approx(1.8)
    code, out = run(capsys, ["sumgdof", "--network", net_b, "--weights", "1,1,1",
                             "--method", "exact"])
    assert code == 0
    assert out["objective"] == pytest.approx(1.8)
    assert out["subset"] == [0, 1, 2]


def test_sumgdof_exact_honours_the_subset(capsys, tmp_path):
    path = tmp_path / "six.json"
    alpha = np.random.default_rng(7).uniform(0.0, 1.0, size=(6, 6))
    np.fill_diagonal(alpha, 1.5)
    path.write_text(json.dumps({"k": 6, "alpha": alpha.tolist()}))
    base = ["sumgdof", "--network", str(path), "--weights", "1,1,1,1,1,1"]
    code, exact = run(capsys, [*base, "--method", "exact", "--subset", "1,0"])
    assert code == 0
    assert set(exact["subset"]) <= {0, 1} and exact["d"][2:] == [0.0] * 4
    # the pair's polytope holds both singletons', so its LP is the optimum
    _, lp = run(capsys, [*base, "--method", "lp", "--subset", "0,1"])
    assert exact["objective"] == pytest.approx(lp["objective"], abs=1e-9)
    assert dispatch([*base, "--method", "exact", "--subset", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: subset [9] out of range for K=6\n"


def test_sumgdof_gp(capsys, net_b):
    code, out = run(capsys, ["sumgdof", "--network", net_b, "--weights", "1,1,1",
                             "--method", "gp", "--snr-db", "40"])
    assert code == 0
    assert len(out["powers"]) == len(out["sinr"]) == 3
    assert all(0 < p <= 1.0 + 1e-9 for p in out["powers"])
    assert out["objective_bits"] > 0
    assert out["subset"] == [0, 1, 2]


def test_sumgdof_dgp(capsys, net_b):
    code, out = run(capsys, ["sumgdof", "--network", net_b, "--weights", "1,1,1",
                             "--method", "dgp", "--iters", "500"])
    assert code == 0
    assert out["objective"] == pytest.approx(1.8, abs=0.05)
    assert len(out["r"]) == len(out["d"]) == 3


def test_sumgdof_dgp_zero_iters_exits_2(capsys, net_a):
    code, out = run(capsys, ["sumgdof", "--network", net_a, "--weights", "1,1,1",
                             "--method", "dgp", "--iters", "0"])
    assert code == 2 and out is None


def test_schedule_schemes(capsys, tmp_path, net_a):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"k": 2, "alpha": [[1, 1], [1, 1]]}))
    code, out = run(capsys, ["schedule", "--network", str(pair),
                             "--scheme", "itlinq+", "--snr-db", "40"])
    assert code == 0
    assert out["selected"] == [0] and out["messages"] == 5
    assert out["min_in"] == {"0": 1.0}

    code, out = run(capsys, ["schedule", "--network", net_a,
                             "--scheme", "flashlinq", "--snr-db", "40"])
    assert code == 0
    assert out["selected"] == [0, 1, 2] and out["messages"] == 9

    code, out = run(capsys, ["schedule", "--network", net_a, "--scheme", "itlinq",
                             "--priority", "2,1,0", "--snr-db", "40"])
    assert code == 0
    assert out["selected"] == [2, 1, 0]

    code = dispatch(["schedule", "--network", net_a, "--scheme", "itlinq",
                     "--priority", "0,0,1"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("scheme", ["flashlinq", "itlinq", "itlinq+"])
@pytest.mark.parametrize("priority", ["", "0,0,1", "1,0"])
def test_schedule_rejects_a_priority_that_is_not_a_permutation(capsys, net_a, scheme,
                                                              priority):
    # every scheme receives the order as given; an empty one orders no link
    code = dispatch(["schedule", "--network", net_a, "--scheme", scheme,
                     "--priority", priority])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: priority must be a permutation of all links\n"


def test_schedule_rejects_non_finite_thresholds(capsys, net_a):
    # each pass validates the knobs it reads; itlinq+ reads neither threshold
    for scheme, flag in (("itlinq", "--m-db"), ("itlinq", "--eta"),
                         ("flashlinq", "--sir-db"), ("itlinq+", "--eta")):
        code = dispatch(["schedule", "--network", net_a, "--scheme", scheme, flag, "nan"])
        assert code == 2, (scheme, flag)
        assert capsys.readouterr().err == f"error: {flag[2:].replace('-', '_')} must be finite, got nan\n"
    code, out = run(capsys, ["schedule", "--network", net_a, "--scheme", "itlinq+",
                             "--m-db", "nan", "--sir-db", "nan"])
    assert code == 0 and out["scheme"] == "itlinq+"


def test_schedule_thresholds_default_per_scheme(capsys, tmp_path):
    # a strongly interfering network on which ITLinQ's own eta (0.7) and
    # ITLinQ+'s (0.9) select different links: with no threshold flag, each
    # scheme must run its library default
    rng = np.random.default_rng(0)
    a = rng.uniform(0.5, 1.8, size=(12, 12))
    np.fill_diagonal(a, rng.uniform(1.0, 2.0, size=12))
    path = tmp_path / "strong.json"
    path.write_text(json.dumps({"k": 12, "alpha": a.tolist()}))
    snr_tab = tinq.realize_network(tinq.ChannelMatrix(a), 1e4).nominal_snr()  # --snr-db 40
    snr = np.diag(snr_tab).copy()
    itlinq = schedule.itlinq_schedule(snr, snr_tab)
    assert itlinq.selected != schedule.itlinq_schedule(snr, snr_tab, eta=0.9).selected
    for scheme, want in (("itlinq", itlinq),
                         ("flashlinq", schedule.flashlinq_schedule(snr, snr_tab)),
                         ("itlinq+", schedule.itlinq_plus_schedule(snr, snr_tab))):
        code, out = run(capsys, ["schedule", "--network", str(path), "--scheme", scheme])
        assert code == 0, scheme
        assert (out["selected"], out["messages"]) == (list(want.selected), want.messages), scheme


def defaults(fn) -> dict:
    return {k: p.default for k, p in inspect.signature(fn).parameters.items()}


def test_cli_defaults_match_the_library():
    # each CLI default that copies a library default must still equal it
    parse = _build_parser().parse_args
    args = parse(["power", "--network", "n.json", "--gdof", "1"])
    assert args.epsilon == defaults(power.solve_power_auction)["epsilon"] == power.DEFAULT_EPSILON
    args = parse(["sumgdof", "--network", "n.json", "--weights", "1"])
    assert args.iters == defaults(optimize.decentralized_gp)["iters"]
    args = parse(["num", "--network", "n.json"])
    lib = defaults(schedule.num_run)
    assert (args.fairness, args.v, args.a_max, args.slots, args.solver, args.ref_power) == (
        lib["fairness"], lib["v"], lib["a_max"], lib["t_slots"], lib["solver"], lib["ref_power"])
    args = parse(["simulate"])
    lib = defaults(sim.run_experiment)
    assert (args.power_mode, args.jobs) == (lib["power_mode"], lib["jobs"])
    args = parse(["schedule", "--network", "n.json", "--scheme", "itlinq"])
    assert (args.eta, args.gamma, args.m_db, args.sir_db) == (None, None, None, None)


def test_num_linear(capsys, net_b):
    code, out = run(capsys, ["num", "--network", net_b, "--fairness", "0",
                             "--slots", "200", "--solver", "lp"])
    assert code == 0
    assert out["slots"] == 200
    assert out["avg_d"] == pytest.approx([0.5, 0.6, 0.7], abs=1e-6)
    assert out["utility"] == pytest.approx(1.8, abs=1e-6)
    assert len(out["final_weights"]) == 3


# a five-user network on which the three NUM solvers serve different slots
ALPHA_5 = [[1.59, 0.39, 0.84, 0.67, 0.28], [0.55, 1.47, 0.33, 0.79, 0.29],
           [0.51, 0.61, 1.77, 0.67, 0.79], [0.97, 0.43, 0.72, 1.03, 0.43],
           [0.2, 0.98, 0.44, 0.45, 1.71]]


@pytest.mark.parametrize("solver, avg_d, utility", [
    ("exact", [0.6855, 0.7155, 0.724, 0.39, 0.715], -2.31242562271),
    ("lp", [0.516, 0.72275, 0.7415, 0.464, 0.75575], -2.33333590107),
    ("itlinq+", [0.52725, 0.73475, 0.74175, 0.468, 0.73275], -2.31728613557),
])
def test_num_trajectories_at_the_default_reference_power(capsys, tmp_path, solver, avg_d,
                                                         utility):
    # pinned 40-slot answers at the default --ref-power 1e6: checking the
    # reference power for every solver must not move a trajectory
    path = tmp_path / "five.json"
    path.write_text(json.dumps({"k": 5, "alpha": ALPHA_5}))
    code, out = run(capsys, ["num", "--network", str(path), "--solver", solver,
                             "--slots", "40"])
    assert code == 0
    assert (out["avg_d"], out["utility"]) == (avg_d, utility)


@pytest.mark.parametrize("solver, p", [("itlinq+", "1"), ("itlinq+", "0.5"), ("lp", "0.5"),
                                       ("exact", "inf")])
def test_num_rejects_a_meaningless_reference_power(capsys, net_b, solver, p):
    code = dispatch(["num", "--network", net_b, "--solver", solver, "--ref-power", p,
                     "--slots", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"error: reference power must be finite and exceed 1, "
                            f"got {float(p)}\n")


@pytest.mark.parametrize("flag", ["--v", "--a-max", "--fairness"])
def test_num_rejects_an_infinite_setting(capsys, net_b, flag):
    code = dispatch(["num", "--network", net_b, flag, "inf", "--slots", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {flag[2:].replace('-', '_')} must be finite, got inf\n"


@pytest.mark.parametrize("argv", [
    ["sumgdof", "--weights", "1e20,1,1", "--method", "lp"],
    ["sumgdof", "--weights", "1e20,1,1", "--method", "exact"],
    ["num", "--a-max", "1e20", "--fairness", "0", "--slots", "3"],
    ["num", "--a-max", "1e20", "--fairness", "0", "--slots", "3", "--solver", "lp"],
], ids=["lp", "exact", "num-exact", "num-lp"])
@pytest.mark.oldest_pins
def test_lp_weight_at_highs_infinite_cost_exits_2(capsys, net_b, argv):
    # HiGHS reads a cost at or above its infinite_cost (1e20) as infinite;
    # in num the weights pass it after one slot
    assert dispatch([*argv, "--network", net_b]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: LP weight 1e+20 is not below 1e+20, which HiGHS "
                            "reads as an infinite cost\n")
    if argv[0] == "sumgdof":
        # a weight just below the bound still answers
        code, out = run(capsys, [*argv, "--network", net_b, "--weights", "9.99e19,1,1"])
        assert code == 0 and out["objective"] == 9.99e19


@pytest.mark.oldest_pins
def test_failed_highs_solve_is_a_domain_error(capsys, monkeypatch, net_b):
    # a solve HiGHS reports as failed is a usage error naming its message and
    # the largest weight, not a crash
    import scipy.optimize

    failed = scipy.optimize.OptimizeResult(success=False,
                                           message="(HiGHS Status 4: Solve error)")
    monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs: failed)
    with pytest.raises(DomainError):
        optimize.max_weighted_gdof_lp(tinq.NETWORK_B, w=[3, 1, 2])
    assert dispatch(["sumgdof", "--network", net_b, "--weights", "3,1,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: LP solve failed at largest weight 3: "
                            "(HiGHS Status 4: Solve error)\n")


@pytest.mark.parametrize("argv", [
    ["sumgdof", "--weights", "1e18,1e18,1e18"],
    ["num", "--a-max", "9e19", "--fairness", "0", "--solver", "lp", "--slots", "3"],
], ids=["sumgdof", "num-lp"])
@pytest.mark.oldest_pins
def test_highs_solve_error_never_exits_1(net_b, argv):
    # several huge weights below 1e20 can end in HiGHS's solve error; on any
    # HiGHS build the call answers or exits 2, without a traceback
    proc = subprocess.run([sys.executable, "-m", "tinq.cli", *argv, "--network", net_b],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode in (0, 2) and "Traceback" not in proc.stderr
    if proc.returncode == 2:
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: LP solve failed at largest weight ")


@pytest.mark.filterwarnings("error")
def test_physical_network_with_infinite_reference_power_exits_2(capsys, tmp_path):
    # 10^(4000/10) is inf as a float: no log-P scale, so no region to print
    path = tmp_path / "phys.json"
    path.write_text(json.dumps({"k": 2, "gains_db": [[0, -20], [-20, 0]],
                                "tx_power_dbm": [30, 30], "noise_dbm": -40,
                                "ref_snr_db": 4000}))
    code = dispatch(["region", "--network", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: bad physical network: reference power must be "
                            "finite and exceed 1, got inf\n")


def test_simulate_with_csv(capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    code, out = run(capsys, ["simulate", "--links", "4", "--drops", "3",
                             "--seed", "5", "--schemes", "itlinq+",
                             "--csv", str(csv_path)])
    assert code == 0
    assert out["setup"] == "scenario1" and out["valid"] is True
    assert out["excluded"] == 0
    assert len(out["aggregates"]) == 1
    agg = out["aggregates"][0]
    assert agg["scheme"] == "itlinq+" and agg["n"] == 3
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ("scheme,power_mode,n_links,drop_seed,"
                        "sum_tput_bps_hz,energy_bits_per_joule,active_links")
    assert len(lines) == 4
    seeds = [int(line.split(",")[3]) for line in lines[1:]]
    expect = [int(np.random.SeedSequence([5, i]).generate_state(1)[0])
              for i in range(3)]
    assert seeds == expect


def test_simulate_config_file(capsys, tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({
        "area_m": 500.0, "n_links": 3, "dist_range_m": [5.0, 20.0],
        "bandwidth_hz": 5e6, "tx_power_dbm": 20.0,
    }))
    code, out = run(capsys, ["simulate", "--config", str(cfg), "--drops", "2",
                             "--seed", "1", "--schemes", "flashlinq", "--links", "16"])
    assert code == 0
    assert out["setup"] == "custom"
    assert out["aggregates"][0]["n"] == 2
    # the config's link count, not --links, sets and reports the drop size
    assert out["n_links"] == 3


SCENARIO = {"area_m": 500.0, "n_links": 3, "dist_range_m": [5.0, 20.0],
            "bandwidth_hz": 5e6, "tx_power_dbm": 20.0}


@pytest.mark.parametrize("cfg, says", [
    ({k: v for k, v in SCENARIO.items() if k != "dist_range_m"}, "dist_range_m"),
    ({**SCENARIO, "bogus": 1}, "'bogus'"),
    ([SCENARIO], "scenario JSON must be an object"),
    ({**SCENARIO, "dist_range_m": 5}, "dist_range_m"),
    ({**SCENARIO, "n_links": 2.5}, "n_links"),
    ({**SCENARIO, "n_links": True}, "n_links"),
    ({**SCENARIO, "noise_psd_dbm_hz": "x"}, "noise_psd_dbm_hz"),
    ({**SCENARIO, "area_m": "big"}, "area_m"),
    ({**SCENARIO, "dist_range_m": ["a", "b"]}, "dist_range_m"),
], ids=["missing-field", "unknown-field", "list", "scalar-range", "fractional-links",
        "bool-links", "string-optional-field", "string-required-field", "string-range"])
def test_malformed_simulate_config_exits_2(capsys, tmp_path, cfg, says):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    assert dispatch(["simulate", "--config", str(path), "--drops", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert says in captured.err and captured.err.count("\n") == 1


def test_simulate_synthetic(capsys):
    code, out = run(capsys, ["simulate", "--synthetic", "--links", "6",
                             "--drops", "5", "--seed", "2", "--snr-db", "30"])
    assert code == 0
    assert out["setup"] == "synthetic@30dB"
    assert [a["power_mode"] for a in out["aggregates"]] == [
        "full", "gp", "gp+assignment"]


def test_simulate_zero_drops_exits_2(capsys):
    for mode in ([], ["--synthetic"]):
        assert dispatch(["simulate", *mode, "--drops", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n_drops must lie in [1, inf), got 0\n"


def test_simulate_repeated_scheme_exits_2(capsys):
    # a repeated scheme used to count each drop twice: "n": 4 over 2 drops
    assert dispatch(["simulate", "--schemes", "none,flashlinq,none", "--links", "2",
                     "--drops", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: repeated scheme 'none'\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_simulate_jobs_below_two_runs_serially(capsys, monkeypatch, jobs):
    # a pool would fail to start, so the document is the serial one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    argv = ["simulate", "--links", "3", "--drops", "2", "--schemes", "none"]
    assert dispatch([*argv, "--jobs", "1"]) == 0
    serial = capsys.readouterr()
    assert dispatch([*argv, "--jobs", jobs]) == 0
    assert capsys.readouterr() == serial


def test_simulate_without_schemes_exits_2(capsys):
    for schemes in ("", " , "):
        assert dispatch(["simulate", "--schemes", schemes, "--links", "2",
                         "--drops", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: no schemes given\n"


STRONG = {"k": 2, "alpha": [[1, 1.5], [1.5, 1]]}  # cross above direct: no region


# Every subcommand form writes one document: --out gets exactly the bytes
# stdout gets, with the same exit code, infeasibility verdicts included.
@pytest.mark.parametrize("argv, code", [
    (["region", "--network", "{a}"], 0),
    (["region", "--network", "{a}", "--form", "cyclic"], 0),
    (["power", "--network", "{a}", "--gdof", "0.5,0.6,0.7"], 0),
    (["power", "--network", "{a}", "--gdof", "0.5,0.6,0.7", "--solver", "auction"], 0),
    (["power", "--network", "{a}", "--gdof", "0.5,0.6,0.7", "--solver", "auction",
      "--snap"], 0),
    (["power", "--network", "{a}", "--gdof", "2,1,1.5"], 3),
    (["feasible", "--network", "{a}", "--gdof", "0.5,0.6,0.7"], 0),
    (["feasible", "--network", "{a}", "--gdof", "2,1,1.5"], 3),
    (["check", "--network", "{b}"], 0),
    (["sumgdof", "--network", "{b}", "--weights", "1,2,1"], 0),
    (["sumgdof", "--network", "{strong}", "--weights", "1,1"], 3),
    (["sumgdof", "--network", "{b}", "--weights", "1,2,1", "--method", "exact"], 0),
    (["sumgdof", "--network", "{b}", "--weights", "1,2,1", "--method", "gp"], 0),
    (["sumgdof", "--network", "{b}", "--weights", "1,2,1", "--method", "dgp",
      "--iters", "200"], 0),
    (["schedule", "--network", "{a}", "--scheme", "flashlinq"], 0),
    (["schedule", "--network", "{a}", "--scheme", "itlinq"], 0),
    (["schedule", "--network", "{a}", "--scheme", "itlinq+"], 0),
    (["num", "--network", "{b}", "--slots", "5"], 0),
    (["simulate", "--links", "4", "--drops", "2", "--seed", "1"], 0),
], ids=["region", "region-cyclic", "power-hungarian", "power-auction", "power-snap",
        "power-infeasible", "feasible-true", "feasible-false", "check", "sumgdof-lp",
        "sumgdof-lp-infeasible", "sumgdof-exact", "sumgdof-gp", "sumgdof-dgp",
        "schedule-flashlinq", "schedule-itlinq", "schedule-itlinq+", "num", "simulate"])
def test_out_flag_writes_file(capsys, tmp_path, net_a, net_b, argv, code):
    strong = tmp_path / "strong.json"
    strong.write_text(json.dumps(STRONG))
    argv = [arg.format(a=net_a, b=net_b, strong=strong) for arg in argv]
    assert dispatch(argv) == code
    stdout = capsys.readouterr().out
    out_path = tmp_path / "out.json"
    assert dispatch([*argv, "--out", str(out_path)]) == code
    assert capsys.readouterr().out == ""
    assert out_path.read_bytes() == stdout.encode() and stdout


@pytest.mark.parametrize("argv", [
    ["region", "--network", "{a}"],
    ["feasible", "--network", "{a}", "--gdof", "2,1,1.5"],
    ["power", "--network", "{a}", "--gdof", "2,1,1.5"],
    ["sumgdof", "--network", "{strong}", "--weights", "1,1"],
], ids=["region", "feasible-false", "power-infeasible", "sumgdof-lp-infeasible"])
def test_unwritable_out_exits_2(tmp_path, net_a, argv):
    strong = tmp_path / "strong.json"
    strong.write_text(json.dumps(STRONG))
    out_path = tmp_path / "missing" / "x.json"
    proc = subprocess.run([sys.executable, "-m", "tinq.cli",
                           *(arg.format(a=net_a, strong=strong) for arg in argv),
                           "--out", str(out_path)], capture_output=True, text=True)
    # an infeasibility verdict that cannot be written is a usage error too,
    # with one error line and no traceback
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: [Errno 2] No such file or directory: '{out_path}'\n"


class _Writes(io.StringIO):
    """A text stream that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_region_prints_the_same_bytes_to_stdout_and_out(monkeypatch, tmp_path):
    twelve = random_alpha(np.random.default_rng(0), 12, diag_lo=1.0, diag_hi=2.0,
                          cross_hi=1.0)
    for alpha in (tinq.NETWORK_A, twelve):
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"k": alpha.K, "alpha": alpha.alpha.tolist()}))
        poly = tinq.tina_polytope(alpha)
        doc = {"k": alpha.K, "subset": list(poly.subset),
               "constraints": [{"users": sorted(users), "bound": bound}
                               for users, bound in poly.constraints.items()]}
        want = json.dumps(_jsonable(doc), indent=2) + "\n"
        out_path = tmp_path / "out.json"
        assert dispatch(["region", "--network", str(path), "--out", str(out_path)]) == 0
        stdout = _Writes()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert dispatch(["region", "--network", str(path)]) == 0
        monkeypatch.undo()
        assert stdout.getvalue() == out_path.read_text() == want
    # the 12-user document (4,095 constraints, 528 kB) reaches the stream one
    # encoder chunk per write, none of them longer than 16 characters here,
    # never as one whole string
    assert max(stdout.sizes) <= 16 < len(want)


def test_usage_errors(capsys, tmp_path, net_a):
    for argv in ([], ["region"], ["region", "--network", net_a, "--bogus"]):
        with pytest.raises(SystemExit) as exc:
            dispatch(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    # unreadable or malformed network files are usage errors, not crashes
    assert dispatch(["region", "--network", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert dispatch(["region", "--network", str(bad)]) == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"foo": 1}))
    assert dispatch(["region", "--network", str(wrong)]) == 2
    capsys.readouterr()


def test_subprocess_byte_determinism(tmp_path, net_b):
    cases = [
        ["sumgdof", "--network", net_b, "--weights", "1,1,1"],
        ["simulate", "--links", "4", "--drops", "3", "--seed", "9",
         "--schemes", "itlinq,itlinq+"],
        ["simulate", "--synthetic", "--links", "6", "--drops", "4", "--seed", "3",
         "--snr-db", "25", "--csv", "{csv}"],
        ["simulate", "--power-mode", "lp+assignment", "--links", "8", "--drops", "2",
         "--seed", "4", "--csv", "{csv}"],
    ]
    for argv in cases:
        outs = []
        for i in range(2):
            csv = tmp_path / f"rows{i}.csv"
            proc = subprocess.run([sys.executable, "-m", "tinq.cli",
                                   *(a.format(csv=csv) for a in argv)],
                                  capture_output=True, check=True)
            outs.append((proc.stdout, csv.read_bytes() if csv.exists() else None))
        assert outs[0] == outs[1] and outs[0][0]


# Runs a CLI call in a fresh interpreter, then prints which of the lazily
# loaded modules it loaded: the scipy.optimize package, its two compiled
# cores that tinq loads without the package, and the worker pool's module.
LSAP, LBFGSB = "scipy.optimize._lsap", "scipy.optimize._lbfgsb"
LAZY_MODULES = ("scipy.optimize", LSAP, LBFGSB, "concurrent.futures")
MODULE_PROBE = f"""
import sys
if len(sys.argv) > 1:
    import tinq.cli
    try:
        tinq.cli.main(sys.argv[1:])
    except SystemExit:
        pass
else:
    import tinq
print(*(m in sys.modules for m in {LAZY_MODULES!r}))
"""


def loaded_modules(argv) -> set:
    proc = subprocess.run([sys.executable, "-c", MODULE_PROBE, *argv],
                          capture_output=True, text=True, check=True)
    flags = proc.stdout.splitlines()[-1].split()
    return {m for m, flag in zip(LAZY_MODULES, flags) if flag == "True"}


@pytest.mark.parametrize("argv, cores", [
    ([], set()),
    (["--version"], set()),
    (["power", "--network", "{a}", "--gdof", "0.5,0.6,0.7"], set()),
    (["power", "--network", "{a}", "--gdof", "0.5,0.6,0.7", "--solver", "auction"], set()),
    (["feasible", "--network", "{a}", "--gdof", "0.5,0.6,0.7"], set()),
    (["schedule", "--network", "{a}", "--scheme", "itlinq+"], set()),
    (["simulate", "--links", "16", "--drops", "2"], set()),
    (["check", "--network", "{a}"], set()),
    (["region", "--network", "{a}", "--subset", "1"], set()),
    (["region", "--network", "{a}"], {LSAP}),
    (["sumgdof", "--network", "{a}", "--weights", "1,1,1", "--method", "gp"], {LBFGSB}),
    (["simulate", "--power-mode", "gp+assignment", "--links", "8", "--drops", "2"], {LBFGSB}),
    (["simulate", "--synthetic", "--links", "6", "--drops", "2"], {LBFGSB}),
], ids=["import", "version", "power", "power-auction", "feasible", "schedule",
        "simulate", "check-without-zero-edge", "region-one-user", "region-matching",
        "sumgdof-gp", "simulate-gp+assignment", "simulate-synthetic"])
@pytest.mark.oldest_pins
def test_scipy_solvers_load_only_when_called(net_a, argv, cores):
    # no call here solves an LP, and none starts a worker pool (simulate runs
    # its drops serially by default), so none imports the scipy.optimize
    # package. Only the calls that solve a matching or a GP load the compiled
    # core they call: network A has no zero-strength edge, so its zero-edge
    # condition fails without a matching, and a one-user region's matching
    # weight is its 1x1 block's entry
    assert loaded_modules([arg.format(a=net_a) for arg in argv]) == cores


@pytest.mark.oldest_pins
def test_check_with_a_zero_edge_solves_matchings(net_b):
    # network B has a zero-strength edge: its report still needs matchings,
    # from the compiled assignment core alone, and keeps its verdict
    proc = subprocess.run([sys.executable, "-c", MODULE_PROBE, "check", "--network", net_b],
                          capture_output=True, text=True, check=True)
    *report, flags = proc.stdout.splitlines()
    assert {m for m, flag in zip(LAZY_MODULES, flags.split()) if flag == "True"} == {LSAP}
    out = json.loads("\n".join(report))
    assert out["c2"] is True and out["c2_witness"] is None


# Loads tinq's two compiled scipy cores before or after the scipy.optimize
# package, then checks that the package and tinq share one module each.
CORE_PROBE = """
import sys
import numpy as np
from tinq._cores import scipy_core
if sys.argv[1] == "package-first":
    import scipy.optimize
lsap, lbfgsb = scipy_core("_lsap"), scipy_core("_lbfgsb")
assert ("scipy.optimize" in sys.modules) == (sys.argv[1] == "package-first")
assert sys.modules["scipy.optimize._lsap"] is lsap
assert sys.modules["scipy.optimize._lbfgsb"] is lbfgsb
assert scipy_core("_lsap") is lsap and scipy_core("_lbfgsb") is lbfgsb
import scipy.optimize
from scipy.optimize import _lbfgsb
from scipy.optimize._lbfgsb_py import _lbfgsb as minimize_core
assert scipy.optimize.linear_sum_assignment is lsap.linear_sum_assignment
assert _lbfgsb is lbfgsb and minimize_core is lbfgsb
res = scipy.optimize.minimize(lambda x: ((x - 1.0) ** 2).sum(), np.zeros(3),
                              method="L-BFGS-B")
assert res.success and np.allclose(res.x, 1.0)
print("ok")
"""


@pytest.mark.parametrize("order", ["cores-first", "package-first"])
@pytest.mark.oldest_pins
def test_scipy_cores_are_the_packages_modules(order):
    proc = subprocess.run([sys.executable, "-c", CORE_PROBE, order],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr


# `tinq --version` as printed while hashlib was imported with tinq.fixtures
VERSION_OUT = (
    "tinq 0.1.0\n"
    "network_a sha256 613f5d32b763a0d59d5eb7f7d3900339775ef34cb9033da1e0365782305bbb36\n"
    "network_b sha256 723e3af3a1a53dac5da973471b1da62dd89f05dba0703979137b515b005bf06f\n"
)


@pytest.mark.parametrize("argv, hashes", [
    (["power", "--network", "{a}", "--gdof", "0.5,0.6,0.7"], False),
    (["--version"], True),
], ids=["power", "version"])
def test_openssl_hashlib_loads_only_for_version(net_a, argv, hashes):
    # only the fixture checksums of --version need OpenSSL's _hashlib
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "tinq.cli",
                           *(arg.format(a=net_a) for arg in argv)],
                          capture_output=True, text=True, check=True)
    imported = {line.split("|")[-1].strip() for line in proc.stderr.splitlines()}
    assert ("_hashlib" in imported) == hashes
    if argv == ["--version"]:
        assert proc.stdout == VERSION_OUT


@pytest.mark.oldest_pins
def test_lp_call_loads_scipy(net_a):
    assert "scipy.optimize" in loaded_modules(["sumgdof", "--network", net_a,
                                               "--weights", "1,1,1", "--method", "lp"])


def eye_network(tmp_path, k: int) -> str:
    path = tmp_path / f"eye{k}.json"
    path.write_text(json.dumps({"k": k, "alpha": np.eye(k).tolist()}))
    return str(path)


# One user past each cap of the README's scale contract: every link of an
# interference-free network is scheduled, so num's itlinq+ slots and the
# lp+assignment drops pose an LP over all of them.
@pytest.mark.parametrize("argv, k, what, cap", [
    (["region", "--network", "{net}"], 17, "subset table", 16),
    (["region", "--network", "{net}", "--form", "cyclic"], 9, "cyclic oracle", 8),
    (["sumgdof", "--network", "{net}", "--weights", "{ones}"], 17, "subset table", 16),
    (["sumgdof", "--network", "{net}", "--weights", "{ones}", "--method", "exact"],
     11, "exact search", 10),
    (["num", "--network", "{net}", "--solver", "lp"], 17, "subset table", 16),
    (["num", "--network", "{net}"], 11, "exact search", 10),
    (["num", "--network", "{net}", "--solver", "itlinq+"], 17, "subset table", 16),
    (["simulate", "--power-mode", "lp+assignment", "--links", "17", "--drops", "1"],
     17, "subset table", 16),
], ids=["region", "region-cyclic", "sumgdof-lp", "sumgdof-exact", "num-lp", "num-exact",
        "num-itlinq+", "simulate-lp+assignment"])
def test_one_user_past_each_cap_exits_2(capsys, tmp_path, argv, k, what, cap):
    net, ones = eye_network(tmp_path, k), ",".join(["1"] * k)
    code = dispatch([arg.format(net=net, ones=ones) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {what} of {k} users exceeds its cap of {cap}\n"


def test_an_allocation_that_fails_exits_2(capsys, net_a):
    # num_run's first table of this many slots would take 4 EiB, more than a
    # 64-bit address space maps, so numpy refuses it before using any memory
    code = dispatch(["num", "--network", net_a, "--slots", "192153584101141162",
                     "--solver", "lp"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: Unable to allocate 4.00 EiB for an array ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize("setup", [[], ["--synthetic"]], ids=["geometric", "synthetic"])
def test_one_link_past_the_drop_cap_exits_2_before_any_table(capsys, setup):
    # one n x n float64 table of a drop this size would take 33.6 MB
    links = sim.LINKS_MAX + 1
    tracemalloc.start()
    try:
        code = dispatch(["simulate", *setup, "--links", str(links), "--drops", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: drop of {links} users exceeds its cap of {sim.LINKS_MAX}\n"
    assert peak < 1e6


@pytest.mark.parametrize("setup, message", [
    ([], "area, link count, and distance range must be positive"),
    (["--synthetic"], "n_links must lie in [1, inf), got {links}"),
], ids=["geometric", "synthetic"])
@pytest.mark.parametrize("links", [0, -1])
def test_link_count_below_one_exits_2(capsys, setup, message, links):
    code = dispatch(["simulate", *setup, "--links", str(links), "--drops", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message.format(links=links)}\n"


@pytest.mark.parametrize("argv", [
    ["region", "--network", "{net}"],
    ["sumgdof", "--network", "{net}", "--weights", "{ones}", "--method", "lp"],
], ids=["region", "sumgdof-lp"])
@pytest.mark.oldest_pins
def test_scipy_stays_unloaded_past_the_subset_table_cap(tmp_path, argv):
    # the cap is checked before any matching is solved or linprog imported
    net, ones = eye_network(tmp_path, 17), ",".join(["1"] * 17)
    assert loaded_modules([arg.format(net=net, ones=ones) for arg in argv]) == set()


@pytest.mark.oldest_pins
def test_check_skips_the_zero_edge_condition_past_its_cap(capsys, tmp_path):
    code, out = run(capsys, ["check", "--network", eye_network(tmp_path, 13)])
    assert code == 0
    assert out["c2"] is None and out["c2_skipped"] is True


def test_power_auction_rejects_unreachable_epsilon(net_a):
    # the bid cap for epsilon 1e-9 is about 1.35e11 bids, and a subnormal
    # epsilon's overflows a float (its conversion to an int used to raise
    # OverflowError): each refused before the first bid as a usage error
    for epsilon, says in (("1e-9", "1e-09 needs a cap of 135000000003 bids"),
                          ("1e-310", "1e-310 needs a cap of inf bids"),
                          ("5e-324", "4.94066e-324 needs a cap of inf bids")):
        proc = subprocess.run([sys.executable, "-m", "tinq.cli", "power", "--network", net_a,
                               "--gdof", "0.5,0.6,0.7", "--solver", "auction",
                               "--epsilon", epsilon], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith(f"error: epsilon {says}")
        assert proc.stderr.count("\n") == 1  # one line, no traceback


@pytest.mark.parametrize("weights, gdof", [("1,2,1", "1.0,1.0,0.5"), ("3,1,1", "2.0,0.3,0.2")])
def test_power_auction_answers_boundary_targets(capsys, net_a, weights, gdof):
    # LP optima where a user's minimal power is full power: overbidding
    # lifted its price above A_ii, and the auction's power above 0 was refused
    code, out = run(capsys, ["sumgdof", "--network", net_a, "--weights", weights])
    assert code == 0 and out["d"] == [float(v) for v in gdof.split(",")]
    code, exact = run(capsys, ["power", "--network", net_a, "--gdof", gdof])
    assert code == 0 and max(exact["r"]) == pytest.approx(0.0, abs=1e-12)
    code, out = run(capsys, ["power", "--network", net_a, "--gdof", gdof,
                             "--solver", "auction"])
    assert code == 0
    np.testing.assert_allclose(out["r"], exact["r"], rtol=0, atol=3 * power.DEFAULT_EPSILON)


@pytest.mark.parametrize("argv, setting", [
    (["schedule", "--scheme", "itlinq", "--m-db", "4000"], "m_db"),
    (["schedule", "--scheme", "flashlinq", "--sir-db", "4000"], "sir_db"),
    (["schedule", "--scheme", "itlinq+", "--snr-db", "4000"], "snr_db"),
    (["sumgdof", "--method", "gp", "--weights", "1,1,1", "--snr-db", "4000"], "snr_db"),
], ids=["itlinq-m-db", "flashlinq-sir-db", "itlinq+-snr-db", "gp-snr-db"])
def test_overflowing_db_setting_exits_2(capsys, net_a, argv, setting):
    # 10^(4000/10) overflows a float: a usage error, not a traceback
    code = dispatch([*argv, "--network", net_a])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {setting} of 4000 dB overflows a float\n"


def test_overflowing_simulate_db_settings_exit_2(capsys, tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"area_m": 500.0, "n_links": 3, "dist_range_m": [5.0, 20.0],
                               "bandwidth_hz": 5e6, "tx_power_dbm": 4000.0}))
    for argv, setting in ((["--synthetic", "--snr-db", "4000"], "snr_db"),
                          (["--config", str(cfg)], "tx_power_dbm")):
        assert dispatch(["simulate", "--drops", "2", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {setting} of 4000 dB overflows a float\n"


@pytest.mark.parametrize("argv", [
    ["sumgdof", "--network", "{a}", "--weights", "1,1,1", "--method", "gp"],
    ["simulate", "--synthetic", "--drops", "2"],
], ids=["sumgdof-gp", "simulate-synthetic"])
def test_overflowing_reference_power_exits_2(net_a, argv):
    # 10^200 is a float, but P^2 is not: a usage error, even with warnings
    # raised as errors
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "tinq.cli",
                           *[arg.format(a=net_a) for arg in argv], "--snr-db", "2000"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: reference power 1e+200 raised to strength ")
    assert proc.stderr.endswith(" overflows a float\n") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("epsilon", ["inf", "nan"])
def test_power_auction_rejects_non_finite_epsilon(capsys, net_a, epsilon):
    code = dispatch(["power", "--network", net_a, "--gdof", "0.5,0.6,0.7",
                     "--solver", "auction", "--epsilon", epsilon])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: epsilon must be finite, got {epsilon}\n"
