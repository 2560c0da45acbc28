"""Drop generation, path loss, the experiment runner, and CSV output."""

import concurrent.futures
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import tinq.optimize
import tinq.sim

from oracles import drop_loop, experiment_loop, synthetic_loop
from tinq.exceptions import DomainError, InfeasibleGdof, RegionTooTight, ShapeError
from tinq.model import strength_from_physical
from tinq.power import solve_power_hungarian
from tinq.sim import (
    POWER_MODES,
    RESAMPLE_CAP,
    SCHEMES,
    Aggregate,
    ExperimentResult,
    MetricRow,
    Scenario,
    generate_drop,
    pathloss_itu1411_los,
    run_experiment,
    run_synthetic_experiment,
    scenario1,
    scenario2,
    write_rows_csv,
)

pytestmark = pytest.mark.oldest_pins

F_C = 2.4e9
H_M = 1.5
# breakpoint 4 h^2 / lambda and its loss for h = 1.5 m at 2.4 GHz
R_BP = 72.049854
L_BP = 71.184069


# ---------------------------------------------------------------------------
# path loss


def test_pathloss_breakpoint_anchor():
    lam = 299792458.0 / F_C
    assert 4.0 * H_M**2 / lam == pytest.approx(R_BP, abs=1e-5)
    assert pathloss_itu1411_los(R_BP, F_C, H_M) == pytest.approx(L_BP, abs=1e-4)


def test_pathloss_slopes():
    # 40 log10(2) per octave beyond the knee, 20 log10(2) before it
    far = pathloss_itu1411_los(200.0, F_C, H_M) - pathloss_itu1411_los(100.0, F_C, H_M)
    assert far == pytest.approx(40.0 * math.log10(2.0), abs=1e-9)
    assert far == pytest.approx(12.0412, abs=1e-4)
    near = pathloss_itu1411_los(20.0, F_C, H_M) - pathloss_itu1411_los(10.0, F_C, H_M)
    assert near == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)


def test_pathloss_continuous_and_monotone():
    below = pathloss_itu1411_los(R_BP * (1 - 1e-9), F_C, H_M)
    above = pathloss_itu1411_los(R_BP * (1 + 1e-9), F_C, H_M)
    assert above == pytest.approx(below, abs=1e-6)
    d = np.linspace(1.0, 400.0, 500)
    loss = pathloss_itu1411_los(d, F_C, H_M)
    assert isinstance(loss, np.ndarray)
    assert np.all(np.diff(loss) > 0)
    assert loss[0] == pytest.approx(pathloss_itu1411_los(1.0, F_C, H_M))


def test_pathloss_leaves_its_argument_and_gives_scalars_the_array_bits():
    # below and at 1 m, the knee, and both sides of it
    d = np.array([[0.5, 1.0, R_BP], [R_BP * (1 + 1e-9), 100.0, 400.0]])
    before = d.copy()
    loss = pathloss_itu1411_los(d, F_C, H_M)
    assert d.tobytes() == before.tobytes() and d.flags.writeable
    assert loss.shape == d.shape and not np.shares_memory(loss, d)
    for x, want in zip(d.ravel().tolist(), loss.ravel().tolist()):
        got = pathloss_itu1411_los(x, F_C, H_M)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_pathloss_rejects_nonpositive_distance():
    with pytest.raises(DomainError):
        pathloss_itu1411_los(0.0, F_C, H_M)
    with pytest.raises(DomainError):
        pathloss_itu1411_los(np.array([10.0, -1.0]), F_C, H_M)


@pytest.mark.parametrize("distance, carrier, height", [
    (np.array([10.0, np.nan]), F_C, H_M),
    (10.0, 0.0, H_M),
    (10.0, F_C, 0.0),
    (10.0, -F_C, H_M),
    (10.0, np.nan, H_M),
    (10.0, F_C, np.nan),
], ids=["nan-distance", "zero-carrier", "zero-height", "negative-carrier", "nan-carrier",
        "nan-height"])
def test_pathloss_rejects_every_bad_input(distance, carrier, height):
    # each would otherwise give NaN, a RuntimeWarning or ZeroDivisionError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            pathloss_itu1411_los(distance, carrier, height)


# ---------------------------------------------------------------------------
# scenarios


def test_scenario_noise_power():
    # -174 dBm/Hz + 10 log10(bandwidth) + 7 dB noise figure
    assert scenario1(4).noise_dbm == pytest.approx(-100.0103, abs=1e-4)
    assert scenario2(4).noise_dbm == pytest.approx(-97.0, abs=1e-9)


def test_scenario_validation():
    with pytest.raises(ShapeError):
        scenario1(0)
    with pytest.raises(ShapeError):
        # max pair distance must stay below the area side
        type(scenario1(1))(20.0, 1, (5.0, 30.0), 5e6, 20.0)
    with pytest.raises(ShapeError):
        type(scenario1(1))(1000.0, 1, (0.0, 30.0), 5e6, 20.0)


# ---------------------------------------------------------------------------
# drops


def test_drop_deterministic():
    sc = scenario1(16)
    d1 = generate_drop(sc, 2024)
    d2 = generate_drop(sc, 2024)
    assert np.array_equal(d1.tx, d2.tx)
    assert np.array_equal(d1.rx, d2.rx)
    assert np.array_equal(d1.net.gains, d2.net.gains)
    d3 = generate_drop(sc, 2025)
    assert not np.array_equal(d1.tx, d3.tx)


def test_drop_geometry_and_radio():
    sc = scenario1(64)
    drop = generate_drop(sc, 7)
    assert drop.tx.shape == drop.rx.shape == (64, 2)
    for pts in (drop.tx, drop.rx):
        assert np.all((pts >= 0.0) & (pts <= sc.area_m))
    pair = np.hypot(*(drop.tx - drop.rx).T)
    assert np.all(pair >= 5.0 - 1e-9) and np.all(pair <= 30.0 + 1e-9)
    net = drop.net
    assert net.gains.shape == (64, 64)
    assert np.all(net.gains > 0)
    # 20 dBm caps in mW
    assert net.max_tx_power == pytest.approx(np.full(64, 100.0))
    assert net.noise_power == pytest.approx(10.0 ** (sc.noise_dbm / 10.0))
    assert net.reference_power == pytest.approx(
        np.max(np.diag(net.gains)) * 100.0 / net.noise_power)


def test_drop_single_link():
    drop = generate_drop(scenario1(1), 3)
    assert drop.net.gains.shape == (1, 1)
    assert drop.net.gains[0, 0] > 0


def _drop_bits(tx, rx, gains) -> tuple:
    return tx.tobytes(), rx.tobytes(), gains.tobytes()


def _drop_outcome(make):
    try:
        return _drop_bits(*make())
    except RegionTooTight as e:
        return RegionTooTight, str(e)


def assert_drop_matches_loop(scenario, seed):
    """Bitwise the same tx, rx and gains as the draw-by-draw reference, or
    the same RegionTooTight; returns the outcome."""
    def drop():
        d = generate_drop(scenario, seed)
        return d.tx, d.rx, d.net.gains

    want = _drop_outcome(lambda: drop_loop(scenario, seed))
    assert _drop_outcome(drop) == want
    return want


@settings(max_examples=60)
@given(st.sampled_from([scenario1, scenario2]), st.integers(1, 300),
       st.integers(0, 2**63 - 1))
def test_drop_matches_draw_by_draw_reference(make, n, seed):
    assert_drop_matches_loop(make(n), seed)


@settings(max_examples=30)
@given(st.floats(0.05, 5.0), st.integers(1, 12), st.integers(0, 2**63 - 1))
def test_tight_drop_matches_draw_by_draw_reference(slack, n, seed):
    # an area only just larger than the longest pair distance: most angles
    # land outside, runs of redraws outgrow the first blocks, and some links
    # exhaust RESAMPLE_CAP
    assert_drop_matches_loop(Scenario(30.0 + slack, n, (1.0, 30.0), 5e6, 20.0), seed)


def test_tight_drop_resamples_long_and_past_the_cap():
    # seed 2 redraws one angle 222 times and places every link; seed 1 meets
    # a link whose circle misses the square and raises after RESAMPLE_CAP
    tight = Scenario(30.2, 8, (1.0, 30.0), 5e6, 20.0)
    assert len(assert_drop_matches_loop(tight, 2)) == 3
    assert assert_drop_matches_loop(tight, 1) == (
        RegionTooTight, f"receiver placement failed after {RESAMPLE_CAP} angle draws")


def test_drop_distances_uniform():
    # the angle-only resampling keeps the distance marginal exactly uniform
    sc = scenario1(4)
    dists = np.concatenate([
        np.hypot(*(d.tx - d.rx).T)
        for d in (generate_drop(sc, s) for s in range(2500))
    ])
    assert dists.size == 10_000
    p = stats.kstest(dists, "uniform", args=(5.0, 25.0)).pvalue
    assert p > 0.01


def test_drop_working_set_is_its_networks_three_tables():
    # gains, nominal SNR and strength levels, each handed over rather than
    # copied; numpy reports its data buffers to tracemalloc
    sc = scenario1(256)
    strength_from_physical(generate_drop(sc, 0).net)  # warm
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before = tracemalloc.get_traced_memory()[0]
        strength_from_physical(generate_drop(sc, 0).net)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * 256 * 256 * 8  # 3.25 tables of 256 x 256 float64


# ---------------------------------------------------------------------------
# experiment runner


def test_single_link_throughput_formula():
    res = run_experiment(scenario1(1), ("none", "flashlinq", "itlinq", "itlinq+"),
                         2, 42)
    assert res.excluded == 0 and res.valid
    drop0 = generate_drop(scenario1(1), res.rows[0].drop_seed)
    net = drop0.net
    snr = net.gains[0, 0] * net.max_tx_power[0] / net.noise_power
    tput = math.log2(1.0 + snr)
    for row in res.rows[:4]:
        assert row.active_links == 1
        assert row.sum_tput_bps_hz == pytest.approx(tput, rel=1e-12)
        # caps are mW, efficiency is bits per joule
        assert row.energy_bits_per_joule == pytest.approx(tput * 5e6 / 0.1,
                                                          rel=1e-12)


def test_rows_reproducible_and_jobs_invariant():
    r1 = run_experiment(scenario1(8), ("itlinq+", "flashlinq"), 6, 123)
    r2 = run_experiment(scenario1(8), ("itlinq+", "flashlinq"), 6, 123)
    r3 = run_experiment(scenario1(8), ("itlinq+", "flashlinq"), 6, 123, jobs=2)
    assert r1.rows == r2.rows == r3.rows
    assert r1.aggregates == r3.aggregates


def test_per_drop_seed_split():
    res = run_experiment(scenario1(2), ("none",), 3, master_seed=9)
    seeds = [row.drop_seed for row in res.rows]
    expect = [int(np.random.SeedSequence([9, i]).generate_state(1)[0])
              for i in range(3)]
    assert seeds == expect


def test_aggregate_matches_rows():
    res = run_experiment(scenario1(8), ("itlinq", "itlinq+"), 10, 55)
    for agg in res.aggregates:
        grp = [r for r in res.rows
               if (r.scheme, r.power_mode) == (agg.scheme, agg.power_mode)]
        tputs = np.array([r.sum_tput_bps_hz for r in grp])
        assert agg.n == len(grp) == 10
        assert agg.mean_tput_bps_hz == pytest.approx(tputs.mean(), rel=1e-12)
        assert agg.ci95_tput == pytest.approx(
            1.96 * tputs.std(ddof=1) / math.sqrt(len(grp)), rel=1e-12)
        assert agg.mean_active_links == pytest.approx(
            np.mean([r.active_links for r in grp]), rel=1e-12)


def test_runner_input_validation():
    with pytest.raises(ValueError):
        run_experiment(scenario1(2), ("foo",), 1, 0)
    with pytest.raises(ValueError, match="^no schemes given$"):
        run_experiment(scenario1(2), (), 1, 0)
    with pytest.raises(ValueError):
        run_experiment(scenario1(2), ("none",), 1, 0, power_mode="bar")
    with pytest.raises(ShapeError):
        run_experiment(scenario1(2), ("none",), 0, 0)
    for n_drops in (0, -1):
        with pytest.raises(ShapeError, match="need at least one drop"):
            run_synthetic_experiment(3, n_drops, 0, snr_db=30.0)


def test_pool_size_clamped_to_drops_and_cpus(monkeypatch):
    sizes = []

    class FakePool:
        """ProcessPoolExecutor stand-in: records the requested pool size and
        maps in-process, so no worker is ever started."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(tinq.sim.os, "cpu_count", lambda: 4)
    serial = run_experiment(scenario1(3), ("none",), 3, 5)
    assert run_experiment(scenario1(3), ("none",), 3, 5, jobs=64) == serial
    assert sizes == [3]
    run_experiment(scenario1(3), ("none",), 6, 5, jobs=64)
    assert sizes == [3, 4]
    run_experiment(scenario1(3), ("none",), 1, 5, jobs=64)  # one drop: no pool
    assert sizes == [3, 4]


def test_only_typed_verdicts_exclude_a_drop(monkeypatch):
    def raising(exc):
        def gp_then_assignment(*args, **kwargs):
            raise exc
        return gp_then_assignment

    monkeypatch.setattr(tinq.sim, "gp_then_assignment",
                        raising(InfeasibleGdof("no feasible power")))
    res = run_experiment(scenario1(3), ("none",), 1, 0, power_mode="gp+assignment")
    assert res.excluded == 1 and res.rows == []
    assert run_synthetic_experiment(3, 1, 0, snr_db=30.0).excluded == 1
    monkeypatch.setattr(tinq.sim, "gp_then_assignment",
                        raising(RuntimeError("label updates exceeded the n^2 bound")))
    with pytest.raises(RuntimeError, match="n\\^2 bound"):
        run_experiment(scenario1(3), ("none",), 1, 0, power_mode="gp+assignment")
    with pytest.raises(RuntimeError, match="n\\^2 bound"):
        run_synthetic_experiment(3, 1, 0, snr_db=30.0)


def test_exclusion_budget_flag():
    good = ExperimentResult([], [], n_drops=200, excluded=2)
    bad = ExperimentResult([], [], n_drops=200, excluded=3)
    assert good.valid and not bad.valid


def _bits(res: ExperimentResult) -> tuple:
    """Rows with every float as its hex form, the exclusion count, and every
    power-fraction vector as bytes."""
    rows = [tuple(v.hex() if isinstance(v, float) else v for v in vars(r).values())
            for r in res.rows]
    fracs = {m: [f.tobytes() for f in fs] for m, fs in res.fractions.items()}
    return rows, res.excluded, fracs, res.n_drops


@pytest.mark.parametrize("mode", POWER_MODES)
@pytest.mark.parametrize("scenario", [scenario1(8), scenario2(6)], ids=["s1", "s2"])
def test_drop_pipeline_matches_loop_reference(scenario, mode):
    res = run_experiment(scenario, SCHEMES, 6, 3, power_mode=mode)
    want = experiment_loop(scenario, SCHEMES, 6, 3, mode)
    assert _bits(res) == _bits(want)
    assert res.aggregates == want.aggregates


@pytest.mark.parametrize("mode", ["full", "gp+assignment"])
def test_drop_pipeline_matches_loop_reference_at_128_links(mode):
    res = run_experiment(scenario1(128), SCHEMES, 2, 9, power_mode=mode)
    assert _bits(res) == _bits(experiment_loop(scenario1(128), SCHEMES, 2, 9, mode))


@pytest.mark.parametrize("snr_db", [20.0, 40.0])
def test_synthetic_pipeline_matches_loop_reference(snr_db):
    res = run_synthetic_experiment(8, 40, 5, snr_db=snr_db)
    want = synthetic_loop(8, 40, 5, snr_db)
    assert list(res.fractions) == list(want.fractions)
    assert _bits(res) == _bits(want)
    assert res.aggregates == want.aggregates


def _assert_rows_close(res: ExperimentResult, want: ExperimentResult) -> None:
    assert res.excluded == want.excluded and len(res.rows) == len(want.rows)
    for row, ref in zip(res.rows, want.rows):
        assert (row.scheme, row.power_mode, row.n_links, row.drop_seed, row.active_links) \
            == (ref.scheme, ref.power_mode, ref.n_links, ref.drop_seed, ref.active_links)
        assert row.sum_tput_bps_hz == pytest.approx(ref.sum_tput_bps_hz, rel=1e-12, abs=0)
        assert row.energy_bits_per_joule == pytest.approx(
            ref.energy_bits_per_joule, rel=1e-12, abs=0)


@pytest.mark.parametrize("mode", ["gp+assignment", "lp+assignment"])
@pytest.mark.parametrize("scenario", [scenario1(8), scenario2(6)], ids=["s1", "s2"])
def test_assignment_modes_match_hungarian_pipeline(monkeypatch, scenario, mode):
    # the pipeline's minimal powers come from the potentials relaxation; the
    # Kuhn-Munkres labels must give the same drops and links, to rounding
    res = run_experiment(scenario, SCHEMES, 6, 3, power_mode=mode)
    for module in (tinq.optimize, tinq.sim):  # gp+ and lp+assignment call it there
        monkeypatch.setattr(module, "solve_power_potentials", solve_power_hungarian)
    _assert_rows_close(res, run_experiment(scenario, SCHEMES, 6, 3, power_mode=mode))


@pytest.mark.parametrize("snr_db", [20.0, 40.0])
def test_synthetic_experiment_matches_hungarian_pipeline(monkeypatch, snr_db):
    res = run_synthetic_experiment(8, 40, 5, snr_db=snr_db)
    monkeypatch.setattr(tinq.optimize, "solve_power_potentials", solve_power_hungarian)
    _assert_rows_close(res, run_synthetic_experiment(8, 40, 5, snr_db=snr_db))


# ---------------------------------------------------------------------------
# power-control comparison on synthetic exponents


def test_synthetic_power_modes():
    syn = run_synthetic_experiment(10, 100, 7, snr_db=60.0)
    assert syn.excluded == 0
    for mode, fracs in syn.fractions.items():
        for f in fracs:
            assert np.all(f >= 0.0) and np.all(f <= 1.0 + 1e-12)
    energy = {a.power_mode: a.mean_energy_bits_per_joule for a in syn.aggregates}
    # optimized power beats full power on bits per joule, and the assignment
    # refinement on top of the smooth solver beats the smooth solver alone
    assert energy["gp+assignment"] > energy["gp"]
    assert energy["gp"] > energy["full"]
    # the refinement never spends more on any link than the smooth solution
    for fa, fg in zip(syn.fractions["gp+assignment"], syn.fractions["gp"]):
        assert np.all(fa <= fg + 1e-9)


# ---------------------------------------------------------------------------
# CSV output


def test_csv_exact_bytes(tmp_path):
    rows = [
        MetricRow("itlinq", "full", 2, 12345, 3.14159265358979, 1234567.89012, 2),
        MetricRow("none", "gp", 2, 67890, 0.5, 0.0, 0),
    ]
    path = tmp_path / "rows.csv"
    write_rows_csv(rows, path)
    data = path.read_bytes()
    expect = (
        b"scheme,power_mode,n_links,drop_seed,"
        b"sum_tput_bps_hz,energy_bits_per_joule,active_links\n"
        b"itlinq,full,2,12345,3.14159265359,1234567.89012,2\n"
        b"none,gp,2,67890,0.5,0,0\n"
    )
    assert data == expect


def test_csv_write_is_deterministic(tmp_path):
    res = run_experiment(scenario1(4), ("itlinq+",), 5, 11)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_rows_csv(res.rows, p1)
    write_rows_csv(res.rows, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert b"\r" not in p1.read_bytes()
