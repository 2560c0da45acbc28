"""Link schedulers, the independent-set test, and the utility-driven
weight-update loop."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (arrivals_loop, flashlinq_loop, itis_plus_check_loop, itlinq_loop,
                     itlinq_plus_loop, random_alpha_tied)
from tinq import schedule
from tinq.exceptions import InvalidReferencePower, ShapeError
from tinq.model import ChannelMatrix, realize_network
from tinq.region import check_conditions
from tinq.sim import generate_drop, scenario1, scenario2
from tinq.schedule import (
    NumState,
    flashlinq_schedule,
    itlinq_plus_schedule,
    itlinq_schedule,
    num_run,
    _arrivals,
    num_step,
    utility_value,
)

pytestmark = pytest.mark.oldest_pins

NETWORK_A = ChannelMatrix([[2, 0.5, 0.1], [0.2, 1, 0.5], [1, 0.5, 1.5]])
NETWORK_B = ChannelMatrix([[1, 0.3, 0], [0.6, 1, 0.1], [0.8, 0.6, 1]])


# ---------------------------------------------------------------------------
# independent-set test: C1 of check_conditions on the subnetwork's block


def c1_holds_on(alpha: ChannelMatrix, subset) -> bool:
    idx = sorted(subset)
    return all(check_conditions(ChannelMatrix(alpha.alpha[np.ix_(idx, idx)])).c1)


def test_itis_plus_network_b_full():
    assert c1_holds_on(NETWORK_B, (0, 1, 2))


def test_itis_plus_singletons():
    for k in range(3):
        assert c1_holds_on(NETWORK_A, (k,))
        assert c1_holds_on(NETWORK_B, (k,))


def test_itis_plus_network_a_pair():
    # alpha_00 = 2 and alpha_22 = 1.5 both cover
    # alpha_20 + alpha_02 = 1 + 0.1 = 1.1
    assert c1_holds_on(NETWORK_A, (0, 2))


def test_itis_plus_rejects_strong_cross_pair():
    alpha = ChannelMatrix([[0.5, 1.0], [1.0, 0.5]])
    assert not c1_holds_on(alpha, (0, 1))


@settings(max_examples=60)
@given(st.integers(0, 10**9))
def test_itis_plus_matches_c1_on_subnetwork(seed):
    # two seeds in three draw on a grid, where C1 ties or rests on TOL
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 10))
    alpha = random_alpha_tied(rng, k, (None, 0.25, 0.1)[seed % 3])
    size = int(rng.integers(1, k + 1))
    sub = tuple(rng.choice(k, size=size, replace=False).tolist())
    assert c1_holds_on(alpha, sub) == itis_plus_check_loop(alpha, sub)


def test_itis_contained_in_itis_plus():
    # any subnetwork passing the stricter per-user direct >= max-in + max-out
    # test must also pass the relaxed pairwise-discounted test
    rng = np.random.default_rng(3)
    hits = 0
    for _ in range(200):
        k = int(rng.integers(2, 6))
        m = rng.uniform(0.0, 0.9, (k, k)) * (rng.random((k, k)) < 0.6)
        np.fill_diagonal(m, rng.uniform(0.8, 2.5, k))
        alpha = ChannelMatrix(m)
        size = int(rng.integers(2, k + 1))
        sub = tuple(sorted(rng.choice(k, size=size, replace=False).tolist()))
        rep = check_conditions(ChannelMatrix(m[np.ix_(sub, sub)]))
        if all(rep.gnaj):
            hits += 1
            assert c1_holds_on(alpha, sub)
    assert hits > 0


# ---------------------------------------------------------------------------
# greedy schedulers


def test_itlinq_plus_two_links_admitted():
    res = itlinq_plus_schedule([1e6, 1e6], [[0, 1e2], [1e2, 0]])
    # 10^(0.9*6) = 10^5.4 covers 10^2 in both directions
    assert res.selected == (0, 1)
    assert res.min_in == {0: 1.0, 1: 1.0}
    assert res.min_out == {0: 1.0, 1: 1.0}
    assert res.messages == 6


def test_itlinq_plus_strong_cross_rejected():
    res = itlinq_plus_schedule([1e6, 1e6], [[0, 1e6], [1e6, 0]])
    # 10^5.4 < 10^6
    assert res.selected == (0,)
    assert res.messages == 5


def test_itlinq_plus_single_link():
    res = itlinq_plus_schedule([1e6], [[0.0]])
    assert res.selected == (0,)
    assert res.messages == 3


def test_itlinq_two_links():
    # margin 10^2.5 times 10^(0.7*6) = 10^6.7
    assert itlinq_schedule([1e6, 1e6], [[0, 1e3], [1e3, 0]]).selected == (0, 1)
    assert itlinq_schedule([1e6, 1e6], [[0, 1e7], [1e7, 0]]).selected == (0,)
    assert itlinq_schedule([1e6], [[0.0]]).selected == (0,)


def test_flashlinq_two_links():
    # signal-to-single-interference 10^4 vs threshold 10^0.9
    assert flashlinq_schedule([1e6, 1e6], [[0, 1e2], [1e2, 0]]).selected == (0, 1)
    # 10^0.5 < 10^0.9
    assert flashlinq_schedule([1e6, 1e6], [[0, 10**5.5], [10**5.5, 0]]).selected == (0,)
    assert flashlinq_schedule([1e6], [[0.0]]).selected == (0,)


def test_priority_order_reverses_winner():
    snr = [1e6, 1e6]
    inr = [[0, 1e6], [1e6, 0]]
    res = itlinq_plus_schedule(snr, inr, priority=[1, 0])
    assert res.selected == (1,)
    assert flashlinq_schedule(snr, [[0, 10**5.5], [10**5.5, 0]],
                              priority=[1, 0]).selected == (1,)


def test_priority_must_be_permutation():
    with pytest.raises(ShapeError):
        itlinq_schedule([1e6, 1e6], [[0, 1e3], [1e3, 0]], priority=[0, 0])


def _random_instance(rng, n):
    snr = 10.0 ** rng.uniform(3.0, 7.0, n)
    inr = 10.0 ** rng.uniform(-1.0, 6.0, (n, n))
    np.fill_diagonal(inr, 0.0)
    return snr, inr


_SCHEMES = (
    lambda snr, inr: itlinq_plus_schedule(snr, inr),
    lambda snr, inr: itlinq_schedule(snr, inr),
    lambda snr, inr: flashlinq_schedule(snr, inr),
)


def test_rejected_tail_relabeling_invariance():
    # rejected links ranked below every selected link each failed against the
    # complete selected set, so shuffling their identities cannot admit one
    # (a rejected link moved ahead of a later admission could pass against
    # the smaller prefix, so only the tail is exchangeable)
    rng = np.random.default_rng(11)
    for scheme in _SCHEMES:
        for _ in range(20):
            n = int(rng.integers(3, 9))
            snr, inr = _random_instance(rng, n)
            res = scheme(snr, inr)
            assert res.messages == 2 * n + len(res.selected)
            tail = [k for k in range(n) if k > max(res.selected)]
            if len(tail) < 2:
                continue
            perm = np.arange(n)
            perm[tail] = rng.permutation(tail)
            res2 = scheme(snr[perm], inr[np.ix_(perm, perm)])
            assert {int(perm[p]) for p in res2.selected} == set(res.selected)


def test_link_removal_keeps_higher_priority_selections():
    # the pass over links ranked before the removed one sees identical state
    rng = np.random.default_rng(12)
    for scheme in _SCHEMES:
        for _ in range(20):
            n = int(rng.integers(3, 9))
            snr, inr = _random_instance(rng, n)
            sel1 = scheme(snr, inr).selected
            m = int(rng.integers(0, n))
            keep = [k for k in range(n) if k != m]
            sel2 = scheme(snr[keep], inr[np.ix_(keep, keep)]).selected
            back = {keep[p] for p in sel2}
            assert {s for s in sel1 if s < m} == {s for s in back if s < m}


@settings(max_examples=80)
@given(st.integers(1, 300), st.sampled_from(["uniform", "tied", "drop"]), st.booleans(),
       st.integers(0, 2**31 - 1))
def test_passes_match_loop_references(n, table, permuted, seed):
    # tied: SNR and INR levels on one integer-dB grid, with unit margins and
    # exponents, so many entries, running minima and admission tests tie
    # exactly; drop: the full-power tables of a scenario drop with the
    # simulator's knobs; permuted: an explicit priority order. The diagonal
    # of a drop table is the link SNR; elsewhere it is 0, 1 or NaN, which
    # only admitted links ever see, so no pass may warn about it
    rng = np.random.default_rng(seed)
    eta, gamma, m_db, sir_db = 0.9, 0.1, 25.0, 9.0
    if table == "drop":
        scenario = (scenario1 if rng.random() < 0.5 else scenario2)(n)
        inr = generate_drop(scenario, seed).net.nominal_snr()
        snr = np.diag(inr).copy()
    elif table == "tied":
        snr = 10.0 ** rng.integers(3, 7, n).astype(float)
        inr = 10.0 ** rng.integers(-1, 7, (n, n)).astype(float)
        eta, gamma, m_db, sir_db = 1.0, float(rng.choice([0.0, 0.1])), 0.0, 0.0
    else:
        snr = 10.0 ** rng.uniform(3.0, 7.0, n)
        inr = 10.0 ** rng.uniform(-1.0, 6.0, (n, n))
        eta, gamma = float(rng.uniform(0.5, 1.0)), float(rng.uniform())
    if table != "drop":
        np.fill_diagonal(inr, rng.choice([0.0, 1.0, np.nan]))
    priority = tuple(rng.permutation(n).tolist()) if permuted else None

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = itlinq_plus_schedule(snr, inr, eta=eta, gamma=gamma, priority=priority)
        passes = (itlinq_schedule(snr, inr, eta, m_db, priority),
                  flashlinq_schedule(snr, inr, sir_db, priority))
    selected, min_in, min_out, messages = itlinq_plus_loop(snr, inr, eta, gamma, priority)
    assert res.selected == selected
    assert list(res.min_in.items()) == list(min_in.items())
    assert list(res.min_out.items()) == list(min_out.items())
    assert res.messages == messages

    for res, want in zip(passes, (itlinq_loop(snr, inr, eta, m_db, priority),
                                  flashlinq_loop(snr, inr, sir_db, priority))):
        assert res.selected == want
        assert (res.min_in, res.min_out) == ({}, {})
        assert res.messages == 2 * n + len(want)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
def test_passes_check_cross_levels_but_not_the_diagonal(bad):
    snr = np.array([1e4, 1e4, 1e4])
    inr = np.full((3, 3), 10.0)
    np.fill_diagonal(inr, bad)
    for scheme in _SCHEMES:
        assert scheme(snr, inr).selected == (0, 1, 2)
    inr[2, 1] = bad
    for scheme in _SCHEMES:
        with pytest.raises(ShapeError, match="cross INRs must be positive and finite"):
            scheme(snr, inr)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_passes_reject_non_finite_knobs(bad):
    snr, inr = np.array([1e4, 1e4]), np.full((2, 2), 10.0)
    for call in (lambda: itlinq_schedule(snr, inr, eta=bad),
                 lambda: itlinq_schedule(snr, inr, m_db=bad),
                 lambda: flashlinq_schedule(snr, inr, sir_db=bad),
                 lambda: itlinq_plus_schedule(snr, inr, eta=bad),
                 lambda: itlinq_plus_schedule(snr, inr, gamma=bad)):
        with pytest.raises(ShapeError, match="must be finite"):
            call()


@pytest.mark.parametrize("knob", ["eta", "gamma"])
@pytest.mark.parametrize("bad", [-0.1, 1.5])
def test_itlinq_plus_rejects_exponents_outside_unit_interval(knob, bad):
    snr, inr = np.array([1e4, 1e4]), np.full((2, 2), 10.0)
    with pytest.raises(ShapeError, match=rf"^{knob} must lie in \[0, 1\], got {bad}$"):
        itlinq_plus_schedule(snr, inr, **{knob: bad})


# ---------------------------------------------------------------------------
# utility-driven weight updates


@settings(max_examples=200)
@given(st.integers(1, 12), st.sampled_from(["0", "1", "other"]), st.integers(0, 2**31 - 1))
def test_arrivals_match_loop_reference(k, family, seed):
    # fairness 0, 1 or a random other exponent; weights from 1e-4 to 1e3 so
    # the cap and the zero floor both bind, with a random share of exact zeros
    rng = np.random.default_rng(seed)
    v, a_max = 10.0 ** rng.uniform(-1.0, 2.0), rng.uniform(0.05, 4.0)
    f = {"0": 0.0, "1": 1.0, "other": rng.uniform(0.05, 5.0)}[family]
    w = 10.0 ** rng.uniform(-4.0, 3.0, k)
    w[rng.uniform(size=k) < rng.uniform()] = 0.0
    if family == "0":
        w[rng.integers(k)] = v  # the v >= w boundary
    state = NumState(w, v=v, a_max=a_max, fairness=f)
    got, want = _arrivals(state), arrivals_loop(state)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_num_step_update_arithmetic():
    state = NumState(np.array([1.0]), v=10.0, a_max=0.3, fairness=1.0)
    d, a, new = num_step(state, ChannelMatrix([[0.5]]))
    assert d.d == pytest.approx([0.5])
    assert a == pytest.approx([0.3])
    assert new.weights == pytest.approx([0.8])


def test_num_itlinq_plus_reads_the_realized_network(monkeypatch):
    # 1e6 ** 1.19, 1.22 and 1.73 as Python floats differ in the last bit from
    # numpy's array power on some builds: the pass must see the levels that
    # realize_network builds for the weight-ordered candidate block
    alpha = ChannelMatrix([[1.19, 0.3, 0.2], [0.4, 1.22, 0.1], [0.3, 0.5, 1.73]])
    seen = []

    def spy(snr, inr, **kwargs):
        seen.append((snr, inr))
        return itlinq_plus_schedule(snr, inr, **kwargs)

    monkeypatch.setattr(schedule, "itlinq_plus_schedule", spy)
    state = NumState(np.array([1.0, 3.0, 2.0]), v=10.0, a_max=1.0)
    num_step(state, alpha, "itlinq+", ref_power=1e6)
    cand = [1, 2, 0]
    t = realize_network(ChannelMatrix(alpha.alpha[np.ix_(cand, cand)]), 1e6).nominal_snr()
    (snr, inr), = seen
    assert snr.tobytes() == np.diag(t).tobytes() and inr.tobytes() == t.tobytes()


@pytest.mark.parametrize("solver", ["exact", "lp", "itlinq+"])
@pytest.mark.parametrize("p", [1.0, 0.5, 0.0, float("nan"), float("inf")])
def test_num_step_rejects_a_meaningless_reference_power(solver, p):
    # only itlinq+ reads the reference power, but it is a setting of the
    # whole loop, so every solver refuses one that anchors no log-P scale
    state = NumState(np.ones(3), v=10.0, a_max=1.0)
    with pytest.raises(InvalidReferencePower, match="reference power must be finite"):
        num_step(state, NETWORK_A, solver, ref_power=p)


def test_arrival_closed_forms():
    alpha = ChannelMatrix([[0.5]])

    def arrival(w, fairness, v=10.0, a_max=1.0):
        state = NumState(np.array([w]), v=v, a_max=a_max, fairness=fairness)
        _, a, _ = num_step(state, alpha)
        return float(a[0])

    # log utility: stationarity v / a = w, clamped to [0, a_max]
    assert arrival(5.0, 1.0) == pytest.approx(1.0)
    assert arrival(20.0, 1.0) == pytest.approx(0.5)
    # zero weight means unbounded marginal utility: admit the cap
    assert arrival(0.0, 1.0) == pytest.approx(1.0)
    # linear utility: bang-bang at v = w
    assert arrival(5.0, 0.0) == pytest.approx(1.0)
    assert arrival(15.0, 0.0) == pytest.approx(0.0)
    # fairness 2: (v / w)^(1/2)
    assert arrival(40.0, 2.0) == pytest.approx(0.5)


def test_num_run_single_user_serves_full_rate():
    # the single user gets its direct strength every slot, including the
    # zero-backlog slots where any feasible point is optimal
    for a11 in (1.2, 0.8):
        traj = num_run(ChannelMatrix([[a11]]), t_slots=40)
        assert np.unique(traj.d_star) == pytest.approx([a11])
        assert traj.final_avg_d == pytest.approx([a11])


def test_num_run_linear_utility_converges_to_sum_optimum():
    traj = num_run(NETWORK_B, fairness=0.0, v=10.0, t_slots=600, solver="lp")
    assert np.allclose(traj.final_avg_d, (0.5, 0.6, 0.7), atol=1e-6)
    assert abs(traj.final_avg_d.sum() - 1.8) <= 0.05


def test_num_run_log_utility_converges():
    traj = num_run(NETWORK_B, fairness=1.0, v=10.0, t_slots=800, solver="lp")
    assert np.allclose(traj.final_avg_d, (0.5, 0.6, 0.7), atol=1e-3)
    assert traj.final_utility == pytest.approx(
        utility_value((0.5, 0.6, 0.7), 1.0), abs=1e-6)


def test_num_run_deterministic_and_consistent():
    t1 = num_run(NETWORK_B, fairness=1.0, t_slots=30)
    t2 = num_run(NETWORK_B, fairness=1.0, t_slots=30)
    assert np.array_equal(t1.d_star, t2.d_star)
    assert np.array_equal(t1.avg_d, t2.avg_d)
    assert t1.d_star.shape == (30, 3)
    # running averages are cumulative means of the per-slot services
    cum = np.cumsum(t1.d_star, axis=0) / np.arange(1, 31)[:, None]
    assert np.allclose(t1.avg_d, cum)
    assert t1.utility[-1] == pytest.approx(utility_value(t1.avg_d[-1], 1.0))


def test_num_weights_stay_in_band():
    # each slot adds at most a_max and the update clamps at zero
    rng = np.random.default_rng(21)
    for fairness in (0.0, 1.0, 2.0):
        m = rng.uniform(0.0, 0.8, (2, 2))
        np.fill_diagonal(m, rng.uniform(0.9, 1.8, 2))
        alpha = ChannelMatrix(m)
        a_max = float(rng.uniform(0.3, 1.2))
        state = NumState(np.ones(2), v=5.0, a_max=a_max, fairness=fairness)
        for t in range(1, 31):
            _, _, state = num_step(state, alpha)
            assert np.all(state.weights >= 0.0)
            assert np.all(state.weights <= 1.0 + t * a_max + 1e-12)


def test_utility_value_pins():
    d = (0.5, 0.6, 0.7)
    assert utility_value(d, 1.0) == pytest.approx(
        np.log(0.5) + np.log(0.6) + np.log(0.7))
    assert utility_value(d, 0.0) == pytest.approx(1.8)
    assert utility_value(d, 2.0) == pytest.approx(-(2.0 + 5.0 / 3.0 + 10.0 / 7.0))
