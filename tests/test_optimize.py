"""Weighted sum-GDoF solvers: LP, subset enumeration, GP, and the dual
decomposition, plus the GP-then-minimal-power pipeline."""

import contextlib
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    dgp_loop,
    exact_fresh,
    gp_gdof_equivalence_gap,
    gp_grid_best,
    gp_power_control_minimize,
    polytope_lp_fresh,
    random_alpha,
    tina_polytope_fresh,
)
from tinq import (
    ChannelMatrix,
    EmptyPolytope,
    GdofTuple,
    NETWORK_A,
    NETWORK_B,
    achieved_gdof,
    check_conditions,
    contains,
    decentralized_gp,
    gp_power_control,
    gp_then_assignment,
    max_weighted_gdof_exact,
    max_weighted_gdof_lp,
    realize_network,
    region,
    strength_from_physical,
    tina_polytope,
)
import tinq.optimize
from tinq import sim
from tinq.exceptions import (ConvergenceFailure, DivergenceDetected, DomainError,
                             ShapeError, SubsetTooLarge)
from tinq.model import TOL, PhysicalNetwork
from tinq.power import PowerAlloc, solve_power_hungarian, solve_power_potentials


def test_lp_reference_objectives():
    d, obj = max_weighted_gdof_lp(NETWORK_A)
    assert obj == pytest.approx(2.5, abs=1e-8)
    np.testing.assert_allclose(d.d.sum(), 2.5, atol=1e-8)
    d, obj = max_weighted_gdof_lp(NETWORK_A, w=[1, 0, 0])
    assert obj == pytest.approx(2.0, abs=1e-8)
    np.testing.assert_allclose(d.d, [2.0, 0.0, 0.0], atol=1e-8)
    _, obj = max_weighted_gdof_lp(NETWORK_B)
    assert obj == pytest.approx(1.8, abs=1e-8)


def test_lp_zero_weight_users_dropped():
    d, obj = max_weighted_gdof_lp(NETWORK_A, w=[1, 0, 1])
    assert obj == pytest.approx(2.4, abs=1e-8)
    assert d.d[1] == 0.0


def test_lp_subset_cap():
    # the LP's rows are the subset table, so it shares that table's one cap
    with pytest.raises(SubsetTooLarge, match="^subset table of 17 users exceeds its cap of 16$"):
        max_weighted_gdof_lp(ChannelMatrix(np.eye(17)))


def test_exact_collapses_to_lp_under_c1():
    d, subset, obj = max_weighted_gdof_exact(NETWORK_B)
    assert obj == pytest.approx(1.8, abs=1e-8)
    assert subset == (0, 1, 2)


def test_exact_prefers_singleton_under_strong_cross():
    two = ChannelMatrix(np.array([[1.0, 0.9], [0.9, 1.0]]))
    d, subset, obj = max_weighted_gdof_exact(two)
    assert obj == pytest.approx(1.0, abs=1e-8)
    assert len(subset) == 1


def test_exact_single_user():
    d, subset, obj = max_weighted_gdof_exact(ChannelMatrix(np.array([[1.7]])))
    assert obj == pytest.approx(1.7, abs=1e-12)
    assert subset == (0,)


def test_exact_cap():
    with pytest.raises(SubsetTooLarge, match="^exact search of 11 users exceeds its cap of 10$"):
        max_weighted_gdof_exact(ChannelMatrix(np.eye(11)))


def test_exact_on_a_subset_drops_the_other_users():
    # users outside the subset drop out as zero-weight users do, and the cap
    # counts the users searched, not the network
    alpha = random_alpha(np.random.default_rng(5), 6, diag_lo=1.0, cross_hi=1.0)
    w = np.array([1.0, 2.0, 0.5, 1.5, 1.0, 3.0])
    d, subset, obj = max_weighted_gdof_exact(alpha, w, [4, 1, 3])
    d_zeroed, subset_zeroed, obj_zeroed = max_weighted_gdof_exact(alpha, w * [0, 1, 0, 1, 1, 0])
    assert set(subset) <= {1, 3, 4} and subset == subset_zeroed
    assert d.d.tobytes() == d_zeroed.d.tobytes() and obj == obj_zeroed
    eleven = random_alpha(np.random.default_rng(5), 11)
    assert max_weighted_gdof_exact(eleven, None, [0, 5, 10])[1] != ()
    with pytest.raises(IndexError, match=r"^subset \[11\] out of range for K=11$"):
        max_weighted_gdof_exact(eleven, None, [11])


@given(st.integers(1, 8), st.integers(0, 2**31 - 1))
@settings(max_examples=40)
@pytest.mark.oldest_pins
def test_pruned_exact_search_matches_fresh(k, seed):
    # the search skips subsets whose greedy bound cannot beat the best so
    # far; its answer must still be bitwise that of solving every LP. Cross
    # strengths up to 2 leave many polytopes empty, weak networks leave
    # none, and on the 0.25 grid bounds and weights tie exactly
    rng = np.random.default_rng(seed)
    snap = (lambda x: np.round(x * 4) / 4) if seed % 2 == 0 else (lambda x: x)
    a = rng.uniform(0.0, 2.0 if seed % 3 == 0 else 1.0, size=(k, k))
    a[np.diag_indices(k)] = rng.uniform(0.5 if seed % 3 == 0 else 1.0, 2.5, size=k)
    w = snap(rng.uniform(0.0, 2.0, size=k))
    w[rng.random(k) < 0.25] = 0.0
    alpha = ChannelMatrix(snap(a))
    assert outcome(max_weighted_gdof_exact, alpha, w) == outcome(exact_fresh, alpha, w)


@pytest.mark.oldest_pins
def test_exact_search_skips_subsets_that_cannot_win():
    # unit weights on a weak network: a four-user set wins, and most
    # subsets cannot beat the best one found before them
    alpha = random_alpha(np.random.default_rng(7), 6, diag_lo=1.0, cross_hi=1.0)
    with recorded_linprog(scipy.optimize) as got, recorded_linprog(oracles) as want:
        assert outcome(max_weighted_gdof_exact, alpha) == outcome(exact_fresh, alpha)
    assert len(want) == 57 and len(got) < 57


@pytest.mark.parametrize("a, w", [
    (np.eye(3), [1.0, 1.0, 1e-8]),
    ([[1.0, 0.2], [0.1, 1.0]], [1.0, 1e-6]),  # the pair's sum bound is 1.7
], ids=["silent", "interfering"])
@pytest.mark.oldest_pins
def test_exact_search_keeps_a_subset_that_wins_by_a_hair(a, w):
    # the full set beats the best before it by 1e-6 or less: a greedy
    # bound that fell short of the LP optimum would skip the winner
    alpha = ChannelMatrix(np.array(a, dtype=float))
    got = outcome(max_weighted_gdof_exact, alpha, np.array(w))
    assert got == outcome(exact_fresh, alpha, np.array(w)) and got[1] == tuple(range(len(w)))


def test_gp_single_link_full_power():
    net = realize_network(ChannelMatrix(np.array([[1.7]])), 100.0)
    sol = gp_power_control(net)
    assert sol.powers[0] == pytest.approx(1.0, abs=1e-6)
    assert sol.sinr[0] == pytest.approx(net.gains[0, 0], rel=1e-6)


def test_gp_two_user_matches_grid_oracle():
    g = np.array([[1e3, 10.0], [10.0, 1e3]])
    net = PhysicalNetwork(
        gains=g, max_tx_power=np.ones(2), noise_power=1.0, reference_power=1e3
    )
    sol = gp_power_control(net)
    assert np.all(sol.powers > 0.9)
    got = np.sum(np.log2(sol.sinr[list(sol.subset)])) * math.log(2.0)
    assert got == pytest.approx(gp_grid_best(g, np.ones(2)), rel=0.01)


def test_gap_reference_values_decrease_with_power():
    gaps = []
    for p in (1e4, 1e6, 1e8):
        gaps.append(gp_gdof_equivalence_gap(realize_network(NETWORK_A, p)))
    np.testing.assert_allclose(
        gaps, [0.010592409, 0.001024704, 0.000114430], atol=2e-5
    )
    assert gaps[0] > gaps[1] > gaps[2]
    for p, gap in zip((1e4, 1e6, 1e8), gaps):
        assert gap <= 3.0 * math.log(3.0) / math.log(p)


def test_gap_orthogonal_links():
    # with no cross gain the GP hits full power exactly, so the log-SINR
    # objective equals the LP optimum up to solver tolerance
    g = np.diag([1e4, 10.0 ** 3.2])
    net = PhysicalNetwork(
        gains=g, max_tx_power=np.ones(2), noise_power=1.0, reference_power=1e4
    )
    assert gp_gdof_equivalence_gap(net) <= 1e-6


@pytest.mark.oldest_pins
def test_dgp_single_user():
    r, d = decentralized_gp(ChannelMatrix(np.array([[1.3]])), iters=10)
    assert r.r[0] == pytest.approx(0.0, abs=1e-9)
    assert d.d[0] == pytest.approx(1.3, abs=1e-9)


@pytest.mark.oldest_pins
def test_dgp_rejects_zero_iterations():
    with pytest.raises(ValueError):
        decentralized_gp(NETWORK_A, iters=0)


@pytest.mark.oldest_pins
@pytest.mark.filterwarnings("error")
def test_dgp_overflow_is_a_domain_error():
    # the duals overflow a float near 9e306 on two users, with no warning
    # and no answer computed past it; at 1e306 every value stays finite
    huge = ChannelMatrix(np.array([[8.99e306, 0.5], [0.2, 8.99e306]]))
    with pytest.raises(DomainError, match=r"^decentralized GP at strength 8\.99e\+306 "
                                          r"overflows a float$"):
        decentralized_gp(huge)
    r, d = decentralized_gp(ChannelMatrix(np.array([[1e306, 0.5], [0.2, 1e306]])))
    assert np.isfinite(r.r).all() and np.isfinite(d.d).all() and (r.r < 0).all()


@pytest.mark.oldest_pins
def test_dgp_reference_convergence():
    _, d = decentralized_gp(NETWORK_B, iters=5000)
    assert d.d.sum() == pytest.approx(1.8, abs=0.05)


@pytest.mark.oldest_pins
def test_dgp_weak_two_user():
    alpha = ChannelMatrix(np.array([[1.0, 0.1], [0.1, 1.0]]))
    _, d = decentralized_gp(alpha, iters=5000)
    assert d.d.sum() == pytest.approx(1.8, abs=0.05)


@pytest.mark.oldest_pins
def test_dgp_residual_trends_down():
    _, _, info = decentralized_gp(NETWORK_B, iters=300, return_info=True)
    res = info["residuals"]
    assert res[-1] < 0.25 * res[0]


def _dgp_outcome(solve, alpha, w, step, iters):
    """The bytes of r, d and the residuals, or the error type and text."""
    try:
        r, d, residuals = solve(alpha, w=w, step=step, iters=iters)
    except (DivergenceDetected, ShapeError) as e:
        return type(e), str(e)
    return r.r.tobytes(), d.d.tobytes(), np.array(residuals).tobytes()


def _batched_dgp(alpha, **kw):
    r, d, info = decentralized_gp(alpha, return_info=True, **kw)
    return r, d, info["residuals"]


STEPS = {
    "default": None,
    "harmonic": lambda t: 0.7 / t,
    "constant": lambda t: 0.05,
    "uphill": lambda t: -0.5 / math.sqrt(t),
}


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=80)
@pytest.mark.oldest_pins
def test_dgp_matches_loop_reference(seed):
    # the batched local solves must reproduce the user-by-user loop bit for
    # bit: a 0.25 grid makes duals, breakpoints and costs tie, a zero weight
    # shrinks the solved subset, and the uphill step diverges
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 9))
    a = random_alpha(rng, k).alpha
    w = np.round(rng.uniform(0.2, 2.0, size=k), 3)
    if rng.random() < 0.5:
        a = np.round(a * 4.0) / 4.0
        w = np.round(w * 2.0) / 2.0 + 0.5
    if k > 1 and rng.random() < 0.3:
        w[rng.integers(0, k)] = 0.0
    step = STEPS[sorted(STEPS)[rng.integers(0, len(STEPS))]]
    iters = int(rng.integers(1, 250))
    alpha = ChannelMatrix(a)
    want = _dgp_outcome(dgp_loop, alpha, w, step, iters)
    assert _dgp_outcome(_batched_dgp, alpha, w, step, iters) == want


@pytest.mark.parametrize("k", [17, 24])
@pytest.mark.oldest_pins
def test_dgp_matches_loop_reference_on_long_columns(k):
    # columns of 16 or more nonpositive duals, where a dot product's
    # rounding depends on its length
    rng = np.random.default_rng(k)
    alpha = random_alpha(rng, k)
    w = np.round(rng.uniform(0.2, 2.0, size=k), 3)
    want = _dgp_outcome(dgp_loop, alpha, w, None, 40)
    assert _dgp_outcome(_batched_dgp, alpha, w, None, 40) == want


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.oldest_pins
def test_dgp_divergence_matches_loop_reference(seed):
    rng = np.random.default_rng(seed)
    alpha = random_alpha(rng, 5)
    step = STEPS["uphill"]
    with pytest.raises(DivergenceDetected) as loop_err:
        dgp_loop(alpha, step=step, iters=400)
    with pytest.raises(DivergenceDetected) as err:
        decentralized_gp(alpha, step=step, iters=400)
    assert str(err.value) == str(loop_err.value)
    assert str(err.value) == "consistency residual grew for 100 consecutive steps"


def _gp_outcome(solve, net, subset=None, w=None):
    """The bytes of powers and sinr with the objective and subset, or the
    failure's text and last-iterate bytes."""
    try:
        sol = solve(net, subset, w)
    except ConvergenceFailure as e:
        return str(e), e.last_iterate.tobytes()
    return sol.powers.tobytes(), sol.sinr.tobytes(), sol.objective_bits, sol.subset


def _random_gp_instance(k, seed, log_p):
    # about a fifth of the weights are zero, so the solved subset shrinks
    rng = np.random.default_rng(seed)
    alpha = random_alpha(rng, k)
    w = rng.uniform(0.2, 3.0, size=k)
    w[rng.random(k) < 0.2] = 0.0
    if not np.any(w > 0):
        w[rng.integers(0, k)] = 1.0
    return realize_network(alpha, 10.0 ** log_p), w


@given(st.integers(1, 40), st.integers(0, 2**31 - 1), st.floats(1.0, 6.0))
@settings(max_examples=60)
@pytest.mark.oldest_pins
def test_gp_matches_minimize_reference(k, seed, log_p):
    # the setulb loop must reproduce minimize's L-BFGS-B bit for bit
    net, w = _random_gp_instance(k, seed, log_p)
    want = _gp_outcome(gp_power_control_minimize, net, None, w)
    assert _gp_outcome(gp_power_control, net, None, w) == want


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.oldest_pins
def test_gp_matches_minimize_reference_on_scheduled_drops(seed):
    net = sim.generate_drop(sim.scenario1(256), seed).net
    snr_tab = net.nominal_snr()
    snr = np.diag(snr_tab).copy()
    for scheme in ("none", "flashlinq", "itlinq", "itlinq+"):
        subset = sim._select(scheme, snr, snr_tab)
        want = _gp_outcome(gp_power_control_minimize, net, subset)
        assert _gp_outcome(gp_power_control, net, subset) == want


@pytest.mark.parametrize("cap", [1, 3])
@given(st.integers(1, 40), st.integers(0, 2**31 - 1), st.floats(1.0, 6.0))
@settings(max_examples=30)
@pytest.mark.oldest_pins
def test_gp_matches_minimize_reference_at_an_iteration_cap(cap, k, seed, log_p):
    # a cap of 1 or 3 iterations stops most starts early: every restart runs
    # and the failure carries the same text and last iterate
    net, w = _random_gp_instance(k, seed, log_p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tinq.optimize, "GP_MAX_ITER", cap)
        want = _gp_outcome(gp_power_control_minimize, net, None, w)
        assert _gp_outcome(gp_power_control, net, None, w) == want


@pytest.mark.oldest_pins
def test_gp_failure_names_the_stop_reason(monkeypatch):
    monkeypatch.setattr(tinq.optimize, "GP_MAX_ITER", 1)
    net = realize_network(NETWORK_A, 1e4)
    with pytest.raises(ConvergenceFailure) as err:
        gp_power_control(net)
    assert str(err.value) == ("geometric-program solve did not converge: "
                              "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT")
    assert np.all((err.value.last_iterate > 0) & (err.value.last_iterate <= 1))
    assert _gp_outcome(gp_power_control_minimize, net) == (str(err.value),
                                                           err.value.last_iterate.tobytes())


def test_pipeline_single_user():
    net = realize_network(ChannelMatrix(np.array([[1.7]])), 100.0)
    r_min, d = gp_then_assignment(net)
    assert r_min.r[0] == pytest.approx(0.0, abs=1e-9)
    assert d.d[0] == pytest.approx(1.7, abs=1e-9)


def test_pipeline_orthogonal_no_slack():
    g = np.diag([1e4, 10.0 ** 3.2])
    net = PhysicalNetwork(
        gains=g, max_tx_power=np.ones(2), noise_power=1.0, reference_power=1e4
    )
    r_min, d = gp_then_assignment(net)
    np.testing.assert_allclose(r_min.r, [0.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(d.d, [1.0, 0.8], atol=1e-9)


def test_pipeline_reference_strictly_reduces_power():
    net = realize_network(NETWORK_A, 1e4)
    sol = gp_power_control(net)
    r_gp = np.log(sol.powers) / np.log(net.reference_power)
    r_min, d = gp_then_assignment(net)
    alpha = ChannelMatrix(NETWORK_A.alpha)
    np.testing.assert_allclose(achieved_gdof(alpha, r_min).d, d.d, atol=1e-9)
    assert np.all(r_min.r <= r_gp + 1e-9)
    assert np.any(r_min.r < r_gp - 1e-3)


def weak_alpha(rng: np.random.Generator, k: int) -> ChannelMatrix:
    # cross strengths stay below every direct strength, keeping all sum
    # bounds nonnegative
    return random_alpha(rng, k, diag_lo=1.0, diag_hi=2.5, cross_hi=1.0)


@given(st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_lp_output_is_region_feasible(k, seed):
    rng = np.random.default_rng(seed)
    alpha = weak_alpha(rng, k)
    w = np.round(rng.uniform(0.1, 2.0, size=k), 6)
    d, obj = max_weighted_gdof_lp(alpha, w=w)
    assert contains(tina_polytope(alpha), d, tol=1e-7)
    assert obj == pytest.approx(float(np.dot(w, d.d)), abs=1e-7)


@given(st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_exact_dominates_lp(k, seed):
    rng = np.random.default_rng(seed)
    alpha = weak_alpha(rng, k)
    _, lp_obj = max_weighted_gdof_lp(alpha)
    _, _, exact_obj = max_weighted_gdof_exact(alpha)
    assert exact_obj >= lp_obj - 1e-8
    rep = check_conditions(alpha)
    if all(rep.c1):
        assert exact_obj == pytest.approx(lp_obj, abs=1e-8)


def test_strong_cross_empty_polytope():
    # above the weak regime the pair bound goes negative: the single-subset
    # LP reports the empty polytope, the union search skips it
    strong = ChannelMatrix(np.array([[1.0, 1.5], [1.5, 1.0]]))
    with pytest.raises(EmptyPolytope):
        max_weighted_gdof_lp(strong)
    d, subset, obj = max_weighted_gdof_exact(strong)
    assert obj == pytest.approx(1.0, abs=1e-8)
    assert len(subset) == 1


@contextlib.contextmanager
def recorded_linprog(module):
    """Record the keyword arguments of every ``module.linprog`` call."""
    calls = []
    orig = module.linprog

    def record(**kwargs):
        calls.append(kwargs)
        return orig(**kwargs)

    module.linprog = record
    try:
        yield calls
    finally:
        module.linprog = orig


def outcome(fn, *args):
    """The bytes of every returned array and the exact floats and tuples, or
    the raised type and message."""
    try:
        out = fn(*args)
    except Exception as e:  # the type and message are what get compared
        return type(e), str(e)
    return tuple(v.d.tobytes() if isinstance(v, GdofTuple) else v for v in out)


def linprog_keys(calls) -> list:
    return [(kw["c"].tobytes(), kw["A_ub"].shape, kw["A_ub"].tobytes(),
             kw["b_ub"].tobytes(), kw["bounds"], kw["method"]) for kw in calls]


def is_subsequence(got: list, want: list) -> bool:
    rest = iter(want)
    return all(any(g == w for w in rest) for g in got)


def assert_memo_matches_fresh(alpha, calls, exact_w=None):
    """Run the (subset, w) calls in order on one network, through the memo and
    through the per-call reference, and require bitwise-equal results and
    linprog inputs; then the same for the polytopes, and bitwise-equal
    results of the exact search, whose linprog inputs must be an in-order
    subsequence of the reference's, as it skips subsets that cannot win."""
    with recorded_linprog(scipy.optimize) as got_lp, recorded_linprog(oracles) as want_lp:
        for subset, w in calls:
            assert outcome(max_weighted_gdof_lp, alpha, subset, w) == \
                outcome(polytope_lp_fresh, alpha, subset, w)
            poly, want = tina_polytope(alpha, subset), tina_polytope_fresh(alpha, subset)
            assert poly.subset == want.subset
            assert list(poly.constraints) == list(want.constraints)
            assert [b.hex() for b in poly.constraints.values()] == \
                [b.hex() for b in want.constraints.values()]
    assert linprog_keys(got_lp) == linprog_keys(want_lp)
    if exact_w is not None:
        with recorded_linprog(scipy.optimize) as got_lp, recorded_linprog(oracles) as want_lp:
            assert outcome(max_weighted_gdof_exact, alpha, exact_w) == \
                outcome(exact_fresh, alpha, exact_w)
        assert is_subsequence(linprog_keys(got_lp), linprog_keys(want_lp))


@given(st.integers(1, 8), st.integers(0, 2**31 - 1))
@settings(max_examples=60)
def test_memoized_lp_matches_fresh_reference(k, seed):
    # cross strengths up to 2 against direct ones from 0.5 leave many
    # polytopes empty; on the 0.25 grid bounds and weights tie exactly
    rng = np.random.default_rng(seed)
    grid = seed % 2 == 0
    snap = (lambda x: np.round(x * 4) / 4) if grid else (lambda x: x)
    a = rng.uniform(0.0, 2.0, size=(k, k))
    a[np.diag_indices(k)] = rng.uniform(0.5, 2.5, size=k)
    alpha = ChannelMatrix(snap(a))
    calls = []
    for _ in range(4):
        w = snap(rng.uniform(0.0, 2.0, size=k))
        w[rng.random(k) < 0.3] = 0.0  # zero weights shrink the subset
        if not np.any(w > 0):
            w[rng.integers(k)] = 1.0
        size = int(rng.integers(1, k + 1))
        subset = None if rng.random() < 0.3 else tuple(rng.permutation(k)[:size].tolist())
        calls.append((subset, w))
    assert_memo_matches_fresh(alpha, calls, exact_w=calls[0][1] if k <= 6 else None)


@pytest.mark.parametrize("a, calls", [
    # empty polytope on the pair, a singleton that is not
    ([[1.0, 1.5], [1.5, 1.0]], [(None, [1, 1]), ((0,), [1, 1]), (None, [1, 1])]),
    # tied weights on both reference networks, then a zero-weight user
    (NETWORK_A.alpha, [(None, [1, 1, 1]), (None, [1, 0, 1]), ((0, 2), [1, 1, 1])]),
    (NETWORK_B.alpha, [(None, [1, 1, 1]), ((2, 0), [0.5, 0.5, 0.5]), (None, [0, 1, 0])]),
    # every weight in the subset zero: nothing to solve
    (NETWORK_A.alpha, [((1,), [1, 0, 1]), (None, [1, 1, 1])]),
    ([[1.7]], [(None, [1.0]), (None, [2.0])]),
])
def test_memoized_lp_matches_fresh_reference_edge_cases(a, calls):
    alpha = ChannelMatrix(np.array(a, dtype=float))
    assert_memo_matches_fresh(alpha, [(s, np.array(w, dtype=float)) for s, w in calls],
                              exact_w=np.array(calls[0][1], dtype=float))


@given(st.integers(1, 8), st.integers(0, 2**31 - 1))
@settings(max_examples=200)
@pytest.mark.oldest_pins
def test_one_user_lp_matches_linprog(k, seed):
    # a single user's polytope [0, alpha_kk], answered in closed form, against
    # the LP the library hands linprog for larger subsets; on the 0.25 grid
    # strengths and weights are short binary fractions
    rng = np.random.default_rng(seed)
    grid = seed % 2 == 0
    snap = (lambda x: np.round(x * 4) / 4) if grid else (lambda x: x)
    a = rng.uniform(0.0, 2.0, size=(k, k))
    a[np.diag_indices(k)] = rng.uniform(0.25, 2.5, size=k)
    alpha = ChannelMatrix(snap(a))
    w = snap(rng.uniform(0.25, 2.0, size=k))
    user = int(rng.integers(k))
    d, obj = max_weighted_gdof_lp(alpha, (user,), w)
    rows, bounds = region.halfspaces(alpha, (user,))
    res = scipy.optimize.linprog(c=-w[[user]], A_ub=rows, b_ub=bounds,
                                 bounds=[(0, None)], method="highs")
    want = np.zeros(k)
    want[user] = np.maximum(res.x, 0.0)[0]
    assert d.d.tobytes() == want.tobytes()
    assert obj.hex() == float(-res.fun).hex()
    # the same through a subset whose other users carry zero weight
    w_one = np.zeros(k)
    w_one[user] = w[user]
    d_all, obj_all = max_weighted_gdof_lp(alpha, None, w_one)
    assert d_all.d.tobytes() == want.tobytes() and obj_all.hex() == obj.hex()


@pytest.mark.oldest_pins
def test_one_user_lp_with_zero_direct_strength():
    # linprog returns x = -0.0 and fun = 0.0 here, an objective of -0.0; the
    # closed form reports the same d and +0.0
    alpha = ChannelMatrix(np.array([[0.0, 0.5], [0.5, 1.0]]))
    d, obj = max_weighted_gdof_lp(alpha, (0,), [1.5, 1.0])
    assert d.d.tobytes() == np.zeros(2).tobytes()
    assert obj.hex() == (0.0).hex()


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25)
def test_gp_agrees_with_grid_on_random_pairs(seed):
    rng = np.random.default_rng(seed)
    g = np.array([
        [rng.uniform(1e2, 1e4), rng.uniform(1.0, 30.0)],
        [rng.uniform(1.0, 30.0), rng.uniform(1e2, 1e4)],
    ])
    net = PhysicalNetwork(
        gains=g, max_tx_power=np.ones(2), noise_power=1.0, reference_power=1e4
    )
    sol = gp_power_control(net)
    got = np.sum(np.log2(sol.sinr[list(sol.subset)])) * math.log(2.0)
    oracle = gp_grid_best(g, np.ones(2))
    # grid points are feasible, so the solver can only do better up to its
    # own tolerance; the grid pitch caps how far above it can sit
    assert got >= oracle - 1e-6
    assert got == pytest.approx(oracle, rel=0.01, abs=0.08)
    num = np.diag(g) * sol.powers
    interference = g.T @ sol.powers - num
    np.testing.assert_allclose(
        sol.sinr, num / (net.noise_power + interference), rtol=1e-6
    )


@given(st.integers(2, 5), st.integers(0, 2**31 - 1))
@settings(max_examples=25)
def test_pipeline_minimality(k, seed):
    rng = np.random.default_rng(seed)
    alpha = random_alpha(rng, k)
    net = realize_network(alpha, 1e4)
    sol = gp_power_control(net)
    r_gp = np.log(sol.powers) / np.log(net.reference_power)
    r_min, d = gp_then_assignment(net)
    on = d.d > 0
    assume(np.any(on))
    np.testing.assert_allclose(achieved_gdof(alpha, r_min).d, d.d, atol=1e-8)
    assert np.all(r_min.r[on] <= r_gp[on] + 1e-8)


def test_target_powers_switch_off_negligible_targets():
    # targets at or below TOL leave their users off
    r, _ = solve_power_potentials(NETWORK_A, np.array([0.5, TOL, 0.7]))
    r_ref, _ = solve_power_hungarian(NETWORK_A, [0.5, 0.0, 0.7], subset=(0, 2))
    assert r.r.tobytes() == r_ref.r.tobytes() and r.r[1] == -np.inf
    r, _ = solve_power_potentials(NETWORK_A, np.array([TOL, 0.0, TOL / 2]))
    assert np.all(r.r == -np.inf)
    # the pipeline switches off a user whose GP-achieved GDoF is 0: user 1
    # has direct strength 0 and hears Tx-0 at 1.0
    net = realize_network(ChannelMatrix(np.array([[1.0, 1.0], [0.0, 0.0]])), 1e4)
    r, d = gp_then_assignment(net)
    assert r.r[1] == -np.inf and d.d.tolist() == [1.0, 0.0]
    # every user off: user 0 outside the subset, user 1 at GDoF 0
    r, d = gp_then_assignment(net, subset=(1,))
    assert np.all(r.r == -np.inf) and d.d.tolist() == [0.0, 0.0]


@given(st.integers(1, 6), st.integers(0, 2**31 - 1), st.booleans())
@settings(max_examples=40)
@pytest.mark.oldest_pins
def test_pipeline_target_goes_straight_to_potentials(k, seed, grid):
    """gp_then_assignment's powers are bitwise those of the potentials solve
    over the users switched on explicitly, those whose GP-achieved GDoF is
    above TOL, with some achieved entries pushed to 0 or into (0, TOL]."""
    rng = np.random.default_rng(seed)
    alpha = random_alpha(rng, k)
    if grid:
        alpha = ChannelMatrix(np.round(alpha.alpha * 4) / 4)
    net = realize_network(alpha, 1e4)
    subset = tuple(np.flatnonzero(rng.uniform(size=k) < 0.8).tolist()) or (0,)
    squeeze = rng.uniform(size=k) < 0.3
    small = rng.choice([0.0, TOL / 3, TOL], size=k)
    achieved = []

    def squeezed(alpha, r):
        d = achieved_gdof(alpha, r).d.copy()
        d[squeeze] = np.minimum(d[squeeze], small[squeeze])
        achieved.append(d)
        return GdofTuple(d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tinq.optimize, "achieved_gdof", squeezed)
        r, d = gp_then_assignment(net, subset)
    target = achieved[0]
    on = tuple(u for u in range(k) if target[u] > TOL)
    r_ref, _ = solve_power_potentials(strength_from_physical(net), target, subset=on)
    assert r.r.tobytes() == r_ref.r.tobytes()
    assert d.d.tobytes() == np.where(target > TOL, target, 0.0).tobytes()


@given(st.integers(2, 4), st.integers(0, 2**31 - 1))
@settings(max_examples=25)
def test_gp_log_domain_objective_is_convex(k, seed):
    # the transform minimized by the solver: F(z) = sum_i w_i
    # [log(noise + sum_j G_ji e^{z_j}) - z_i - log G_ii]; midpoint check
    rng = np.random.default_rng(seed)
    alpha = random_alpha(rng, k)
    net = realize_network(alpha, 1e4)
    g = net.gains

    def f(z):
        p = np.exp(z)
        total = g.T @ p - np.diag(g) * p
        return float(np.sum(np.log(net.noise_power + total) - z - np.log(np.diag(g))))

    x = rng.uniform(-5.0, 0.0, size=k)
    y = rng.uniform(-5.0, 0.0, size=k)
    assert f((x + y) / 2.0) <= (f(x) + f(y)) / 2.0 + 1e-9
