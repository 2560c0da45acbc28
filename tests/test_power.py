"""Globally minimal power control via the assignment dual: exact and auction."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oracles import hungarian_loop, lp_dual_labels, random_alpha
from tinq import (
    ChannelMatrix,
    GdofTuple,
    NETWORK_A,
    NETWORK_B,
    achieved_gdof,
    build_assignment_matrix,
    is_feasible,
    solve_power_auction,
    solve_power_hungarian,
)
from tinq import power
from tinq.exceptions import EpsilonTooSmall, ImmediatelyInfeasible, Infeasible, TinqError
from tinq.power import InfeasibleGdof, PowerAlloc

D_REF = GdofTuple([0.5, 0.6, 0.7])


def test_assignment_matrix_full():
    am = build_assignment_matrix(NETWORK_A, D_REF)
    expect = np.array([
        [1.5, 0.5, 0.1],
        [0.2, 0.4, 0.5],
        [1.0, 0.5, 0.8],
    ])
    assert am.subset == (0, 1, 2)
    np.testing.assert_allclose(am.A, expect, atol=1e-12)


def test_assignment_matrix_subset():
    am = build_assignment_matrix(
        NETWORK_A, GdofTuple([1.0, 0.5, 0.0]), subset=(0, 1)
    )
    np.testing.assert_allclose(am.A, [[1.0, 0.5], [0.2, 0.5]], atol=1e-12)
    assert am.subset == (0, 1)


def test_hungarian_reference_solution_and_trace():
    r, labels, trace = solve_power_hungarian(NETWORK_A, D_REF, return_trace=True)
    np.testing.assert_allclose(r.r, [-1.2, -0.4, -0.7], atol=1e-9)
    np.testing.assert_allclose(labels.y_u, [1.2, 0.4, 0.7], atol=1e-9)
    np.testing.assert_allclose(labels.y_v, [0.3, 0.0, 0.1], atol=1e-9)
    np.testing.assert_allclose(trace.initial_y_u, [1.5, 0.5, 1.0], atol=1e-12)
    np.testing.assert_allclose(trace.initial_y_v, [0.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(trace.alpha_l, [0.2, 0.1], atol=1e-9)


def test_hungarian_single_link_full_rate():
    alpha = ChannelMatrix(np.array([[1.3]]))
    r, labels = solve_power_hungarian(alpha, GdofTuple([1.3]))
    assert r.r[0] == pytest.approx(0.0, abs=1e-12)
    assert labels.y_u[0] == pytest.approx(0.0, abs=1e-12)


def test_hungarian_subset_powers_off_links():
    r, labels = solve_power_hungarian(
        NETWORK_A, GdofTuple([1.0, 0.5, 0.0]), subset=(0, 1)
    )
    np.testing.assert_allclose(r.r[:2], [-1.0, -0.5], atol=1e-9)
    assert r.r[2] == -np.inf
    np.testing.assert_allclose(
        achieved_gdof(NETWORK_A, r).d, [1.0, 0.5, 0.0], atol=1e-9
    )


def test_hungarian_infeasible_target_raises():
    with pytest.raises(InfeasibleGdof):
        solve_power_hungarian(NETWORK_A, GdofTuple([2.0, 1.0, 1.5]))


def test_is_feasible_examples():
    assert is_feasible(NETWORK_A, GdofTuple([0.0, 0.0, 0.0]))
    assert is_feasible(NETWORK_A, D_REF)
    # (0.5, 0.6, 0.7) meets every bound of the second fixture with equality;
    # raising the first entry breaks the first pair bound and the sum bound
    assert is_feasible(NETWORK_B, GdofTuple([0.5, 0.6, 0.7]))
    assert not is_feasible(NETWORK_B, GdofTuple([0.6, 0.6, 0.7]))


def test_auction_reference_values():
    d = GdofTuple([0.4, 0.4, 0.4])
    r, _ = solve_power_auction(NETWORK_B, d, epsilon=1e-5)
    np.testing.assert_allclose(r.r, [-0.39999, -0.59999, -0.59999], atol=1e-8)
    r_snap, _ = solve_power_auction(NETWORK_B, d, epsilon=1e-5, snap=True)
    np.testing.assert_allclose(r_snap.r, [-0.4, -0.6, -0.6], atol=1e-12)


def test_auction_refuses_bid_cap_above_ceiling(monkeypatch):
    # max(A) = 1.5 on three users: epsilon 1e-5 needs a cap of
    # ceil(10 * 9 * 1.5 / 1e-5) + 3 = 13500003 bids
    with pytest.raises(EpsilonTooSmall, match="cap of 135000000003 bids") as err:
        solve_power_auction(NETWORK_A, D_REF, epsilon=1e-9)
    assert isinstance(err.value, TinqError) and isinstance(err.value, ValueError)
    monkeypatch.setattr(power, "BID_CEILING", 13500003)
    r, _ = solve_power_auction(NETWORK_A, D_REF, epsilon=1e-5)
    np.testing.assert_allclose(r.r, [-1.2, -0.4, -0.7], atol=3e-5)
    monkeypatch.setattr(power, "BID_CEILING", 13500002)
    with pytest.raises(EpsilonTooSmall):
        solve_power_auction(NETWORK_A, D_REF, epsilon=1e-5)


def feasible_target(rng: np.random.Generator, alpha: ChannelMatrix):
    r0 = rng.uniform(-1.5, 0.0, size=alpha.K)
    d = achieved_gdof(alpha, PowerAlloc(r0))
    return r0, GdofTuple(np.round(d.d, 9))


@given(st.integers(1, 7), st.integers(0, 2**31 - 1))
def test_hungarian_achieves_target_with_minimal_power(k, seed):
    rng = np.random.default_rng(seed)
    alpha = random_alpha(rng, k)
    r0, d = feasible_target(rng, alpha)
    r, labels = solve_power_hungarian(alpha, d)
    np.testing.assert_allclose(achieved_gdof(alpha, r).d, d.d, atol=1e-8)
    # r0 is a witness allocation for d, so the optimum cannot use more power
    # on any link
    assert np.all(r.r <= r0 + 1e-8)


@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_hungarian_labels_match_lp_dual(k, seed):
    rng = np.random.default_rng(seed)
    alpha = random_alpha(rng, k)
    _, d = feasible_target(rng, alpha)
    assume(np.any(d.d > 0))
    _, labels = solve_power_hungarian(alpha, d)
    y_u, y_v = lp_dual_labels(build_assignment_matrix(alpha, d).A)
    np.testing.assert_allclose(labels.y_u, y_u, atol=1e-7)
    np.testing.assert_allclose(labels.y_v, y_v, atol=1e-7)


@given(st.integers(1, 7), st.integers(0, 2**31 - 1))
def test_duality_and_complementary_slackness(k, seed):
    rng = np.random.default_rng(seed)
    alpha = random_alpha(rng, k)
    _, d = feasible_target(rng, alpha)
    a = build_assignment_matrix(alpha, d).A
    _, labels = solve_power_hungarian(alpha, d)
    y_u, y_v = labels.y_u, labels.y_v
    # the diagonal is the optimal assignment, so the dual value equals its
    # weight and every diagonal constraint is tight
    assert y_u.sum() + y_v.sum() == pytest.approx(np.trace(a), abs=1e-8)
    np.testing.assert_allclose(y_u + y_v, np.diag(a), atol=1e-8)
    assert np.all(y_u[:, None] + y_v[None, :] >= a - 1e-8)
    assert np.all(y_u >= -1e-12) and np.all(y_v >= -1e-12)


@given(st.integers(2, 8), st.integers(0, 2**31 - 1))
def test_auction_tracks_hungarian(k, seed):
    rng = np.random.default_rng(seed)
    alpha = random_alpha(rng, k)
    _, d = feasible_target(rng, alpha)
    eps = 1e-5
    r_h, _ = solve_power_hungarian(alpha, d)
    r_a, _ = solve_power_auction(alpha, d, epsilon=eps)
    # clamped links fall out of the support and get zero power in both solvers
    on = np.isfinite(r_h.r)
    np.testing.assert_array_equal(on, np.isfinite(r_a.r))
    assert np.all(np.abs(r_a.r[on] - r_h.r[on]) <= k * eps + 1e-12)


@given(st.integers(1, 7), st.integers(0, 2**31 - 1))
def test_label_update_budget(k, seed):
    rng = np.random.default_rng(seed)
    alpha = random_alpha(rng, k)
    _, d = feasible_target(rng, alpha)
    _, _, trace = solve_power_hungarian(alpha, d, return_trace=True)
    assert len(trace.alpha_l) <= k * k + k


@given(st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_feasibility_matches_solver(k, seed):
    rng = np.random.default_rng(seed)
    alpha = random_alpha(rng, k)
    _, d = feasible_target(rng, alpha)
    assert is_feasible(alpha, d)
    # pushing any single link past its direct strength breaks feasibility
    j = int(rng.integers(k))
    bad = np.array(d.d)
    bad[j] = alpha.alpha[j, j] + 0.1
    bad_d = GdofTuple(bad)
    assert not is_feasible(alpha, bad_d)
    with pytest.raises(Infeasible):
        solve_power_hungarian(alpha, bad_d)


# ---------------------------------------------------------------------------
# the array solver against the per-element loop reference


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _outcome(solve):
    try:
        return solve()
    except Infeasible as e:
        return type(e), str(e)


def assert_matches_loop(alpha, d, subset=None):
    """Powers, labels and every trace field bit for bit, or the same
    infeasibility verdict; returns the reference outcome."""
    want = _outcome(lambda: hungarian_loop(alpha, d, subset))
    got = _outcome(lambda: solve_power_hungarian(alpha, d, subset, return_trace=True))
    plain = _outcome(lambda: solve_power_hungarian(alpha, d, subset))
    if isinstance(want[0], type):
        assert got == want and plain == want
        return want
    (r, labels, trace), (r0, labels0, trace0) = got, want
    assert len(plain) == 2
    for a, a0 in ((r.r, r0.r), (labels.y_u, labels0.y_u), (labels.y_v, labels0.y_v),
                  (plain[0].r, r0.r), (plain[1].y_u, labels0.y_u),
                  (plain[1].y_v, labels0.y_v),
                  (trace.initial_y_u, trace0.initial_y_u),
                  (trace.initial_y_v, trace0.initial_y_v),
                  (trace.alpha_l, trace0.alpha_l)):
        assert _bits(a) == _bits(a0)
    for after, after0 in ((trace.y_u_after, trace0.y_u_after),
                          (trace.y_v_after, trace0.y_v_after)):
        assert len(after) == len(after0) == trace0.rounds
        assert [_bits(a) for a in after] == [_bits(a) for a in after0]
    return want


@given(st.integers(1, 9), st.floats(0.5, 1.4), st.booleans(), st.integers(0, 2**31 - 1))
def test_hungarian_matches_loop_reference(k, scale, coarse, seed):
    # scale > 1 pushes many targets out of the region (InfeasibleGdof) and
    # some past their direct strength (ImmediatelyInfeasible); a coarse grid
    # of strengths and targets makes tight cells and slacks tie, so the
    # first-index choices are exercised
    rng = np.random.default_rng(seed)
    alpha = random_alpha(rng, k)
    _, d = feasible_target(rng, alpha)
    d = d.d * scale
    if coarse:
        alpha = ChannelMatrix(np.round(alpha.alpha * 4) / 4)
        d = np.round(d * 4) / 4
    assert_matches_loop(alpha, np.round(d, 9))


def test_hungarian_loop_reference_covers_every_outcome():
    rng = np.random.default_rng(7)
    seen = set()
    for _ in range(300):
        k = int(rng.integers(1, 8))
        alpha = random_alpha(rng, k)
        _, d = feasible_target(rng, alpha)
        want = assert_matches_loop(alpha, np.round(d.d * rng.uniform(0.5, 1.4), 9))
        seen.add(want[0] if isinstance(want[0], type) else "solved")
    assert seen == {"solved", InfeasibleGdof, ImmediatelyInfeasible}


def test_hungarian_matches_loop_reference_edge_cases():
    # diagonal tight at the start: dominant direct links and small targets
    # make every diagonal entry its row maximum, so no label round runs
    alpha = random_alpha(np.random.default_rng(3), 6,
                         diag_lo=2.5, diag_hi=3.0, cross_hi=1.0)
    assert assert_matches_loop(alpha, np.full(6, 0.1))[2].rounds == 0
    # one link (its diagonal is its row maximum), and subsets that leave
    # links out
    assert assert_matches_loop(ChannelMatrix([[1.3]]), [0.7])[2].rounds == 0
    assert_matches_loop(NETWORK_A, [1.0, 0.5, 0.0], (0, 1))
    assert_matches_loop(NETWORK_A, [0.0, 0.0, 0.0])
    assert assert_matches_loop(NETWORK_A, D_REF)[2].alpha_l == pytest.approx((0.2, 0.1))
