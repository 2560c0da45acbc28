"""Globally minimal power control via the assignment dual: exact and auction."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oracles import (assignment_matrix_loop, lp_dual_labels, potentials_full_rounds,
                     random_alpha)
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
import tinq.optimize
from tinq import power
from tinq.exceptions import EpsilonTooSmall, ImmediatelyInfeasible, Infeasible, TinqError
from tinq.model import TOL
from tinq.power import InfeasibleGdof, PowerAlloc, solve_power_potentials
from tinq.region import contains, tina_polytope
from tinq.sim import SCHEMES, run_experiment, scenario1

pytestmark = pytest.mark.oldest_pins

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
    # a subnormal epsilon makes the cap overflow a float: refused, not an
    # OverflowError from its conversion to an int
    with pytest.raises(EpsilonTooSmall, match="cap of inf bids"):
        solve_power_auction(NETWORK_A, D_REF, epsilon=1e-310)


@pytest.mark.parametrize("epsilon", [np.inf, np.nan, 0.0, -1e-5])
def test_auction_rejects_non_finite_or_nonpositive_epsilon(epsilon):
    # an infinite epsilon used to bid once per user and return r = (-1.5,
    # -0.5, -1.0) here, far from the minimal (-1.2, -0.4, -0.7); NaN failed
    # only when the bid cap was converted to an int
    for snap in (False, True):
        with pytest.raises(ValueError) as err:
            solve_power_auction(NETWORK_A, D_REF, epsilon=epsilon, snap=snap)
        assert str(err.value) == f"epsilon must be positive and finite, got {epsilon}"


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


@given(st.integers(1, 8), st.booleans(), st.integers(0, 2**31 - 1))
def test_hungarian_label_states(k, grid, seed):
    # labels start at A's row maxima and zero; each round lowers y_u and
    # raises y_v by a decrement above TOL; every state is dual feasible; the
    # last state is the answer. Weak cross links make about half the draws
    # run label rounds. On the 0.25 grid the target is rounded down, which
    # keeps it inside the region
    rng = np.random.default_rng(seed)
    alpha = random_alpha(rng, k, cross_hi=1.0)
    if grid:
        alpha = ChannelMatrix(np.round(alpha.alpha * 4) / 4)
    d = achieved_gdof(alpha, PowerAlloc(rng.uniform(-1.5, 0.0, size=k))).d
    if grid:
        d = np.floor(d * 4) / 4
    _, labels, trace = solve_power_hungarian(alpha, d, return_trace=True)
    a = build_assignment_matrix(alpha, d).A
    assert np.array_equal(trace.initial_y_u, a.max(axis=1, initial=0.0))
    assert not trace.initial_y_v.any()
    assert all(step > TOL for step in trace.alpha_l)
    states = [(trace.initial_y_u, trace.initial_y_v),
              *zip(trace.y_u_after, trace.y_v_after)]
    for (y_u, y_v), (next_u, next_v) in zip(states, states[1:]):
        assert np.all(next_u <= y_u) and np.all(next_v >= y_v)
    for y_u, y_v in states:
        assert (y_u[:, None] + y_v - a).min(initial=0.0) >= -TOL
    assert _bits(states[-1][0]) == _bits(labels.y_u)
    assert _bits(states[-1][1]) == _bits(labels.y_v)
    assert trace.rounds == len(trace.y_u_after) == len(trace.y_v_after)


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
# the potentials relaxation against the Kuhn-Munkres solver it replaces in
# the pipelines and the feasibility test


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _outcome(solve):
    try:
        return solve()
    except Infeasible as e:
        return type(e), str(e)


def assert_potentials_match_full_rounds(alpha, d, subset=None):
    """The same verdict and message as the reference that takes every row in
    every round, or bitwise the same powers and labels; returns the outcome."""
    want = _outcome(lambda: potentials_full_rounds(alpha, d, subset))
    got = _outcome(lambda: solve_power_potentials(alpha, d, subset))
    if isinstance(want[0], type) or isinstance(got[0], type):
        assert got == want
        return got
    (r, labels), (r0, labels0) = got, want
    for a, a0 in ((r.r, r0.r), (labels.y_u, labels0.y_u), (labels.y_v, labels0.y_v)):
        assert _bits(a) == _bits(a0)
    return got


def assert_potentials_match_hungarian(alpha, d, subset=None):
    """The same verdict and message, or powers within 1e-12 of the
    Hungarian's and dual-feasible labels with a tight diagonal; returns the
    Hungarian's untraced outcome. The Hungarian gives the same verdict, or
    bitwise the same powers and labels, with and without its trace, and the
    potentials match their full-round reference bit for bit."""
    want = _outcome(lambda: solve_power_hungarian(alpha, d, subset))
    traced = _outcome(lambda: solve_power_hungarian(alpha, d, subset, return_trace=True))
    got = assert_potentials_match_full_rounds(alpha, d, subset)
    if isinstance(want[0], type) or isinstance(got[0], type):
        assert got == want and traced == want
        return want
    assert len(want) == 2 and len(traced) == 3
    for a, a0 in ((traced[0].r, want[0].r), (traced[1].y_u, want[1].y_u),
                  (traced[1].y_v, want[1].y_v)):
        assert _bits(a) == _bits(a0)
    (r, labels), (r0, _) = got, want
    live = np.isfinite(r0.r)
    np.testing.assert_array_equal(np.isfinite(r.r), live)
    assert np.abs(r.r[live] - r0.r[live]).max(initial=0.0) <= 1e-12
    a = build_assignment_matrix(alpha, d, subset).A
    slack = labels.y_u[:, None] + labels.y_v - a
    assert slack.min(initial=0.0) >= -1e-12
    assert np.abs(np.diag(slack)).max(initial=0.0) <= 1e-12
    assert min(labels.y_u.min(initial=0.0), labels.y_v.min(initial=0.0)) >= -1e-12
    return want


@given(st.integers(1, 12), st.floats(0.5, 1.4), st.booleans(), st.integers(0, 2**31 - 1))
def test_potentials_match_hungarian(k, scale, coarse, seed):
    # targets are achieved GDoF scaled in and out of the region; the coarse
    # grid puts many targets exactly on its boundary; the explicit subset
    # leaves some users with positive targets out
    rng = np.random.default_rng(seed)
    alpha = random_alpha(rng, k)
    _, d = feasible_target(rng, alpha)
    d = d.d * scale
    if coarse:
        alpha = ChannelMatrix(np.round(alpha.alpha * 4) / 4)
        d = np.round(d * 4) / 4
    subset = tuple(int(j) for j in np.flatnonzero(d > 0) if rng.random() < 0.8)
    assert_potentials_match_hungarian(alpha, d, subset)


@given(st.integers(1, 60), st.floats(0.5, 1.4), st.integers(0, 2**31 - 1))
def test_potentials_match_full_round_reference_on_a_grid(k, scale, seed):
    # strengths and targets on a 0.25 grid: many terms of one column tie, and
    # rows change by exact steps, so a missed or stale row would show
    rng = np.random.default_rng(seed)
    alpha = ChannelMatrix(np.round(random_alpha(rng, k).alpha * 4) / 4)
    _, d = feasible_target(rng, alpha)
    d = np.round(d.d * scale * 4) / 4
    subset = tuple(int(j) for j in np.flatnonzero(d > 0) if rng.random() < 0.8)
    assert_potentials_match_full_rounds(alpha, d, subset)


@given(st.integers(1, 40), st.integers(0, 2**31 - 1))
def test_assignment_matrix_matches_loop_reference(k, seed):
    # zero targets inside an explicit subset and targets above the direct
    # strength, in random order: the first offender in subset order decides.
    # Some entries sit on either side of the TOL rule: in [-TOL, 0) and
    # (0, TOL] they are off, and one draw in ten has an entry below -TOL
    rng = np.random.default_rng(seed)
    alpha = random_alpha(rng, k)
    d = np.round(rng.uniform(-0.5, 3.0, size=k), 2).clip(0.0)
    edge = rng.random(k) < 0.2
    d[edge] = rng.choice([-TOL, -TOL / 2, TOL / 2, TOL, 2 * TOL], size=edge.sum())
    if rng.random() < 0.1:
        d[rng.integers(k)] = -2 * TOL
    subset = None if rng.random() < 0.3 else \
        tuple(int(j) for j in rng.permutation(k)[:rng.integers(0, k + 1)])

    def outcome(build):
        try:
            return build()
        except (ValueError, ImmediatelyInfeasible) as e:
            return type(e), str(e)

    want = outcome(lambda: assignment_matrix_loop(alpha, d, subset))
    got = outcome(lambda: build_assignment_matrix(alpha, d, subset))
    if isinstance(want[0], type):
        assert got == want
    else:
        assert (_bits(got.A), got.subset) == (_bits(want[0]), want[1])


def test_potentials_match_hungarian_on_drop_instances(monkeypatch):
    # every minimal-power solve of gp+assignment on 12 scenario1(256) drops,
    # 101 to 214 active links each
    outcomes = []

    def both(alpha, d, subset=None):
        outcomes.append(assert_potentials_match_hungarian(alpha, d, subset))
        return solve_power_potentials(alpha, d, subset)

    monkeypatch.setattr(tinq.optimize, "solve_power_potentials", both)
    res = run_experiment(scenario1(256), SCHEMES, 12, 0, power_mode="gp+assignment")
    assert res.excluded == 0 and len(outcomes) == 48
    assert all(not isinstance(o[0], type) for o in outcomes)


def test_potentials_edge_cases():
    # one link, and an empty subset
    r, labels = assert_potentials_match_hungarian(ChannelMatrix([[1.3]]), [0.7])
    assert r.r.tolist() == pytest.approx([-0.6]) and labels.y_v.tolist() == [0.0]
    r, labels = assert_potentials_match_hungarian(NETWORK_A, [0.5, 0.6, 0.7], ())
    assert np.all(r.r == -np.inf) and labels.y_u.size == labels.y_v.size == 0
    # a target above its direct strength, and a zero target kept in the subset
    want = assert_potentials_match_hungarian(NETWORK_A, [2.5, 0.1, 0.1])
    assert want[0] is ImmediatelyInfeasible
    for solve in (solve_power_hungarian, solve_power_potentials):
        with pytest.raises(ValueError, match="zero-GDoF users"):
            solve(NETWORK_A, [0.5, 0.0, 0.7], (0, 1, 2))


def test_hungarian_matches_loop_reference_edge_cases():
    # the edge cases of solve_power_hungarian's array steps, checked
    # directly, traced and untraced. One link (its diagonal is its
    # row maximum), and dominant direct links with small targets, which make
    # every diagonal entry its row maximum: the diagonal is tight at the
    # start, so no label round runs
    dominant = random_alpha(np.random.default_rng(3), 6,
                            diag_lo=2.5, diag_hi=3.0, cross_hi=1.0)
    for alpha, d in ((ChannelMatrix([[1.3]]), np.array([0.7])),
                     (dominant, np.full(6, 0.1))):
        r, _ = assert_potentials_match_hungarian(alpha, d)
        assert r.r.tolist() == pytest.approx(d - np.diag(alpha.alpha))
        assert solve_power_hungarian(alpha, d, return_trace=True)[2].rounds == 0
    # a subset that leaves a link out, and all-zero targets
    r, _ = assert_potentials_match_hungarian(NETWORK_A, [1.0, 0.5, 0.0], (0, 1))
    assert r.r[:2].tolist() == pytest.approx([-1.0, -0.5]) and r.r[2] == -np.inf
    r, labels = assert_potentials_match_hungarian(NETWORK_A, [0.0, 0.0, 0.0])
    assert np.all(r.r == -np.inf) and labels.y_u.size == labels.y_v.size == 0
    # two label rounds on the reference target
    trace = solve_power_hungarian(NETWORK_A, D_REF, return_trace=True)[2]
    assert trace.alpha_l == pytest.approx((0.2, 0.1))


def test_potentials_settle_a_longest_chain_on_the_last_round():
    # Tx-i interferes only at Rx-(i+1), so user i's power is set through the
    # whole chain 0 -> 1 -> ... -> i: the longest path has n - 1 hops, each
    # round settles one more user, and the last allowed round is the first
    # that sees no rise
    n = 12
    a = np.full((n, n), 0.0)
    np.fill_diagonal(a, 2.0)
    a[np.arange(n - 1), np.arange(1, n)] = 1.0
    d = np.r_[1.5, np.ones(n - 1)]
    r, _ = assert_potentials_match_hungarian(ChannelMatrix(a), d)
    assert r.r.tolist() == [-0.5] * n


def test_potentials_reject_a_positive_cycle_at_the_round_bound():
    # the two links gain 1e-8 per round around their cycle: growth alone
    # would pass TOL only after 1e8 rounds, so only the round bound stops it
    alpha = ChannelMatrix([[2.0, 1.0 + 1e-8], [1.0 + 1e-8, 2.0]])
    want = assert_potentials_match_hungarian(alpha, [1.0, 1.0])
    assert want == (InfeasibleGdof, "no feasible power allocation achieves d")


def test_is_feasible_matches_region_membership():
    # 600 draws with K <= 6, half on a 0.25 grid and a fifth exactly on the
    # boundary of the region. 52 round to all-zero targets. 3 sit in the
    # tolerance band, where the region's verdict differs between tolerance 0
    # and 2 * TOL, and are skipped; the other 545 (474 feasible) are compared
    rng = np.random.default_rng(11)
    verdicts, band = [], 0
    for _ in range(600):
        k = int(rng.integers(1, 7))
        alpha = random_alpha(rng, k)
        d = achieved_gdof(alpha, PowerAlloc(rng.uniform(-1.5, 0.0, size=k))).d
        d = d * (1.0 if rng.random() < 0.2 else rng.uniform(0.5, 1.4))
        if rng.random() < 0.5:
            alpha = ChannelMatrix(np.round(alpha.alpha * 4) / 4)
            d = np.round(d * 4) / 4
        d = GdofTuple(d)
        support = tuple(np.flatnonzero(d.d > TOL).tolist())
        if not support:
            assert is_feasible(alpha, d)  # all users off
            continue
        poly = tina_polytope(alpha, support)
        want = contains(poly, d, tol=0.0)
        if want != contains(poly, d, tol=2 * TOL):
            band += 1
            continue
        assert is_feasible(alpha, d) == want
        verdicts.append(want)
    assert band == 3 and (len(verdicts), sum(verdicts)) == (545, 474)


def _solved(solve) -> bool:
    return not isinstance(_outcome(solve)[0], type)


def test_one_verdict_and_an_auction_certificate_for_every_target():
    # K = 2-5, half on a 0.25 grid. Targets are achieved points, three in
    # four pushed by x0.9-1.6, and about one entry in seven is set to an
    # exact zero or a value in (0, TOL], which the target rule switches off.
    # The feasibility test and both exact solvers give one verdict. The
    # auction returns only on targets that lowering every active entry by
    # K*eps makes feasible, and what it returns achieves the target within
    # K*eps + TOL on the active users; a certificate is only ever issued on
    # an infeasible target. Here the auction's verdict is exactly the exact
    # one: 124 feasible targets and 26 certified ones
    rng = np.random.default_rng(23)
    eps = power.DEFAULT_EPSILON
    verdicts = {}
    for _ in range(150):
        k = int(rng.integers(2, 6))
        alpha = random_alpha(rng, k)
        d = achieved_gdof(alpha, PowerAlloc(rng.uniform(-1.5, 0.0, size=k))).d
        d = d * (1.0 if rng.random() < 0.25 else rng.uniform(0.9, 1.6))
        if rng.random() < 0.5:
            alpha = ChannelMatrix(np.round(alpha.alpha * 4) / 4)
            d = np.round(d * 4) / 4
        tiny = rng.random(k) < 0.15
        d[tiny] = rng.choice([0.0, TOL / 3, TOL], size=tiny.sum())
        active = d > TOL
        feasible = is_feasible(alpha, d)
        assert _solved(lambda: solve_power_hungarian(alpha, d)) == feasible
        assert _solved(lambda: solve_power_potentials(alpha, d)) == feasible
        try:
            r, _ = solve_power_auction(alpha, d, epsilon=eps)
        except Infeasible:
            assert not feasible
            returned = False
        else:
            lowered = np.where(active, np.maximum(d - k * eps, 0.0), d)
            assert is_feasible(alpha, lowered)
            assert np.all(r.r[~active] == -np.inf)
            short = d[active] - achieved_gdof(alpha, r).d[active]
            assert short.max(initial=0.0) <= k * eps + TOL
            returned = True
        key = (feasible, returned)
        verdicts[key] = verdicts.get(key, 0) + 1
    assert verdicts == {(True, True): 124, (False, False): 26}
