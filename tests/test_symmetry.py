"""Relabeling and scaling oracles for every solver at once.

Two symmetries of the TIN model check each answer against the same solver on
a transformed network. Relabeling the users by a permutation pi permutes
every answer. Scaling every strength by c > 0 scales every region bound,
weighted sum-GDoF and power exponent by c and keeps every condition verdict,
because every constraint is linear and homogeneous in (alpha, d, r).

Objective values are compared on every draw. An LP or exact optimum need not
be unique, and the solvers break ties by user order, so a point is compared
as a point only when it is the same one up to the solver tolerance; a
different point passes only as a tie, that is as a point of the original
problem's region with the same objective.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_alpha
from tinq.model import TOL, ChannelMatrix, GdofTuple, realize_network
from tinq.optimize import decentralized_gp, max_weighted_gdof_exact, max_weighted_gdof_lp
from tinq.power import (DEFAULT_EPSILON, solve_power_auction, solve_power_hungarian,
                        solve_power_potentials)
from tinq.region import check_conditions, contains, tina_polytope
from tinq.schedule import flashlinq_schedule, itlinq_plus_schedule, itlinq_schedule

SCALES = (0.5, 2.0, 3.0)


def draw(seed: int):
    """A weak network of 2 to 7 users (on a 0.25 grid for odd seeds, where
    bounds, maxima and LP vertices tie), weights (unit ones on a third of the
    draws) and the generator that drew them."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 8))
    a = random_alpha(rng, k, diag_lo=1.0, diag_hi=2.5, cross_hi=1.0).alpha
    if seed % 2:
        a = np.round(a / 0.25) * 0.25
    w = np.ones(k) if seed % 3 == 0 else np.round(rng.uniform(0.5, 2.0, k), 3)
    return ChannelMatrix(a), w, rng


def half_lp_point(d_lp: np.ndarray) -> np.ndarray:
    """Half the LP point with its entries below 1e-6 switched off, a power
    target inside the region, since the region is convex and holds the
    origin."""
    return np.where(d_lp > 1e-6, d_lp / 2.0, 0.0)


def answers(alpha: ChannelMatrix, w: np.ndarray, target=None) -> SimpleNamespace:
    """Every solver's answer on one network. The power target defaults to
    ``half_lp_point``."""
    d_lp, lp = max_weighted_gdof_lp(alpha, w=w)
    d_ex, sub_ex, ex = max_weighted_gdof_exact(alpha, w)
    if target is None:
        target = half_lp_point(d_lp.d)
    rep = check_conditions(alpha)
    return SimpleNamespace(
        bounds=tina_polytope(alpha).constraints,
        d_lp=d_lp.d, lp=lp, d_ex=d_ex.d, sub_ex=sub_ex, ex=ex, target=target,
        hungarian=solve_power_hungarian(alpha, target)[0].r,
        potentials=solve_power_potentials(alpha, target)[0].r,
        gnaj=np.array(rep.gnaj), c1=np.array(rep.c1), c2=rep.c2,
    )


def assert_same_or_tied(alpha, w, subset, point, other, objective, atol):
    """``other`` is ``point``, or another point of the subset's region with
    the same objective."""
    if not np.allclose(other, point, rtol=0, atol=atol):
        assert contains(tina_polytope(alpha, subset), GdofTuple(other), tol=1e-7)
        assert w @ other == pytest.approx(objective, rel=1e-9, abs=1e-9)


@settings(max_examples=75)
@given(st.integers(0, 2**31 - 1))
def test_relabeling_users_permutes_every_answer(seed):
    alpha, w, rng = draw(seed)
    pi = rng.permutation(alpha.K)  # user i of the relabeled network is user pi[i]
    back = np.argsort(pi)  # x[back] reads a relabeled answer in the original labels
    base = answers(alpha, w)
    moved = answers(ChannelMatrix(alpha.alpha[np.ix_(pi, pi)]), w[pi], base.target[pi])

    bounds = {frozenset(pi[list(users)].tolist()): b for users, b in moved.bounds.items()}
    assert bounds.keys() == base.bounds.keys()
    for users, b in base.bounds.items():
        assert bounds[users] == pytest.approx(b, rel=0, abs=1e-12)
    assert moved.lp == pytest.approx(base.lp, rel=1e-9, abs=1e-9)
    assert moved.ex == pytest.approx(base.ex, rel=1e-9, abs=1e-9)
    assert_same_or_tied(alpha, w, None, base.d_lp, moved.d_lp[back], base.lp, 1e-9)
    assert_same_or_tied(alpha, w, sorted(pi[list(moved.sub_ex)].tolist()),
                        base.d_ex, moved.d_ex[back], base.ex, 1e-9)
    for solver in ("hungarian", "potentials"):
        np.testing.assert_allclose(getattr(moved, solver)[back], getattr(base, solver),
                                   rtol=0, atol=1e-12, err_msg=solver)
    assert np.array_equal(moved.gnaj[back], base.gnaj)
    assert np.array_equal(moved.c1[back], base.c1)
    assert moved.c2 == base.c2


@settings(max_examples=60)
@given(st.integers(0, 2**31 - 1))
def test_relabeling_users_permutes_auction_dgp_and_schedules(seed):
    # the auction's bids follow user order, so relabeled powers agree within
    # its |S|*eps gap; dgp and the schedulers move exactly with the users,
    # each scheduler with its priority order relabeled along
    alpha, w, rng = draw(seed)
    pi = rng.permutation(alpha.K)
    back = np.argsort(pi)
    moved = ChannelMatrix(alpha.alpha[np.ix_(pi, pi)])
    target = half_lp_point(max_weighted_gdof_lp(alpha, w=w)[0].d)
    gap = np.count_nonzero(target > TOL) * DEFAULT_EPSILON
    for solve, arg, atol in (
            (solve_power_auction, target, gap + 1e-12),
            (lambda a, w_: decentralized_gp(a, w=w_, iters=300), w, 1e-12)):
        r = solve(alpha, arg)[0].r
        r_moved = solve(moved, arg[pi])[0].r[back]
        np.testing.assert_array_equal(np.isfinite(r_moved), np.isfinite(r))
        live = np.isfinite(r)
        np.testing.assert_allclose(r_moved[live], r[live], rtol=0, atol=atol)

    priority = rng.permutation(alpha.K)
    snr_tab = realize_network(alpha, 1e4).nominal_snr()
    snr_moved = snr_tab[np.ix_(pi, pi)]
    for schedule in (itlinq_plus_schedule, itlinq_schedule, flashlinq_schedule):
        sel = schedule(np.diag(snr_tab), snr_tab, priority=priority).selected
        sel_moved = schedule(np.diag(snr_moved), snr_moved,
                             priority=back[priority]).selected
        assert pi[list(sel_moved)].tolist() == list(sel), schedule.__name__


@settings(max_examples=75)
@given(st.integers(0, 2**31 - 1), st.sampled_from(SCALES))
def test_scaling_strengths_scales_every_answer(seed, c):
    alpha, w, _ = draw(seed)
    base = answers(alpha, w)
    scaled = answers(ChannelMatrix(c * alpha.alpha), w, c * base.target)

    assert scaled.bounds.keys() == base.bounds.keys()
    for users, b in base.bounds.items():
        assert scaled.bounds[users] == pytest.approx(c * b, rel=0, abs=1e-12 * c)
    assert scaled.lp == pytest.approx(c * base.lp, rel=1e-9, abs=1e-9)
    assert scaled.ex == pytest.approx(c * base.ex, rel=1e-9, abs=1e-9)
    assert_same_or_tied(alpha, w, None, base.d_lp, scaled.d_lp / c, base.lp, 1e-9)
    assert_same_or_tied(alpha, w, scaled.sub_ex, base.d_ex, scaled.d_ex / c, base.ex, 1e-9)
    for solver in ("hungarian", "potentials"):
        np.testing.assert_allclose(getattr(scaled, solver), c * getattr(base, solver),
                                   rtol=0, atol=1e-12 * c, err_msg=solver)
    assert np.array_equal(scaled.gnaj, base.gnaj)
    assert np.array_equal(scaled.c1, base.c1)
    assert scaled.c2 == base.c2
