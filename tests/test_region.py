"""Achievable-region builders, optimality conditions, and the outer bound."""

import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    check_conditions_loop,
    random_alpha,
    random_alpha_tied,
    subset_has_zero_edge_optimum_eager,
    tina_polytope_fresh,
)
from tinq import (
    ChannelMatrix,
    GdofTuple,
    NETWORK_A,
    NETWORK_B,
    NumState,
    check_conditions,
    contains,
    converse_g_bound,
    is_feasible,
    max_matching_weight,
    max_weighted_gdof_exact,
    max_weighted_gdof_lp,
    num_step,
    region,
    tina_polytope,
    tina_polytope_cyclic,
)
from tinq.exceptions import SubsetTooLarge


def fs(*ix):
    return frozenset(ix)


def test_fixture_a_bounds():
    c = tina_polytope(NETWORK_A).constraints
    assert c[fs(0)] == pytest.approx(2.0, abs=1e-9)
    assert c[fs(1)] == pytest.approx(1.0, abs=1e-9)
    assert c[fs(2)] == pytest.approx(1.5, abs=1e-9)
    assert c[fs(0, 1)] == pytest.approx(2.3, abs=1e-9)
    assert c[fs(1, 2)] == pytest.approx(1.5, abs=1e-9)
    assert c[fs(0, 2)] == pytest.approx(2.4, abs=1e-9)
    assert c[fs(0, 1, 2)] == pytest.approx(2.5, abs=1e-9)


def test_fixture_b_bounds():
    c = tina_polytope(NETWORK_B).constraints
    assert c[fs(0)] == c[fs(1)] == c[fs(2)] == pytest.approx(1.0, abs=1e-9)
    assert c[fs(0, 1)] == pytest.approx(1.1, abs=1e-9)
    assert c[fs(1, 2)] == pytest.approx(1.3, abs=1e-9)
    assert c[fs(0, 2)] == pytest.approx(1.2, abs=1e-9)
    assert c[fs(0, 1, 2)] == pytest.approx(1.8, abs=1e-9)


def test_zero_cross_region_is_box():
    alpha = ChannelMatrix(np.diag([1.5, 0.7, 2.0]))
    c = tina_polytope(alpha).constraints
    for subset, bound in c.items():
        assert bound == pytest.approx(
            sum(alpha.alpha[i, i] for i in subset), abs=1e-12
        )


def test_cyclic_pair_and_symmetric_example():
    c = tina_polytope_cyclic(NETWORK_A).constraints
    assert c[fs(0, 1)] == pytest.approx(2.3, abs=1e-9)
    assert c[fs(0, 1, 2)] == pytest.approx(2.5, abs=1e-9)
    sym = ChannelMatrix(np.array([[1.0, 0.4], [0.4, 1.0]]))
    assert tina_polytope_cyclic(sym).constraints[fs(0, 1)] == pytest.approx(1.2)


def test_polytope_caps():
    # one user past each cap: one exception and one message shape, raised
    # before the network's subset memo gets an entry
    cases = [
        (tina_polytope, 17, "subset table", 16),
        (lambda a: region.halfspaces(a, tuple(range(a.K))), 17, "subset table", 16),
        (tina_polytope_cyclic, 9, "cyclic oracle", 8),
        (lambda a: converse_g_bound(a, range(a.K)), 8, "permutation bound", 7),
    ]
    for call, k, what, cap in cases:
        net = ChannelMatrix(np.eye(k))
        with pytest.raises(SubsetTooLarge) as exc:
            call(net)
        assert str(exc.value) == f"{what} of {k} users exceeds its cap of {cap}"
        assert "_subset_bounds" not in vars(net)


def test_contains_examples():
    poly = tina_polytope(NETWORK_A)
    assert contains(poly, GdofTuple(np.array([0.5, 0.6, 0.7])))
    assert not contains(poly, GdofTuple(np.array([2.0, 1.0, 1.5])))
    assert contains(poly, GdofTuple(np.zeros(3)))


def test_feasibility_examples():
    # a point of the full polytope, a single user at its direct strength, and
    # a pair past the (0, 1) bound of the second fixture
    assert is_feasible(NETWORK_A, GdofTuple(np.array([0.5, 0.6, 0.7])))
    assert is_feasible(NETWORK_A, GdofTuple(np.array([2.0, 0.0, 0.0])))
    assert not is_feasible(NETWORK_B, GdofTuple(np.array([1.0, 0.9, 0.0])))


def test_conditions_fixture_b():
    rep = check_conditions(NETWORK_B)
    assert rep.c1 == (True, True, True)
    assert rep.gnaj == (False, False, True)
    assert rep.c2 is True


def test_conditions_diagonal_dominant():
    a = np.full((3, 3), 1.0)
    np.fill_diagonal(a, 10.0)
    rep = check_conditions(ChannelMatrix(a))
    assert all(rep.gnaj) and all(rep.c1)
    # every cross link is positive, so no maximum matching can contain a
    # zero-strength edge
    assert not rep.c2


def test_conditions_cyclic_pattern():
    a = np.array([
        [1.5, 1.0, 0.8],
        [0.8, 1.5, 1.0],
        [1.0, 0.8, 1.5],
    ])
    rep = check_conditions(ChannelMatrix(a))
    # every user sees max-in + max-out = 1 + 1 = 2 > 1.5 for GNAJ, and the
    # worst C1 pair (i = j) gives 1 + 0.8 = 1.8 > 1.5
    assert rep.gnaj == (False, False, False)
    assert rep.c1 == (False, False, False)


@pytest.mark.oldest_pins
def test_conditions_match_loop_reference():
    # reprs compare witness types too (Python ints, not numpy scalars); the
    # grids tie maxima, make zero edges for c2 and put verdicts on their TOL
    # boundary; K=40 skips c2
    rng = np.random.default_rng(12)
    violated = {"gnaj": 0, "c1": 0}
    draws = [(k, grid) for k in range(1, 10) for grid in (None, 0.25, 0.1)] * 30
    for k, grid in draws + [(40, None), (40, 0.25)]:
        alpha = random_alpha_tied(rng, k, grid)
        rep = check_conditions(alpha)
        assert repr(rep) == repr(check_conditions_loop(alpha))
        violated["gnaj"] += len(rep.gnaj_witnesses)
        violated["c1"] += len(rep.c1_witnesses)
    assert min(violated.values()) > 0


def test_c2_fails_without_zero_edges():
    a = np.full((3, 3), 0.5)
    np.fill_diagonal(a, 2.0)
    rep = check_conditions(ChannelMatrix(a))
    assert not rep.c2


def test_c2_skipped_above_cap():
    alpha = ChannelMatrix(np.eye(13))
    rep = check_conditions(alpha)
    assert rep.c2 is None and rep.c2_witness is None


def test_converse_fixture_b():
    assert converse_g_bound(NETWORK_B, (0, 1, 2)) == pytest.approx(1.8, abs=1e-9)


def test_converse_two_user_formula():
    rng = np.random.default_rng(5)
    for _ in range(25):
        alpha = random_alpha(rng, 2)
        a = alpha.alpha
        expect = a[0, 0] + a[1, 1] - a[0, 1] - a[1, 0] + min(a[0, 1], a[1, 0])
        assert converse_g_bound(alpha, (0, 1)) == pytest.approx(expect, abs=1e-9)


def test_converse_zero_cross():
    alpha = ChannelMatrix(np.diag([1.0, 2.0, 0.5]))
    assert converse_g_bound(alpha, (0, 1, 2)) == pytest.approx(3.5)


@given(st.integers(2, 8), st.integers(0, 2**31 - 1))
@example(7, 0)
@example(8, 0)  # the largest permutation table the cyclic form reads
@settings(max_examples=60)
def test_representation_equivalence(k, seed):
    alpha = random_alpha(np.random.default_rng(seed), k)
    direct = tina_polytope(alpha).constraints
    cyclic = tina_polytope_cyclic(alpha).constraints
    assert list(direct) == list(cyclic)
    for subset, bound in direct.items():
        assert bound == pytest.approx(cyclic[subset], abs=1e-9)


def test_converse_at_its_cap_matches_an_ordering_loop():
    alpha = random_alpha(np.random.default_rng(11), 9)
    a = alpha.alpha
    sub = (0, 2, 3, 5, 6, 7, 8)
    best = np.inf
    for perm in itertools.permutations(sub):
        edges = [a[perm[t - 1], perm[t]] for t in range(len(perm))]
        best = min(best, sum(a[u, u] for u in perm) - sum(edges) + min(edges))
    assert converse_g_bound(alpha, sub) == pytest.approx(best, abs=1e-9)


@given(st.integers(2, 5), st.integers(0, 2**31 - 1))
@settings(max_examples=30)
def test_membership_verdicts_agree(k, seed):
    rng = np.random.default_rng(seed)
    alpha = random_alpha(rng, k)
    pd = tina_polytope(alpha)
    pc = tina_polytope_cyclic(alpha)
    diag = np.diag(alpha.alpha)
    for _ in range(200):
        d = GdofTuple(rng.uniform(0.0, 1.2, size=k) * diag)
        assert contains(pd, d) == contains(pc, d)


@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
@settings(max_examples=80)
def test_gnaj_implies_c1(k, seed):
    alpha = random_alpha(np.random.default_rng(seed), k, cross_hi=1.2)
    rep = check_conditions(alpha)
    for g, c in zip(rep.gnaj, rep.c1):
        assert c or not g


def c1_instance(rng, k):
    """Rejection-sample a channel where C1 holds for every user."""
    for _ in range(400):
        alpha = random_alpha(rng, k, diag_lo=1.0, diag_hi=2.5, cross_hi=0.9)
        if all(check_conditions(alpha).c1):
            return alpha
    raise AssertionError("could not sample a C1 instance")


@given(st.integers(2, 5), st.integers(0, 2**31 - 1))
@settings(max_examples=25)
def test_nested_monotonicity_under_c1(k, seed):
    rng = np.random.default_rng(seed)
    alpha = c1_instance(rng, k)
    inner = tuple(sorted(rng.choice(k, size=max(1, k - 1), replace=False).tolist()))
    p_inner = tina_polytope(alpha, subset=inner)
    p_full = tina_polytope(alpha)
    diag = np.diag(alpha.alpha)
    hits = 0
    for _ in range(300):
        d = np.zeros(k)
        d[list(inner)] = rng.uniform(0.0, 1.0, size=len(inner)) * diag[list(inner)]
        t = GdofTuple(d)
        if contains(p_inner, t):
            hits += 1
            assert contains(p_full, t)
    assert hits > 0


@given(st.integers(2, 5), st.integers(0, 2**31 - 1))
@settings(max_examples=40)
def test_subadditivity_of_bounds(k, seed):
    # concatenating the two optimal matchings of disjoint blocks is feasible
    # for the union, so w(M*) is superadditive and the sum bounds
    # c_S = sum(diag) - w(M*_S) are subadditive
    rng = np.random.default_rng(seed)
    alpha = random_alpha(rng, k)
    c = tina_polytope(alpha).constraints
    subsets = list(c)
    for s1 in subsets:
        for s2 in subsets:
            if s1 & s2:
                continue
            assert c[s1 | s2] <= c[s1] + c[s2] + 1e-9


def lemma_one_rhs(a: np.ndarray, subset, k: int) -> float:
    rest = [i for i in subset if i != k]
    best = -np.inf
    for i in rest:
        for j in rest:
            cross = 0.0 if i == j else a[i, j]
            best = max(best, a[i, k] + a[k, j] - cross)
    return best


@given(st.integers(3, 7), st.integers(0, 2**31 - 1))
@settings(max_examples=80)
def test_matching_drop_one_bound(k, seed):
    rng = np.random.default_rng(seed)
    alpha = random_alpha(rng, k)
    size = int(rng.integers(2, k + 1))
    subset = tuple(sorted(rng.choice(k, size=size, replace=False).tolist()))
    drop = int(rng.choice(list(subset)))
    w_full = max_matching_weight(alpha, subset)
    rest = tuple(i for i in subset if i != drop)
    w_rest = max_matching_weight(alpha, rest) if rest else 0.0
    assert w_full - w_rest <= lemma_one_rhs(alpha.alpha, subset, drop) + 1e-9


@given(st.integers(2, 5), st.integers(0, 2**31 - 1))
@settings(max_examples=30)
def test_converse_tight_under_c1_c2(k, seed):
    # for |S| > 2 the zero-edge condition collapses the permutation bound to
    # the region bound; for a pair the permutation bound carries an extra
    # min(a_ij, a_ji) term, so it matches only when one direction is silent
    rng = np.random.default_rng(seed)
    for _ in range(200):
        a = rng.uniform(0.0, 0.6, size=(k, k))
        a[rng.uniform(size=(k, k)) < 0.5] = 0.0
        a[np.diag_indices(k)] = rng.uniform(1.0, 2.0, size=k)
        alpha = ChannelMatrix(np.round(a, 6))
        rep = check_conditions(alpha)
        if all(rep.c1) and rep.c2 is True:
            break
    else:
        raise AssertionError("no C1+C2 sample found")
    c = tina_polytope(alpha).constraints
    for subset in c:
        sub = tuple(sorted(subset))
        g = converse_g_bound(alpha, sub)
        bound = c[frozenset(subset)]
        if len(sub) > 2:
            assert g == pytest.approx(bound, abs=1e-9)
        elif len(sub) == 2:
            i, j = sub
            extra = min(alpha.alpha[i, j], alpha.alpha[j, i])
            assert g == pytest.approx(bound + extra, abs=1e-9)


@given(st.integers(2, 5), st.integers(0, 2**31 - 1))
@settings(max_examples=30)
def test_converse_tight_one_direction_class(k, seed):
    # when at most one direction per pair carries interference, every pair has
    # a silent direction and the permutation bound is tight on all subsets
    rng = np.random.default_rng(seed)
    for _ in range(300):
        a = np.zeros((k, k))
        a[np.diag_indices(k)] = rng.uniform(1.0, 2.0, size=k)
        for i in range(k):
            for j in range(i + 1, k):
                if rng.random() < 0.5:
                    if rng.random() < 0.5:
                        a[i, j] = rng.uniform(0.05, 0.8)
                    else:
                        a[j, i] = rng.uniform(0.05, 0.8)
        alpha = ChannelMatrix(np.round(a, 6))
        rep = check_conditions(alpha)
        if all(rep.c1) and rep.c2 is True:
            break
    else:
        raise AssertionError("no C1+C2 sample found")
    c = tina_polytope(alpha).constraints
    for subset in c:
        if len(subset) < 2:
            continue
        sub = tuple(sorted(subset))
        assert converse_g_bound(alpha, sub) == pytest.approx(
            c[frozenset(subset)], abs=1e-9
        )


@pytest.fixture
def matchings(monkeypatch):
    """The subsets handed to ``max_matching_weight`` by the polytope memo."""
    calls = []
    solve = region.max_matching_weight

    def counted(alpha, subset):
        calls.append(tuple(subset))
        return solve(alpha, subset)

    monkeypatch.setattr(region, "max_matching_weight", counted)
    return calls


def weak_six(seed: int = 7) -> ChannelMatrix:
    return random_alpha(np.random.default_rng(seed), 6, diag_lo=1.0, cross_hi=1.0)


def test_exact_search_solves_each_subset_bound_once(matchings):
    max_weighted_gdof_exact(weak_six())
    assert len(matchings) == 63
    assert len(set(matchings)) == 63


def test_num_slots_reuse_the_network_bounds(matchings):
    net = weak_six()
    state = NumState(np.ones(6), v=10.0, a_max=1.0)
    d1, _, state = num_step(state, net, "lp")
    assert len(matchings) == 63
    num_step(state, net, "lp")
    assert len(matchings) == 63
    # the memo is keyed by object, not by value
    twin = ChannelMatrix(net.alpha)
    d2, _, _ = num_step(NumState(np.ones(6), v=10.0, a_max=1.0), twin, "lp")
    assert len(matchings) == 126
    assert d1.d.tobytes() == d2.d.tobytes()


def test_mutating_a_polytope_leaves_the_memo_intact():
    net = weak_six()
    lp_before = max_weighted_gdof_lp(net)
    poly = tina_polytope(net)
    poly.constraints[frozenset({0})] = -1.0
    del poly.constraints[frozenset(range(6))]
    again = tina_polytope(net)
    assert again.constraints is not poly.constraints
    assert again.constraints == tina_polytope_fresh(net).constraints
    lp_after = max_weighted_gdof_lp(net)
    assert lp_after[0].d.tobytes() == lp_before[0].d.tobytes()
    assert lp_after[1] == lp_before[1]
    rows, bounds = region.halfspaces(net, tuple(range(6)))
    assert not rows.flags.writeable and not bounds.flags.writeable


def test_memo_entry_dies_with_the_network():
    # the memo lives on the matrix: nothing in region keeps the matrix alive,
    # and an equal matrix in a new object starts with no memo
    net = weak_six()
    max_weighted_gdof_lp(net)
    tina_polytope(net)
    assert len(net._subset_bounds) == 2**6 - 1
    assert "_subset_bounds" not in vars(ChannelMatrix(net.alpha))
    ref = weakref.ref(net)
    del net
    gc.collect()
    assert ref() is None


def test_rows_are_shared_and_the_memo_keeps_bounds_only():
    # the 0/1 rows depend on the subset size alone: one read-only table per
    # size for every network; a network's memo holds {user tuple: c_S}
    net, other = weak_six(), weak_six(8)
    rows, bounds = region.halfspaces(net, (0, 2, 5))
    other_rows, _ = region.halfspaces(other, (1, 3, 4))
    assert rows is other_rows and not rows.flags.writeable
    memo = net._subset_bounds
    assert type(memo) is dict
    assert list(memo) == [(0,), (2,), (5,), (0, 2), (0, 5), (2, 5), (0, 2, 5)]
    assert all(type(bound) is float for bound in memo.values())
    assert list(memo.values()) == bounds.tolist()
    ref = weakref.ref(net)
    del net, memo
    gc.collect()
    assert ref() is None
    assert list(other._subset_bounds) == [(1,), (3,), (4,), (1, 3), (1, 4), (3, 4), (1, 3, 4)]
    assert other_rows is region.halfspaces(other, (0, 1, 2))[0]


@given(st.integers(3, 8), st.integers(0, 2**31 - 1))
@settings(max_examples=60)
def test_lazy_zero_edge_test_matches_eager_reference(k, seed):
    # random strengths have no zero edge, so the first block of three fails
    # without a matching; grid and zero-heavy networks force matchings and
    # tie their weights
    rng = np.random.default_rng(seed)
    kind = seed % 3
    a = rng.uniform(0.0, 1.0, size=(k, k))
    a[np.diag_indices(k)] = rng.uniform(1.0, 2.0, size=k)
    if kind == 1:
        a = np.round(a * 4) / 4
    elif kind == 2:
        a[rng.random((k, k)) < 0.6] = 0.0
    alpha = ChannelMatrix(a)
    lazy = check_conditions(alpha)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(region, "_subset_has_zero_edge_optimum", subset_has_zero_edge_optimum_eager)
        eager = check_conditions(alpha)
    assert lazy == eager
