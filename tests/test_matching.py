"""Max-weight matching over cross-link strengths, checked against the cyclic
decomposition of the tie-broken matching oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from oracles import (Matching, assignment_lp_weight, brute_matching_weight, cyclic_partition,
                     max_weight_matching, random_alpha)
from tinq import (
    ChannelMatrix,
    NETWORK_A,
    NETWORK_B,
    build_assignment_matrix,
    converse_g_bound,
    decentralized_gp,
    gp_power_control,
    max_matching_weight,
    max_weighted_gdof_lp,
    realize_network,
    solve_power_auction,
    solve_power_hungarian,
    tina_polytope,
    tina_polytope_cyclic,
)
from tinq import matching
from tinq.exceptions import ShapeError


def cross_only(alpha: ChannelMatrix, subset) -> np.ndarray:
    idx = list(subset)
    a = alpha.alpha[np.ix_(idx, idx)].copy()
    np.fill_diagonal(a, 0.0)
    return a


def test_fixture_a_full_and_pair_weights():
    assert max_matching_weight(NETWORK_A, (0, 1, 2)) == pytest.approx(2.0)
    assert max_matching_weight(NETWORK_A, (0, 1)) == pytest.approx(0.7)
    assert max_matching_weight(NETWORK_A, (0,)) == 0.0


def test_fixture_b_weight_and_zero_edge_optimum():
    assert max_matching_weight(NETWORK_B, (0, 1, 2)) == pytest.approx(1.2)
    # some optimum contains the zero-strength edge (0, 2): forcing it keeps
    # the weight
    a = cross_only(NETWORK_B, (0, 1, 2))
    assert a[0, 2] == 0.0
    forced = a[np.ix_([1, 2], [0, 1])]
    rows, cols = linear_sum_assignment(-forced)
    assert a[0, 2] + forced[rows, cols].sum() == pytest.approx(1.2)


def test_subset_indexing_uses_original_labels():
    # cross weights between users 0 and 2: 0.1 forward, 1.0 back; swap wins
    assert max_matching_weight(NETWORK_A, (0, 2)) == pytest.approx(1.1)


# Every subset-taking function on NETWORK_A, reduced to a comparable value.
# D is zero for user 1, so "support of d" (0, 2) differs from "all users".
D = (0.5, 0.0, 0.7)
PHYS_A = realize_network(NETWORK_A, 1e4)
SUBSET_FUNCS = {
    "max_matching_weight": lambda s: max_matching_weight(NETWORK_A, s),
    "tina_polytope": lambda s: tina_polytope(NETWORK_A, s),
    "tina_polytope_cyclic": lambda s: tina_polytope_cyclic(NETWORK_A, s),
    "converse_g_bound": lambda s: converse_g_bound(NETWORK_A, s),
    "solve_power_hungarian": lambda s: solve_power_hungarian(NETWORK_A, D, s)[0].r.tolist(),
    "solve_power_auction": lambda s: solve_power_auction(NETWORK_A, D, s)[0].r.tolist(),
    "build_assignment_matrix": lambda s: build_assignment_matrix(NETWORK_A, D, s).subset,
    "max_weighted_gdof_lp": lambda s: max_weighted_gdof_lp(NETWORK_A, s)[0].d.tolist(),
    "gp_power_control": lambda s: gp_power_control(PHYS_A, s).subset,
    "decentralized_gp": lambda s: decentralized_gp(NETWORK_A, s, iters=20)[1].d.tolist(),
}
ALL, SUPPORT, OFF = (0, 1, 2), (0, 2), [-math.inf] * 3
# function -> (None, ()): a subset to compare against, a value, or an error
SUBSET_TABLE = {
    "max_matching_weight": (None, IndexError),
    "tina_polytope": (ALL, IndexError),
    "tina_polytope_cyclic": (ALL, IndexError),
    "converse_g_bound": (ALL, IndexError),
    "solve_power_hungarian": (SUPPORT, OFF),
    "solve_power_auction": (SUPPORT, OFF),
    "build_assignment_matrix": (SUPPORT, ()),
    "max_weighted_gdof_lp": (ALL, [0.0, 0.0, 0.0]),
    "gp_power_control": (ALL, ShapeError),
    "decentralized_gp": (ALL, ShapeError),
}
SUBSET_CASES = [
    (name, subset, expect)
    for name, (on_none, on_empty) in SUBSET_TABLE.items()
    for subset, expect in ((None, on_none), ((), on_empty), ((0, 0), IndexError),
                           ((0, 3), IndexError), ((-1, 1), IndexError))
    if expect is not None  # None for the matching functions is unspecified
]


@pytest.mark.parametrize("name, subset, expect", SUBSET_CASES,
                         ids=[f"{n}-{s}".replace(" ", "") for n, s, _ in SUBSET_CASES])
def test_bad_subset_rejected(name, subset, expect):
    call = SUBSET_FUNCS[name]
    if isinstance(expect, type):
        with pytest.raises(expect):
            call(subset)
    elif subset is None:
        assert call(None) == call(expect)
    else:
        assert call(subset) == expect


def test_cyclic_partition_single_cycle_on_fixture_a():
    m = max_weight_matching(NETWORK_A, (0, 1, 2))
    part = cyclic_partition(NETWORK_A, m, (0, 1, 2))
    assert part.cycles == ((0, 1, 2),)
    assert part.is_best


def test_cyclic_partition_identity_is_singletons():
    alpha = ChannelMatrix(np.array([[1.0, 0.2], [0.2, 1.0]]))
    m = max_weight_matching(alpha, (0, 1))
    # the identity matching has weight 0, worse than the swap; build it by
    # hand to check the decomposition of a non-optimal matching
    ident = Matching(pairs=frozenset({(0, 0), (1, 1)}), weight=0.0)
    part = cyclic_partition(alpha, ident, (0, 1))
    assert part.cycles == ((0,), (1,))
    assert not part.is_best
    assert cyclic_partition(alpha, m, (0, 1)).is_best


def test_cyclic_partition_two_disjoint_swaps():
    a = np.zeros((4, 4))
    np.fill_diagonal(a, 1.0)
    a[0, 1] = a[1, 0] = 0.9
    a[2, 3] = a[3, 2] = 0.8
    alpha = ChannelMatrix(a)
    m = max_weight_matching(alpha, (0, 1, 2, 3))
    part = cyclic_partition(alpha, m, (0, 1, 2, 3))
    assert sorted(tuple(sorted(c)) for c in part.cycles) == [(0, 1), (2, 3)]
    assert part.is_best


@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_matching_agrees_with_scipy(k, seed):
    alpha = random_alpha(np.random.default_rng(seed), k)
    a = cross_only(alpha, range(k))
    rows, cols = linear_sum_assignment(-a)
    assert max_matching_weight(alpha, tuple(range(k))) == pytest.approx(
        float(a[rows, cols].sum()), abs=1e-9
    )


@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
@settings(max_examples=40)
def test_lp_relaxation_is_integral(k, seed):
    alpha = random_alpha(np.random.default_rng(seed), k)
    a = cross_only(alpha, range(k))
    assert max_matching_weight(alpha, tuple(range(k))) == pytest.approx(
        assignment_lp_weight(a), abs=1e-7
    )


@given(st.integers(2, 5), st.integers(0, 2**31 - 1))
@settings(max_examples=40)
def test_brute_force_agreement(k, seed):
    alpha = random_alpha(np.random.default_rng(seed), k)
    subset = tuple(range(k))
    assert max_matching_weight(alpha, subset) == pytest.approx(
        brute_matching_weight(cross_only(alpha, subset)), abs=1e-9
    )


@given(st.integers(3, 6), st.integers(0, 2**31 - 1))
@settings(max_examples=40)
def test_cyclic_partition_covers_subset(k, seed):
    alpha = random_alpha(np.random.default_rng(seed), k)
    subset = tuple(range(k))
    m = max_weight_matching(alpha, subset)
    part = cyclic_partition(alpha, m, subset)
    seen = sorted(i for c in part.cycles for i in c)
    assert seen == list(subset)
    assert part.is_best


@given(st.floats(0.0, 1e6) | st.sampled_from([0.0, -0.0]))
def test_small_blocks_match_linear_sum_assignment(x):
    # 0x0 and 1x1 blocks are answered without scipy, with the bytes of its
    # value (a -0.0 weight sums to +0.0 there too)
    w = np.array([[x]])
    rows, cols = linear_sum_assignment(w, maximize=True)
    want = float(w[rows, cols].sum())
    assert np.float64(matching._lsa_max(w)).tobytes() == np.float64(want).tobytes()
    assert np.float64(matching._lsa_max(np.zeros((0, 0)))).tobytes() == np.float64(0.0).tobytes()
