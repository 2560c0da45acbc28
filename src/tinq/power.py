"""Globally minimal power allocation for a target GDoF tuple.

The target d (one reader, ``build_assignment_matrix``, says which users it
keeps active) defines over its active subset the square input matrix

    A_ij = alpha_ij (i != j),   A_jj = alpha_jj - d_j,

whose assignment-problem dual labels (y_u, y_v) encode power: the
componentwise-maximal left labels over all dual optima with a tight diagonal
give the componentwise-minimal feasible powers r_j = -y_{u_j}. Three solvers
are provided: a centralized Kuhn-Munkres label-updating solver, written as
array steps over rows and columns, whose intermediate states (initial
labels, per-round label decrements, round count) are observable, a
relaxation of the same labels as least potentials of the TIN difference
constraints (what the pipelines and the feasibility test run), and a
decentralized fixed-increment auction that reaches the same labels up to a
documented |subset|*epsilon gap, its powers clipped at full power.
A target is achievable exactly when the diagonal is an optimal assignment of
A; all three solvers raise an ``Infeasible`` error when it is not.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    EpsilonTooSmall,
    ImmediatelyInfeasible,
    Infeasible,
    InfeasibleGdof,
    InfeasibleOrEpsilonTooLarge,
    ShapeError,
)
from .model import TOL, ChannelMatrix, GdofTuple, PowerAlloc, check_setting, check_subset

__all__ = [
    "LabelPair",
    "KmTrace",
    "build_assignment_matrix",
    "solve_power_hungarian",
    "solve_power_potentials",
    "solve_power_auction",
    "is_feasible",
]

DEFAULT_EPSILON = 1e-5
# Largest auction bid cap accepted: an epsilon whose cap is higher is refused
# before the first bid instead of bidding for minutes. The default epsilon on
# up to 22 active users of strength <= 2 stays below it.
BID_CEILING = 10**9


@dataclass(frozen=True)
class LabelPair:
    """Dual labels over the active subset: y_u_i + y_v_j >= A_ij everywhere,
    with equality on the diagonal at output; both nonnegative."""

    y_u: np.ndarray
    y_v: np.ndarray


@dataclass(frozen=True)
class KmTrace:
    """Observable solver states: labels at initialization, the label decrement
    of every update round, labels after each round, and the round count."""

    initial_y_u: np.ndarray
    initial_y_v: np.ndarray
    alpha_l: tuple
    y_u_after: tuple
    y_v_after: tuple

    @property
    def rounds(self) -> int:
        return len(self.alpha_l)


def build_assignment_matrix(alpha: ChannelMatrix, d, subset=None) -> tuple[np.ndarray, tuple]:
    """The one reader of a GDoF target: (A, active users), where
    A_ij = alpha_ij off the diagonal and alpha_jj - d_j on it.

    d must have K entries, none NaN or below -TOL. Users whose target is at
    most TOL are off and the rest are active; subset=None takes every active
    user, and an explicit subset may name active users only. A target more
    than TOL above its direct strength is rejected outright; one within TOL
    above it reads as the direct strength, so A stays nonnegative.
    """
    dv = d.d if isinstance(d, GdofTuple) else np.asarray(d, dtype=float).reshape(-1)
    if dv.size != alpha.K:
        raise ShapeError(f"d has {dv.size} entries for a {alpha.K}-user network")
    if np.any(np.isnan(dv)) or np.any(dv < -TOL):
        raise ValueError("GDoF targets must be nonnegative")
    if subset is None:
        idx = tuple(np.flatnonzero(dv > TOL).tolist())
    else:
        idx = check_subset(alpha.K, subset, allow_empty=True)
        for k in idx:
            if dv[k] <= TOL:
                raise ValueError(
                    f"user {k} has target {dv[k]}; zero-GDoF users must be removed first"
                )
    ix = np.array(idx, dtype=int)
    direct = alpha.alpha[ix, ix]
    above = dv[ix] > direct + TOL
    if above.any():
        k = idx[int(above.argmax())]  # the first offender in subset order
        raise ImmediatelyInfeasible(
            f"target d_{k}={dv[k]} exceeds direct strength {alpha.alpha[k, k]}"
        )
    a = alpha.alpha[np.ix_(ix, ix)]
    np.fill_diagonal(a, np.maximum(direct - dv[ix], 0.0))
    return a, idx


def _full_power(alpha: ChannelMatrix, subset, y_u) -> PowerAlloc:
    r = np.full(alpha.K, -np.inf)
    r[list(subset)] = -y_u
    return PowerAlloc(r)


def solve_power_hungarian(alpha: ChannelMatrix, d, subset=None,
                          return_trace: bool = False):
    """Kuhn-Munkres solve for the minimum-power allocation achieving d.

    Left labels start at the row maxima of A, right labels at zero, and label
    updates lower the tree rows by the minimum slack alpha_L until the whole
    diagonal is tight; then r_j = -y_{u_j}. Each augmentation round matches
    one more row, so at most |subset| rounds occur; if they complete without
    the diagonal going tight, the diagonal is not an optimal assignment and
    the target is infeasible. Every choice takes the lowest index: greedy
    matching row by row to the first free tight column, trees grown from the
    first unmatched row, and the first tight non-tree column joins next.

    Returns (PowerAlloc, LabelPair), plus a KmTrace when ``return_trace``;
    the label states are only recorded then.
    """
    A, idx = build_assignment_matrix(alpha, d, subset)
    n = len(idx)
    y_u = A.max(axis=1) if n else np.zeros(0)  # initial=0.0 can flip a zero's sign
    y_v, diag = np.zeros(n), np.diag(A)
    initial_y_u, initial_y_v = y_u.copy(), y_v.copy()
    trace_alpha, trace_yu, trace_yv = [], [], []
    match_of_col, match_of_row = np.full(n, -1), np.full(n, -1)

    # deterministic greedy matching inside the equality subgraph: row by row,
    # each row takes its first free tight column
    for i in range(n):
        free = np.flatnonzero((match_of_col < 0) & (y_u[i] + y_v - A[i] <= TOL))
        if free.size:
            match_of_col[free[0]], match_of_row[i] = i, free[0]

    in_row = None  # the rows of the alternating tree being grown, if any
    while not (y_u + y_v - diag <= TOL).all():
        # grow trees from unmatched rows and augment along them until the
        # current tree has no tight column outside it; then lower its labels
        while True:
            if in_row is None:
                unmatched = np.flatnonzero(match_of_row < 0)
                if not unmatched.size:
                    # perfect matching, diagonal still slack: the diagonal is
                    # not an optimal assignment, so d lies outside the region
                    raise InfeasibleGdof("no feasible power allocation achieves d")
                root = unmatched[0]
                in_row, in_col = np.arange(n) == root, np.zeros(n, dtype=bool)
                prev_col = np.full(n, -1)  # tree row that discovered each column
                slack, slack_row = y_u[root] + y_v - A[root], np.full(n, root)
            out = ~in_col
            tight = out & (slack <= TOL)
            j = tight.argmax()
            if not tight[j]:
                break
            prev_col[j] = slack_row[j]
            owner = match_of_col[j]
            if owner >= 0:
                in_col[j] = in_row[owner] = True
                new_slack = y_u[owner] + y_v - A[owner]
                lower = new_slack < slack
                slack[lower], slack_row[lower] = new_slack[lower], owner
                continue
            # augmenting path found: flip matches back to the root
            while j >= 0:
                row = prev_col[j]
                match_of_col[j] = row
                match_of_row[row], j = j, match_of_row[row]
            in_row = None

        if len(trace_alpha) > n * n + n:
            # each update adds a tight column to some tree, so this bound
            # cannot be reached; guard against stalls anyway
            raise RuntimeError("label updates exceeded the n^2 bound")
        alpha_l = slack[out].min()
        y_u[in_row] -= alpha_l
        y_v[in_col] += alpha_l
        slack[out] -= alpha_l
        trace_alpha.append(float(alpha_l))
        if return_trace:
            trace_yu.append(y_u.copy())
            trace_yv.append(y_v.copy())

    r, labels = _full_power(alpha, idx, y_u), LabelPair(y_u=y_u, y_v=y_v)
    if not return_trace:
        return r, labels
    return r, labels, KmTrace(initial_y_u, initial_y_v, tuple(trace_alpha),
                              tuple(trace_yu), tuple(trace_yv))


def solve_power_potentials(alpha: ChannelMatrix, d, subset=None):
    """Minimal powers for d as the least solution of the TIN constraints

        r_j >= (d_j - alpha_jj) + max(0, max_{i != j} alpha_ij + r_i),

    the potentials whose labels y_u = -r, y_v = diag(A) - y_u are the
    Kuhn-Munkres labels of the same assignment matrix A (a feasible target
    makes the diagonal an optimal assignment). Label-correcting rounds start
    from r = d - diag(alpha) and apply the right-hand side to all users at
    once. Powers only rise, so any r above TOL is infeasible at once;
    otherwise the rounds settle, no entry rising by more than TOL, within
    n + 1 rounds counting the start, as Bellman-Ford does over the n users
    and a zero-power source. Rounds that do not settle by then follow a
    positive cycle, which no powers satisfy. Infeasible targets raise the
    same errors as ``solve_power_hungarian``.

    The first round takes the inner maxima over all n x n terms; later
    rounds fold in only the rows whose r changed. As r only rises, an
    unchanged row's terms are already in the old maxima and a changed row's
    new terms dominate its old ones, so the maxima stay exact.

    Returns (PowerAlloc, LabelPair).
    """
    cross, idx = build_assignment_matrix(alpha, d, subset)
    n = len(idx)
    if n == 0:
        return PowerAlloc(np.full(alpha.K, -np.inf)), LabelPair(np.zeros(0), np.zeros(0))
    base = -np.diag(cross)
    np.fill_diagonal(cross, -np.inf)  # (i, j): interference of Tx-i at Rx-j
    r = base
    inner = (cross + r[:, None]).max(axis=0)
    for _ in range(n):
        new = base + np.maximum(0.0, inner)
        if np.any(new > TOL):
            break
        if not np.any(new > r + TOL):
            labels = LabelPair(y_u=-new, y_v=new - base)
            return _full_power(alpha, idx, labels.y_u), labels
        # exact: r only rises, so the maxima over all rows are the old ones
        # raised by the changed rows' new terms
        changed = new != r
        np.maximum(inner, (cross[changed] + new[changed, None]).max(axis=0), out=inner)
        r = new
    raise InfeasibleGdof("no feasible power allocation achieves d")


def solve_power_auction(alpha: ChannelMatrix, d, subset=None,
                        epsilon: float = DEFAULT_EPSILON, snap: bool = False):
    """Decentralized auction solve for the minimum-power allocation.

    Bidders are transmitters holding their own row of A; products are the
    receivers. Each unassigned bidder in turn values every product at
    A_ij - y_v_j, takes the best one if its value is at least epsilon
    (displacing any owner back into the demand queue), and raises that
    product's price by epsilon. The demand queue is FIFO and value ties go to
    the lowest product index, so runs are deterministic. When the bids
    settle, a diagonal that weighs less than the pairs they assigned, by more
    than TOL, is not an optimal assignment, and the target is declared
    infeasible (InfeasibleGdof). Otherwise the powers are read off the
    diagonal, r_i = y_v_i - A_ii, clipped at full power (r_i <= 0), and sit
    within |subset|*epsilon of the centralized minimal ones.

    ``snap`` skips the auction: once epsilon is checked, it returns
    ``solve_power_hungarian``'s exact labels for the same instance without
    placing a bid. The bid count is capped at
    ceil(10 n^2 max(A)/epsilon) + n, beyond which the target is declared
    infeasible (or epsilon too large to resolve it). A cap above
    ``BID_CEILING``, infinite ones included, raises EpsilonTooSmall before
    any bid, and an epsilon that is not a positive finite real (a bool
    included) raises ShapeError.
    """
    epsilon = check_setting("epsilon", epsilon, 0.0, open_lo=True)
    A, idx = build_assignment_matrix(alpha, d, subset)
    n = len(idx)
    if n == 0:
        return PowerAlloc(np.full(alpha.K, -np.inf)), LabelPair(np.zeros(0), np.zeros(0))
    if snap:
        return solve_power_hungarian(alpha, d, subset)

    bids_needed = 10.0 * n * n * float(A.max()) / epsilon  # inf for a tiny epsilon
    bid_cap = int(math.ceil(bids_needed)) + n if bids_needed < math.inf else math.inf
    if bid_cap > BID_CEILING:
        raise EpsilonTooSmall(
            f"epsilon {epsilon:g} needs a cap of {bid_cap} bids on {n} users, "
            f"above the ceiling of {BID_CEILING}"
        )

    prices = np.zeros(n)
    owner = [-1] * n
    queue = deque(range(n))
    bids = 0
    while queue:
        if bids >= bid_cap:
            raise InfeasibleOrEpsilonTooLarge(
                f"auction exceeded {bid_cap} bids with bidders still unassigned"
            )
        bids += 1
        i = queue.popleft()
        values = A[i] - prices
        j = int(np.argmax(values))  # lowest index wins ties
        if values[j] >= epsilon:
            if owner[j] >= 0:
                queue.append(owner[j])
            owner[j] = i
            prices[j] += epsilon
        # else: bidder leaves the market unassigned

    # A >= 0, so the pairs the bids assigned weigh no more than an optimal
    # assignment: a diagonal lighter than them is not optimal, and d is
    # outside the region
    owner = np.array(owner)
    won = np.flatnonzero(owner >= 0)
    bidders = owner[won]
    if np.trace(A) < A[bidders, won].sum() - TOL:
        raise InfeasibleGdof("no feasible power allocation achieves d")
    # labels off the diagonal: y_u_i = A_ii - y_v_i for every assigned
    # bidder, and its best value (below epsilon) for every other one; both
    # clipped at 0, since overbidding can lift a price above A_ii where the
    # minimal power is full power
    y_u = np.maximum(0.0, (A - prices).max(axis=1))
    y_u[bidders] = np.maximum(0.0, np.diag(A)[bidders] - prices[bidders])
    labels = LabelPair(y_u=y_u, y_v=prices.copy())
    return _full_power(alpha, idx, y_u), labels


def is_feasible(alpha: ChannelMatrix, d) -> bool:
    """Whether the target tuple is TIN-achievable, by assignment solvability
    over its active users (``build_assignment_matrix``): a target more than
    TOL above its direct strength, or potentials that do not settle at or
    below zero power (``solve_power_potentials``), are infeasible. The
    verdict agrees with ``solve_power_hungarian``'s and with membership in
    the achievable region; a malformed target raises as it does there.
    """
    try:
        solve_power_potentials(alpha, d)
    except Infeasible:
        return False
    return True
