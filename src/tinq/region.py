"""TIN-achievable GDoF polytopes in both of their standard representations,
membership tests, per-user strength conditions, and the permutation-based
converse bound.

A polytope for an active subset S is the halfspace system

    sum_{k in S'} d_k <= c_{S'} = sum_{k in S'} alpha_kk - w(M*_{S'})

over every non-empty S' of S (2^|S| - 1 constraints), where w(M*_{S'}) is the
maximum matching weight of the subset under cross strengths. The bounds
depend on the network alone, so each one is solved once per ChannelMatrix
object and shared by every polytope and LP built on that network.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ShapeError
from .matching import _lsa_max, max_matching_weight
from .model import TOL, ChannelMatrix, GdofTuple, _readonly, check_size, check_subset

__all__ = [
    "TinaPolytope",
    "ConditionReport",
    "tina_polytope",
    "tina_polytope_cyclic",
    "contains",
    "check_conditions",
    "converse_g_bound",
]

SUBSET_MAX = 16  # users of any 2^n - 1 subset table: polytope, LP rows, memo
CYCLIC_ORACLE_MAX = 8
G_BOUND_MAX = 7
C2_MAX_K = 12


@dataclass(frozen=True)
class TinaPolytope:
    """Halfspace description of a TIN-achievable region: one bound per
    non-empty subset of the active user set, in a K-user ambient space."""

    K: int
    subset: tuple
    constraints: dict  # frozenset of users -> bound on their GDoF sum


@dataclass(frozen=True)
class ConditionReport:
    """Per-user strength-condition verdicts and the zero-edge matching
    condition. ``gnaj`` is the strict condition (desired strength at least
    max incoming plus max outgoing), ``c1`` the relaxed pairwise one; ``c2``
    is the global zero-edge condition over subsets of size > 2, or None when
    skipped for size. Witnesses give an (i, j) pair per violated user and the
    first failing subset for c2."""

    gnaj: tuple
    c1: tuple
    c2: bool | None
    gnaj_witnesses: dict = field(default_factory=dict)
    c1_witnesses: dict = field(default_factory=dict)
    c2_witness: tuple | None = None


def _nonempty_subsets(idx):
    for size in range(1, len(idx) + 1):
        yield from itertools.combinations(idx, size)


def subset_bounds(alpha: ChannelMatrix, idx: tuple) -> np.ndarray:
    """Read-only array of c_{S'} = sum_{k in S'} alpha_kk - w(M*_{S'}) over
    the non-empty S' of the sorted, checked subset ``idx``, in (size,
    lexicographic) order. Every 2^n table of the package starts here, so
    its one cap is checked here: more than SUBSET_MAX (16) users raise
    SubsetTooLarge before any matching.

    Each S' costs one matching the first time any polytope of the network
    contains it: the memo ``{user tuple: c_S}`` kept on ``alpha`` (whose
    array is read-only) holds its bound, one float per distinct subset
    solved, and lives and dies with it. The array is built anew from
    the memo on every call, about 30 us at 6 users on 2 vCPUs. A polytope at
    the cap keeps 65,535 bounds, 11.0 MB with their keys (tracemalloc).
    """
    check_size("subset table", len(idx), SUBSET_MAX)
    known = alpha.__dict__.setdefault("_subset_bounds", {})
    diag = np.diag(alpha.alpha)
    vals = []
    for sub in _nonempty_subsets(idx):
        bound = known.get(sub)
        if bound is None:
            bound = known[sub] = float(diag[list(sub)].sum()) - max_matching_weight(alpha, sub)
        vals.append(bound)
    return _readonly(vals)


@functools.cache
def _indicator_rows(n: int) -> np.ndarray:
    return _readonly([[u in sub for u in range(n)] for sub in _nonempty_subsets(range(n))])


@functools.cache
def _perms(n: int) -> np.ndarray:
    """Every permutation of range(n), one per row in lexicographic order: a
    read-only (n!, n) index table kept for the process (2.6 MB at 8)."""
    rows = itertools.chain.from_iterable(itertools.permutations(range(n)))
    table = np.fromiter(rows, np.intp, math.factorial(n) * n).reshape(-1, n)
    table.setflags(write=False)
    return table


def halfspaces(alpha: ChannelMatrix, idx: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The polytope of the sorted, checked subset ``idx`` as read-only arrays
    (A, b) with A d_idx <= b: row r of A is the 0/1 indicator, over positions
    in ``idx``, of the r-th subset in ``subset_bounds`` order, and b those
    bounds, asked for first, so their cap holds before any row is built. A
    depends on |idx| alone, so one table per size is shared by every network
    and kept for the process: 8.4 MB at 16 users."""
    bounds = subset_bounds(alpha, idx)
    return _indicator_rows(len(idx)), bounds


def tina_polytope(alpha: ChannelMatrix, subset=None) -> TinaPolytope:
    """Polytope in matching form: c_{S'} = sum alpha_kk - w(M*_{S'}) for every
    non-empty S' of the subset, in deterministic (size, lexicographic) order.
    The bounds come from the network's memo (``subset_bounds``, capped at
    SUBSET_MAX users, about 11 MB); the constraints dict is new on every
    call."""
    idx = check_subset(alpha.K, subset)
    bounds = subset_bounds(alpha, idx).tolist()
    constraints = dict(zip(map(frozenset, _nonempty_subsets(idx)), bounds))
    return TinaPolytope(K=alpha.K, subset=idx, constraints=constraints)


def tina_polytope_cyclic(alpha: ChannelMatrix, subset=None) -> TinaPolytope:
    """Cyclic-form polytope, built without any matching solver.

    The raw system has one inequality per ordered cycle (i_0, ..., i_{m-1}):
    sum_k d_{i_k} <= sum_k (alpha_{i_k i_k} - alpha_{i_{k-1} i_k}). The bound
    this system implies for a subset's GDoF sum is the best way to cover the
    subset with disjoint cycles and singletons (singletons contribute their
    individual bound alpha_kk). Such a cover is a permutation p of the
    subset: a fixed point is a singleton, and p sends each transmitter to the
    receiver it interferes with in its cycle. So each bound is the diagonal
    sum less the largest cross sum over the subset's permutation table.
    """
    idx = check_subset(alpha.K, subset)
    check_size("cyclic oracle", len(idx), CYCLIC_ORACLE_MAX)
    constraints = {}
    for sub in _nonempty_subsets(idx):
        cross = alpha.alpha[np.ix_(sub, sub)]
        diag = np.diag(cross).sum()
        np.fill_diagonal(cross, 0.0)
        covers = cross[np.arange(len(sub)), _perms(len(sub))].sum(axis=1)  # one per row
        constraints[frozenset(sub)] = float(diag - covers.max())
    return TinaPolytope(K=alpha.K, subset=idx, constraints=constraints)


def contains(poly: TinaPolytope, d: GdofTuple, tol: float = TOL) -> bool:
    """Membership: nonnegativity, zero outside the subset, and every subset
    sum within its bound, all to absolute tolerance."""
    if d.K != poly.K:
        raise ShapeError(f"d has {d.K} entries for a {poly.K}-user polytope")
    v = d.d
    if np.any(v < -tol):
        return False
    outside = np.ones(poly.K, dtype=bool)
    outside[list(poly.subset)] = False
    if np.any(np.abs(v[outside]) > tol):
        return False
    for users, bound in poly.constraints.items():
        if v[list(users)].sum() > bound + tol:
            return False
    return True


def check_conditions(alpha: ChannelMatrix) -> ConditionReport:
    """Evaluate the per-user strength conditions and the zero-edge condition.

    Strict per-user condition:  alpha_kk >= max_{i!=k} alpha_ik + max_{j!=k} alpha_kj.
    Relaxed per-user condition: alpha_kk >= max_{i,j!=k} (alpha_ik + alpha_kj - alpha'_ij),
    the i = j case included.
    Zero-edge condition: every subset S with |S| > 2 has some maximum matching
    containing an edge of strength zero; checked by forcing each zero edge and
    asking whether the constrained matching still reaches w(M*_S). Subsets of
    size <= 2 are exempt. Skipped (c2 = None) above ``C2_MAX_K`` (12) users.
    """
    K = alpha.K
    a = alpha.alpha
    ap = alpha.alpha_prime()
    gnaj, c1, gnaj_w, c1_w = _strength_conditions(a)

    c2: bool | None
    c2_witness = None
    if K > C2_MAX_K:
        c2 = None
    else:
        c2 = True
        for sub in _nonempty_subsets(tuple(range(K))):
            if len(sub) <= 2:
                continue
            if not _subset_has_zero_edge_optimum(a, ap, sub):
                c2 = False
                c2_witness = sub
                break
    return ConditionReport(
        gnaj=gnaj, c1=c1, c2=c2,
        gnaj_witnesses=gnaj_w, c1_witnesses=c1_w,
        c2_witness=c2_witness,
    )


def _strength_conditions(a: np.ndarray) -> tuple[tuple, tuple, dict, dict]:
    """GNAJ and C1 verdicts for each user of the square strength block ``a``,
    and the (i, j) witness of each violated one, from array maxima over
    partners with every user's own entries at -inf (a lone user passes).
    ``argmax`` keeps the first maximum (row-major for C1's pairs), as a scan
    in index order with a strict ``>`` does, over the same IEEE additions, so
    verdicts and witnesses are bitwise that scan's."""
    users = np.arange(a.shape[0])
    own = users[:, None] == users
    off, ap = np.where(own, -np.inf, a), np.where(own, 0.0, a)
    i_in, j_out = off.argmax(axis=0), off.argmax(axis=1)
    gnaj = a[users, users] >= off[i_in, users] + off[users, j_out] - TOL
    # off[u, u] = -inf masks row and column u of user u's pair sums
    i, j = np.divmod([(off[:, u, None] + off[u] - ap).argmax() for u in users], users.size)
    c1 = a[users, users] >= off[i, users] + off[users, j] - ap[i, j] - TOL
    gnaj_w = {u: (int(i_in[u]), int(j_out[u])) for u in np.flatnonzero(~gnaj).tolist()}
    c1_w = {u: (int(i[u]), int(j[u])) for u in np.flatnonzero(~c1).tolist()}
    return tuple(gnaj.tolist()), tuple(c1.tolist()), gnaj_w, c1_w


def _subset_has_zero_edge_optimum(a, ap, sub) -> bool:
    """Is there a zero-strength edge inside sub x sub that some maximum
    matching of the block can contain?

    The block's optimum is solved at its first zero edge, so a block without
    one is answered without any matching solve."""
    sub = list(sub)
    w_star = None
    for i in sub:
        for j in sub:
            if a[i, j] > TOL:
                continue
            if w_star is None:
                w_star = _lsa_max(ap[np.ix_(sub, sub)])
            rows = [r for r in sub if r != i]
            cols = [c for c in sub if c != j]
            forced = _lsa_max(ap[np.ix_(rows, cols)])  # the zero edge adds 0
            if forced >= w_star - TOL:
                return True
    return False


def converse_g_bound(alpha: ChannelMatrix, subset) -> float:
    """Permutation outer bound on the subset's GDoF sum:

        min over orderings pi and positions k of
        sum_j (alpha_{i_j i_j} - alpha_{i_{j-1} i_j}) + alpha_{i_{k-1} i_k}

    with indices cyclic in the ordering; capped at G_BOUND_MAX (7) users.
    """
    idx = check_subset(alpha.K, subset)
    check_size("permutation bound", len(idx), G_BOUND_MAX)
    b = alpha.alpha[np.ix_(idx, idx)]
    p = _perms(len(idx))  # one ordering per row
    edges = b[np.roll(p, 1, axis=1), p]  # edges[:, t] = alpha_{i_{t-1} i_t}
    return float((np.trace(b) - edges.sum(axis=1) + edges.min(axis=1)).min())
