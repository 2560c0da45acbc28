"""Maximum-weight bipartite matching over user subsets with cross-strength
weights and cyclic-partition extraction.

Matchings live on the complete bipartite graph (transmitters x receivers) of a
subset; diagonal edges carry weight zero, so a perfect matching can represent
any partial cross matching. All weight comparisons use the package's absolute
tolerance ``TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._cores import scipy_core
from .exceptions import NotPerfect
from .model import TOL, ChannelMatrix, check_subset

__all__ = [
    "Matching",
    "CyclicPartition",
    "max_weight_matching",
    "max_matching_weight",
    "cyclic_partition",
]

@dataclass(frozen=True)
class Matching:
    """A set of (tx, rx) edges, no two sharing a transmitter or receiver, and
    the sum of their cross-strength weights (diagonal edges count as 0)."""

    pairs: frozenset
    weight: float


@dataclass(frozen=True)
class CyclicPartition:
    """Disjoint ordered user cycles covering the matched users; ``is_best`` is
    true when the cycle supports' matching weights add up to the full subset's
    maximum matching weight."""

    cycles: tuple
    is_best: bool


# scipy's compiled assignment solver, bound on first use; a module attribute,
# so that rebinding it here reaches every call
linear_sum_assignment = None


def _lsa_max(w: np.ndarray) -> float:
    """Maximum-weight perfect assignment value of a square weight matrix;
    a 0x0 or 1x1 block is answered without scipy."""
    global linear_sum_assignment
    if w.size <= 1:
        return float(w.sum())
    if linear_sum_assignment is None:
        linear_sum_assignment = scipy_core("_lsap").linear_sum_assignment
    rows, cols = linear_sum_assignment(w, maximize=True)
    return float(w[rows, cols].sum())


def max_matching_weight(alpha: ChannelMatrix, subset) -> float:
    """w(M*_S): maximum matching weight of the subset under cross weights.

    Fast weight-only path; zero for singletons by construction.
    """
    idx = check_subset(alpha.K, subset)
    w = alpha.alpha[np.ix_(idx, idx)]  # the block alone, a copy
    np.fill_diagonal(w, 0.0)
    return _lsa_max(w)


def max_weight_matching(alpha: ChannelMatrix, subset) -> Matching:
    """Maximum-weight perfect matching on the subset with cross weights.

    Ties between equally-weighted optima are broken toward the
    lexicographically smallest edge set (scanning transmitters in ascending
    order, each taking the smallest receiver that still permits an optimal
    completion), so results are deterministic.
    """
    idx = check_subset(alpha.K, subset)
    n = len(idx)
    w = alpha.alpha[np.ix_(idx, idx)]  # the block alone, a copy
    np.fill_diagonal(w, 0.0)
    total = _lsa_max(w)

    sigma = [-1] * n
    free_cols = list(range(n))
    fixed = 0.0
    remaining_rows = list(range(n))
    for row in range(n):
        remaining_rows = [r for r in remaining_rows if r != row]
        for pos, col in enumerate(free_cols):
            rest = free_cols[:pos] + free_cols[pos + 1:]
            completion = _lsa_max(w[np.ix_(remaining_rows, rest)])
            if fixed + w[row, col] + completion >= total - TOL:
                sigma[row] = col
                fixed += w[row, col]
                free_cols = rest
                break
        if sigma[row] < 0:
            raise RuntimeError(f"no receiver for transmitter {idx[row]} completes "
                               f"a matching of weight {total}")

    pairs = frozenset((idx[i], idx[sigma[i]]) for i in range(n))
    weight = float(sum(w[i, sigma[i]] for i in range(n)))
    return Matching(pairs=pairs, weight=weight)


def cyclic_partition(alpha: ChannelMatrix, m: Matching, subset) -> CyclicPartition:
    """Cycle decomposition of a perfect matching on the subset.

    Each matched chain is closed with diagonal edges and the resulting
    permutation j -> match(j) is decomposed into disjoint cycles, each listed
    from its smallest user. ``is_best`` reports whether the cycle supports
    split the subset's maximum matching weight exactly:
    w(M*_S) = sum_i w(M*_{S_i}).
    """
    idx = check_subset(alpha.K, subset)
    txs = sorted(p[0] for p in m.pairs)
    rxs = sorted(p[1] for p in m.pairs)
    if txs != list(idx) or rxs != list(idx):
        raise NotPerfect(
            f"matching does not cover subset {idx} exactly once per side"
        )
    succ = {tx: rx for tx, rx in m.pairs}

    cycles = []
    seen = set()
    for start in idx:
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        nxt = succ[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = succ[nxt]
        cycles.append(tuple(cyc))

    total = max_matching_weight(alpha, idx)
    parts = sum(max_matching_weight(alpha, c) for c in cycles)
    return CyclicPartition(cycles=tuple(cycles), is_best=bool(abs(total - parts) <= TOL))
