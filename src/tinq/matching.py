"""Maximum-weight bipartite matching over user subsets with cross-strength
weights.

Matchings live on the complete bipartite graph (transmitters x receivers) of a
subset; diagonal edges carry weight zero, so a perfect matching can represent
any partial cross matching. The tie-broken matchings and their cyclic
partitions, which show the matching and cyclic forms of the region agree,
are test oracles (``tests/oracles.py``).
"""

from __future__ import annotations

import numpy as np

from ._cores import scipy_core
from .model import ChannelMatrix, check_subset

__all__ = ["max_matching_weight"]


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
