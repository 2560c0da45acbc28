"""Independent reference computations for the benchmark's output checks.

None of these call tinq: they recompute what the library answers from the
definitions, so a library change that breaks a result shows as a failed op.
Matrix orientation follows tinq: ``a[i, j]`` is the strength of Tx-i -> Rx-j.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

TOL = 1e-7


def min_power(a: np.ndarray, d: np.ndarray, tol: float = TOL):
    """Componentwise-minimal power exponents r (r_k <= 0) with
    d_k <= a_kk + r_k - max(0, max_{j active, j != k} a_jk + r_j) for every
    active user (d_k > tol), or None when no such r exists.

    The constraints are difference constraints, so the least solution is a
    longest-path fixed point; a positive cycle or a positive r means the
    target is infeasible. Inactive users get -inf.
    """
    d = np.asarray(d, dtype=float)
    act = np.flatnonzero(d > tol)
    r = np.full(d.size, -np.inf)
    if act.size == 0:
        return r
    sub = a[np.ix_(act, act)]
    base = d[act] - np.diag(sub)             # r_k >= d_k - a_kk
    cross = sub.copy()
    np.fill_diagonal(cross, -np.inf)         # a_jk, j -> k, j != k
    x = base.copy()
    for _ in range(act.size + 1):
        nxt = np.maximum(base, base + (cross + x[:, None]).max(axis=0))
        if np.all(nxt <= x + tol):
            break
        x = nxt
    else:
        return None
    if np.any(x > tol):
        return None
    r[act] = x
    return r


def achieved_gdof(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """max(0, a_kk + r_k - max(0, max_{i != k} a_ik + r_i)); -inf r is off."""
    levels = a + r[:, None]
    np.fill_diagonal(levels, -np.inf)
    with np.errstate(invalid="ignore"):
        d = np.diag(a) + r - np.maximum(0.0, levels.max(axis=0))
    return np.where(np.isfinite(r), np.maximum(d, 0.0), 0.0)


@lru_cache(maxsize=None)
def _perms(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp).reshape(-1, n)


def matching_values(w: np.ndarray) -> np.ndarray:
    """Weight of every perfect matching of a square block, by enumeration."""
    n = w.shape[0]
    return w[np.arange(n), _perms(n)].sum(axis=1)


def polytope(a: np.ndarray, users) -> dict:
    """Subset-sum bounds sum_{T} alpha_kk - w(M*_T) for every non-empty T of
    ``users``, with w(M*_T) the maximum cross-weight matching by enumeration."""
    ap = a.copy()
    np.fill_diagonal(ap, 0.0)
    out = {}
    for size in range(1, len(users) + 1):
        for t in itertools.combinations(users, size):
            idx = list(t)
            out[t] = float(np.trace(a[np.ix_(idx, idx)])
                           - matching_values(ap[np.ix_(idx, idx)]).max())
    return out


def lp_point(a: np.ndarray, w: np.ndarray, users=None):
    """(max w.d, a maximizer d) over the subset-sum polytope of ``users``
    (default: the users with positive weight)."""
    from scipy.optimize import linprog  # not at import: set-up time excludes it

    if users is None:
        users = tuple(int(k) for k in np.flatnonzero(w > 0))
    d = np.zeros(a.shape[0])
    if not users:
        return 0.0, d
    pos = {u: p for p, u in enumerate(users)}
    rows, bounds = [], []
    for t, bound in polytope(a, users).items():
        row = np.zeros(len(users))
        row[[pos[u] for u in t]] = 1.0
        rows.append(row)
        bounds.append(bound)
    res = linprog(-w[list(users)], A_ub=np.array(rows), b_ub=np.array(bounds),
                  bounds=[(0, None)] * len(users), method="highs")
    if not res.success:
        return -np.inf, d
    d[list(users)] = np.maximum(res.x, 0.0)
    return float(-res.fun), d


def union_optimum(a: np.ndarray, w: np.ndarray) -> float:
    """max w.d over the union of every active subset's polytope."""
    support = [k for k in range(a.shape[0]) if w[k] > 0]
    best = 0.0
    for size in range(1, len(support) + 1):
        for sub in itertools.combinations(support, size):
            if min(polytope(a, sub).values()) >= 0:
                best = max(best, lp_point(a, w, sub)[0])
    return best


def conditions(a: np.ndarray, tol: float = 1e-9):
    """Per-user strict and relaxed strength conditions, and the zero-edge
    condition with its first failing subset, by enumeration."""
    k = a.shape[0]
    ap = a.copy()
    np.fill_diagonal(ap, 0.0)
    gnaj, c1 = [], []
    for u in range(k):
        others = [i for i in range(k) if i != u]
        gnaj.append(bool(a[u, u] >= a[others, u].max() + a[u, others].max() - tol))
        worst = max(a[i, u] + a[u, j] - ap[i, j] for i in others for j in others)
        c1.append(bool(a[u, u] >= worst - tol))
    for size in range(3, k + 1):
        for sub in itertools.combinations(range(k), size):
            idx = list(sub)
            w = ap[np.ix_(idx, idx)]
            vals = matching_values(w)
            best = vals >= vals.max() - tol
            zero = a[np.ix_(idx, idx)][np.arange(size), _perms(size)] <= tol
            if not np.any(zero[best]):
                return gnaj, c1, False, list(sub)
    return gnaj, c1, True, None


def itlinq_plus(snr: np.ndarray, inr: np.ndarray, eta: float = 0.9, gamma: float = 0.1):
    """The ITLinQ+ admission pass in index order: selected links, the
    running minimum-interference tables and the message count."""
    selected, min_in, min_out = [], {}, {}
    for k in range(snr.size):
        lhs = snr[k] ** eta
        if all(lhs >= inr[k, j] / min_in[j] ** gamma
               and lhs >= inr[j, k] / min_out[j] ** gamma for j in selected):
            min_in[k] = min([1.0] + [inr[j, k] for j in selected])
            min_out[k] = min([1.0] + [inr[k, j] for j in selected])
            for j in selected:
                min_in[j] = min(min_in[j], inr[k, j])
                min_out[j] = min(min_out[j], inr[j, k])
            selected.append(k)
    return selected, min_in, min_out, 2 * snr.size + len(selected)
