"""Weighted sum-GDoF maximization.

Four routes: a linear program over one subset's achievable polytope, an exact
search over all active subsets (the disjunctive optimum), finite-SNR power
control as a geometric program solved in log-domain convex form, and a
decentralized dual-decomposition variant of the same objective. A pipeline
operation chains the GP with the assignment-based power minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._cores import scipy_core
from .exceptions import (
    ConvergenceFailure,
    DivergenceDetected,
    DomainError,
    EmptyPolytope,
    ShapeError,
)
from .model import (
    TOL,
    ChannelMatrix,
    GdofTuple,
    PhysicalNetwork,
    PowerAlloc,
    achieved_gdof,
    check_setting,
    check_size,
    check_subset,
    strength_from_physical,
)
from .power import solve_power_potentials
from .region import _nonempty_subsets, halfspaces, subset_bounds

__all__ = [
    "GpSolution",
    "max_weighted_gdof_lp",
    "max_weighted_gdof_exact",
    "gp_power_control",
    "decentralized_gp",
    "gp_then_assignment",
]

EXACT_K_MAX = 10
LP_WEIGHT_MAX = 1e20  # HiGHS reads a cost at or above this (infinite_cost) as infinite
Z_FLOOR = -80.0  # log-power box: e^-80 is numerically silent
GP_MAX_ITER = 1000  # L-BFGS-B iterations per GP start


@dataclass(frozen=True)
class GpSolution:
    """Finite-SNR power-control solution: linear transmit power fractions in
    (0, 1] on the solved subset (0 elsewhere), per-link SINR and the
    throughput objective sum w*log2(1+SINR). The field names are the keys
    `tinq sumgdof --method gp` prints after "method", in its order."""

    powers: np.ndarray
    sinr: np.ndarray
    objective_bits: float
    subset: tuple


def _weighted_users(K: int, subset, w) -> tuple[tuple, np.ndarray]:
    """The sorted users of ``subset`` (None: all K) whose weight is positive,
    the only users a weighted sum serves, and the K weights (None: all ones).
    Every solver of the weighted objective reads both here."""
    v = np.ones(K) if w is None else np.asarray(w, dtype=float).reshape(-1)
    if v.size != K:
        raise ShapeError(f"got {v.size} weights for {K} users")
    if np.any(v < 0) or not np.all(np.isfinite(v)):
        raise ShapeError("weights must be finite and nonnegative")
    return tuple(k for k in check_subset(K, subset, allow_empty=True) if v[k] > 0), v


def max_weighted_gdof_lp(alpha: ChannelMatrix, subset=None, w=None) -> tuple[GdofTuple, float]:
    """Maximize sum w_k d_k over one subset's achievable polytope.

    Zero-weight users are dropped from the subset before solving (they are
    best served silent for this objective). A single user's polytope is the
    interval [0, alpha_kk], answered in closed form. Otherwise linprog gets
    all 2^n - 1 constraints from ``region.halfspaces``, so the effective
    subset is capped at ``region.SUBSET_MAX`` (16) users, checked there before
    scipy.optimize is imported; each bound is solved once per network, so
    repeated calls on one network only re-solve the LP. A weight at or above
    ``LP_WEIGHT_MAX`` (1e20), which HiGHS would read as an infinite cost,
    raises DomainError before the LP is built; so does a solve that HiGHS
    reports as failed (several weights of 1e18 or more can end in its solve
    error), naming HiGHS's message and the largest weight.
    """
    idx, wv = _weighted_users(alpha.K, subset, w)
    d = np.zeros(alpha.K)
    if len(idx) == 0:
        return GdofTuple(d), 0.0
    if len(idx) == 1:
        k = idx[0]
        d[k] = alpha.alpha[k, k]
        return GdofTuple(d), float(wv[k] * d[k])
    cost = wv[list(idx)]
    if cost.max() >= LP_WEIGHT_MAX:
        raise DomainError(f"LP weight {cost.max():g} is not below {LP_WEIGHT_MAX:g}, "
                          "which HiGHS reads as an infinite cost")

    rows, bounds = halfspaces(alpha, idx)
    lowest = float(bounds.min())
    if lowest < 0:
        # some sum bound went negative, which cannot happen while every cross
        # strength stays below the direct strength it interferes with
        raise EmptyPolytope(
            f"subset {idx} has a negative sum bound {lowest:.6g}"
        )
    # imported on first use: scipy.optimize is most of a cold CLI start
    from scipy.optimize import linprog

    res = linprog(
        c=-cost,
        A_ub=rows, b_ub=bounds,
        bounds=[(0, None)] * len(idx),
        method="highs",
    )
    if not res.success:
        raise DomainError(f"LP solve failed at largest weight {cost.max():g}: {res.message}")
    d[list(idx)] = np.maximum(res.x, 0.0)
    return GdofTuple(d), float(-res.fun)


def max_weighted_gdof_exact(alpha: ChannelMatrix, w=None,
                            subset=None) -> tuple[GdofTuple, tuple, float]:
    """Global optimum of the weighted sum over the union of the polytopes of
    every active subset of ``subset`` (None means all users), by enumerating
    those subsets in ``region``'s (size, lexicographic) order, which breaks
    ties toward the first, and solving the LP of each one that might win.

    Restricting enumeration to the positively weighted users is exact:
    removing a zero-weight user relaxes every remaining bound; users outside
    ``subset`` drop out the same way. Capped at 10 positively weighted users;
    larger networks should use the scheduling pipeline instead. A subset
    skipped as unable to win never has its LP solved, so it cannot end the
    search in HiGHS's solve error either.
    """
    users, wv = _weighted_users(alpha.K, subset, w)
    check_size("exact search", len(users), EXACT_K_MAX)
    w_of, top = wv.tolist(), np.diag(alpha.alpha).tolist()
    best = (GdofTuple(np.zeros(alpha.K)), (), 0.0)
    for sub, cap in zip(_nonempty_subsets(users), subset_bounds(alpha, users).tolist()):
        # The greedy keeps only S's own row and its singleton rows, so it
        # bounds S's LP optimum from above. HiGHS's optimal x meets every
        # row and bound to its primal feasibility tolerance (1e-7), so its
        # objective exceeds the greedy by at most 2e-7 * sum_S w, which the
        # margin 1e-6 * sum_S w covers with the rounding of both sums. So a
        # skipped S could not replace the best (that takes obj > best +
        # 1e-12), and by induction the best after each subset, and so the
        # answer, are bitwise those of solving every LP. A weight at HiGHS's
        # infinite cost is never skipped, so its LP raises as before.
        w_sub = [w_of[k] for k in sub]
        if (max(w_sub) < LP_WEIGHT_MAX
                and _greedy_bound(w_of, top, sub, cap) + 1e-6 * sum(w_sub) <= best[2]):
            continue
        try:
            d, obj = max_weighted_gdof_lp(alpha, sub, wv)
        except EmptyPolytope:
            # an empty member contributes nothing to the union
            continue
        if obj > best[2] + 1e-12:
            best = (d, sub, obj)
    return best


def _greedy_bound(w: list, top: list, sub: tuple, cap: float) -> float:
    """max sum_{k in sub} w_k d_k subject to sum_{k in sub} d_k <= cap and
    0 <= d_k <= top_k, filled greedily by weight (a fractional knapsack);
    -inf when cap < 0 leaves it empty."""
    if cap < 0:
        return -math.inf
    total = 0.0
    for k in sorted(sub, key=w.__getitem__, reverse=True):
        take = min(top[k], cap)
        total += w[k] * take
        cap -= take
    return total


def _lbfgsb(fun, z0, ftol):
    """L-BFGS-B (Byrd, Lu, Nocedal and Zhu 1995) on the box Z_FLOOR <= z <= 0
    from ``z0``, for a ``fun`` that returns value and gradient.

    Drives scipy's compiled step ``setulb`` through the reverse-communication
    loop of ``minimize(method="L-BFGS-B")`` with its defaults (10 corrections,
    20 line-search steps, 15000 evaluations, factr = ftol/eps), gtol 1e-10 and
    GP_MAX_ITER iterations. ``fun`` runs once at the clipped start and then
    only where setulb asks at a point other than the last one evaluated, so
    iterates, values and stop reasons are minimize's bit for bit. Returns the
    last iterate, its value and gradient, and setulb's two-integer task; the
    solve converged when task[0] == 4.
    """
    setulb = scipy_core("_lbfgsb").setulb
    n, m = z0.size, 10
    lower, upper, nbd = np.full(n, Z_FLOOR), np.zeros(n), np.full(n, 2, np.int32)
    x = np.clip(z0, lower, upper)
    last = x.copy()
    f_last, g_last = fun(last)
    nfev, nit = 1, 0
    f, g = 0.0, np.zeros(n)
    wa, iwa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m), np.zeros(3 * n, np.int32)
    task, ln_task, lsave = np.zeros(2, np.int32), np.zeros(2, np.int32), np.zeros(4, np.int32)
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    factr = ftol / np.finfo(float).eps
    while True:
        g = g.copy()  # setulb may write into g; the cached gradient stays intact
        setulb(m, x, lower, upper, nbd, f, g, factr, 1e-10, wa, iwa, task,
               lsave, isave, dsave, 20, ln_task)
        if task[0] == 3:  # FG: value and gradient at x
            if (x != last).any():
                last = x.copy()
                f_last, g_last = fun(last)
                nfev += 1
            f, g = f_last, g_last
        elif task[0] == 1:  # NEW_X: one iteration done
            nit += 1
            if nit >= GP_MAX_ITER:
                task[:] = 5, 504
            elif nfev > 15000:
                task[:] = 5, 502
        else:
            return x, f, g, task


def gp_power_control(net: PhysicalNetwork, subset=None, w=None) -> GpSolution:
    """Minimize prod t_i^{w_i} with t_i = (1 + sum_{j!=i} g_ji P_j)/(g_ii P_i)
    over power fractions 0 < P_i <= 1, i.e. maximize sum w_i log SINR_i.

    Solved in log-power coordinates, where the objective is smooth and convex,
    with an analytic gradient under box bounds, by L-BFGS-B (``_lbfgsb``).
    """
    idx, wv = _weighted_users(net.K, subset, w)
    if len(idx) == 0:
        raise ShapeError("no positively weighted users in subset")
    cross = net.nominal_snr()[np.ix_(idx, idx)]  # a fresh block, zeroed in place
    gdiag = np.diag(cross).copy()
    if np.any(gdiag <= 0):
        raise ShapeError("direct gains must be positive on the solved subset")
    n = len(idx)
    ww = wv[list(idx)]
    log_gdiag = np.log(np.diag(cross))
    np.fill_diagonal(cross, 0.0)

    def objective(z):
        x = np.exp(z)
        interference = cross.T @ x  # at receiver i: sum_j g_ji x_j
        f = float((ww * (np.log1p(interference) - log_gdiag - z)).sum())
        denom = 1.0 + interference
        # d/dz_k: -w_k + x_k * sum_i w_i g_ki / denom_i
        grad = -ww + x * (cross @ (ww / denom))
        return f, grad

    # deterministic restarts: the demanding ftol can abort the line search on
    # ill-conditioned instances, so fall back to a shifted start and then to a
    # looser (still tight) tolerance before declaring failure
    res = None
    for z0, ftol in ((np.zeros(n), 1e-15), (np.full(n, -2.0), 1e-15),
                     (np.zeros(n), 1e-12)):
        cand = _lbfgsb(objective, z0, ftol)  # (z, value, gradient, task)
        if res is None or cand[1] < res[1]:
            res = cand
        if cand[3][0] == 4:  # converged
            res = cand
            break
    z, _, jac, task = res
    if task[0] != 4 and np.max(np.abs(jac)) > 1e-5:
        from scipy.optimize._lbfgsb_py import status_messages, task_messages

        raise ConvergenceFailure(
            "geometric-program solve did not converge: "
            f"{status_messages[task[0]]}: {task_messages[task[1]]}",
            last_iterate=np.exp(z),
        )

    x = np.exp(z)
    interference = cross.T @ x
    sinr_sub = gdiag * x / (1.0 + interference)

    powers = np.zeros(net.K)
    powers[list(idx)] = x
    sinr_full = np.zeros(net.K)
    sinr_full[list(idx)] = sinr_sub
    return GpSolution(
        powers=powers,
        sinr=sinr_full,
        objective_bits=float(np.sum(ww * np.log2(1.0 + sinr_sub))),
        subset=idx,
    )


def _local_estimate_solves(w, g, lower, upper, order, breaks):
    """Exact minimizers of w_p*max{0, max_j v_pj} + sum_j g_pj v_pj over the
    boxes lower_p <= v_p <= upper_p, one per row p, where lower < 0 <= upper.

    Positive-dual coordinates sit at their lower bound; the rest share a cap m
    chosen at a breakpoint of the convex piecewise-linear cost: m = 0, of cost
    0, or a positive upper bound of a nonpositive-dual coordinate. ``order``
    holds the flat indices of each row's upper bounds in ascending order and
    ``breaks`` those bounds, inf where not positive. Each row scans its
    breakpoints in ascending order and a later one wins only when it lowers
    the cost by more than 1e-15, so a repeated breakpoint never wins. Rows
    are grouped by their number k of nonpositive duals, and a group's costs
    are one batch of dot products over exactly those k coordinates, in index
    order.
    """
    n, width = g.shape
    neg = g <= 0
    count = neg.sum(axis=1)
    cand = np.where(neg.ravel()[order].reshape(n, width), breaks, np.inf)
    # in the stable (count, sign) order, the r rows with k nonpositive duals
    # are one block of r*width entries that starts with those duals, row by row
    rows = np.argsort(count, kind="stable")
    flat = np.argsort((2 * count[:, None] + ~neg).ravel(), kind="stable")
    g_by, upper_by, cand = g.ravel()[flat], upper.ravel()[flat], cand[rows]
    dots = np.full((n, width), np.inf)
    counts = count[rows].tolist()
    s = 0
    while s < n:
        k, r = counts[s], counts.count(counts[s])
        if k:
            blk = slice(s * width, s * width + r * k)
            caps = np.minimum(upper_by[blk].reshape(r, 1, 1, k), cand[s:s + r, :, None, None])
            dots[s:s + r] = (caps @ g_by[blk].reshape(r, 1, k, 1))[:, :, 0, 0]
        s += r
    cap = [0.0] * n
    for p, w_p, dot_p, cand_p in zip(rows.tolist(), w[rows].tolist(), dots.tolist(),
                                     cand.tolist()):
        best = -1e-15  # the cost of m = 0, less the margin
        for dot, c in zip(dot_p, cand_p):
            cost = w_p * c + dot
            if cost < best:
                best, cap[p] = cost - 1e-15, c
    v = lower.copy()
    np.minimum(upper, np.array(cap)[:, None], out=v, where=neg)
    return v


def decentralized_gp(alpha: ChannelMatrix, subset=None, w=None, step=None,
                     iters: int = 5000, return_info: bool = False):
    """Distributed weighted sum-GDoF power control by dual decomposition.

    Each user keeps its own power exponent and local estimates of the
    interference exponents it receives; consistency is priced by dual
    variables updated with stepsize delta(t) (default 0.5/sqrt(t)). Local
    solves are exact (the subproblems are piecewise linear over boxes), and
    the reported allocation is the stepsize-weighted average of the iterates.
    Raises DivergenceDetected if the consistency residual grows for 100
    consecutive iterations, and ShapeError for fewer than one iteration.

    Returns (PowerAlloc, GdofTuple), plus an info dict of the per-iteration
    consistency residuals when ``return_info``.
    """
    check_setting("iters", iters, 1)
    idx, wv = _weighted_users(alpha.K, subset, w)
    if len(idx) == 0:
        raise ShapeError("no positively weighted users in subset")
    if step is None:
        step = lambda t: 0.5 / math.sqrt(t)
    n = len(idx)
    a = alpha.alpha[np.ix_(idx, idx)]
    ww = wv[list(idx)]
    r_box = float(alpha.alpha.max()) + 1.0

    if n == 1:
        r = np.full(alpha.K, -np.inf)
        r[idx[0]] = 0.0
        pa = PowerAlloc(r)
        d = achieved_gdof(alpha, pa)
        return (pa, d, {"residuals": [0.0]}) if return_info else (pa, d)

    # Duals gamma[j, i] (pricing r'_ji = alpha_ji + r_j), estimates r'_ji
    # and their averages are n x n matrices whose diagonals are never read.
    # User i's local solve reads column i without its diagonal entry,
    # gathered as row i of X.T[off].reshape(n, m).
    m = n - 1
    off = ~np.eye(n, dtype=bool)
    upper = a.T[off].reshape(n, m)  # r'_ji <= alpha_ji (r_j <= 0)
    lower = upper - r_box           # r'_ji >= alpha_ji - r_box
    order = (np.argsort(upper, axis=1, kind="stable") + m * np.arange(n)[:, None]).ravel()
    breaks = upper.ravel()[order].reshape(n, m)
    breaks[breaks <= 0] = np.inf

    gamma = np.zeros((n, n))
    rp = np.zeros((n, n))
    r_avg = np.zeros(n)
    rp_avg = np.zeros((n, n))
    wsum = 0.0
    residuals = []
    grow = 0
    # the duals add up differences of up to r_box, so strengths near the
    # float range can overflow them: a DomainError, not an answer
    try:
        with np.errstate(over="raise"):
            for t in range(1, iters + 1):
                delta = float(step(t))
                # every user's local solve reads only last iteration's duals
                coef = -ww - gamma[off].reshape(n, m).sum(axis=1)
                r = np.where(coef > 0, -r_box, 0.0)
                rp.T[off] = _local_estimate_solves(ww, gamma.T[off].reshape(n, m), lower, upper,
                                                   order, breaks).ravel()
                gamma += delta * (rp - (a + r[:, None]))

                wsum += delta
                r_avg += delta * (r - r_avg) / wsum
                rp_avg += delta * (rp - rp_avg) / wsum
                res = float(np.abs(rp_avg - (a + r_avg[:, None]))[off].sum())
                residuals.append(res)
                if len(residuals) >= 2 and res > residuals[-2] + 1e-12:
                    grow += 1
                    if grow >= 100:
                        raise DivergenceDetected(
                            f"consistency residual grew for {grow} consecutive steps"
                        )
                else:
                    grow = 0
    except FloatingPointError:
        raise DomainError(f"decentralized GP at strength {alpha.alpha.max():g} "
                          "overflows a float") from None

    r_full = np.full(alpha.K, -np.inf)
    r_full[list(idx)] = np.minimum(r_avg, 0.0)
    pa = PowerAlloc(r_full)
    d = achieved_gdof(alpha, pa)
    return (pa, d, {"residuals": residuals}) if return_info else (pa, d)


def gp_then_assignment(net: PhysicalNetwork, subset=None) -> tuple[PowerAlloc, GdofTuple]:
    """Finite-SNR pipeline: GP power control, map powers to the log-P scale,
    read off the achieved GDoF, then re-solve for the minimal powers that
    achieve exactly that tuple.

    The achieved GDoF is preserved and no link's power increases; links whose
    GP-implied GDoF is at most TOL are switched off (zeroed in the returned
    tuple) by the target rule of ``power.solve_power_potentials``, which
    returns the exact minimal powers of the Kuhn-Munkres labels.
    """
    sol = gp_power_control(net, subset)
    alpha = strength_from_physical(net)
    log_p = math.log(net.reference_power)

    r_gp = np.full(net.K, -np.inf)
    for k in sol.subset:
        r_gp[k] = math.log(sol.powers[k]) / log_p
    d_gp = achieved_gdof(alpha, PowerAlloc(r_gp)).d
    r_min, _ = solve_power_potentials(alpha, d_gp)
    return r_min, GdofTuple(np.where(d_gp > TOL, d_gp, 0.0))
