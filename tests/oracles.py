"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written against a different code path than
the library: scipy linprog for the dual labels and the matching relaxation,
dense grid search for the power optimum, and direct formula evaluation for
achieved GDoF. Tests freeze expected values through these functions instead
of trusting the implementation under test. The per-element loop versions of
the three greedy scheduler passes are the references that their array
versions in the library must match bit for bit, and so are the user-by-user
loop of the decentralized GP, the draw-by-draw drop generator, the
user-by-user assignment matrix and the potentials solve that takes every row
in every round. The per-call polytope and LP builds are
the references for the library's per-network memo of subset bounds, and the
zero-edge test that solves each block's matching up front is the reference
for the condition report's lazy one, and the user-by-user scans of the
strict and relaxed strength conditions are the references for the
condition report's array maxima, verdicts and witnesses bit for bit. The
per-user arrival loop is the reference for the NUM arrivals, and the two
separate drop loops (geometric scenarios and synthetic exponent networks,
each with its own target-to-power step) are the references for the
simulator's single drop pipeline. Those loops run on the references above:
the draw-by-draw drop, strengths built anew per call, the per-link scheduler
loops and the full-round potentials. The pipeline's agreement with the
Kuhn-Munkres solver is checked separately, to a tolerance. The GP solved
through ``scipy.optimize.minimize`` is the reference for the library's own
L-BFGS-B loop over scipy's compiled step, bit for bit. The tie-broken
maximum-weight matching and its cyclic partition check the library's
matching weights against the cyclic form, and the finite-P SINR and the
unclamped GDoF formula are the references for ``achieved_gdof`` and its
log-SINR/log-P limit.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, linprog, minimize

import tinq.optimize
from tinq import ChannelMatrix, GdofTuple, PowerAlloc, TinaPolytope, achieved_gdof
from tinq.exceptions import (
    ConvergenceFailure,
    DivergenceDetected,
    EmptyPolytope,
    ImmediatelyInfeasible,
    Infeasible,
    InfeasibleGdof,
    RegionTooTight,
    ShapeError,
)
from tinq.matching import _lsa_max, max_matching_weight
from tinq.model import (TOL, PhysicalNetwork, check_size, check_subset, realize_network,
                        strength_from_physical)
from tinq.optimize import (
    EXACT_K_MAX,
    Z_FLOOR,
    GpSolution,
    _as_weights,
    gp_power_control,
    max_weighted_gdof_lp,
)
from tinq.power import LabelPair
from tinq.region import C2_MAX_K, SUBSET_MAX, ConditionReport
from tinq.sim import (
    RESAMPLE_CAP,
    SPEED_OF_LIGHT,
    ExperimentResult,
    MetricRow,
    _aggregate,
    _throughput,
)


def lp_dual_labels(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximum-left-label equilibrium of the assignment dual via linprog.

    maximize sum(y_u) subject to y_u_i + y_v_j >= a_ij for i != j,
    y_u_j + y_v_j = a_jj, and y >= 0. Variables are [y_u, y_v].
    """
    n = a.shape[0]
    c = np.concatenate([-np.ones(n), np.zeros(n)])
    rows, rhs = [], []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            row = np.zeros(2 * n)
            row[i] = -1.0
            row[n + j] = -1.0
            rows.append(row)
            rhs.append(-a[i, j])
    a_eq = np.zeros((n, 2 * n))
    b_eq = np.zeros(n)
    for j in range(n):
        a_eq[j, j] = 1.0
        a_eq[j, n + j] = 1.0
        b_eq[j] = a[j, j]
    res = linprog(
        c,
        A_ub=np.array(rows) if rows else None,
        b_ub=np.array(rhs) if rhs else None,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * (2 * n),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"dual oracle LP failed: {res.message}")
    return res.x[:n], res.x[n:]


def assignment_lp_weight(a: np.ndarray) -> float:
    """LP relaxation of the max-weight perfect assignment (Birkhoff polytope:
    row and column sums equal one)."""
    n = a.shape[0]
    c = -a.reshape(-1)
    a_eq = np.zeros((2 * n, n * n))
    for i in range(n):
        a_eq[i, i * n:(i + 1) * n] = 1.0
        a_eq[n + i, i::n] = 1.0
    res = linprog(c, A_eq=a_eq, b_eq=np.ones(2 * n),
                  bounds=[(0, 1)] * (n * n), method="highs")
    if not res.success:
        raise RuntimeError(f"matching relaxation LP failed: {res.message}")
    return float(-res.fun)


def brute_matching_weight(a: np.ndarray) -> float:
    """Max-weight perfect assignment by permutation enumeration (n <= 8)."""
    n = a.shape[0]
    best = -np.inf
    for perm in itertools.permutations(range(n)):
        best = max(best, sum(a[i, perm[i]] for i in range(n)))
    return float(best)


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


def max_weight_matching(alpha: ChannelMatrix, subset) -> Matching:
    """Maximum-weight perfect matching on the subset with cross weights.

    Ties between equally-weighted optima are broken toward the
    lexicographically smallest edge set (scanning transmitters in ascending
    order, each taking the smallest receiver that still permits an optimal
    completion), so results are deterministic.
    """
    idx = check_subset(alpha.K, subset)
    n = len(idx)
    w = alpha.alpha[np.ix_(idx, idx)]
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
    split the subset's maximum matching weight (``max_matching_weight``)
    exactly: w(M*_S) = sum_i w(M*_{S_i}).
    """
    idx = check_subset(alpha.K, subset)
    if sorted(p[0] for p in m.pairs) != list(idx) or sorted(p[1] for p in m.pairs) != list(idx):
        raise ValueError(f"matching does not cover subset {idx} exactly once per side")
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


def unclamped_gdof(alpha: ChannelMatrix, r: PowerAlloc) -> np.ndarray:
    """The raw polyhedral form of the achieved GDoF, user by user:
    d_j = alpha_jj + r_j - max{0, max_{i != j} (alpha_ij + r_i)}, which may
    be negative; ``achieved_gdof`` is this clamped at 0."""
    a, k = alpha.alpha, alpha.K
    return np.array([a[j, j] + r.r[j] - max([0.0] + [a[i, j] + r.r[i]
                                                     for i in range(k) if i != j])
                     for j in range(k)])


def sinr(net: PhysicalNetwork, r: PowerAlloc) -> np.ndarray:
    """Linear SINR at each receiver in the GDoF-normalized model:

        SINR_j = P^{alpha_jj + r_j} / (1 + sum_{i != j} P^{alpha_ij + r_i})

    log_P of this converges to the unclamped achieved GDoF as P grows.
    """
    alpha = strength_from_physical(net)
    p = net.reference_power
    powers = np.power(p, alpha.alpha + r.r[:, None])  # (i, j) received power
    signal = np.diag(powers).copy()
    np.fill_diagonal(powers, 0.0)
    return signal / (1.0 + powers.sum(axis=0))


def gp_grid_best(g: np.ndarray, w: np.ndarray, grid: int = 220) -> float:
    """Grid search over per-link power fractions in [1e-8, 1] maximizing
    sum_i w_i log SINR_i. Only sized for two links."""
    n = g.shape[0]
    assert n == 2
    axis = np.concatenate([[1e-8], np.logspace(-6, 0, grid)])
    # every grid point (p0, p1) as one row
    p = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, n)
    num = np.diag(g) * p
    interference = p @ g - num
    return float(np.max(np.sum(w * np.log(num / (1.0 + interference)), axis=1)))


def random_alpha(rng: np.random.Generator, k: int,
                 diag_lo: float = 0.5, diag_hi: float = 2.5,
                 cross_hi: float = 2.0) -> ChannelMatrix:
    a = rng.uniform(0.0, cross_hi, size=(k, k))
    a[np.diag_indices(k)] = rng.uniform(diag_lo, diag_hi, size=k)
    return ChannelMatrix(np.round(a, 6))


def random_alpha_tied(rng: np.random.Generator, k: int, grid: float | None) -> ChannelMatrix:
    """``random_alpha`` with cross strengths below 1.2, every entry rounded to
    a multiple of ``grid`` when one is given. On a grid, per-user maxima tie
    and zero edges appear; on the 0.1 grid, sums such as 0.1 + 0.2 miss their
    decimal value by an ulp, so verdicts rest on the TOL slack."""
    alpha = random_alpha(rng, k, cross_hi=1.2)
    return alpha if grid is None else ChannelMatrix(np.round(alpha.alpha / grid) * grid)


def assignment_matrix_loop(alpha: ChannelMatrix, d, subset=None):
    """``build_assignment_matrix`` user by user: (A, subset), with the same
    errors. The whole target is checked before any strength: NaN or an entry
    below -TOL, then, in subset order, a user whose target is at most TOL,
    then the first target more than TOL above its direct strength. A target
    within TOL above it gives a zero diagonal entry."""
    dv = d.d if isinstance(d, GdofTuple) else np.asarray(d, dtype=float).reshape(-1)
    if dv.size != alpha.K:
        raise ShapeError(f"d has {dv.size} entries for a {alpha.K}-user network")
    for v in dv:
        if math.isnan(v) or v < -TOL:
            raise ValueError("GDoF targets must be nonnegative")
    if subset is None:
        subset = [k for k in range(alpha.K) if dv[k] > TOL]
    idx = check_subset(alpha.K, subset, allow_empty=True)
    for k in idx:
        if dv[k] <= TOL:
            raise ValueError(
                f"user {k} has target {dv[k]}; zero-GDoF users must be removed first"
            )
    for k in idx:
        if dv[k] > alpha.alpha[k, k] + TOL:
            raise ImmediatelyInfeasible(
                f"target d_{k}={dv[k]} exceeds direct strength {alpha.alpha[k, k]}"
            )
    a = alpha.alpha[np.ix_(idx, idx)].copy()
    for p, k in enumerate(idx):
        a[p, p] = max(alpha.alpha[k, k] - dv[k], 0.0)
    return a, idx


def potentials_full_rounds(alpha: ChannelMatrix, d, subset=None):
    """``solve_power_potentials`` with the inner maximum taken over every
    row in every round. Returns (PowerAlloc, LabelPair)."""
    a, idx = assignment_matrix_loop(alpha, d, subset)
    n = len(idx)
    r_full = np.full(alpha.K, -np.inf)
    if n == 0:
        return PowerAlloc(r_full), LabelPair(np.zeros(0), np.zeros(0))
    base = -np.diag(a)
    cross = a.copy()
    np.fill_diagonal(cross, -np.inf)
    r = base
    for _ in range(n):
        new = base + np.maximum(0.0, (cross + r[:, None]).max(axis=0))
        if np.any(new > TOL):
            break
        if not np.any(new > r + TOL):
            r_full[list(idx)] = new
            return PowerAlloc(r_full), LabelPair(y_u=-new, y_v=new - base)
        r = new
    raise InfeasibleGdof("no feasible power allocation achieves d")


def _loop_order(n: int, priority) -> list:
    return list(range(n)) if priority is None else [int(i) for i in priority]


def itlinq_plus_loop(snr, inr, eta=0.9, gamma=0.1, priority=None):
    """ITLinQ+ pass link by link: (selected, min_in, min_out, messages)."""
    snr = np.asarray(snr, dtype=float)
    inr = np.asarray(inr, dtype=float)
    n = snr.size
    selected, min_in, min_out = [], {}, {}
    for k in _loop_order(n, priority):
        lhs = snr[k] ** eta
        if not all(lhs >= inr[k, j] / min_in[j] ** gamma
                   and lhs >= inr[j, k] / min_out[j] ** gamma for j in selected):
            continue
        min_in[k] = 1.0
        min_out[k] = 1.0
        for j in selected:
            min_in[j] = min(min_in[j], inr[k, j])
            min_out[j] = min(min_out[j], inr[j, k])
            min_in[k] = min(min_in[k], inr[j, k])
            min_out[k] = min(min_out[k], inr[k, j])
        selected.append(k)
    return tuple(selected), min_in, min_out, 2 * n + len(selected)


def itlinq_loop(snr, inr, eta=0.7, m_db=25.0, priority=None) -> tuple:
    """ITLinQ fixed-margin pass link by link: the selected links."""
    snr = np.asarray(snr, dtype=float)
    inr = np.asarray(inr, dtype=float)
    m = 10.0 ** (m_db / 10.0)
    selected = []
    for k in _loop_order(snr.size, priority):
        lhs = m * snr[k] ** eta
        if all(lhs >= inr[k, j] and lhs >= inr[j, k] for j in selected):
            selected.append(k)
    return tuple(selected)


def flashlinq_loop(snr, inr, sir_db=9.0, priority=None) -> tuple:
    """FlashLinQ SIR-threshold pass link by link: the selected links."""
    snr = np.asarray(snr, dtype=float)
    inr = np.asarray(inr, dtype=float)
    theta = 10.0 ** (sir_db / 10.0)
    selected = []
    for k in _loop_order(snr.size, priority):
        if all(snr[k] / inr[k, j] >= theta and snr[j] / inr[j, k] >= theta
               for j in selected):
            selected.append(k)
    return tuple(selected)


def drop_loop(scenario, seed: int):
    """``generate_drop`` one draw at a time: a scalar ``uniform`` for every
    distance and every angle, the candidate receiver as a 2-vector, the
    (n, n, 2) offset array and both log10 branches of the path loss.

    Returns (tx, rx, gains) and raises the same ``RegionTooTight``.
    """
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    n = scenario.n_links
    side = scenario.area_m
    lo, hi = scenario.dist_range_m
    tx = rng.uniform(0.0, side, size=(n, 2))
    rx = np.empty((n, 2))
    for i in range(n):
        dist = rng.uniform(lo, hi)
        for _ in range(RESAMPLE_CAP):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            cand = tx[i] + dist * np.array([math.cos(theta), math.sin(theta)])
            if 0.0 <= cand[0] <= side and 0.0 <= cand[1] <= side:
                rx[i] = cand
                break
        else:
            raise RegionTooTight(
                f"receiver placement failed after {RESAMPLE_CAP} angle draws"
            )

    diff = tx[:, None, :] - rx[None, :, :]
    dist_m = np.maximum(np.hypot(diff[..., 0], diff[..., 1]), 1.0)
    lam = SPEED_OF_LIGHT / scenario.carrier_hz
    h = scenario.antenna_height_m
    r_bp = 4.0 * h * h / lam
    l_bp = abs(20.0 * math.log10(lam * lam / (8.0 * math.pi * h * h)))
    ratio = dist_m / r_bp
    loss_db = l_bp + np.where(ratio <= 1.0,
                              20.0 * np.log10(ratio),
                              40.0 * np.log10(ratio))
    gain_db = 2.0 * scenario.antenna_gain_db - loss_db
    return tx, rx, 10.0 ** (gain_db / 10.0)


def _local_estimate_solve(w_i, gamma_col, lower, upper):
    """Exact minimizer of w_i*max{0, max_j v_j} + sum_j gamma_j v_j over a box,
    by a scan of the breakpoints of the convex piecewise-linear cost."""
    v = lower.copy()
    neg = gamma_col <= 0
    if not np.any(neg):
        return v
    base = 0.0
    if np.any(~neg):
        base = max(base, float(lower[~neg].max()))
    m_lo = max(base, float(lower[neg].max()))
    candidates = [m_lo] + [float(u) for u in upper[neg] if u > m_lo]
    best_m, best_val = None, np.inf
    for m in sorted(set(candidates)):
        caps = np.minimum(upper[neg], m)
        val = w_i * max(base, m, 0.0) + float(gamma_col[neg] @ caps)
        if val < best_val - 1e-15:
            best_val, best_m = val, m
    v[neg] = np.minimum(upper[neg], best_m)
    return v


def dgp_loop(alpha: ChannelMatrix, subset=None, w=None, step=None, iters: int = 5000):
    """``decentralized_gp`` with one local solve per user per iteration.

    Returns (PowerAlloc, GdofTuple, residuals) and raises the same errors.
    """
    if iters < 1:
        raise ValueError(f"need at least one iteration, got {iters}")
    wv = _as_weights(w, alpha.K)
    idx = tuple(k for k in check_subset(alpha.K, subset, allow_empty=True) if wv[k] > 0)
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
        return pa, achieved_gdof(alpha, pa), [0.0]

    off = ~np.eye(n, dtype=bool)
    upper = a.copy()
    lower = a - r_box
    gamma = np.zeros((n, n))

    r = np.zeros(n)
    rp = upper.copy()
    r_avg = np.zeros(n)
    rp_avg = np.zeros((n, n))
    wsum = 0.0
    residuals = []
    grow = 0
    for t in range(1, iters + 1):
        delta = float(step(t))
        for p in range(n):
            others = off[:, p]
            coef = -ww[p] - float(gamma[p, others].sum())
            r[p] = -r_box if coef > 0 else 0.0
            rp[others, p] = _local_estimate_solve(
                ww[p], gamma[others, p], lower[others, p], upper[others, p]
            )
        target = a + r[:, None]
        gamma[off] += delta * (rp[off] - target[off])

        wsum += delta
        r_avg += delta * (r - r_avg) / wsum
        rp_avg += delta * (rp - rp_avg) / wsum
        avg_target = a + r_avg[:, None]
        res = float(np.abs(rp_avg[off] - avg_target[off]).sum())
        residuals.append(res)
        if len(residuals) >= 2 and res > residuals[-2] + 1e-12:
            grow += 1
            if grow >= 100:
                raise DivergenceDetected(
                    f"consistency residual grew for {grow} consecutive steps"
                )
        else:
            grow = 0

    r_full = np.full(alpha.K, -np.inf)
    r_full[list(idx)] = np.minimum(r_avg, 0.0)
    pa = PowerAlloc(r_full)
    return pa, achieved_gdof(alpha, pa), residuals


def tina_polytope_fresh(alpha: ChannelMatrix, subset=None) -> TinaPolytope:
    """``tina_polytope`` with every bound solved again on every call, one
    matching per subset, in (size, lexicographic) order."""
    idx = check_subset(alpha.K, subset)
    check_size("subset table", len(idx), SUBSET_MAX)
    diag = np.diag(alpha.alpha)
    constraints = {}
    for size in range(1, len(idx) + 1):
        for sub in itertools.combinations(idx, size):
            bound = float(diag[list(sub)].sum()) - max_matching_weight(alpha, sub)
            constraints[frozenset(sub)] = bound
    return TinaPolytope(K=alpha.K, subset=idx, constraints=constraints)


def subset_has_zero_edge_optimum_eager(a, ap, sub) -> bool:
    """``region._subset_has_zero_edge_optimum`` with the block's optimum
    solved before any zero edge is looked for."""
    sub = list(sub)
    w_star = _lsa_max(ap[np.ix_(sub, sub)])
    for i in sub:
        for j in sub:
            if a[i, j] > TOL:
                continue
            rows = [r for r in sub if r != i]
            cols = [c for c in sub if c != j]
            if _lsa_max(ap[np.ix_(rows, cols)]) >= w_star - TOL:
                return True
    return False


def check_conditions_loop(alpha: ChannelMatrix, c2_max_k: int = C2_MAX_K) -> ConditionReport:
    """``check_conditions`` with each user's GNAJ maxima taken by ``max`` over
    its partners and its C1 pair by a strict ``>`` scan of every (i, j) in
    row-major order, and the zero-edge blocks tested eagerly."""
    K = alpha.K
    a = alpha.alpha
    ap = alpha.alpha_prime()

    gnaj, c1 = [], []
    gnaj_w, c1_w = {}, {}
    for k in range(K):
        others = [i for i in range(K) if i != k]
        if not others:
            gnaj.append(True)
            c1.append(True)
            continue
        i_in = max(others, key=lambda i: a[i, k])
        j_out = max(others, key=lambda j: a[k, j])
        ok_gnaj = a[k, k] >= a[i_in, k] + a[k, j_out] - TOL
        gnaj.append(bool(ok_gnaj))
        if not ok_gnaj:
            gnaj_w[k] = (i_in, j_out)

        best_val, best_pair = -np.inf, None
        for i in others:
            for j in others:
                val = a[i, k] + a[k, j] - ap[i, j]
                if val > best_val:
                    best_val, best_pair = val, (i, j)
        ok_c1 = a[k, k] >= best_val - TOL
        c1.append(bool(ok_c1))
        if not ok_c1:
            c1_w[k] = best_pair

    c2: bool | None
    c2_witness = None
    if K > c2_max_k:
        c2 = None
    else:
        c2 = True
        for size in range(3, K + 1):
            for sub in itertools.combinations(range(K), size):
                if not subset_has_zero_edge_optimum_eager(a, ap, sub):
                    c2, c2_witness = False, sub
                    break
            if c2_witness:
                break
    return ConditionReport(
        gnaj=tuple(gnaj), c1=tuple(c1), c2=c2,
        gnaj_witnesses=gnaj_w, c1_witnesses=c1_w,
        c2_witness=c2_witness,
    )


def itis_plus_check_loop(alpha: ChannelMatrix, subset) -> bool:
    """The relaxed independent-set test on a subnetwork: C1 for every user
    of the subnetwork, through ``check_conditions_loop`` on a new
    ``ChannelMatrix`` of its block."""
    idx = check_subset(alpha.K, subset)
    sub = ChannelMatrix(alpha.alpha[np.ix_(idx, idx)])
    return all(check_conditions_loop(sub, c2_max_k=0).c1)


def polytope_lp_fresh(alpha: ChannelMatrix, subset=None, w=None):
    """``max_weighted_gdof_lp`` on a fresh polytope with its rows built one
    constraint at a time on every call. A single user takes the library's
    closed form, so every linprog call of the two sides can be compared."""
    wv = _as_weights(w, alpha.K)
    idx = tuple(k for k in check_subset(alpha.K, subset, allow_empty=True) if wv[k] > 0)
    if len(idx) == 0:
        return GdofTuple(np.zeros(alpha.K)), 0.0
    if len(idx) == 1:
        # the library's closed form, checked against linprog on its own
        d = np.zeros(alpha.K)
        d[idx[0]] = alpha.alpha[idx[0], idx[0]]
        return GdofTuple(d), float(wv[idx[0]] * d[idx[0]])

    poly = tina_polytope_fresh(alpha, idx)  # raises past the subset-table cap
    pos = {k: p for p, k in enumerate(idx)}
    rows, bounds = [], []
    for users, bound in poly.constraints.items():
        row = np.zeros(len(idx))
        for u in users:
            row[pos[u]] = 1.0
        rows.append(row)
        bounds.append(bound)
    if min(bounds) < 0:
        raise EmptyPolytope(
            f"subset {idx} has a negative sum bound {min(bounds):.6g}"
        )
    res = linprog(
        c=-wv[list(idx)],
        A_ub=np.array(rows), b_ub=np.array(bounds),
        bounds=[(0, None)] * len(idx),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"LP solve failed: {res.message}")
    d = np.zeros(alpha.K)
    d[list(idx)] = np.maximum(res.x, 0.0)
    return GdofTuple(d), float(-res.fun)


def exact_fresh(alpha: ChannelMatrix, w=None):
    """``max_weighted_gdof_exact`` over ``polytope_lp_fresh``."""
    wv = _as_weights(w, alpha.K)
    check_size("exact search", alpha.K, EXACT_K_MAX)
    support = [k for k in range(alpha.K) if wv[k] > 0]
    best = (GdofTuple(np.zeros(alpha.K)), (), 0.0)
    for size in range(1, len(support) + 1):
        for sub in itertools.combinations(support, size):
            try:
                d, obj = polytope_lp_fresh(alpha, sub, wv)
            except EmptyPolytope:
                continue
            if obj > best[2] + 1e-12:
                best = (d, sub, obj)
    return best


def gp_power_control_minimize(net, subset=None, w=None) -> GpSolution:
    """``gp_power_control`` solved by ``scipy.optimize.minimize``'s L-BFGS-B,
    with the same objective, restarts and failure test. Reads GP_MAX_ITER
    from ``tinq.optimize`` on every call, so a patched cap applies to both."""
    wv = _as_weights(w, net.K)
    idx = tuple(k for k in check_subset(net.K, subset, allow_empty=True) if wv[k] > 0)
    if len(idx) == 0:
        raise ShapeError("no positively weighted users in subset")
    g = net.nominal_snr()[np.ix_(idx, idx)]
    if np.any(np.diag(g) <= 0):
        raise ShapeError("direct gains must be positive on the solved subset")
    n = len(idx)
    ww = wv[list(idx)]
    cross = g.copy()
    np.fill_diagonal(cross, 0.0)
    log_gdiag = np.log(np.diag(g))

    def objective(z):
        x = np.exp(z)
        interference = cross.T @ x
        f = float(np.sum(ww * (np.log1p(interference) - log_gdiag - z)))
        denom = 1.0 + interference
        grad = -ww + x * (cross @ (ww / denom))
        return f, grad

    box = Bounds(np.full(n, Z_FLOOR), np.zeros(n))
    res = None
    for z0, ftol in ((np.zeros(n), 1e-15), (np.full(n, -2.0), 1e-15),
                     (np.zeros(n), 1e-12)):
        cand = minimize(
            objective, z0, jac=True, method="L-BFGS-B",
            bounds=box,
            options={"maxiter": tinq.optimize.GP_MAX_ITER, "ftol": ftol, "gtol": 1e-10},
        )
        if res is None or cand.fun < res.fun:
            res = cand
        if cand.success:
            res = cand
            break
    if not res.success and np.max(np.abs(res.jac)) > 1e-5:
        raise ConvergenceFailure(
            f"geometric-program solve did not converge: {res.message}",
            last_iterate=np.exp(res.x),
        )

    x = np.exp(res.x)
    interference = cross.T @ x
    sinr_sub = np.diag(g) * x / (1.0 + interference)
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


def gp_gdof_equivalence_gap(net, subset=None, w=None) -> float:
    """|GP objective on the log-P scale - LP optimum|.

    The GP value sum w_i log(SINR_i)/log(P) matches the polytope LP optimum up
    to sum w_i log|subset|/log P, shrinking as the reference power grows.
    """
    wv = _as_weights(w, net.K)
    alpha = strength_from_physical(net)
    _, lp_obj = max_weighted_gdof_lp(alpha, subset, wv)
    sol = gp_power_control(net, subset, wv)
    idx = list(sol.subset)
    log_p = math.log(net.reference_power)
    gp_obj = float(np.sum(wv[idx] * np.log(sol.sinr[idx]))) / log_p
    return abs(gp_obj - lp_obj)


def arrivals_loop(state) -> np.ndarray:
    """NUM arrivals user by user: the cap for a zero weight, else the
    closed-form maximizer of v*U(a) - w*a over [0, a_max]."""
    w, v, cap, f = state.weights, state.v, state.a_max, state.fairness
    a = np.empty_like(w)
    for k, wk in enumerate(w):
        if wk == 0:
            a[k] = cap
        elif f == 0:
            a[k] = cap if v >= wk else 0.0
        elif f == 1:
            a[k] = min(max(v / wk, 0.0), cap)
        else:
            a[k] = min(max((v / wk) ** (1.0 / f), 0.0), cap)
    return a


def strength_fresh(net) -> ChannelMatrix:
    """``strength_from_physical`` built anew on every call."""
    snr = np.maximum(1.0, net.nominal_snr())
    return ChannelMatrix(np.log(snr) / math.log(net.reference_power))


def gp_then_assignment_loop(net, subset):
    """GP power control, then the minimal powers for its achieved GDoF,
    with the target built user by user; returns the PowerAlloc."""
    sol = gp_power_control(net, subset)
    alpha = strength_fresh(net)
    log_p = math.log(net.reference_power)
    r_gp = np.full(net.K, -np.inf)
    for k in sol.subset:
        r_gp[k] = math.log(sol.powers[k]) / log_p
    d_gp = achieved_gdof(alpha, PowerAlloc(r_gp))
    active = tuple(k for k in sol.subset if d_gp.d[k] > TOL)
    d_target = np.zeros(net.K)
    for k in active:
        d_target[k] = d_gp.d[k]
    if not active:
        return PowerAlloc(np.full(net.K, -np.inf))
    r_min, _ = potentials_full_rounds(alpha, d_target, subset=active)
    return r_min


def allocate_loop(net, alpha, selected, power_mode):
    """Linear power fractions of one power mode, each mode with its own
    exponent-to-fraction step."""
    frac = np.zeros(net.K)
    if not selected:
        return frac
    if power_mode == "full":
        frac[list(selected)] = 1.0
        return frac
    if power_mode == "gp":
        return gp_power_control(net, subset=selected).powers
    if power_mode == "gp+assignment":
        r = gp_then_assignment_loop(net, selected)
        live = np.isfinite(r.r)
        frac[live] = net.reference_power ** r.r[live]
        return frac
    if power_mode == "lp+assignment":
        d, _ = max_weighted_gdof_lp(alpha, selected)
        target = np.minimum(d.d, np.diag(alpha.alpha))
        live = tuple(k for k in selected if target[k] > TOL)
        if not live:
            return frac
        r, _ = potentials_full_rounds(alpha, np.where(target > TOL, target, 0.0),
                                      subset=live)
        fin = np.isfinite(r.r)
        frac[fin] = net.reference_power ** r.r[fin]
        return frac
    raise ValueError(f"unknown power mode {power_mode!r}")


DROP_VERDICTS = (Infeasible, RegionTooTight, ConvergenceFailure)


def _drop_seed(master_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([int(master_seed), index]).generate_state(1)[0])


def select_loop(scheme: str, snr, inr) -> tuple:
    """The links one scheme selects, by its per-link loop."""
    if scheme == "none":
        return tuple(range(len(snr)))
    if scheme == "flashlinq":
        return flashlinq_loop(snr, inr)
    if scheme == "itlinq":
        return itlinq_loop(snr, inr)
    if scheme == "itlinq+":
        return itlinq_plus_loop(snr, inr)[0]
    raise ValueError(f"unknown scheme {scheme!r}")


def experiment_loop(scenario, schemes, n_drops: int, master_seed: int,
                    power_mode: str = "full") -> ExperimentResult:
    """``run_experiment`` serially, drop by drop and scheme by scheme, on
    the draw-by-draw drop and the per-link scheduler loops."""
    rows, excluded = [], 0
    for index in range(n_drops):
        seed = _drop_seed(master_seed, index)
        try:
            _, _, gains = drop_loop(scenario, seed)
            p_mw = 10.0 ** (scenario.tx_power_dbm / 10.0)
            noise_mw = 10.0 ** (scenario.noise_dbm / 10.0)
            net = PhysicalNetwork(gains, np.full(scenario.n_links, p_mw), noise_mw,
                                  float(np.max(np.diag(gains)) * p_mw / noise_mw))
            alpha = strength_fresh(net)
            snr_tab = net.nominal_snr()
            snr = np.diag(snr_tab).copy()
            drop_rows = []
            for scheme in schemes:
                selected = select_loop(scheme, snr, snr_tab)
                frac = allocate_loop(net, alpha, selected, power_mode)
                tput, active = _throughput(net, frac)
                power_w = float(frac @ net.max_tx_power) / 1000.0  # caps are mW
                energy = tput * scenario.bandwidth_hz / power_w if power_w > 0 else 0.0
                drop_rows.append(MetricRow(scheme, power_mode, scenario.n_links, seed,
                                           tput, energy, active))
        except DROP_VERDICTS:
            excluded += 1
            continue
        rows.extend(drop_rows)
    return ExperimentResult(rows, _aggregate(rows), n_drops, excluded)


def synthetic_loop(n_links: int, n_drops: int, master_seed: int, snr_db: float,
                   modes=("full", "gp", "gp+assignment")) -> ExperimentResult:
    """``run_synthetic_experiment`` drop by drop, every mode allocated before
    any throughput is evaluated."""
    p_ref = 10.0 ** (snr_db / 10.0)
    rows, excluded = [], 0
    fractions = {m: [] for m in modes}
    for index in range(n_drops):
        seed = _drop_seed(master_seed, index)
        rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
        a = rng.uniform(0.0, 1.0, size=(n_links, n_links))
        np.fill_diagonal(a, rng.uniform(1.0, 2.0, size=n_links))
        alpha = ChannelMatrix(a)
        net = realize_network(alpha, p_ref)
        selected = tuple(range(n_links))
        try:
            per_mode = {m: allocate_loop(net, alpha, selected, m) for m in modes}
        except DROP_VERDICTS:
            excluded += 1
            continue
        for m in modes:
            frac = per_mode[m]
            tput, active = _throughput(net, frac)
            power = float(frac.sum())  # unit caps
            energy = tput / power if power > 0 else 0.0
            rows.append(MetricRow("none", m, n_links, seed, tput, energy, active))
            fractions[m].append(frac)
    return ExperimentResult(rows, _aggregate(rows), n_drops, excluded, fractions)
