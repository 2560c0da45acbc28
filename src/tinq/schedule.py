"""Distributed link scheduling and the utility-maximizing outer loop.

Three greedy priority-pass schedulers (an SIR-threshold baseline, a margin
test on signal and interference levels, and the refined variant that
normalizes by running per-link minimum interference) and a drift-plus-penalty
loop that alternates weighted sum-GDoF solves with closed-form virtual
arrivals.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .exceptions import ShapeError
from .model import (TOL, ChannelMatrix, GdofTuple, check_reference_power, check_setting,
                    db_setting, realize_network)
from .optimize import _weighted_users, max_weighted_gdof_exact, max_weighted_gdof_lp

__all__ = [
    "ScheduleResult",
    "NumState",
    "NumTrajectory",
    "itlinq_plus_schedule",
    "itlinq_schedule",
    "flashlinq_schedule",
    "num_step",
    "num_run",
]


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of one greedy pass: selected link indices in admission order,
    the per-link running minimum interference tables (into the link's
    receiver / caused by its transmitter; empty for schedulers that keep no
    tables), and a message tally (two pilot rounds plus one table broadcast
    per admission)."""

    selected: tuple
    min_in: dict
    min_out: dict
    messages: int


def _validate_levels(snr, inr):
    snr = np.asarray(snr, dtype=float).reshape(-1)
    inr = np.asarray(inr, dtype=float)
    n = snr.size
    if inr.shape != (n, n):
        raise ShapeError(f"interference table {inr.shape} does not match {n} links")
    if np.any(snr <= 0) or not np.all(np.isfinite(snr)):
        raise ShapeError("link SNRs must be positive and finite")
    # NaN fails both comparisons; the diagonal is not checked
    valid = (inr > 0) & (inr < np.inf)
    np.fill_diagonal(valid, True)
    if not valid.all():
        raise ShapeError("cross INRs must be positive and finite")
    return snr, inr, n


def itlinq_plus_schedule(snr, inr, eta: float = 0.9, gamma: float = 0.1,
                         priority=None) -> ScheduleResult:
    """Greedy priority pass with running minimum-interference normalization.

    Candidate k is admitted iff, against every already-selected link j,

        snr[k]**eta >= inr[k, j] / min_in[j]**gamma   (caused interference)
        snr[k]**eta >= inr[j, k] / min_out[j]**gamma  (received interference)

    where min_in[j] / min_out[j] track the smallest cross interference into
    j's receiver / caused by j's transmitter among selected links, start at 1,
    and are re-broadcast after every admission. Both exponents lie in [0, 1].

    The tables are kept by admission position p, and each admission copies
    its link's column and row of ``inr`` into slab p of a position-major
    n x 2 x n buffer, so a candidate's test is one quotient of its own
    column of the admitted slabs by the tables. Only the slabs of admitted
    positions are ever written. Each quotient, comparison and minimum is the
    same float operation as in the per-link loop, so the selections and
    tables are bitwise the loop's.
    """
    eta, gamma = check_setting("eta", eta, 0.0, 1.0), check_setting("gamma", gamma, 0.0, 1.0)
    snr, inr, n = _validate_levels(snr, inr)
    # levels[p, 0, k] = inr[k, s_p]: k at the p-th selected link's receiver;
    # levels[p, 1, k] = inr[s_p, k]: that link's transmitter at k
    levels = np.empty((n, 2, n))
    # mins[:, 0] / mins[:, 1]: min_in / min_out by position; g holds
    # mins**gamma, raised one scalar at a time whenever a minimum drops:
    # numpy's array power may differ from the scalar one in the last bit
    mins, g = np.ones((n, 2)), np.ones((n, 2))

    def admits(k, m):
        return bool((snr[k] ** eta >= levels[:m, :, k] / g[:m]).all())

    def admit(k, m):
        new = levels[:m, :, k]
        drop = new < mins[:m]
        lower = new[drop]
        mins[:m][drop] = lower
        g[:m][drop] = [v ** gamma for v in lower]
        # min_in of k is the least level at k, min_out the least k causes
        mins[m] = new.min(axis=0, initial=1.0)[::-1]
        g[m] = [v ** gamma for v in mins[m]]
        levels[m, 0] = inr[:, k]
        levels[m, 1] = inr[k]

    res = _greedy_pass(n, priority, admits, admit)
    return dataclasses.replace(
        res, min_in={k: float(v) for k, v in zip(res.selected, mins[:, 0])},
        min_out={k: float(v) for k, v in zip(res.selected, mins[:, 1])})


def _greedy_pass(n: int, priority, admits, admit) -> ScheduleResult:
    """Admit links in priority order (None = index order): the first one
    outright, each later candidate k iff ``admits(k, m)`` against the m links
    admitted so far. ``admit(k, m)`` records k as admission m in the scheme's
    running state."""
    order = range(n) if priority is None else [int(i) for i in priority]
    if sorted(order) != list(range(n)):
        raise ShapeError("priority must be a permutation of all links")
    sel = []
    for k in order:
        if not sel or admits(k, len(sel)):
            admit(k, len(sel))
            sel.append(k)
    return ScheduleResult(tuple(sel), {}, {}, 2 * n + len(sel))


def itlinq_schedule(snr, inr, eta: float = 0.7, m_db: float = 25.0,
                    priority=None) -> ScheduleResult:
    """Greedy priority pass with a fixed-margin level test: candidate k is
    admitted iff m * snr[k]**eta covers both cross interference levels
    against every already-selected link.

    worst[k] keeps the largest of inr[k, j] and inr[j, k] over the admitted
    links j, raised once per admission. Covering every level is covering
    their maximum, and a maximum of floats is exact, so the single
    comparison decides as the per-link tests do.
    """
    eta, m_db = check_setting("eta", eta), check_setting("m_db", m_db)
    snr, inr, n = _validate_levels(snr, inr)
    m = db_setting("m_db", m_db)
    worst = np.full(n, -np.inf)

    def admit(k, _):
        # the unvalidated diagonal entry only reaches the admitted link k
        np.maximum(worst, inr[:, k], out=worst)
        np.maximum(worst, inr[k], out=worst)

    # a bar that overflows is +inf, its correctly rounded value, and admits
    with np.errstate(over="ignore"):
        return _greedy_pass(n, priority, lambda k, _: bool(m * snr[k] ** eta >= worst[k]),
                            admit)


def flashlinq_schedule(snr, inr, sir_db: float = 9.0, priority=None) -> ScheduleResult:
    """Greedy priority pass admitting a candidate iff both signal-to-single-
    interference ratios against every already-selected link clear the
    threshold: snr[k]/inr[k, j] and snr[j]/inr[j, k].

    ok[k] holds whether k clears both ratios against every admitted link,
    and each admission j ands in its column and row of ratios: the same
    quotients and comparisons as the per-link tests.
    """
    sir_db = check_setting("sir_db", sir_db)
    snr, inr, n = _validate_levels(snr, inr)
    theta = db_setting("sir_db", sir_db)
    ok = np.ones(n, dtype=bool)

    def admit(k, _):
        clear = (snr / inr[:, k] >= theta) & (snr[k] / inr[k] >= theta)
        np.logical_and(ok, clear, out=ok)

    # the unvalidated diagonal entry (0 or NaN) only reaches the admitted
    # link, so its divide warnings carry nothing
    with np.errstate(divide="ignore", invalid="ignore"):
        return _greedy_pass(n, priority, lambda k, _: bool(ok[k]), admit)


# Each scheme's pass by the name that simulations and the CLI give it. The
# pass is looked up when it runs, so a rebinding of the module's function (as
# perfbench's tracing makes) reaches every caller.
_PASSES = {"flashlinq": "flashlinq_schedule", "itlinq": "itlinq_schedule",
           "itlinq+": "itlinq_plus_schedule"}


def _run_pass(scheme: str, snr, inr, **kwargs) -> ScheduleResult:
    return globals()[_PASSES[scheme]](snr, inr, **kwargs)


@dataclass(frozen=True)
class NumState:
    """Drift-plus-penalty state: per-user virtual queue weights, the utility
    control parameter v, the arrival cap, the fairness exponent of the
    utility family (0 = linear, 1 = logarithmic)."""

    weights: np.ndarray
    v: float
    a_max: float
    fairness: float = 1.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1).copy()
        _weighted_users(w.size, None, w)  # the solvers' weight check
        check_setting("v", self.v, 0.0, open_lo=True)
        check_setting("a_max", self.a_max, 0.0, open_lo=True)
        check_setting("fairness", self.fairness, 0.0)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def K(self) -> int:
        return self.weights.size


def _arrivals(state: NumState) -> np.ndarray:
    """Closed-form maximizer of v*U(a) - w.a over [0, a_max]^K for the
    fairness family U(a) = sum a^(1-f)/(1-f) (f=1: log, f=0: linear)."""
    w, v, cap, f = state.weights, state.v, state.a_max, state.fairness
    a = np.full_like(w, cap)  # a zero weight admits the cap
    pos = w > 0
    # an overflowing v / w or power is +inf, its correctly rounded value,
    # and the cap binds
    with np.errstate(over="ignore"):
        if f == 0:
            a[pos] = np.where(v >= w[pos], cap, 0.0)
        elif f == 1:
            a[pos] = np.minimum(v / w[pos], cap)
        else:
            # one scalar power per user: numpy's array power may differ from
            # the scalar one in the last bit
            a[pos] = np.minimum([x ** (1.0 / f) for x in v / w[pos]], cap)
    return a


def utility_value(d, fairness: float) -> float:
    """Fairness-family utility of a GDoF vector (log(0) yields -inf, and so
    does a power d**(1 - fairness) that overflows to +inf, its correctly
    rounded value)."""
    d = np.asarray(d, dtype=float)
    if fairness == 0:
        return float(d.sum())
    with np.errstate(divide="ignore", over="ignore"):
        if fairness == 1:
            return float(np.sum(np.log(d)))
        if fairness > 1 and np.any(d == 0):
            return -np.inf
        return float(np.sum(d ** (1.0 - fairness)) / (1.0 - fairness))


def _solve_service(alpha: ChannelMatrix, w: np.ndarray, solver: str,
                   ref_power: float) -> np.ndarray:
    # The update max(0, w - d + a) can leave float residue where the true
    # backlog is zero; residue-scale weights also lose solver tie-breaks
    # against the zero point, so snap them before testing for idleness.
    w = np.where(w > TOL, w, 0.0)
    if not np.any(w > 0):
        # Zero backlog everywhere makes every feasible point optimal for the
        # weighted sum, so break the tie toward the uniform-weight optimum
        # instead of idling (K = 1 then serves alpha_11 every slot).
        w = np.ones(alpha.K)
    if solver == "exact":
        d, _, _ = max_weighted_gdof_exact(alpha, w)
        return d.d
    if solver == "lp":
        d, _ = max_weighted_gdof_lp(alpha, None, w)
        return d.d
    if solver == "itlinq+":
        # Candidates are positively weighted links in descending-weight order;
        # levels realized at the reference power.
        cand = sorted(_weighted_users(alpha.K, None, w)[0], key=lambda k: (-w[k], k))
        block = ChannelMatrix(alpha.alpha[np.ix_(cand, cand)])
        levels = realize_network(block, ref_power).nominal_snr()
        res = itlinq_plus_schedule(np.diag(levels), levels)
        chosen = tuple(cand[i] for i in res.selected)
        d, _ = max_weighted_gdof_lp(alpha, chosen, w)
        return d.d
    raise ValueError(f"unknown solver {solver!r}")


def num_step(state: NumState, alpha: ChannelMatrix, solver: str = "exact",
             ref_power: float = 1e6) -> tuple[GdofTuple, np.ndarray, NumState]:
    """One slot: serve the weighted sum-GDoF optimum, admit the closed-form
    arrivals, and update each weight by max(0, w - service + arrival).
    ``ref_power`` must be finite and above 1 for every solver, not only for
    itlinq+, which realizes the levels at it."""
    if alpha.K != state.K:
        raise ShapeError(f"state has {state.K} users, network has {alpha.K}")
    check_reference_power(ref_power)
    d_star = _solve_service(alpha, state.weights, solver, ref_power)
    a_star = _arrivals(state)
    new_w = np.maximum(0.0, state.weights - d_star + a_star)
    new_state = dataclasses.replace(state, weights=new_w)
    return GdofTuple(d_star), a_star, new_state


@dataclass(frozen=True)
class NumTrajectory:
    """Per-slot services, the running time-averaged GDoF after each slot, the
    utility of each running average, and the final weights."""

    d_star: np.ndarray
    avg_d: np.ndarray
    utility: np.ndarray
    final_weights: np.ndarray

    @property
    def final_avg_d(self) -> np.ndarray:
        return self.avg_d[-1]

    @property
    def final_utility(self) -> float:
        return float(self.utility[-1])


def num_run(alpha: ChannelMatrix, fairness: float = 1.0, v: float = 10.0,
            a_max: float = 1.0, t_slots: int = 1000, solver: str = "exact",
            ref_power: float = 1e6) -> NumTrajectory:
    """Run the drift-plus-penalty loop for t_slots from unit weights."""
    check_setting("t_slots", t_slots, 1)
    state = NumState(np.ones(alpha.K), v=v, a_max=a_max, fairness=fairness)
    ds = np.zeros((t_slots, alpha.K))
    avg = np.zeros((t_slots, alpha.K))
    util = np.zeros(t_slots)
    running = np.zeros(alpha.K)
    for t in range(t_slots):
        d, _, state = num_step(state, alpha, solver, ref_power)
        ds[t] = d.d
        running += (d.d - running) / (t + 1)
        avg[t] = running
        util[t] = utility_value(running, fairness)
    return NumTrajectory(ds, avg, util, state.weights.copy())
