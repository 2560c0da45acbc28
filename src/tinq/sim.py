"""Device-to-device network simulation.

Square-area link drops with dual-slope line-of-sight path loss, scheduler and
power-control comparisons over many drops, and deterministic CSV output. All
randomness flows from a master seed through per-drop seed splits, so any drop
can be regenerated in isolation and runs are byte-identical.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
import os
from dataclasses import astuple, dataclass, field, fields
from functools import partial

import numpy as np

from .exceptions import (ConvergenceFailure, DomainError, Infeasible, RegionTooTight,
                         ShapeError)
from .model import (ChannelMatrix, PhysicalNetwork, _handed_over, check_size, db_setting,
                    is_finite_real, realize_network, strength_from_physical)
from .optimize import gp_power_control, gp_then_assignment, max_weighted_gdof_lp
from .power import solve_power_potentials
from .schedule import _PASSES, _run_pass

__all__ = [
    "Scenario",
    "DropRecord",
    "MetricRow",
    "Aggregate",
    "ExperimentResult",
    "scenario1",
    "scenario2",
    "pathloss_itu1411_los",
    "generate_drop",
    "run_experiment",
    "run_synthetic_experiment",
    "write_rows_csv",
]

SPEED_OF_LIGHT = 299792458.0
RESAMPLE_CAP = 10_000
LINKS_MAX = 2048  # links per drop: one n x n float64 table takes 33.6 MB at the cap
SCHEMES = ("none", *_PASSES)
POWER_MODES = ("full", "gp", "gp+assignment", "lp+assignment")
SYNTHETIC_MODES = ("full", "gp", "gp+assignment")


@dataclass(frozen=True)
class Scenario:
    """Drop geometry and radio parameters for one simulated deployment.

    Every field is checked on construction, so a malformed scenario raises
    ShapeError naming its field: n_links is an integer, dist_range_m a
    (min, max) pair (a list is stored as a tuple) and every other field a
    finite real. More than LINKS_MAX links raise SubsetTooLarge."""

    area_m: float
    n_links: int
    dist_range_m: tuple
    bandwidth_hz: float
    tx_power_dbm: float
    noise_psd_dbm_hz: float = -174.0
    antenna_height_m: float = 1.5
    antenna_gain_db: float = -2.5
    noise_figure_db: float = 7.0
    carrier_hz: float = 2.4e9

    def __post_init__(self):
        pair = self.dist_range_m
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                and all(map(is_finite_real, pair))):
            raise ShapeError(f"scenario field dist_range_m must be a [min, max] pair "
                             f"of finite numbers, got {pair!r}")
        object.__setattr__(self, "dist_range_m", tuple(pair))
        if isinstance(self.n_links, bool) or not isinstance(self.n_links, numbers.Integral):
            raise ShapeError(f"scenario field n_links must be an integer, got {self.n_links!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in ("n_links", "dist_range_m") and not is_finite_real(value):
                raise ShapeError(f"scenario field {f.name} must be a finite number, "
                                 f"got {value!r}")
        lo, hi = self.dist_range_m
        if not (self.area_m > 0 and self.n_links >= 1 and 0 < lo <= hi):
            raise ShapeError("area, link count, and distance range must be positive")
        check_size("drop", self.n_links, LINKS_MAX)
        if hi >= self.area_m:
            raise ShapeError("max pair distance must be below the area side")
        if not (self.bandwidth_hz > 0 and self.carrier_hz > 0
                and self.antenna_height_m > 0):
            raise ShapeError("bandwidth, carrier, and antenna height must be positive")

    @property
    def noise_dbm(self) -> float:
        return (self.noise_psd_dbm_hz + 10.0 * math.log10(self.bandwidth_hz)
                + self.noise_figure_db)


def scenario1(n_links: int) -> Scenario:
    """1 km square, 5 MHz, pair distance [5, 30] m, 20 dBm caps."""
    return Scenario(1000.0, n_links, (5.0, 30.0), 5e6, 20.0)


def scenario2(n_links: int) -> Scenario:
    """1 km square, 10 MHz, pair distance [10, 60] m, 30 dBm caps."""
    return Scenario(1000.0, n_links, (10.0, 60.0), 10e6, 30.0)


@dataclass(frozen=True)
class DropRecord:
    """One realized drop: device coordinates (m), the physical network, and
    the seed that regenerates it."""

    tx: np.ndarray
    rx: np.ndarray
    net: PhysicalNetwork
    seed: int


@dataclass(frozen=True)
class MetricRow:
    scheme: str
    power_mode: str
    n_links: int
    drop_seed: int
    sum_tput_bps_hz: float
    energy_bits_per_joule: float
    active_links: int


@dataclass(frozen=True)
class Aggregate:
    """Per (scheme, power mode) summary over drops: means with 95% normal
    confidence half-widths. The field names are the keys `tinq simulate`
    prints for each aggregate, in its order."""

    scheme: str
    power_mode: str
    n: int
    mean_tput_bps_hz: float
    ci95_tput: float
    mean_energy_bits_per_joule: float
    ci95_energy: float
    mean_active_links: float


@dataclass(frozen=True)
class ExperimentResult:
    """Per-drop metric rows, their per (scheme, power mode) aggregates, the
    drop count, the drops excluded because a solver gave a typed verdict, and
    (synthetic runs only) the per-drop linear power fractions of every mode."""

    rows: list
    aggregates: list
    n_drops: int
    excluded: int
    fractions: dict = field(default_factory=dict)

    @property
    def valid(self) -> bool:
        """Aggregates are trustworthy only if at most 1% of drops failed."""
        return self.excluded <= 0.01 * self.n_drops


def pathloss_itu1411_los(distance_m, carrier_hz: float, h_m: float):
    """Dual-slope line-of-sight path loss (dB): 20 dB/decade up to the
    breakpoint 4 h^2 / lambda, 40 dB/decade beyond, continuous at the knee.

    A scalar distance gives a float; an array gives a new array of its
    shape, and the argument is left as it is. A distance that is not
    positive (NaN included), or a carrier or antenna height that is not
    finite and positive, raises DomainError."""
    d = np.asarray(distance_m, dtype=float)
    if not np.all(d > 0):
        raise DomainError("distances must be positive")
    for name, value in (("carrier_hz", carrier_hz), ("h_m", h_m)):
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be finite and positive, got {value}")
    lam = SPEED_OF_LIGHT / carrier_hz
    r_bp = 4.0 * h_m * h_m / lam
    l_bp = abs(20.0 * math.log10(lam * lam / (8.0 * math.pi * h_m * h_m)))
    loss = np.divide(d, r_bp, out=np.empty(d.shape))  # d / r_bp, an array even for a scalar
    near = loss <= 1.0
    np.log10(loss, out=loss)
    np.multiply(loss, 20.0, out=loss, where=near)
    np.multiply(loss, 40.0, out=loss, where=~near)
    loss += l_bp
    return float(loss) if np.isscalar(distance_m) else loss


def _place_receivers(rng: np.random.Generator, tx: np.ndarray, side: float,
                     lo: float, hi: float) -> np.ndarray:
    """Receiver coordinates from the stream walk of ``generate_drop``, one
    link at a time: the distance at the next stream position, then the
    angles after it, in stream order, until one lands inside.

    Stream position p holds one raw draw u of ``rng.random``, read as the
    distance lo + (hi - lo) u or the angle 2 pi u. These are the operations
    of numpy's ``uniform(lo, hi)`` and ``uniform(0, 2 pi)`` on the same
    draw, so every value is the one a draw-by-draw walk would get.
    """
    def stream(size: int):
        while True:  # blocks of raw draws, doubling
            yield from rng.random(size).tolist()
            size *= 2

    draws = stream(2 * len(tx))
    lo, span, turn = float(lo), float(hi) - float(lo), 2.0 * math.pi
    rx = []
    for x0, y0 in tx.tolist():
        d = lo + span * next(draws)
        for u in itertools.islice(draws, RESAMPLE_CAP):
            theta = turn * u
            x, y = x0 + d * math.cos(theta), y0 + d * math.sin(theta)
            if 0.0 <= x <= side and 0.0 <= y <= side:
                rx.append((x, y))
                break
        else:
            raise RegionTooTight(f"receiver placement failed after {RESAMPLE_CAP} angle draws")
    return np.array(rx)


def generate_drop(scenario: Scenario, seed: int) -> DropRecord:
    """Drop transmitters uniformly in the square; place each receiver at a
    uniform distance from its transmitter along a uniform angle, resampling
    the angle only (the distance marginal stays exactly uniform) until the
    receiver lands inside the area.

    Stream contract: the seed's generator draws the n x 2 transmitter
    coordinates, then per link one distance and angles until one lands
    inside, up to ``RESAMPLE_CAP`` (else ``RegionTooTight``). The receiver
    draws are made in doubling blocks and walked link by link; each value is
    numpy's ``uniform`` arithmetic on the draw at the same stream position,
    so a seed gives bitwise the same drop as a draw-by-draw walk.
    """
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    n = scenario.n_links
    side = scenario.area_m
    lo, hi = scenario.dist_range_m
    tx = rng.uniform(0.0, side, size=(n, 2))
    rx = _place_receivers(rng, tx, side, lo, hi)

    # Tx i -> Rx j distances; cross paths shorter than 1 m are clamped so the
    # path loss model stays in its valid range. Each step writes into the
    # array the one before it made.
    dist_m = np.subtract.outer(tx[:, 0], rx[:, 0])
    np.hypot(dist_m, np.subtract.outer(tx[:, 1], rx[:, 1]), out=dist_m)
    np.maximum(dist_m, 1.0, out=dist_m)
    gains = pathloss_itu1411_los(dist_m, scenario.carrier_hz, scenario.antenna_height_m)
    np.subtract(2.0 * scenario.antenna_gain_db, gains, out=gains)  # gain in dB
    gains /= 10.0
    np.power(10.0, gains, out=gains)

    p_mw = db_setting("tx_power_dbm", scenario.tx_power_dbm)
    noise_mw = db_setting("noise_dbm", scenario.noise_dbm)
    ref = float(np.max(np.diag(gains)) * p_mw / noise_mw)
    net = _handed_over(
        PhysicalNetwork,
        gains=gains,
        max_tx_power=np.full(n, p_mw),
        noise_power=noise_mw,
        reference_power=ref,
    )
    return DropRecord(tx, rx, net, int(seed))


def _select(scheme: str, snr: np.ndarray, inr: np.ndarray) -> tuple:
    if scheme == "none":
        return tuple(range(snr.size))
    return _run_pass(scheme, snr, inr).selected


def _allocate(net: PhysicalNetwork, alpha: ChannelMatrix, selected: tuple,
              power_mode: str) -> np.ndarray:
    """Linear power fractions in [0, 1] for the selected links, 0 elsewhere."""
    frac = np.zeros(net.K)
    if not selected:
        return frac
    if power_mode == "full":
        frac[list(selected)] = 1.0
        return frac
    if power_mode == "gp":
        return gp_power_control(net, subset=selected).powers
    if power_mode == "gp+assignment":
        r, _ = gp_then_assignment(net, subset=selected)
    else:  # lp+assignment
        d, _ = max_weighted_gdof_lp(alpha, selected)
        r, _ = solve_power_potentials(alpha, np.minimum(d.d, np.diag(alpha.alpha)))
    live = np.isfinite(r.r)
    frac[live] = net.reference_power ** r.r[live]
    return frac


def _throughput(net: PhysicalNetwork, frac: np.ndarray) -> tuple[float, int]:
    """Sum log2(1+SINR) over powered links at the given linear fractions."""
    snr_tab = net.nominal_snr()
    active = frac > 0
    if not np.any(active):
        return 0.0, 0
    load = snr_tab * frac[:, None]
    interference = load.sum(axis=0) - np.diag(load)
    sinr = np.diag(load) / (1.0 + interference)
    tput = float(np.sum(np.log2(1.0 + sinr[active])))
    return tput, int(active.sum())


def _geometric_drop(scenario: Scenario, seed: int) -> tuple:
    """A scenario drop: its network, strengths, bandwidth (Hz) and the
    transmit power (W) spent at given power fractions."""
    net = generate_drop(scenario, seed).net
    watts = lambda frac: float(frac @ net.max_tx_power) / 1000.0  # caps are mW
    return net, strength_from_physical(net), scenario.bandwidth_hz, watts


def _synthetic_drop(n_links: int, p_ref: float, seed: int) -> tuple:
    """A random-exponent drop realized at reference power p_ref, with unit
    bandwidth and unit power caps."""
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    a = rng.uniform(0.0, 1.0, size=(n_links, n_links))
    np.fill_diagonal(a, rng.uniform(1.0, 2.0, size=n_links))
    alpha = _handed_over(ChannelMatrix, alpha=a)
    return realize_network(alpha, p_ref), alpha, 1.0, lambda frac: float(frac.sum())


# Typed per-drop verdicts; any other exception is a bug and propagates.
_DROP_VERDICTS = (Infeasible, RegionTooTight, ConvergenceFailure)


def _drop_rows(make_drop, pairs: tuple, master_seed: int, index: int):
    """Metric rows and power-fraction vectors of drop ``index``, one per
    (scheme, power mode) pair, or None when a solver gives a typed verdict."""
    seed = int(np.random.SeedSequence([int(master_seed), index]).generate_state(1)[0])
    try:
        net, alpha, bandwidth, watts = make_drop(seed)
        snr_tab = net.nominal_snr()
        snr = np.diag(snr_tab).copy()
        rows, fracs = [], []
        for scheme, power_mode in pairs:
            frac = _allocate(net, alpha, _select(scheme, snr, snr_tab), power_mode)
            tput, active = _throughput(net, frac)
            power_w = watts(frac)
            energy = tput * bandwidth / power_w if power_w > 0 else 0.0
            rows.append(MetricRow(scheme, power_mode, net.K, seed, tput, energy, active))
            fracs.append(frac)
        return rows, fracs
    except _DROP_VERDICTS:
        return None


def _run_drops(make_drop, pairs, n_drops: int, master_seed: int, jobs: int = 1):
    """Rows, per-drop power fractions and the excluded-drop count over seeded
    drops, on at most min(jobs, n_drops, CPU count) worker processes."""
    if n_drops < 1:
        raise ShapeError("need at least one drop")
    rows, fracs, excluded = [], [], 0
    work = partial(_drop_rows, make_drop, tuple(pairs), master_seed)
    workers = min(jobs, n_drops, os.cpu_count() or 1)
    if workers > 1:
        # imported on first use: a serial run never loads concurrent.futures
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            drops = list(pool.map(work, range(n_drops)))
    else:
        drops = map(work, range(n_drops))
    for drop in drops:
        if drop is None:
            excluded += 1
        else:
            rows.extend(drop[0])
            fracs.append(drop[1])
    return rows, fracs, excluded


def _aggregate(rows: list) -> list:
    groups: dict = {}
    for row in rows:
        groups.setdefault((row.scheme, row.power_mode), []).append(row)
    out = []
    for (scheme, mode), grp in sorted(groups.items()):
        n = len(grp)
        tputs = [g.sum_tput_bps_hz for g in grp]
        energies = [g.energy_bits_per_joule for g in grp]

        def mean_ci(vals):
            m = math.fsum(vals) / n
            if n < 2:
                return m, 0.0
            var = math.fsum((v - m) ** 2 for v in vals) / (n - 1)
            return m, 1.96 * math.sqrt(var / n)

        mt, ct = mean_ci(tputs)
        me, ce = mean_ci(energies)
        ma = math.fsum(g.active_links for g in grp) / n
        out.append(Aggregate(scheme, mode, n, mt, ct, me, ce, ma))
    return out


def run_experiment(scenario: Scenario, schemes, n_drops: int, master_seed: int,
                   power_mode: str = "full", jobs: int = 1) -> ExperimentResult:
    """Monte-Carlo comparison of schedulers (and one power mode) over seeded
    drops, on at most min(jobs, n_drops, CPU count) worker processes. Drops
    where a solver returns a typed verdict (infeasible, region too tight, no
    convergence) are excluded and counted; aggregates are flagged invalid
    when more than 1% of drops are lost. Any other error propagates."""
    schemes = tuple(schemes)
    if not schemes:
        raise ValueError("no schemes given")
    for s in schemes:
        if s not in SCHEMES:
            raise ValueError(f"unknown scheme {s!r}")
    if power_mode not in POWER_MODES:
        raise ValueError(f"unknown power mode {power_mode!r}")
    rows, _, excluded = _run_drops(partial(_geometric_drop, scenario),
                                   [(s, power_mode) for s in schemes],
                                   n_drops, master_seed, jobs)
    return ExperimentResult(rows, _aggregate(rows), n_drops, excluded)


def run_synthetic_experiment(n_links: int, n_drops: int, master_seed: int,
                             snr_db: float) -> ExperimentResult:
    """Small random-exponent networks (direct strengths uniform in [1, 2],
    cross strengths uniform in [0, 1]) realized at reference power
    10^(snr_db/10), compared across the full, gp and gp+assignment power
    modes with all links scheduled and unit bandwidth. A link count below 1
    raises ShapeError, and one above LINKS_MAX SubsetTooLarge."""
    if n_links < 1:
        raise ShapeError(f"link count must be positive, got {n_links}")
    check_size("drop", n_links, LINKS_MAX)
    make_drop = partial(_synthetic_drop, n_links, db_setting("snr_db", snr_db))
    rows, fracs, excluded = _run_drops(make_drop, [("none", m) for m in SYNTHETIC_MODES],
                                       n_drops, master_seed)
    fractions = {m: [f[i] for f in fracs] for i, m in enumerate(SYNTHETIC_MODES)}
    return ExperimentResult(rows, _aggregate(rows), n_drops, excluded, fractions)


def write_rows_csv(rows, path) -> None:
    """Exact-column CSV (12 significant digits) for per-drop rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(f.name for f in fields(MetricRow))
        for r in rows:
            writer.writerow(f"{v:.12g}" if isinstance(v, float) else v for v in astuple(r))
