"""Core domain types and the GDoF arithmetic every other module consumes.

Matrix orientation is fixed everywhere as (row = transmitter, column = receiver):
``alpha[i, j]`` is the strength exponent of the link Tx-i -> Rx-j. Exponent
arithmetic uses natural-log ratios (the base cancels); user-facing dB
conversions use 10*log10.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import (DomainError, InvalidReferencePower, SchemaError, ShapeError,
                         SubsetTooLarge)

__all__ = [
    "ChannelMatrix",
    "GdofTuple",
    "PowerAlloc",
    "PhysicalNetwork",
    "strength_from_physical",
    "achieved_gdof",
    "realize_network",
    "parse_network",
    "db_to_linear",
]

TOL = 1e-9  # absolute tolerance of every weight, bound and label comparison


def check_subset(K: int, subset, allow_empty: bool = False) -> tuple[int, ...]:
    """Sorted user indices of ``subset`` (None means all K users); repeated,
    out-of-range and, unless ``allow_empty``, empty subsets raise IndexError."""
    if subset is None:
        return tuple(range(K))
    idx = tuple(sorted(int(i) for i in subset))
    if not idx:
        if allow_empty:
            return idx
        raise IndexError("subset must be non-empty")
    if len(set(idx)) != len(idx):
        raise IndexError(f"subset has repeated indices: {subset}")
    if idx[0] < 0 or idx[-1] >= K:
        raise IndexError(f"subset {subset} out of range for K={K}")
    return idx


def check_size(what: str, n: int, cap: int) -> None:
    """SubsetTooLarge naming ``what`` when its ``n`` users exceed ``cap``: the
    one check of every path whose work grows as 2^n or n!."""
    if n > cap:
        raise SubsetTooLarge(f"{what} of {n} users exceeds its cap of {cap}")


def db_to_linear(x_db):
    """10^(x/10), elementwise."""
    return np.power(10.0, np.asarray(x_db, dtype=float) / 10.0)


def db_setting(name: str, value_db: float) -> float:
    """10^(value_db/10) of one scalar dB setting, as a Python float; a value
    whose ratio overflows a float raises DomainError naming the setting."""
    try:
        return 10.0 ** (float(value_db) / 10.0)
    except OverflowError:
        raise DomainError(f"{name} of {value_db:g} dB overflows a float") from None


def is_finite_real(x) -> bool:
    """Is ``x`` a finite real number? A bool is not one."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def check_reference_power(p) -> float:
    """``p`` as a float if it can anchor the log-P scale of every strength
    alpha = log SNR / log P: finite and above 1, else InvalidReferencePower."""
    if not (math.isfinite(p) and p > 1):
        raise InvalidReferencePower(f"reference power must be finite and exceed 1, got {p}")
    return float(p)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """K x K matrix of channel strength exponents (log-P scale), entry (i, j)
    is the strength of link Tx-i -> Rx-j. Entries finite and >= 0."""

    alpha: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeError(f"alpha must be square, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ShapeError("need at least one user")
        if not np.all(np.isfinite(a)):
            raise ShapeError("alpha entries must be finite")
        if np.any(a < 0):
            raise ShapeError("alpha entries must be nonnegative")
        object.__setattr__(self, "alpha", _readonly(a))

    @property
    def K(self) -> int:
        return self.alpha.shape[0]

    def alpha_prime(self) -> np.ndarray:
        """Cross-strength matrix: alpha off the diagonal, 0 on it."""
        a = self.alpha.copy()
        np.fill_diagonal(a, 0.0)
        return a


@dataclass(frozen=True, eq=False)
class GdofTuple:
    """Per-user GDoF values. Achieved tuples (``achieved_gdof``) are
    nonnegative, with zeros exactly for users outside the active subset; any
    other tuple may carry negative entries."""

    d: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.d, dtype=float).reshape(-1)
        if v.size < 1:
            raise ShapeError("empty GDoF tuple")
        if np.any(np.isnan(v)) or np.any(v == np.inf):
            raise ShapeError("GDoF entries must not be NaN or +inf")
        object.__setattr__(self, "d", _readonly(v))

    @property
    def K(self) -> int:
        return self.d.size


@dataclass(frozen=True, eq=False)
class PowerAlloc:
    """Per-user transmit power exponents r_k <= 0 (transmit power P^{r_k});
    r_k = -inf means the transmitter is off."""

    r: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.r, dtype=float).reshape(-1)
        if v.size < 1:
            raise ShapeError("empty power allocation")
        if np.any(np.isnan(v)) or np.any(v == np.inf):
            raise ShapeError("power exponents must not be NaN or +inf")
        if np.any(v > TOL):
            raise ShapeError("power exponents must be <= 0")
        # tiny positive float noise is clipped rather than rejected
        object.__setattr__(self, "r", _readonly(np.minimum(v, 0.0)))

    @property
    def K(self) -> int:
        return self.r.size


@dataclass(frozen=True, eq=False)
class PhysicalNetwork:
    """Finite-SNR description: linear power gains G_ij = |h_ij|^2, per-Tx power
    caps (watts), receiver noise power (watts), and the reference power P
    (finite, > 1) that anchors the log-P scale."""

    gains: np.ndarray
    max_tx_power: np.ndarray
    noise_power: float
    reference_power: float

    def __post_init__(self):
        g = np.asarray(self.gains, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] < 1:
            raise ShapeError(f"gains must be square, got shape {g.shape}")
        if np.any(g < 0) or not np.all(np.isfinite(g)):
            raise ShapeError("gains must be finite and nonnegative")
        p = np.broadcast_to(np.asarray(self.max_tx_power, dtype=float), (g.shape[0],)).copy()
        if np.any(p <= 0) or not np.all(np.isfinite(p)):
            raise ShapeError("per-Tx power caps must be positive and finite")
        if not (self.noise_power > 0 and math.isfinite(self.noise_power)):
            raise ShapeError("noise power must be positive and finite")
        object.__setattr__(self, "reference_power", check_reference_power(self.reference_power))
        object.__setattr__(self, "gains", _readonly(g))
        object.__setattr__(self, "max_tx_power", _readonly(p))
        object.__setattr__(self, "noise_power", float(self.noise_power))
        snr = self.gains * self.max_tx_power[:, None]
        snr /= self.noise_power
        snr.setflags(write=False)
        object.__setattr__(self, "_nominal_snr", snr)

    @property
    def K(self) -> int:
        return self.gains.shape[0]

    def nominal_snr(self) -> np.ndarray:
        """Full-power received SNR matrix: G_ij * P_i / noise (read-only,
        computed once per network)."""
        return self._nominal_snr


def strength_from_physical(net: PhysicalNetwork) -> ChannelMatrix:
    """Channel strength levels alpha_ij = log(max{1, G_ij*P_i/noise}) / log P.

    Entries are 0 whenever the full-power received SNR is at or below 1.
    Built on the first call and kept on the network: every later call
    returns the same read-only ChannelMatrix.
    """
    alpha = getattr(net, "_strength", None)
    if alpha is None:
        levels = np.maximum(1.0, net.nominal_snr())
        np.log(levels, out=levels)
        levels /= math.log(net.reference_power)
        alpha = ChannelMatrix(levels)
        object.__setattr__(net, "_strength", alpha)
    return alpha


def realize_network(alpha: ChannelMatrix, reference_power: float) -> PhysicalNetwork:
    """Finite-SNR network whose strength levels are exactly ``alpha``:
    G_ij = P^{alpha_ij}, unit noise, unit power caps. A gain that overflows a
    float raises DomainError naming the reference power."""
    reference_power = check_reference_power(reference_power)
    with np.errstate(over="ignore"):
        gains = np.power(reference_power, alpha.alpha)
    if np.isinf(gains).any():
        raise DomainError(
            f"reference power {reference_power:g} raised to strength "
            f"{alpha.alpha.max():g} overflows a float"
        )
    return PhysicalNetwork(
        gains=gains,
        max_tx_power=np.ones(alpha.K),
        noise_power=1.0,
        reference_power=reference_power,
    )


def _interference_exponent(alpha: ChannelMatrix, r: np.ndarray) -> np.ndarray:
    """max{0, max_{i != j} (alpha_ij + r_i)} for every receiver j."""
    k = alpha.K
    levels = alpha.alpha + r[:, None]  # (i, j): interference exponent of Tx-i at Rx-j
    np.fill_diagonal(levels, -np.inf)
    if k == 1:
        return np.zeros(1)
    return np.maximum(0.0, levels.max(axis=0))


def achieved_gdof(alpha: ChannelMatrix, r: PowerAlloc) -> GdofTuple:
    """GDoF achieved by treating interference as noise under power exponents r:

        d_j = max{0, alpha_jj + r_j - max{0, max_{i != j} (alpha_ij + r_i)}}
    """
    if r.K != alpha.K:
        raise ShapeError(f"r has {r.K} entries for a {alpha.K}-user network")
    return GdofTuple(np.maximum(0.0, np.diag(alpha.alpha) + r.r
                                - _interference_exponent(alpha, r.r)))


_ALPHA_KEYS = {"k", "alpha"}
_PHYSICAL_KEYS = {"k", "gains_db", "tx_power_dbm", "noise_dbm", "ref_snr_db"}


def parse_network(obj: dict) -> tuple[ChannelMatrix, PhysicalNetwork | None]:
    """Read a network from its JSON object form.

    Two schemas are accepted, with exactly these keys:
      {"k": int, "alpha": [[float]]}
      {"k": int, "gains_db": [[float]], "tx_power_dbm": [float],
       "noise_dbm": float, "ref_snr_db": float}

    Returns the strength matrix, plus the physical network when given one.
    """
    if not isinstance(obj, dict):
        raise SchemaError("network JSON must be an object")
    keys = set(obj.keys())
    if keys == _ALPHA_KEYS:
        try:
            cm = ChannelMatrix(np.asarray(obj["alpha"], dtype=float))
        except (TypeError, ValueError) as e:
            raise SchemaError(f"bad alpha matrix: {e}") from e
        if cm.K != obj["k"]:
            raise SchemaError(f'k={obj["k"]} does not match alpha shape {cm.K}')
        return cm, None
    if keys == _PHYSICAL_KEYS:
        try:
            net = PhysicalNetwork(
                gains=db_to_linear(np.asarray(obj["gains_db"], dtype=float)),
                max_tx_power=db_to_linear(np.asarray(obj["tx_power_dbm"], dtype=float) - 30.0),
                noise_power=float(db_to_linear(obj["noise_dbm"] - 30.0)),
                reference_power=float(db_to_linear(obj["ref_snr_db"])),
            )
        except (TypeError, ValueError) as e:
            raise SchemaError(f"bad physical network: {e}") from e
        if net.K != obj["k"]:
            raise SchemaError(f'k={obj["k"]} does not match gains shape {net.K}')
        return strength_from_physical(net), net
    raise SchemaError(
        "network JSON must have exactly the keys {'k', 'alpha'} or "
        "{'k', 'gains_db', 'tx_power_dbm', 'noise_dbm', 'ref_snr_db'}; "
        f"got {sorted(keys)}"
    )

