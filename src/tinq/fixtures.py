"""Two small reference networks used throughout the tests, docs and CLI.

NETWORK_A is a 3-user channel whose TIN-achievable region has the bounds
(2, 1, 1.5) per user, (2.3, 1.5, 2.4) per pair and 2.5 for the full set, and
whose minimal-power solve for the target (0.5, 0.6, 0.7) is r = (-1.2, -0.4,
-0.7). NETWORK_B is a 3-user channel where the relaxed per-user strength
condition holds for everyone while the strict one fails exactly for users
0 and 1; its region bounds are (1, 1, 1), (1.1, 1.3, 1.2) and 1.8.
"""

import numpy as np

from .model import ChannelMatrix

__all__ = ["NETWORK_A", "NETWORK_B", "fixture_checksums"]

NETWORK_A = ChannelMatrix(np.array([
    [2.0, 0.5, 0.1],
    [0.2, 1.0, 0.5],
    [1.0, 0.5, 1.5],
]))

NETWORK_B = ChannelMatrix(np.array([
    [1.0, 0.3, 0.0],
    [0.6, 1.0, 0.1],
    [0.8, 0.6, 1.0],
]))


def fixture_checksums() -> dict:
    """sha256 of the canonical text form of each reference matrix."""
    # imported here: OpenSSL's hashlib is only needed by `tinq --version`
    import hashlib

    out = {}
    for name, cm in (("network_a", NETWORK_A), ("network_b", NETWORK_B)):
        text = ";".join(",".join(f"{x:.12g}" for x in row) for row in cm.alpha)
        out[name] = hashlib.sha256(text.encode()).hexdigest()
    return out
