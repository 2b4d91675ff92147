"""Shared system description for the random-access channel laboratory.

Everything downstream (analytics, physical layer, protocol outcome tables,
Monte Carlo engines, queueing) is parameterised by the same two records:
the antenna geometry of the symmetric multi-user channel and the knobs of
the access protocol under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Protocol tags used across the package and on the CLI.
GTA = "gta"          # binary tree splitting with pruning
ONDMA = "ondma"      # orthogonal repetition collision resolution, k slots per k-collision
IRARQ = "irarq"      # incremental redundancy ARQ with joint decoding and deadline
PROTOCOLS = (GTA, ONDMA, IRARQ)


def is_count(value) -> bool:
    """True for an integer >= 1 that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def check_rate(name: str, value: float) -> None:
    """Raise ValueError unless ``value`` is finite and nonnegative (nan is neither)."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


def snr_from_db(snr_db: float) -> float:
    """dB to linear power ratio; ValueError unless it is finite and positive.

    nan, +-inf and any dB whose linear value overflows (or underflows to 0)
    are rejected: no decision is meaningful there.
    """
    try:
        snr = 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        snr = math.inf
    if not 0.0 < snr < math.inf:
        raise ValueError(f"SNR must be finite in dB and in linear scale, got {snr_db!r} dB")
    return snr


@dataclass(frozen=True)
class AntennaConfig:
    """Geometry of the symmetric random access channel."""

    users: int       # number of contending users (K)
    tx: int = 1      # transmit antennas per user
    rx: int = 1      # receive antennas at the base station

    def __post_init__(self):
        for name in ("users", "tx", "rx"):
            v = getattr(self, name)
            if not is_count(v):
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")

    @property
    def degrees_of_freedom(self) -> float:
        """Sum multiplexing gain the channel can support: min(K*tx, rx)."""
        return float(min(self.users * self.tx, self.rx))


@dataclass(frozen=True)
class ProtocolParams:
    """Operating point of one protocol run.

    Exactly one of ``rate`` (fixed first-round rate in bits/channel-use) or
    ``multiplexing_gain`` (rate scales as r*log2(1+snr)) must be set; the
    second convention is the one used for diversity measurements.
    """

    p_t: float                              # transmission probability per non-empty queue
    rate: float | None = None               # fixed first-round rate R
    multiplexing_gain: float | None = None  # first-round multiplexing gain r
    deadline: int | None = None             # max ARQ rounds L (IR-ARQ only)
    matched_combining: bool = False         # O-NDMA decoder gain k instead of 1

    def __post_init__(self):
        if not (0.0 < self.p_t <= 1.0):
            raise ValueError(f"p_t must lie in (0, 1], got {self.p_t}")
        if (self.rate is None) == (self.multiplexing_gain is None):
            raise ValueError("set exactly one of rate / multiplexing_gain")
        for name in ("rate", "multiplexing_gain"):
            if getattr(self, name) is not None:
                check_rate(name, getattr(self, name))
        if self.deadline is not None and not is_count(self.deadline):
            raise ValueError("deadline must be an integer >= 1")

    def rate_at(self, snr: float | None) -> float:
        """First-round rate in bits/channel-use at linear SNR ``snr``."""
        if self.rate is not None:
            return self.rate
        if snr is None:
            raise ValueError("multiplexing-gain params need a finite SNR to fix the rate")
        return self.multiplexing_gain * math.log2(1.0 + snr)


def binom_pmf(n: int, k: int, p: float) -> float:
    """Binomial(n, p) point mass at k."""
    if k < 0 or k > n:
        return 0.0
    return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
