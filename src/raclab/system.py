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


def check_counts(**counts) -> None:
    """Raise ValueError unless every value is an integer >= 1 (not a bool)."""
    for name, value in counts.items():
        if not is_count(value):
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def check_p_t(p_t: float) -> None:
    """Raise ValueError unless the transmission probability lies in (0, 1] (nan does not)."""
    if not (0.0 < p_t <= 1.0):
        raise ValueError(f"p_t must lie in (0, 1], got {p_t}")


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
        check_counts(users=self.users, tx=self.tx, rx=self.rx)

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

    def __post_init__(self):
        check_p_t(self.p_t)
        if (self.rate is None) == (self.multiplexing_gain is None):
            raise ValueError("set exactly one of rate / multiplexing_gain")
        for name in ("rate", "multiplexing_gain"):
            if getattr(self, name) is not None:
                check_rate(name, getattr(self, name))
        if self.deadline is not None:
            check_counts(deadline=self.deadline)

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
