"""Rayleigh block-fading channels and outage-based decoding decisions.

Channels are frozen for a whole collision-resolution epoch and redrawn
independently for the next one.  Decoding is idealised: a set of messages
is decodable after ``rounds`` identical-channel transmissions iff every
nonempty subset S of the active users satisfies

    rounds * I_S  >=  |S| * rate,

where I_S = log2 det(I_N + (snr/M) * sum_{i in S} H_i H_i^H) is the
multiple-access mutual information of the subset (white inputs, per-antenna
power snr/M so each user is received at total SNR ``snr``).  Outage is the
sole error mechanism; failed rounds are always detected.

Functions are pure and vectorised over a leading epoch axis; the callers
draw the gains with :func:`_draw_gains` from their own generator streams.
"""

from __future__ import annotations

import math

import numpy as np

from .system import AntennaConfig

# A round index safely beyond any deadline, returned when a group of users
# can never be decoded (zero mutual information at a positive rate).
NEVER = 10**9


def _subset_masks(k: int) -> tuple[np.ndarray, np.ndarray]:
    """All nonempty subsets of k users as a (2^k - 1, k) 0/1 matrix plus sizes."""
    count = (1 << k) - 1
    masks = np.zeros((count, k))
    for s in range(1, count + 1):
        for i in range(k):
            if s >> i & 1:
                masks[s - 1, i] = 1.0
    return masks, masks.sum(axis=1)


def _draw_gains(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-power circularly symmetric complex Gaussian gains of the given shape."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def _information(gains: np.ndarray, coef: float, masks: np.ndarray) -> np.ndarray:
    """log2 det(I_N + coef * sum_{i in S} H_i H_i^H) per epoch and per row S of ``masks``.

    ``gains`` has shape (epochs, k, rx, tx) and ``masks`` is a (subsets, k)
    0/1 matrix; the result is (epochs, subsets).  The single-receive-antenna
    case avoids determinants entirely.
    """
    rx = gains.shape[2]
    if rx == 1:
        power = np.sum(np.abs(gains) ** 2, axis=(2, 3))            # (n, k)
        return np.log2(1.0 + (coef * power) @ masks.T)
    grams = np.einsum("nkab,nkcb->nkac", gains, gains.conj())       # H H^H per user
    pooled = np.einsum("sk,nkac->nsac", masks, grams)
    dets = np.linalg.det(np.eye(rx) + coef * pooled)
    return np.log2(np.maximum(dets.real, 1e-300))


def _single_user_info(gains: np.ndarray, snr: float, gain: float, tx: int) -> np.ndarray:
    """Per-user mutual information for a batch of (epochs, users, rx, tx) gains."""
    return _information(gains, gain * snr / tx, np.eye(gains.shape[1]))


def subset_demand(gains: np.ndarray, snr: float, rate: float) -> np.ndarray:
    """Round demand |S|*rate / I_S of every nonempty user subset S, per epoch.

    ``gains`` has shape (epochs, k, rx, tx).  Column s-1 belongs to the
    subset whose bitmask is s (bit i set for user i); a subset with no
    mutual information demands inf.  Subset enumeration is exponential in k.
    """
    masks, sizes = _subset_masks(gains.shape[1])
    info = _information(gains, snr / gains.shape[3], masks)
    demand = sizes[None, :] * rate
    with np.errstate(divide="ignore"):
        return np.where(info > 0.0, demand / np.maximum(info, 1e-300), np.inf)


def rounds_from_demand(worst: np.ndarray) -> np.ndarray:
    """Smallest round count meeting a worst-case demand; NEVER for inf."""
    # boundary ties decode: shave one ulp-scale epsilon before the ceil
    rounds = np.ceil(worst * (1.0 - 1e-12))
    out = np.full(worst.shape, NEVER, dtype=np.int64)
    finite = np.isfinite(rounds)
    out[finite] = np.maximum(rounds[finite].astype(np.int64), 1)
    return out


def batch_first_decodable_round(gains: np.ndarray, snr: float, rate: float) -> np.ndarray:
    """First round after which no subset condition fails, per epoch.

    ``gains`` has shape (epochs, k, rx, tx) with all k users active.  The
    result is the ceil of the worst subset demand |S|*rate / I_S, or NEVER
    if some subset has zero mutual information at a positive rate.
    Callers are expected to chunk the batch.
    """
    if rate <= 0:
        return np.ones(gains.shape[0], dtype=np.int64)
    return rounds_from_demand(subset_demand(gains, snr, rate).max(axis=1))


def asymptotic_first_decodable_round(k: int, config: AntennaConfig, r: float) -> int:
    """Deterministic round count in the infinite-SNR limit.

    This is the one statement of the infinite-SNR outage indicator: a
    k-user collision at first-round gain r is in persistent outage after
    ``rounds`` rounds iff r > min(rounds*M, rounds*N/k), so the epoch
    length is max(ceil(r/M), ceil(k*r/N), 1); boundary equality decodes.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if r < 0:
        raise ValueError("multiplexing gain must be nonnegative")
    need_tx = math.ceil(r / config.tx - 1e-12)
    need_rx = math.ceil(k * r / config.rx - 1e-12)
    return max(1, need_tx, need_rx)


def asymptotic_survival(config: AntennaConfig, r: float, deadline: int) -> np.ndarray:
    """Infinite-SNR survival indicators as a (K, deadline+1) array.

    Entry [k-1, ell] is 1 while a k-user collision still needs more than
    ``ell`` rounds, the layout of a Monte Carlo beta table's values.
    """
    needed = [asymptotic_first_decodable_round(k, config, r) for k in range(1, config.users + 1)]
    return (np.arange(deadline + 1)[None, :] < np.array(needed)[:, None]).astype(float)
