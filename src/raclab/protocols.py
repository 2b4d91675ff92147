"""Epoch outcomes of the three protocols at given participant sets.

An epoch starts after the previous receiver ACK.  The participant set is
decided before entry (each non-empty queue transmits with probability p_t)
and stays fixed until the epoch ends.  Given the participant set, the
outcome does not depend on the queues, so :func:`epoch_outcomes` draws a
block of epochs at once and evaluates each at the participant bitmasks it
is asked for (bit i set for user i; 0 is the idle epoch): the epoch length
and the bitmasks of delivered and of wrongly decoded packets.

* IR-ARQ: every participant sends a fresh redundancy block each round and
  the receiver jointly decodes across users and rounds, up to the deadline
  L; at round L an ACK is sent regardless, so failed packets still drain.
  The rounds S needs are ceil of the worst demand |T|*R / I_T over the
  nonempty T contained in S.
* O-NDMA: a k-user collision is resolved in exactly k orthogonal slots and
  each message is decoded by a single-user decoder after combining (gain 1,
  or k with ``matched_combining``).
* Tree splitting (GTA): colliding users split fairly; an empty left group
  costs no data slot (membership is known via the perfect control
  channels) and the full group re-collides; a singleton left group gets a
  clean slot and the remainder re-enters; a left group of two or more
  re-collides while the right group is pruned for the rest of the epoch.
  Pruned packets are not errors; they stay with their owners.  Delivered
  packets, a uniform subset of S, are decoded from their single clean slot.

Passing ``snr=None`` evaluates the infinite-SNR limit, where decoding
outcomes are the deterministic indicator thresholds.
"""

from __future__ import annotations

import numpy as np

from .channel import (
    _draw_gains,
    _single_user_info,
    asymptotic_first_decodable_round,
    rounds_from_demand,
    subset_demand,
)
from .system import GTA, IRARQ, ONDMA, AntennaConfig, ProtocolParams


def _bits(flags: np.ndarray) -> np.ndarray:
    """Per-epoch bitmask of an (epochs, users) boolean array."""
    return flags @ (1 << np.arange(flags.shape[1]))


def _subset_max(demand: np.ndarray, users: int) -> np.ndarray:
    """Max of ``demand`` over the nonempty subsets of every mask; column 0 is 0."""
    n = demand.shape[0]
    worst = np.zeros((n, 1 << users))
    worst[:, 1:] = demand
    for i in range(users):
        # v[:, :, 1] are the masks with bit i set, v[:, :, 0] the same masks without it
        v = worst.reshape(n, -1, 2, 1 << i)
        np.maximum(v[:, :, 1], v[:, :, 0], out=v[:, :, 1])
    return worst


def _gta_tree_batch(k_init: np.ndarray, rng: np.random.Generator):
    """Vectorised splitting tree on group sizes only.

    Returns per-epoch (length, delivered count, pruned count); identities
    are exchangeable so callers may assign them as uniform subsets.
    """
    n = k_init.shape[0]
    lengths = np.ones(n, dtype=np.int64)
    delivered = np.zeros(n, dtype=np.int64)
    pruned = np.zeros(n, dtype=np.int64)
    delivered[k_init == 1] = 1
    group = k_init.copy()
    active = k_init >= 2
    while active.any():
        idx = np.flatnonzero(active)
        size = group[idx]
        left = rng.binomial(size, 0.5)
        empty = left == 0
        lengths[idx[empty]] += 1
        single = left == 1
        rest = size - 1
        done = single & (rest == 1)
        lengths[idx[done]] += 2
        delivered[idx[done]] += 2
        active[idx[done]] = False
        cont = single & (rest >= 2)
        lengths[idx[cont]] += 2
        delivered[idx[cont]] += 1
        group[idx[cont]] = rest[cont]
        big = left >= 2
        pruned[idx[big]] += (size - left)[big]
        lengths[idx[big]] += 1
        group[idx[big]] = left[big]
    return lengths, delivered, pruned


def _tree_members(masks, count, users: int, rng: np.random.Generator):
    """The count[e, j] first members of masks[e, j] under a uniform ranking of the users."""
    order = np.argsort(rng.random((masks.shape[0], users)), axis=1)[:, None, :]
    member = masks[:, :, None] >> order & 1
    take = member & (np.cumsum(member, axis=2) <= count[:, :, None])
    return (take << order).sum(axis=2)


def _outage_bits(config: AntennaConfig, params: ProtocolParams, snr, gains, gain: float):
    if snr is None:
        out = asymptotic_first_decodable_round(1, config, params.multiplexing_gain) > 1
        return (1 << config.users) - 1 if out else 0
    info = _single_user_info(gains, snr, gain, config.tx)
    return _bits(info < params.rate_at(snr))


def epoch_outcomes(
    protocol: str,
    config: AntennaConfig,
    params: ProtocolParams,
    snr: float | None,
    masks: np.ndarray,
    rng: np.random.Generator,
):
    """Outcomes of n independent epochs, epoch e evaluated at the sets masks[e].

    ``masks`` is an (n, m) int64 array of participant bitmasks.  Returns
    (lengths, delivered, errors), each an (n, m) int64 array indexed like
    ``masks``; ``delivered`` and ``errors`` are bitmasks of users.  The
    generator is consumed in a fixed order per protocol, so a block replays
    bitwise for a given generator state; the channel draws of an epoch do
    not depend on the masks it is evaluated at.
    """
    users, rx, tx = config.users, config.rx, config.tx
    if snr is None and params.multiplexing_gain is None:
        raise ValueError("infinite-SNR mode needs multiplexing-gain params")
    n = masks.shape[0]
    sizes = np.bitwise_count(masks).astype(np.int64)
    delivered = masks

    if protocol == IRARQ:
        deadline = params.deadline
        if deadline is None:
            raise ValueError("IR-ARQ needs a deadline")
        if snr is None:
            needed = np.array([1] + [
                asymptotic_first_decodable_round(k, config, params.multiplexing_gain)
                for k in range(1, users + 1)
            ])[sizes]
        else:
            gains = _draw_gains(rng, (n, users, rx, tx))
            rate = params.rate_at(snr)
            if rate <= 0:
                needed = np.ones(masks.shape, dtype=np.int64)
            else:
                worst = _subset_max(subset_demand(gains, snr, rate), users)
                needed = rounds_from_demand(np.take_along_axis(worst, masks, axis=1))
        lengths = np.minimum(needed, deadline)
        errors = np.where(needed > deadline, masks, 0)

    elif protocol == ONDMA:
        lengths = np.maximum(sizes, 1)
        gains = None if snr is None else _draw_gains(rng, (n, users, rx, tx))
        if snr is not None and params.matched_combining:
            # outage bits at combining gain k, for the epochs that have a k-user set
            by_size = np.zeros((n, users + 1), dtype=np.int64)
            for k in range(1, users + 1):
                rows = (sizes == k).any(axis=1)
                by_size[rows, k] = _outage_bits(config, params, snr, gains[rows], float(k))
            out = np.take_along_axis(by_size, sizes, axis=1)
        else:
            out = np.reshape(_outage_bits(config, params, snr, gains, 1.0), (-1, 1))
        errors = masks & out

    elif protocol == GTA:
        tree_len, tree_del, _pruned = _gta_tree_batch(sizes.ravel(), rng)
        lengths = tree_len.reshape(masks.shape)
        delivered = _tree_members(masks, tree_del.reshape(masks.shape), users, rng)
        gains = None if snr is None else _draw_gains(rng, (n, users, rx, tx))
        errors = delivered & np.reshape(_outage_bits(config, params, snr, gains, 1.0), (-1, 1))

    else:
        raise ValueError(f"unknown protocol {protocol!r}")

    return lengths, delivered, errors
