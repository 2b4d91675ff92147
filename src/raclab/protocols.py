"""Epoch outcomes of the three protocols, tabulated by participant set.

An epoch starts after the previous receiver ACK.  The participant set is
decided before entry (each non-empty queue transmits with probability p_t)
and stays fixed until the epoch ends.  Given the participant set, the
outcome does not depend on the queues, so :func:`epoch_tables` draws a
block of epochs at once and tabulates, for every participant bitmask S
(bit i set for user i; S = 0 is the idle epoch), the epoch length and the
bitmasks of delivered and of wrongly decoded packets:

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

Passing ``snr=None`` tabulates the infinite-SNR limit, where decoding
outcomes are the deterministic indicator thresholds.
"""

from __future__ import annotations

import numpy as np

from .channel import asymptotic_first_decodable_round, rounds_from_demand, subset_demand
from .montecarlo import _draw_gains, _gta_tree_batch, _single_user_info
from .system import GTA, IRARQ, ONDMA, AntennaConfig, ProtocolParams

# Tables hold 2^K entries per epoch; beyond this many users they stop being cheap.
MAX_TABLE_USERS = 8


def _bits(flags: np.ndarray) -> np.ndarray:
    """Per-epoch bitmask of an (epochs, users) boolean array."""
    return (flags.astype(np.int64) << np.arange(flags.shape[1])).sum(axis=1)


def _subset_max(demand: np.ndarray, users: int) -> np.ndarray:
    """Max of ``demand`` over the nonempty subsets of every mask; column 0 is 0."""
    worst = np.zeros((demand.shape[0], 1 << users))
    worst[:, 1:] = demand
    masks = np.arange(1 << users)
    for i in range(users):
        has = masks[masks >> i & 1 == 1]
        worst[:, has] = np.maximum(worst[:, has], worst[:, has ^ (1 << i)])
    return worst


def _outage_bits(config: AntennaConfig, params: ProtocolParams, snr, gains, gain: float):
    if snr is None:
        out = asymptotic_first_decodable_round(1, config, params.multiplexing_gain) > 1
        return (1 << config.users) - 1 if out else 0
    info = _single_user_info(gains, snr, gain, config.tx)
    return _bits(info < params.rate_at(snr))


def epoch_tables(
    protocol: str,
    config: AntennaConfig,
    params: ProtocolParams,
    snr: float | None,
    n: int,
    rng: np.random.Generator,
):
    """Outcomes of n independent epochs for every participant bitmask.

    Returns (lengths, delivered, errors), each an (n, 2^K) int64 array
    indexed by [epoch, mask]; ``delivered`` and ``errors`` are bitmasks of
    users.  The generator is consumed in a fixed order per protocol, so a
    block replays bitwise for a given generator state.
    """
    users, rx, tx = config.users, config.rx, config.tx
    if users > MAX_TABLE_USERS:
        raise ValueError(
            f"outcome tables grow as 2^K; at most {MAX_TABLE_USERS} users, got {users}"
        )
    if snr is None and params.multiplexing_gain is None:
        raise ValueError("infinite-SNR mode needs multiplexing-gain params")
    masks = np.arange(1 << users)
    sizes = np.array([int(s).bit_count() for s in masks])
    lengths = np.ones((n, masks.size), dtype=np.int64)
    delivered = np.tile(masks, (n, 1))

    if protocol == IRARQ:
        deadline = params.deadline
        if deadline is None:
            raise ValueError("IR-ARQ needs a deadline")
        if snr is None:
            needed = np.array([1] + [
                asymptotic_first_decodable_round(int(k), config, params.multiplexing_gain)
                for k in sizes[1:]
            ])[None, :]
        else:
            gains = _draw_gains(rng, (n, users, rx, tx))
            rate = params.rate_at(snr)
            if rate <= 0:
                needed = np.ones((1, masks.size), dtype=np.int64)
            else:
                needed = rounds_from_demand(_subset_max(subset_demand(gains, snr, rate), users))
        lengths[:] = np.minimum(needed, deadline)
        errors = np.where(needed > deadline, masks, 0)

    elif protocol == ONDMA:
        lengths[:, 1:] = sizes[1:]
        gains = None if snr is None else _draw_gains(rng, (n, users, rx, tx))
        if snr is not None and params.matched_combining:
            by_size = [np.zeros(n, dtype=np.int64)] + [
                _outage_bits(config, params, snr, gains, float(k)) for k in range(1, users + 1)
            ]
            out = np.stack(by_size, axis=1)[:, sizes]
        else:
            out = np.reshape(_outage_bits(config, params, snr, gains, 1.0), (-1, 1))
        errors = masks & out

    elif protocol == GTA:
        count = np.zeros((n, masks.size), dtype=np.int64)
        for k in range(2, users + 1):
            tree_len, tree_del, _pruned = _gta_tree_batch(np.full(n, k, dtype=np.int64), rng)
            lengths[:, sizes == k] = tree_len[:, None]
            count[:, sizes == k] = tree_del[:, None]
        order = np.argsort(rng.random((n, users)), axis=1)
        for s in masks[sizes >= 2]:
            # the count[s] first members of s under a uniform ranking of the users
            member = s >> order & 1
            take = member & (np.cumsum(member, axis=1) <= count[:, s, None])
            delivered[:, s] = (take << order).sum(axis=1)
        gains = None if snr is None else _draw_gains(rng, (n, users, rx, tx))
        errors = delivered & np.reshape(_outage_bits(config, params, snr, gains, 1.0), (-1, 1))

    else:
        raise ValueError(f"unknown protocol {protocol!r}")

    return lengths, delivered, np.broadcast_to(errors, (n, masks.size))
