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

import functools

import numpy as np

from .channel import (
    _draw_channel,
    _pick_epochs,
    _single_user_info,
    asymptotic_first_decodable_round,
    rounds_from_demand,
    subset_demand,
)
from .system import GTA, IRARQ, ONDMA, AntennaConfig, ProtocolParams


def _bits(flags: np.ndarray) -> np.ndarray:
    """Per-epoch bitmask of an (epochs, users) boolean array."""
    out = np.zeros(flags.shape[0], dtype=np.int64)
    for i in range(flags.shape[1]):
        out |= flags[:, i].astype(np.int64) << i
    return out


def _subset_max(demand: np.ndarray, users: int) -> np.ndarray:
    """Max of (subsets, epochs) ``demand`` over the nonempty subsets of every mask.

    The result is (2^users, epochs), row m for mask m; row 0 is 0.
    """
    worst = np.empty((1 << users, demand.shape[1]))
    worst[0] = 0.0
    worst[1:] = demand
    for i in range(users):
        # v[:, 1] are the masks with bit i set, v[:, 0] the same masks without it
        v = worst.reshape(1 << (users - 1 - i), 2, 1 << i, demand.shape[1])
        np.maximum(v[:, 1], v[:, 0], out=v[:, 1])
    return worst


# the tree's per-epoch accumulator packs (length, delivered, pruned) into one int64
_SLOT, _DELIVERED, _PRUNED = 1 << 32, 1 << 16, 1


@functools.cache
def _tree_step(k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Accumulator increment and next group size, indexed [group, left].

    A next group of 0 ends the epoch.  An empty left group (or an all-left
    one) costs one slot and re-collides at the same size; a singleton left
    group costs its clean slot plus the remainder's next collision slot,
    which is the remainder's own clean slot when one user is left; a left
    group of two or more re-collides while the right group is pruned.
    """
    step = np.zeros((k_max + 1, k_max + 1), dtype=np.int64)
    after = np.zeros((k_max + 1, k_max + 1), dtype=np.int64)
    for group in range(2, k_max + 1):
        for left in range(group + 1):
            if left == 1:
                step[group, left] = 2 * _SLOT + (2 if group == 2 else 1) * _DELIVERED
                after[group, left] = group - 1 if group > 2 else 0
            else:
                step[group, left] = _SLOT + (group - left if left else 0) * _PRUNED
                after[group, left] = left or group
    step.flags.writeable = after.flags.writeable = False   # shared by every caller
    return step, after


@functools.cache
def _split_masks(k_max: int) -> np.ndarray:
    """Masks of the first ``group`` bits of ceil(k_max / 64) words, indexed [group, word]."""
    low = np.array([(1 << bits) - 1 for bits in range(65)], dtype=np.uint64)
    masks = low[np.clip(np.arange(k_max + 1)[:, None] - 64 * np.arange(-(-k_max // 64)), 0, 64)]
    masks.flags.writeable = False                          # shared by every caller
    return masks


def _split(group: np.ndarray, masks: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Left-group sizes, Binomial(group, 1/2) exactly: popcounts of ``group`` uniform bits.

    Each entry takes one uniform 64-bit word per column of ``masks``
    (from :func:`_split_masks`), in entry order.
    """
    words = rng.integers(0, 1 << 64, size=(group.size, masks.shape[1]), dtype=np.uint64)
    return np.bitwise_count(words & masks[group]).sum(axis=1)


def _gta_tree_batch(k_init: np.ndarray, rng: np.random.Generator):
    """Vectorised splitting tree on group sizes only.

    Returns per-epoch (length, delivered count, pruned count); identities
    are exchangeable so callers may assign them as uniform subsets.  Each
    step draws the left-group sizes of the epochs still in the tree, in
    epoch order, and drops the epochs that finish.  Every live epoch takes
    ceil(k_max / 64) uniform 64-bit words per step (:func:`_split`), one
    for up to 64 users.
    """
    k_max = int(k_init.max(initial=1))
    if k_max >= _DELIVERED:
        raise ValueError(f"splitting tree counts at most {_DELIVERED - 1} users, got {k_max}")
    step, after = _tree_step(k_max)
    masks = _split_masks(k_max)
    acc = np.where(k_init == 1, _SLOT + _DELIVERED, _SLOT).astype(np.int64)
    idx = np.flatnonzero(k_init >= 2)
    group = k_init[idx]
    while idx.size:
        left = _split(group, masks, rng)
        acc[idx] += step[group, left]
        group = after[group, left]
        live = group > 0
        idx, group = idx[live], group[live]
    return acc // _SLOT, acc // _DELIVERED % (_SLOT // _DELIVERED), acc % _DELIVERED


def _tree_members(masks, count, users: int, rng: np.random.Generator):
    """The count[e, j] first members of masks[e, j] under a uniform ranking of the users.

    The users are ranked by one uniform draw each, lower index first on
    ties (the order a stable sort gives), by pairwise comparison: before[u]
    is the bitmask of the users ranked ahead of u.  A member is taken while
    fewer than ``count`` members of its mask rank ahead of it.
    """
    draw = rng.random((masks.shape[0], users))
    before = np.zeros((users, masks.shape[0]), dtype=np.int64)
    for u in range(users):
        for v in range(u + 1, users):
            first = draw[:, v] < draw[:, u]                 # v ranks ahead of u
            before[u] |= first * (1 << v)
            before[v] |= ~first * (1 << u)
    taken = np.zeros(masks.shape, dtype=np.int64)
    for u in range(users):
        keep = np.bitwise_count(masks & before[u][:, None]) < count
        taken |= (masks & (1 << u)) * keep
    return taken


def _outage_bits(config: AntennaConfig, params: ProtocolParams, snr, channel, gain: float):
    if snr is None:
        out = asymptotic_first_decodable_round(1, config, params.multiplexing_gain) > 1
        return (1 << config.users) - 1 if out else 0
    info = _single_user_info(channel, snr, gain, config.tx)
    return _bits((info < params.rate_at(snr)).T)


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
    users = config.users
    if users > 63:
        raise ValueError(f"participant bitmasks are int64: at most 63 users, got {users}")
    if snr is None and params.multiplexing_gain is None:
        raise ValueError("infinite-SNR mode needs multiplexing-gain params")
    n = masks.shape[0]
    shape = (n, users, config.rx, config.tx)
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
            channel = _draw_channel(rng, shape)
            demand = subset_demand(channel, snr, params.rate_at(snr), config.tx)
            worst = _subset_max(demand, users)
            # worst[masks[e, j], e] for every cell, as one flat gather
            needed = rounds_from_demand(worst.ravel()[masks * n + np.arange(n)[:, None]])
        lengths = np.minimum(needed, deadline)
        errors = np.where(needed > deadline, masks, 0)

    elif protocol == ONDMA:
        lengths = np.maximum(sizes, 1)
        channel = None if snr is None else _draw_channel(rng, shape)
        if snr is not None and params.matched_combining:
            # outage bits at combining gain k, for the epochs that have a k-user set
            by_size = np.zeros((n, users + 1), dtype=np.int64)
            for k in range(1, users + 1):
                rows = (sizes == k).any(axis=1)
                picked = _pick_epochs(channel, rows)
                by_size[rows, k] = _outage_bits(config, params, snr, picked, float(k))
            out = np.take_along_axis(by_size, sizes, axis=1)
        else:
            out = np.reshape(_outage_bits(config, params, snr, channel, 1.0), (-1, 1))
        errors = masks & out

    elif protocol == GTA:
        tree_len, tree_del, _pruned = _gta_tree_batch(sizes.ravel(), rng)
        lengths = tree_len.reshape(masks.shape)
        delivered = _tree_members(masks, tree_del.reshape(masks.shape), users, rng)
        channel = None if snr is None else _draw_channel(rng, shape)
        errors = delivered & np.reshape(_outage_bits(config, params, snr, channel, 1.0), (-1, 1))

    else:
        raise ValueError(f"unknown protocol {protocol!r}")

    return lengths, delivered, errors
