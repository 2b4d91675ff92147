"""Epoch outcomes of the three protocols at given participant sets.

An epoch starts after the previous receiver ACK.  The participant set is
decided before entry (each non-empty queue transmits with probability p_t)
and stays fixed until the epoch ends.  Given the participant set, the
outcome does not depend on the queues, so a block of epochs is drawn at
once and each epoch evaluated at the participant bitmasks it is asked for
(bit i set for user i; 0 is the idle epoch): the epoch length and the
bitmasks of delivered and of wrongly decoded packets.

The engine splits where the draws end.  :func:`_outcome_tiles` first
draws the block's randomness whole, in a fixed order per protocol (the
splitting tree's words and rankings, then the channels), so a block
replays bitwise whatever the tiling.  It then evaluates the block one tile
of ``_TILE`` cells (epochs times sets per epoch) at a time, with one body
per protocol, so the work after the draws stays cache-sized however large
the block.  :func:`epoch_outcomes` gathers the tiles into whole tables for
the queue, whose block of 2^K sets per epoch is exactly one tile; the
fully-loaded estimators count each tile as it comes.

* IR-ARQ: every participant sends a fresh redundancy block each round and
  the receiver jointly decodes across users and rounds, up to the deadline
  L; at round L an ACK is sent regardless, so failed packets still drain.
  The rounds S needs, capped at L + 1, are the most any nonempty T
  contained in S needs (:func:`channel.capped_rounds`).
* O-NDMA: a k-user collision is resolved in exactly k orthogonal slots and
  each message is decoded by a single-user decoder after combining (gain 1,
  or k with ``matched_combining``): the same decision for one user and one
  round, with the same tie rule.
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

from .channel import _draw_channel, _pick_epochs, asymptotic_first_decodable_round, capped_rounds
from .system import GTA, IRARQ, ONDMA, AntennaConfig, ProtocolParams


def _bits(flags: np.ndarray) -> np.ndarray:
    """Per-epoch bitmask of an (epochs, users) boolean array."""
    out = np.zeros(flags.shape[0], dtype=np.int64)
    for i in range(flags.shape[1]):
        out |= flags[:, i].astype(np.int64) << i
    return out


def _subset_max(rows: np.ndarray, users: int) -> np.ndarray:
    """Max of (subsets, epochs) ``rows`` over the nonempty subsets of every mask.

    The result is (2^users, epochs) of the type of ``rows``, row m for mask
    m; row 0 is 0.
    """
    worst = np.empty((1 << users, rows.shape[1]), dtype=rows.dtype)
    worst[0] = 0
    worst[1:] = rows
    for i in range(users):
        # v[:, 1] are the masks with bit i set, v[:, 0] the same masks without it
        v = worst.reshape(1 << (users - 1 - i), 2, 1 << i, rows.shape[1])
        np.maximum(v[:, 1], v[:, 0], out=v[:, 1])
    return worst


# Cells (epochs times participant sets per epoch) evaluated together, and the
# colliding epochs the splitting tree runs to their end together: cache-sized
_TILE = 1 << 14

# the tree's per-epoch accumulator packs length << 32 | users not yet pruned
_SLOT = 1 << 32
_MAX_TREE_USERS = (1 << 16) - 1     # the documented cap; the packed fields hold more


def _tile_epochs(sets: int = 1) -> int:
    """Epochs per tile when each is evaluated at ``sets`` participant sets."""
    return max(1, _TILE // sets)


def _epoch_tiles(n: int, sets: int = 1) -> list[slice]:
    """Consecutive slices of n epochs, :func:`_tile_epochs` each (the last may be short)."""
    step = _tile_epochs(sets)
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _chunk_tables():
    """Chunk layout of one 64-bit word per group size g = 0..64.

    The word holds 64 / s chunks of g bits at stride s = bit_ceil(g).
    Returns log2(s), the mask of bits 0..g-2 of every chunk (each compared
    with its upper neighbour) and the mask of the first g bits.
    """
    log2 = [(g - 1).bit_length() if g else 0 for g in range(65)]
    pairs = [sum(((1 << (g - 1)) - 1) << c for c in range(0, 64, 1 << s)) if g else 0
             for g, s in enumerate(log2)]
    return (np.array(log2, dtype=np.uint8), np.array(pairs, dtype=np.uint64),
            np.array([(1 << g) - 1 for g in range(65)], dtype=np.uint64))


_STRIDE_LOG2, _PAIRS, _LOW = _chunk_tables()


def _gta_tree_batch(k_init: np.ndarray, rng: np.random.Generator):
    """Vectorised splitting tree on group sizes only.

    Returns per-epoch (length, delivered count); the other users of an
    epoch are pruned.  Identities are exchangeable, so callers may assign
    the delivered users as uniform subsets.  The colliding epochs run in
    tiles of ``_TILE``, in epoch order, each tile to its end before
    the next.  Each step moves every live epoch of the tile to its next
    distinct group size and drops the epochs that finish, so an epoch of k
    users takes at most k - 1 steps, bar redraws of probability at most
    2^-32 each.

    A step draws one uniform 64-bit word per live epoch, in epoch order
    (ceil(g_max / 64) words each while a group of g_max > 64 users is
    live).  The word holds 64 / s disjoint chunks of g bits at stride
    s = bit_ceil(g), each a fair split whose popcount is the left-group
    size.  A chunk with all bits equal (left group empty or full) is a
    re-collision: one slot, same group.  The step takes the first chunk
    that splits, after one slot per chunk before it (:func:`_split`); if
    none splits, the epoch adds one slot per chunk and draws again.  A
    group above 64 users has one chunk, its first g bits over
    ceil(g / 64) words.
    """
    k_max = int(k_init.max(initial=1))
    if k_max > _MAX_TREE_USERS:
        raise ValueError(f"splitting tree counts at most {_MAX_TREE_USERS} users, got {k_max}")
    acc = np.add(k_init, _SLOT, dtype=np.int64)     # the first slot; no user pruned yet
    colliding = np.flatnonzero(k_init >= 2)
    for lo in range(0, colliding.size, _TILE):
        idx = colliding[lo : lo + _TILE]
        group = k_init[idx].astype(np.int64, copy=False)
        while idx.size:
            words = (int(group.max()) + 63) >> 6
            draw = rng.integers(0, 1 << 64, size=(idx.size, words), dtype=np.uint64)
            loops, left = _split(draw, group)
            one = left == 1
            # a singleton left group takes its clean slot and the rest collides
            # again (a lone rest sends in that slot); a larger one prunes the right
            after = np.where(one, group - 1, left)
            inc = (loops + one + 1).astype(np.int64) << 32
            inc -= group - after - one               # the users pruned
            if not left.all():                       # every chunk re-collided
                stuck = left == 0
                inc[stuck] = loops[stuck].astype(np.int64) << 32
                after[stuck] = group[stuck]
            acc[idx] += inc
            live = after >= 2
            idx, group = idx[live], after[live]
    return acc >> 32, acc & (_SLOT - 1)              # every user not pruned is delivered


def _split(draw: np.ndarray, group: np.ndarray):
    """Re-collisions and left-group size of the first split in each row of ``draw``.

    Row e holds uniform 64-bit words for a group of group[e] >= 2 users,
    laid out as :func:`_gta_tree_batch` says.  Returns (loops, left): the
    chunks that re-collided before the first that splits, and that chunk's
    popcount, 1 <= left < group.  Where no chunk splits, left is 0 and
    loops is the number of chunks.
    """
    wide = draw.shape[1] > 1
    g = np.minimum(group, 64) if wide else group
    w, log2 = draw[:, 0], _STRIDE_LOG2[g]
    y = w >> 1
    y ^= w
    y &= _PAIRS[g]                                   # set where neighbours in a chunk differ
    # popcount(y ^ (y - 1)) is ctz(y) + 1, which stays inside the chunk of
    # y's lowest set bit (a chunk's top bit is never set in y); at y = 0 it
    # is 64, so loops is then the number of chunks
    loops = np.bitwise_count((y - 1) ^ y) >> log2
    left = np.bitwise_count((w >> (loops << log2)) & _LOW[g])   # a shift by 64 gives 0
    if wide:
        big = np.flatnonzero(group > 64)
        bits = np.clip(group[big, None] - 64 * np.arange(draw.shape[1]), 0, 64)
        count = np.bitwise_count(draw[big] & _LOW[bits]).sum(axis=1)
        whole = (count == 0) | (count == group[big])
        left = left.astype(np.int64)
        left[big], loops[big] = np.where(whole, 0, count), whole
    return loops, left


def _tree_members(masks, count, users: int, rng: np.random.Generator):
    """The count[e, j] first members of masks[e, j] under a uniform ranking of the users.

    Only the epochs with a cell whose count falls short of its mask's size
    draw a ranking, one uniform draw per user, in epoch order; every other
    cell delivers its whole mask whatever the ranking.  The users are
    ranked lower index first on ties (the order a stable sort gives), by
    pairwise comparison: before[u] is the bitmask of the users ranked ahead
    of u.  A member is taken while fewer than ``count`` members of its mask
    rank ahead of it.
    """
    taken = np.array(masks, dtype=np.int64)
    short = np.flatnonzero((count < np.bitwise_count(masks)).any(axis=1))
    if not short.size:
        return taken
    masks, count = taken[short], count[short]
    draw = rng.random((short.size, users))
    before = np.zeros((users, short.size), dtype=np.int64)
    for u in range(users):
        for v in range(u + 1, users):
            first = draw[:, v] < draw[:, u]                 # v ranks ahead of u
            before[u] |= first * (1 << v)
            before[v] |= ~first * (1 << u)
    picked = np.zeros(masks.shape, dtype=np.int64)
    for u in range(users):
        keep = np.bitwise_count(masks & before[u][:, None]) < count
        picked |= (masks & (1 << u)) * keep
    taken[short] = picked
    return taken


def _outage_bits(config: AntennaConfig, params: ProtocolParams, snr, channel, gain: float):
    if snr is None:
        out = asymptotic_first_decodable_round(1, config, params.multiplexing_gain) > 1
        return (1 << config.users) - 1 if out else 0
    # one round per user at combining gain ``gain``: the IR-ARQ decision at deadline 1
    rounds = capped_rounds(channel, gain * snr, params.rate_at(snr), config.tx, 1,
                           1 << np.arange(config.users))
    return _bits((rounds > 1).T)


def _outcome_tiles(
    protocol: str,
    config: AntennaConfig,
    params: ProtocolParams,
    snr: float | None,
    masks: np.ndarray,
    rng: np.random.Generator,
):
    """Draw a block of epochs whole, then yield its outcomes tile by tile.

    ``masks`` is an (n, m) int64 array of participant bitmasks, epoch e
    evaluated at the sets masks[e].  The generator is consumed at the first
    step, in a fixed order per protocol: for GTA the splitting tree over the
    masks' sizes and the rankings of its short epochs, then for every
    protocol the block's channels unless ``snr`` is None.  Then for each
    slice of :func:`_epoch_tiles` (m sets per epoch) it yields (tile,
    lengths, delivered, errors), the last three int64 arrays shaped like
    ``masks[tile]``; ``delivered`` and ``errors`` are bitmasks of users.
    """
    users = config.users
    if users > 63:
        raise ValueError(f"participant bitmasks are int64: at most 63 users, got {users}")
    if snr is None and params.multiplexing_gain is None:
        raise ValueError("infinite-SNR mode needs multiplexing-gain params")
    if protocol not in (IRARQ, ONDMA, GTA):
        raise ValueError(f"unknown protocol {protocol!r}")
    deadline = params.deadline
    if protocol == IRARQ and deadline is None:
        raise ValueError("IR-ARQ needs a deadline")
    n = masks.shape[0]

    if protocol == GTA:
        sizes = np.bitwise_count(masks).astype(np.int64)
        tree_len, tree_del = _gta_tree_batch(sizes.ravel(), rng)
        tree_len = tree_len.reshape(masks.shape)
        taken = _tree_members(masks, tree_del.reshape(masks.shape), users, rng)
    channel = None if snr is None else _draw_channel(rng, (n, users, config.rx, config.tx))
    if protocol == IRARQ and snr is None:
        gain = params.multiplexing_gain
        by_size = np.array([1] + [asymptotic_first_decodable_round(k, config, gain)
                                  for k in range(1, users + 1)])
    rate = None if snr is None else params.rate_at(snr)

    for tile in _epoch_tiles(n, masks.shape[1]):
        cells = masks[tile]
        drawn = None if channel is None else _pick_epochs(channel, tile)
        if protocol == IRARQ:
            if drawn is None:
                needed = by_size[np.bitwise_count(cells)]
            else:
                rounds = capped_rounds(drawn, snr, rate, config.tx, deadline, range(1, 1 << users))
                worst = _subset_max(rounds, users)
                worst[0] = 1                             # the idle epoch takes one slot
                # worst[cells[e, j], e] for every cell, as one flat gather: min(needed, L + 1)
                t = cells.shape[0]
                needed = worst.ravel()[cells * t + np.arange(t)[:, None]]
            lengths = np.minimum(needed, deadline, dtype=np.int64)
            delivered = cells
            errors = np.where(needed > deadline, cells, 0)
        elif protocol == ONDMA:
            sizes = np.bitwise_count(cells).astype(np.int64)
            lengths = np.maximum(sizes, 1)
            delivered = cells
            if drawn is not None and params.matched_combining:
                # outage bits at combining gain k, for the epochs that have a k-user set
                out = np.zeros((cells.shape[0], users + 1), dtype=np.int64)
                for k in range(1, users + 1):
                    rows = (sizes == k).any(axis=1)
                    picked = _pick_epochs(drawn, rows)
                    out[rows, k] = _outage_bits(config, params, snr, picked, float(k))
                out = np.take_along_axis(out, sizes, axis=1)
            else:
                out = np.reshape(_outage_bits(config, params, snr, drawn, 1.0), (-1, 1))
            errors = cells & out
        else:
            lengths = tree_len[tile]
            delivered = taken[tile]
            errors = delivered & np.reshape(_outage_bits(config, params, snr, drawn, 1.0), (-1, 1))
        yield tile, lengths, delivered, errors


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
    not depend on the masks it is evaluated at.  The tiles of
    :func:`_outcome_tiles`, gathered.
    """
    tiles = list(_outcome_tiles(protocol, config, params, snr, masks, rng))
    if len(tiles) == 1:
        # a queue block is one tile: returned as evaluated, with no fresh pages for a copy
        return tuple(tiles[0][1:])
    out = np.empty((3, *masks.shape), dtype=np.int64)
    for tile, *outcomes in tiles:
        for whole, part in zip(out, outcomes):
            whole[tile] = part
    return tuple(out)
