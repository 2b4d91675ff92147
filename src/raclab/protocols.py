"""Epoch outcomes of the three protocols at given participant sets.

An epoch starts after the previous receiver ACK.  The participant set is
decided before entry (each non-empty queue transmits with probability p_t)
and stays fixed until the epoch ends.  Given the participant set, the
outcome does not depend on the queues, so a block of epochs is drawn at
once and each epoch evaluated at the participant bitmasks it is asked for
(bit i set for user i; 0 is the idle epoch): the epoch length and the
bitmasks of delivered and of wrongly decoded packets.

:func:`epoch_outcomes` draws and evaluates a block in two stages, with one
body per protocol.  The schedule (:func:`_schedule`) checks the inputs and
makes every draw that no channel decides: GTA and O-NDMA epochs end and
deliver whatever the channel, so it gives their lengths and delivered
sets.  The decode (:func:`_decode`) then draws the block's channels, the
block's last draw, and decides IR-ARQ's lengths and every protocol's
errors.  It draws them through :func:`channel._draw_tiles`, so with more
than one receive antenna it holds one kernel tile of gains at a time.
Its callers keep the block cache-sized: the queue asks for ``_TILE``
cells (epochs times the 2^K sets of each) per draw, and a fully-loaded
estimator's default chunk is ``_TILE`` epochs at one set each.

* IR-ARQ: every participant sends a fresh redundancy block each round and
  the receiver jointly decodes across users and rounds, up to the deadline
  L; at round L an ACK is sent regardless, so failed packets still drain.
  The rounds S needs, capped at L + 1, are the most any nonempty T
  contained in S needs: :func:`_mask_rounds`, the :func:`_subset_max` of
  :func:`channel.capped_rounds`, or at infinite SNR a row sum of
  :func:`channel.asymptotic_survival`.
* O-NDMA: a k-user collision is resolved in exactly k orthogonal slots and
  each message is decoded by a single-user decoder at combining gain 1: the
  IR-ARQ decision for one user and one round, with the same tie rule.
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

from .channel import (_capped_tiles, _check_tile, _det, _draw_tiles, _gram_entries, _scratch, _thresholds,
                      asymptotic_survival)
from .system import GTA, IRARQ, ONDMA, AntennaConfig, ProtocolParams


def _bits(flags: np.ndarray) -> np.ndarray:
    """Per-epoch bitmask of an (epochs, users) boolean array."""
    out = np.zeros(flags.shape[0], dtype=np.int64)
    for i in range(flags.shape[1]):
        out |= flags[:, i].astype(np.int64) << i
    return out


def _check_users(users: int) -> None:
    """ValueError past 63 users: participant bitmasks are int64."""
    if users > 63:
        raise ValueError(f"participant bitmasks are int64: at most 63 users, got {users}")


def _coins(rng: np.random.Generator, n: int, users: int, p_t: float) -> np.ndarray:
    """Participation bitmasks of n epochs, each user's coin 1 with probability p_t.

    One uniform per epoch and user, in epoch order; at p_t = 1 every coin
    is 1 and none is drawn.
    """
    _check_users(users)
    if p_t < 1.0:
        return _bits(rng.random((n, users)) < p_t)
    return np.full(n, (1 << users) - 1, dtype=np.int64)


def _subset_max(rows: np.ndarray, users: int, out=None) -> np.ndarray:
    """Max of (subsets, epochs) ``rows`` over the nonempty subsets of every mask.

    The result is (2^users, epochs) of the type of ``rows``, row m for mask
    m, written into ``out`` when it is given (``rows`` may be ``out[1:]``
    itself); row 0 is 0.
    """
    worst = np.empty((1 << users, rows.shape[1]), dtype=rows.dtype) if out is None else out
    worst[0] = 0
    worst[1:] = rows
    for i in range(users):
        # v[:, 1] are the masks with bit i set, v[:, 0] the same masks without it
        v = worst.reshape(1 << (users - 1 - i), 2, 1 << i, rows.shape[1])
        np.maximum(v[:, 1], v[:, 0], out=v[:, 1])
    return worst


def _mask_rounds(rng: np.random.Generator, shape, snr: float, rate: float, deadline: int,
                 buffers: dict | None = None) -> np.ndarray:
    """Draw a block of k users' channels of an (epochs, k, rx, tx) ``shape``; min(rounds needed, L + 1) of every mask.

    :func:`_subset_max` of the :func:`channel.capped_rounds` of the block,
    (2^k, epochs) of its count type, row m for mask m (row 0 is 0).  The
    block is drawn and counted a kernel tile at a time
    (:func:`channel._draw_tiles`).  With ``buffers``
    (:func:`channel._scratch`) the tile and the result are held there,
    and the lattice is written straight into the result's rows 1.., where
    the maximum runs in place.
    """
    n, k, rx, tx = shape
    subsets = (1 << k) - 1
    _check_tile(subsets, rx)                         # before a buffer is sized for the lattice
    worst = _scratch(buffers, "worst", (1 << k, n), np.min_scalar_type(deadline + 1))
    rounds = _capped_tiles(_draw_tiles(rng, shape, subsets, buffers), n, k, rx, snr, rate, tx, deadline,
                           None if worst is None else worst[1:])
    return _subset_max(rounds, k, worst)


# Cells (epochs times participant sets per epoch) of one cache-sized block:
# the queue's block and the estimators' default chunk
_TILE = 1 << 14

# the tree's per-epoch accumulator packs length << 32 | users not yet pruned
_SLOT = 1 << 32
_MAX_TREE_USERS = 64               # one 64-bit word per group


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
    the delivered users as uniform subsets.  The colliding epochs run
    together: each step moves every live epoch to its next distinct group
    size and drops the epochs that finish, so an epoch of k users takes at
    most k - 1 steps, bar redraws of probability at most 2^-32 each.

    A step draws one uniform 64-bit word per live epoch, in epoch order,
    so a group holds at most 64 users.  The word holds 64 / s disjoint
    chunks of g bits at stride s = bit_ceil(g), each a fair split whose
    popcount is the left-group size.  A chunk with all bits equal (left
    group empty or full) is a re-collision: one slot, same group.  The step
    takes the first chunk that splits, after one slot per chunk before it
    (:func:`_split`); if none splits, the epoch adds one slot per chunk and
    draws again.
    """
    k_max = int(k_init.max(initial=1))
    if k_max > _MAX_TREE_USERS:
        raise ValueError(f"splitting tree counts at most {_MAX_TREE_USERS} users, got {k_max}")
    acc = np.add(k_init, _SLOT, dtype=np.int64)     # the first slot; no user pruned yet
    # idx lists the live epochs; None while every epoch is live (idx = 0..n-1)
    idx = None if k_init.min(initial=0) >= 2 else np.flatnonzero(k_init >= 2)
    group = (k_init if idx is None else k_init[idx]).astype(np.uint8)   # at most 64 users: byte-wide
    while group.size:
        draw = rng.integers(0, 1 << 64, size=group.size, dtype=np.uint64)
        loops, left = _split(draw, group)
        one = left == 1
        # a singleton left group takes its clean slot and the rest collides
        # again (a lone rest sends in that slot); a larger one prunes the right
        after = group - 2
        after *= one
        after += left                            # group - 1 where one, else left
        inc = np.left_shift(loops + one + 1, 32, dtype=np.int64)
        inc -= group - after - one               # the users pruned
        if not left.all():                       # every chunk re-collided
            stuck = left == 0
            inc[stuck] = loops[stuck].astype(np.int64) << 32
            after[stuck] = group[stuck]
        if group.size == acc.size:               # every epoch is live: idx is 0..n-1
            acc += inc
        else:
            acc[idx] += inc
        live = np.flatnonzero(after >= 2)        # a gather, faster than a boolean mask
        idx, group = (live if idx is None else idx[live]), after[live]
    return acc >> 32, acc & (_SLOT - 1)              # every user not pruned is delivered


def _split(w: np.ndarray, group: np.ndarray):
    """Re-collisions and left-group size of the first split in each word of ``w``.

    Word e is uniform for a group of 2 <= group[e] <= 64 users, laid out
    as :func:`_gta_tree_batch` says.  Returns (loops, left): the chunks
    that re-collided before the first that splits, and that chunk's
    popcount, 1 <= left < group.  Where no chunk splits, left is 0 and
    loops is the number of chunks.
    """
    if group.min() == group.max():
        group = group[0]                             # one size: scalar table entries, no gather
    # take() gathers by a byte-wide index about as fast as by a native one
    log2 = _STRIDE_LOG2.take(group)
    y = w >> 1
    y ^= w
    y &= _PAIRS.take(group)                          # set where neighbours in a chunk differ
    # popcount(y ^ (y - 1)) is ctz(y) + 1, which stays inside the chunk of
    # y's lowest set bit (a chunk's top bit is never set in y); at y = 0 it
    # is 64, so loops is then the number of chunks
    loops = np.bitwise_count((y - 1) ^ y) >> log2
    left = np.bitwise_count((w >> (loops << log2)) & _LOW.take(group))  # a shift by 64 gives 0
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


def _outage_bits(config: AntennaConfig, params: ProtocolParams, snr, rng, n: int, buffers=None):
    """Draw n epochs' channels; the per-epoch bitmask of the users who fail one round at gain 1.

    The IR-ARQ decision at deadline 1 for each lone user: its power row,
    or the det of its scaled Gram rows, against its one threshold, as
    :func:`channel.capped_rounds` compares a one-member subset.  The
    channels are drawn a kernel tile at a time (:func:`channel._draw_tiles`,
    one subset per user).  At infinite SNR nothing is drawn.
    """
    if snr is None:
        lost = asymptotic_survival(config, params.multiplexing_gain, 1)[0, 1]    # one user after one round
        return (1 << config.users) - 1 if lost else 0
    users, rx, tx = config.users, config.rx, config.tx
    limits = _thresholds(1, snr, params.rate_at(snr), tx, rx, 1)
    lost = np.zeros((users, n), dtype=bool)
    for tile, channel in _draw_tiles(rng, (n, users, rx, tx), users, buffers):
        if limits:
            values = channel if rx == 1 else _det((snr / tx) * _gram_entries(channel), rx)
            np.less(values, limits[0], out=lost[:, tile])
    return _bits(lost.T)


def _schedule(protocol: str, config: AntennaConfig, params: ProtocolParams,
              snr: float | None, masks: np.ndarray, rng: np.random.Generator):
    """The input checks and every draw of :func:`epoch_outcomes` before the channel.

    GTA and O-NDMA epochs end, and deliver their packets, whatever the
    channel: returns their (lengths, delivered), and None for IR-ARQ.
    """
    users = config.users
    _check_users(users)
    if snr is None and params.multiplexing_gain is None:
        raise ValueError("infinite-SNR mode needs multiplexing-gain params")
    if protocol not in (IRARQ, ONDMA, GTA):
        raise ValueError(f"unknown protocol {protocol!r}")
    if protocol == IRARQ:
        if params.deadline is None:
            raise ValueError("IR-ARQ needs a deadline")
        return None
    sizes = np.bitwise_count(masks).astype(np.int64)
    if protocol == ONDMA:
        return np.maximum(sizes, 1), masks
    tree_len, tree_del = _gta_tree_batch(sizes.ravel(), rng)
    taken = _tree_members(masks, tree_del.reshape(masks.shape), users, rng)
    return tree_len.reshape(masks.shape), taken


def _decode(protocol: str, config: AntennaConfig, params: ProtocolParams,
            snr: float | None, masks: np.ndarray, rng: np.random.Generator, schedule,
            buffers: dict | None = None):
    """Draw the block's channels and decode the epochs of a :func:`_schedule`.

    IR-ARQ's :func:`_mask_rounds` and the other protocols' :func:`_outage_bits`
    each draw the channels a kernel tile at a time and decide every tile as
    it is drawn.  The channels and IR-ARQ's lattice are held in ``buffers``
    (:func:`channel._scratch`) when given, else allocated.
    """
    n = masks.shape[0]
    if protocol == IRARQ:
        deadline = params.deadline
        if snr is None:
            # the row sums min(needed, L + 1) per size; the idle epoch takes one slot
            survival = asymptotic_survival(config, params.multiplexing_gain, deadline)
            needed = np.append(1, np.count_nonzero(survival, axis=1))[np.bitwise_count(masks)]
        else:
            shape = (n, config.users, config.rx, config.tx)
            worst = _mask_rounds(rng, shape, snr, params.rate_at(snr), deadline, buffers)
            worst[0] = 1                                 # the idle epoch takes one slot
            # worst[masks[e, j], e] for every cell, as one flat gather: min(needed, L + 1)
            needed = worst.ravel()[masks * n + np.arange(n)[:, None]]
        errors = np.where(needed > deadline, masks, 0)
        return np.minimum(needed, deadline, dtype=np.int64), masks, errors
    lengths, delivered = schedule
    out = np.reshape(_outage_bits(config, params, snr, rng, n, buffers), (-1, 1))
    return lengths, delivered, delivered & out


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
    generator is consumed in a fixed order per protocol: for GTA the
    splitting tree over the masks' sizes and the rankings of its short
    epochs (:func:`_schedule`), then for every protocol the block's
    channels unless ``snr`` is None (:func:`_decode`).  So a block replays
    bitwise for a given generator state, and the channel draws of an epoch
    do not depend on the masks it is evaluated at.
    """
    schedule = _schedule(protocol, config, params, snr, masks, rng)
    return _decode(protocol, config, params, snr, masks, rng, schedule)
