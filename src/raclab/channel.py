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

One kernel, :func:`_information`, evaluates I_S for a batch of epochs and
any list of subsets.  With one receive antenna the determinant is the
scalar 1 + (snr/M) * power, and the power of S is the sum of its
members' powers, added in index order.  With N > 1 it is the product of the pivots of an LDL^H
elimination of I_N + (snr/M) * G_S, run on the lower triangle for all
subsets at once, one cache-sized tile of epochs at a time; every pivot is
at least 1.

A block of channels is what the kernel reads, drawn by the callers with
:func:`_draw_channel` from their own generator streams.  With one receive
antenna that is each user's received power sum_tx |h|^2, Gamma(tx, 1)
distributed, as (users, epochs) power rows: no gain is ever drawn.  With
N > 1 it is the (epochs, users, rx, tx) complex gains of
:func:`_draw_gains`.  Only :func:`batch_first_decodable_round` takes gains
at every shape; it turns rx = 1 gains into power rows with
:func:`_user_powers`.  Inside the layer the epoch axis is last:
per-user and per-subset quantities are (users or subsets, epochs) arrays,
one contiguous row of epochs each, so every elementwise step and every
reduction over subsets streams along long rows.  Functions are pure.
"""

from __future__ import annotations

import math

import numpy as np

from .system import AntennaConfig

# A round index safely beyond any deadline, returned when a group of users
# can never be decoded (zero mutual information at a positive rate).
NEVER = 10**9

# Subset-matrix entries (epochs * subsets * rx^2) per tile of the rx > 1
# kernel: 1 MiB of pooled entries, about 2 MiB with the tile's temporaries.
_TILE_ENTRIES = 1 << 17


def _subset_masks(k: int) -> tuple[np.ndarray, np.ndarray]:
    """All nonempty subsets of k users as a (2^k - 1, k) 0/1 matrix plus sizes.

    Row s-1 is the subset whose bitmask is s (bit i set for user i).
    """
    masks = ((np.arange(1, 1 << k)[:, None] >> np.arange(k)) & 1).astype(float)
    return masks, masks.sum(axis=1)


def _draw_gains(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-power circularly symmetric complex Gaussian gains of the given shape.

    The real halves are drawn first, then the imaginary halves, each into
    one reused float buffer and scaled straight into the complex result, so
    a draw holds 1.5 times the gains at its peak.  Bitwise equal to
    ``(a + 1j * b) / sqrt(2)`` from two successive draws, since numpy
    divides by a real scalar by multiplying with its reciprocal.
    """
    gains = np.empty(shape, dtype=complex)
    buf = np.empty(shape)
    for half in (gains.real, gains.imag):
        rng.standard_normal(out=buf)
        np.multiply(buf, 1.0 / math.sqrt(2.0), out=half)
    return gains


def _draw_channel(rng: np.random.Generator, shape) -> np.ndarray:
    """One block of channels for an (epochs, users, rx, tx) ``shape``, as the kernel reads it.

    With rx = 1 these are (users, epochs) power rows: sum_tx |h|^2 of
    unit-power complex Gaussian gains is Gamma(tx, 1), drawn as tx standard
    exponentials added in antenna order.  With rx > 1 they are the gains of
    :func:`_draw_gains`.
    """
    n, k, rx, tx = shape
    if rx > 1:
        return _draw_gains(rng, shape)
    power = rng.standard_exponential((k, n))
    for _ in range(tx - 1):
        power += rng.standard_exponential((k, n))
    return power


def _shape(channel: np.ndarray) -> tuple[int, int]:
    """(epochs, users) of (users, epochs) power rows or of (epochs, users, rx, tx) gains."""
    return channel.shape[::-1] if channel.ndim == 2 else channel.shape[:2]


def _pick_epochs(channel: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The epochs selected by the boolean ``rows`` of a block of channels."""
    return channel[:, rows] if channel.ndim == 2 else channel[rows]


def _user_powers(gains: np.ndarray) -> np.ndarray:
    """Received power sum_tx |h|^2 of each user as (users, epochs) rows; rx = 1.

    The one step from given gains to power rows.  ``np.abs(h) ** 2``, not
    re^2 + im^2, which rounds differently; the transmit antennas are added
    in index order.
    """
    n, k, _, tx = gains.shape
    power = np.abs(gains.reshape(n, k * tx).T, out=np.empty((k * tx, n)))
    power *= power
    return power.reshape(k, tx, n).sum(axis=1) if tx > 1 else power


def _information(channel: np.ndarray, coef: float, masks: np.ndarray) -> np.ndarray:
    """log2 det(I_N + coef * sum_{i in S} H_i H_i^H) per row S of ``masks`` and per epoch.

    ``channel`` is (k, epochs) power rows for one receive antenna, else
    (epochs, k, rx, tx) gains, and ``masks`` is a (subsets, k) 0/1 matrix;
    the result is (subsets, epochs), one row of epochs per subset.  With
    power rows the determinant is 1 + coef * power, one streaming pass
    (tiling it measured no faster).  The power of S is that of the largest
    subset summed so far that S extends by its top members, plus those
    members' powers: the members are added in index order, so a sum never
    depends on the batch shape or the other rows.  Both callers pass masks
    closed under removing the top member (the full lattice, the identity),
    so each row is a copy and at most one add.
    Otherwise :func:`_ldl_information` runs over consecutive tiles of
    max(1, _TILE_ENTRIES // (subsets * rx^2)) epochs, each written into the
    result.  Tiles are sized in matrix entries, not epochs, because the
    working set (pooled subset entries and elimination temporaries) grows
    as subsets * rx^2 per epoch; so it stays near cache size for every
    (K, N), and beyond the result the kernel's memory does not grow with
    the batch.
    """
    n, k = _shape(channel)
    info = np.empty((len(masks), n))
    if channel.ndim == 2:
        power = coef * channel
        sums = {0: 0.0} | {1 << i: power[i] for i in range(k)}   # subset bitmask -> its power row
        for row, s in zip(info, ((masks != 0) @ (1 << np.arange(k))).tolist()):
            rest, tops = s, []
            while rest not in sums:       # strip top users down to a summed subset
                tops.append(rest.bit_length() - 1)
                rest ^= 1 << tops[-1]
            row[:] = sums[rest]
            for top in reversed(tops):
                row += power[top]
            sums[s] = row
        info += 1.0
        return np.log2(info, out=info)
    rx = channel.shape[2]
    step = max(1, _TILE_ENTRIES // (len(masks) * rx * rx))
    for start in range(0, n, step):
        info[:, start : start + step] = _ldl_information(channel[start : start + step], coef, masks)
    return info


def _ldl_information(gains: np.ndarray, coef: float, masks: np.ndarray) -> np.ndarray:
    """The rx > 1 body of :func:`_information` for one tile of epochs.

    The lower triangles of the users' Gram matrices H H^H are pooled over
    the subsets by one real matmul, and an LDL^H elimination of
    A = I + coef * G_S runs over the lower triangle, vectorised across the
    tile's epochs and all subsets: log2 det A is the sum of the log2
    pivots.  Each pivot is the leading entry of a Schur complement of
    I + PSD, which is again I + PSD, so in exact arithmetic every pivot is
    at least 1 and a subset whose gains are all zero gets exactly 0 bits.
    """
    n, k, rx = gains.shape[:3]
    # epoch axis last: each matrix entry of a user, and later of a subset, is a row of epochs
    h = np.ascontiguousarray(np.moveaxis(gains, 0, -1))            # (k, rx, tx, n)
    rows, cols = np.tril_indices(rx, -1)
    below = list(zip(rows.tolist(), cols.tolist()))                 # strict lower triangle
    # conj operand first: numpy's complex multiply rounds the imaginary part
    # differently with swapped operands, and on a large array it evaluates
    # a * b.conj() in place as b.conj() * a; this order holds at every size
    cross = np.sum(h[:, cols].conj() * h[:, rows], axis=2)          # (k, pairs, n)
    grams = np.concatenate([np.sum(h.real**2 + h.imag**2, axis=2), cross.real, cross.imag],
                           axis=1)                                  # (k, rx + 2 * pairs, n)
    grams *= coef
    a = (masks @ grams.reshape(k, -1)).reshape(len(masks), grams.shape[1], n)  # (subsets, entries, n)
    a[:, :rx] += 1.0                                                # A = I + coef * G_S
    diag = [a[:, i] for i in range(rx)]
    re = {rc: a[:, rx + p] for p, rc in enumerate(below)}
    im = {rc: a[:, rx + len(below) + p] for p, rc in enumerate(below)}
    info = np.zeros((len(masks), n))
    for j in range(rx):
        info += np.log2(diag[j])
        inv = 1.0 / diag[j]
        for i in range(j + 1, rx):
            lr, li = re[i, j] * inv, im[i, j] * inv                  # L[i, j]
            diag[i] -= lr * re[i, j] + li * im[i, j]
            for m in range(j + 1, i):                               # A[i, m] -= L[i, j] A[m, j]^*
                re[i, m] -= lr * re[m, j] + li * im[m, j]
                im[i, m] -= li * re[m, j] - lr * im[m, j]
    return info


def _single_user_info(channel: np.ndarray, snr: float, gain: float, tx: int) -> np.ndarray:
    """Per-user mutual information as (users, epochs) rows, for a block of channels."""
    return _information(channel, gain * snr / tx, np.eye(_shape(channel)[1]))


def subset_demand(channel: np.ndarray, snr: float, rate: float, tx: int) -> np.ndarray:
    """Round demand |S|*rate / I_S of every nonempty user subset S, per epoch.

    ``channel`` is a block of k users' channels (see :func:`_information`)
    with ``tx`` transmit antennas; the result is (subsets, epochs).  Row
    s-1 belongs to the subset whose bitmask is s (bit i set for user i); a
    subset with no mutual information demands inf.  Subset enumeration is
    exponential in k.
    """
    masks, sizes = _subset_masks(_shape(channel)[1])
    info = _information(channel, snr / tx, masks)
    silent = ~(info > 0.0)
    np.divide((sizes * rate)[:, None], info, out=info, where=~silent)
    np.copyto(info, np.inf, where=silent)
    return info


def rounds_from_demand(worst: np.ndarray) -> np.ndarray:
    """Smallest round count meeting a worst-case demand; NEVER for inf.

    A finite count is returned as it is, even beyond NEVER, unless it does
    not fit in an int64.
    """
    # boundary ties decode: shave one ulp-scale epsilon before the ceil
    rounds = np.multiply(worst, 1.0 - 1e-12)
    np.ceil(rounds, out=rounds)
    # before the cast: inf, nan and counts beyond int64 become NEVER
    np.copyto(rounds, NEVER, where=~(rounds < 2.0**63))
    np.maximum(rounds, 1.0, out=rounds)
    return rounds.astype(np.int64)


def _first_round(channel: np.ndarray, snr: float, rate: float, tx: int) -> np.ndarray:
    """First round after which no subset condition fails, per epoch of a block of channels.

    All k users of the block are active.  The result is the ceil of the
    worst subset demand |S|*rate / I_S, or NEVER if some subset has zero
    mutual information at a positive rate.
    """
    if rate <= 0:
        return np.ones(_shape(channel)[0], dtype=np.int64)
    return rounds_from_demand(subset_demand(channel, snr, rate, tx).max(axis=0))


def batch_first_decodable_round(gains: np.ndarray, snr: float, rate: float) -> np.ndarray:
    """:func:`_first_round` of (epochs, k, rx, tx) gains, for every antenna shape.

    Callers are expected to chunk the batch.
    """
    channel = _user_powers(gains) if gains.shape[2] == 1 else gains
    return _first_round(channel, snr, rate, gains.shape[3])


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
