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
any sequence of subset bitmasks, with one body for every antenna shape.
Each user's Gram matrix H H^H is a set of rows of epochs (one row of
power with one receive antenna); the rows of S are its members' rows added
one by one in index order, and log2 det is the sum of the log2 pivots of
an LDL^H elimination of I_N + (snr/M) * G_S, whose only pivot with one
receive antenna is 1 + (snr/M) * power.  Every pivot is at least 1.

A block of channels is what the kernel reads, drawn by the callers with
:func:`_draw_channel` from their own generator streams.  With one receive
antenna that is each user's received power sum_tx |h|^2, Gamma(tx, 1)
distributed, as (users, epochs) power rows: no gain is ever drawn.  With
N > 1 it is the (epochs, users, rx, tx) complex gains of
:func:`_draw_gains`; given gains of any shape are read the same way.
Inside the layer the epoch axis is last: per-user and per-subset
quantities are (users or subsets, epochs) arrays, one contiguous row of
epochs each, so every elementwise step streams along long rows.  Functions
are pure.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .system import AntennaConfig

# A round index safely beyond any deadline, returned when a group of users
# can never be decoded (zero mutual information at a positive rate).
NEVER = 10**9

# Subset-matrix entries (epochs * subsets * rx^2) per tile of the rx > 1
# kernel: 1 MiB of pooled entries, about 2 MiB with the tile's temporaries.
_TILE_ENTRIES = 1 << 17


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


def _gram_entries(gains: np.ndarray) -> np.ndarray:
    """Each user's Gram matrix H H^H of (epochs, users, rx, tx) gains, as (users, rx^2, epochs) rows.

    The diagonal (sum_tx re^2 + im^2), then the real and the imaginary parts
    of the strict lower triangle in ``np.tril_indices`` order.
    """
    rx = gains.shape[2]
    # epoch axis last: each matrix entry of a user is a row of epochs
    h = np.ascontiguousarray(np.moveaxis(gains, 0, -1))            # (k, rx, tx, n)
    rows, cols = np.tril_indices(rx, -1)
    # conj operand first: numpy's complex multiply rounds the imaginary part
    # differently with swapped operands, and on a large array it evaluates
    # a * b.conj() in place as b.conj() * a; this order holds at every size
    cross = np.sum(h[:, cols].conj() * h[:, rows], axis=2)          # (k, pairs, n)
    return np.concatenate([np.sum(h.real**2 + h.imag**2, axis=2), cross.real, cross.imag], axis=1)


@functools.cache
def _pooling_plan(subsets: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The terms to add, in order, into the pooled rows of each subset bitmask.

    Term j < len(subsets) is the pooled rows of subsets[j], term
    len(subsets) + i the rows of user i.  A subset starts from the last one
    pooled that it extends by its top members, then adds those in index
    order: every sum adds its members in index order, whatever came before.
    """
    pooled, plan = {}, []
    for j, s in enumerate(subsets):
        rest, tops = s, []
        while rest and rest not in pooled:        # strip top users down to a pooled subset
            tops.append(rest.bit_length() - 1)
            rest ^= 1 << tops[-1]
        start = (pooled[rest],) if rest else ()
        plan.append(start + tuple(len(subsets) + top for top in reversed(tops)))
        pooled[s] = j
    return tuple(plan)


def _log_det(a: np.ndarray, rx: int, out: np.ndarray) -> None:
    """log2 det(I + A) of pooled (subsets, rx^2, epochs) Gram rows A, written into ``out``.

    The sum of the log2 pivots of an LDL^H elimination of the lower triangle,
    in place.  Each pivot leads a Schur complement of I + PSD, again I + PSD,
    so in exact arithmetic it is at least 1 and a subset whose gains are all
    zero gets exactly 0 bits.  With rx = 1 the only pivot is 1 + A.
    """
    rows, cols = np.tril_indices(rx, -1)
    below = list(zip(rows.tolist(), cols.tolist()))                 # strict lower triangle
    a[:, :rx] += 1.0                                                # I + A, in place
    diag = [a[:, i] for i in range(rx)]
    re = {rc: a[:, rx + p] for p, rc in enumerate(below)}
    im = {rc: a[:, rx + len(below) + p] for p, rc in enumerate(below)}
    for j in range(rx - 1):
        inv = 1.0 / diag[j]
        for i in range(j + 1, rx):
            lr, li = re[i, j] * inv, im[i, j] * inv                  # L[i, j]
            diag[i] -= lr * re[i, j] + li * im[i, j]
            for m in range(j + 1, i):                               # A[i, m] -= L[i, j] A[m, j]^*
                re[i, m] -= lr * re[m, j] + li * im[m, j]
                im[i, m] -= li * re[m, j] - lr * im[m, j]
    np.log2(diag[0], out=out)
    for pivot in diag[1:]:
        out += np.log2(pivot)


def _information(channel: np.ndarray, coef: float, subsets) -> np.ndarray:
    """log2 det(I_N + coef * sum_{i in S} H_i H_i^H) per subset bitmask S and per epoch.

    ``channel`` is (k, epochs) power rows (the 1 x 1 Gram) or (epochs, k,
    rx, tx) gains, ``subsets`` a sequence of bitmasks (bit i for user i);
    the result is (subsets, epochs).  A subset's rows are its members'
    scaled Gram rows added in index order (:func:`_pooling_plan`), so a sum
    never depends on the batch shape or the other subsets.  A 1 x 1 Gram is
    pooled straight into the result, power rows in one pass.  Gains run over
    tiles of max(1, _TILE_ENTRIES // (subsets * rx^2)) epochs: their Gram
    rows, the pooled entries and the elimination temporaries grow as
    subsets * rx^2 per epoch, so the working set stays near cache size for
    every (K, N), and beyond the result the kernel's memory does not grow
    with the batch.
    """
    n = _shape(channel)[0]
    rx = 1 if channel.ndim == 2 else channel.shape[2]
    plan = _pooling_plan(tuple(map(int, subsets)))
    info = np.empty((len(plan), n))
    step = max(1, n if channel.ndim == 2 else _TILE_ENTRIES // (len(plan) * rx * rx))
    for start in range(0, n, step):
        tile = slice(start, start + step)
        rows = coef * (channel[:, None, tile] if channel.ndim == 2 else _gram_entries(channel[tile]))
        pooled = info[:, None, tile] if rx == 1 else np.empty((len(plan), rx * rx, rows.shape[2]))
        terms = [*pooled, *rows]
        for row, adds in zip(pooled, plan):
            if len(adds) > 1:
                np.add(terms[adds[0]], terms[adds[1]], out=row)
                for t in adds[2:]:
                    row += terms[t]
            else:
                row[...] = terms[adds[0]] if adds else 0.0
        _log_det(pooled, rx, info[:, tile])
    return info


def _single_user_info(channel: np.ndarray, snr: float, gain: float, tx: int) -> np.ndarray:
    """Per-user mutual information as (users, epochs) rows, for a block of channels."""
    return _information(channel, gain * snr / tx, 1 << np.arange(_shape(channel)[1]))


def subset_demand(channel: np.ndarray, snr: float, rate: float, tx: int) -> np.ndarray:
    """Round demand |S|*rate / I_S of every nonempty user subset S, per epoch.

    ``channel`` is a block of k users' channels (see :func:`_information`)
    with ``tx`` transmit antennas; the result is (subsets, epochs).  Row
    s-1 belongs to the subset whose bitmask is s (bit i set for user i).  At
    a positive rate a subset with no mutual information demands inf; at rate
    <= 0 every subset demands 0, so it decodes in one round.  Subset
    enumeration is exponential in k.
    """
    subsets = range(1, 1 << _shape(channel)[1])
    info = _information(channel, snr / tx, subsets)
    sizes = np.bitwise_count(np.array(subsets))
    silent = ~(info > 0.0)
    np.divide((sizes * max(rate, 0.0))[:, None], info, out=info, where=~silent)
    np.copyto(info, np.inf if rate > 0 else 0.0, where=silent)
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
    worst subset demand |S|*rate / I_S (at least 1), or NEVER if some subset
    has zero mutual information at a positive rate.
    """
    return rounds_from_demand(subset_demand(channel, snr, rate, tx).max(axis=0))


def batch_first_decodable_round(gains: np.ndarray, snr: float, rate: float) -> np.ndarray:
    """:func:`_first_round` of (epochs, k, rx, tx) gains, for every antenna shape.

    Callers are expected to chunk the batch.
    """
    return _first_round(gains, snr, rate, gains.shape[3])


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
