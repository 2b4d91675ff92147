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

Each user's Gram matrix H H^H is a set of rows of epochs (one row of power
with one receive antenna); the rows of S are its members' rows added one by
one in index order, and det(I_N + (snr/M) * G_S) is the product of the
pivots of an LDL^H elimination, whose only pivot with one receive antenna
is 1 + (snr/M) * power.  Every pivot is at least 1.  Where a deadline L
caps the count, as in every estimator and protocol, the decision needs no
log: S fails after ell rounds iff det < 2^(|S| * rate / ell), and with one
receive antenna iff its power sum is below (2^(|S| * rate / ell) - 1) * M /
snr.  :func:`capped_rounds` compares against these thresholds, computed
once per (|S|, ell), and returns min(rounds needed, L + 1) per subset in
the smallest unsigned type.  The uncapped count of the benchmark's slogdet
check, :func:`batch_first_decodable_round`, rounds up the worst demand
|S| * rate / I_S with I_S = log2 det.  Both share one tie rule: the rate
is shaved by a factor 1 - 1e-12, so a subset exactly on its boundary
decodes.

A block of channels is what the kernels read, drawn by the callers with
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

# Subset-matrix entries (epochs * subsets * rx^2, rx = 1 for power rows) per
# tile of the kernels: 1 MiB of pooled entries, about 2 MiB with the tile's
# temporaries.
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


def _pick_epochs(channel: np.ndarray, rows) -> np.ndarray:
    """The epochs selected by the boolean ``rows``, or the slice ``rows``, of a block of channels."""
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


def _tiles(channel: np.ndarray, subsets: int) -> list[slice]:
    """Consecutive epoch slices of a block of channels, sized for ``subsets`` subsets.

    Each holds max(1, _TILE_ENTRIES // (subsets * rx^2)) epochs (power rows
    count as rx = 1).  A tile's Gram rows, pooled entries and elimination
    temporaries grow as subsets * rx^2 per epoch, so the working set stays
    near cache size for every (K, N), and beyond its result a kernel's
    memory does not grow with the batch.
    """
    step = max(1, _TILE_ENTRIES // (subsets * _rx(channel) ** 2))
    return [slice(start, start + step) for start in range(0, _shape(channel)[0], step)]


def _rx(channel: np.ndarray) -> int:
    """Receive antennas of a block of channels; power rows have one."""
    return 1 if channel.ndim == 2 else channel.shape[2]


def _gram_rows(channel: np.ndarray, tile: slice) -> np.ndarray:
    """The (users, rx^2, epochs) Gram rows of a tile: a view of power rows, built from gains."""
    return channel[:, None, tile] if channel.ndim == 2 else _gram_entries(channel[tile])


def _pool(rows: np.ndarray, plan, out: np.ndarray | None = None):
    """Each subset's rows: its members' ``rows`` added in index order, by a :func:`_pooling_plan`.

    Written into ``out``, one row per subset, when it is given.  Otherwise
    the result is a list in which a one-member subset is its member's rows
    themselves, not a copy, so it must not be written to.
    """
    pooled = [None] * len(plan) if out is None else list(out)
    for s, adds in enumerate(plan):
        terms = [pooled[t] if t < len(plan) else rows[t - len(plan)] for t in adds]
        if len(terms) > 1:
            pooled[s] = np.add(terms[0], terms[1], out=pooled[s])
            for term in terms[2:]:
                pooled[s] += term
        elif out is None:
            pooled[s] = terms[0] if terms else np.zeros_like(rows[0])
        else:
            pooled[s][...] = terms[0] if terms else 0.0
    return pooled if out is None else out


def _det(a: np.ndarray, rx: int) -> np.ndarray:
    """det(I + A) of pooled (subsets, rx^2, epochs) Gram rows A, as (subsets, epochs) rows of ``a``.

    The product of the pivots of an LDL^H elimination of the lower triangle,
    in place.  Each pivot leads a Schur complement of I + PSD, again I + PSD,
    so in exact arithmetic it is at least 1 and a subset whose gains are all
    zero gets exactly 1.  With rx = 1 the only pivot is 1 + A.
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
    det = diag[0]
    for pivot in diag[1:]:
        det *= pivot
    return det


def _thresholds(size: int, snr: float, rate: float, tx: int, rx: int, deadline: int) -> list[float]:
    """The values below which a subset of ``size`` users fails after ell = 1..deadline rounds.

    ell * log2 det(I + (snr/M) G_S) < |S| * R' is det < 2^(|S| R' / ell),
    and with one receive antenna the power sum P_S < (2^(|S| R' / ell) - 1)
    * M / snr.  R' = rate * (1 - 1e-12), so a boundary tie decodes.  A
    threshold beyond the float range is inf: every finite value fails.  At
    a positive rate each threshold lies above the value of zero gains
    (power 0, det 1), so those never decode; a subset of no users at any
    rate, or any subset at rate <= 0, never fails.
    """
    if size == 0 or not rate > 0:
        return []
    limits = []
    for ell in range(1, deadline + 1):
        bits = size * rate * (1.0 - 1e-12) / ell
        try:
            if rx == 1:
                limits.append(max(math.expm1(bits * math.log(2.0)) * tx / snr, math.ulp(0.0)))
            else:
                limits.append(max(2.0**bits, math.nextafter(1.0, 2.0)))
        except OverflowError:
            limits.append(math.inf)
    return limits


def capped_rounds(channel: np.ndarray, snr: float, rate: float, tx: int, deadline: int, subsets) -> np.ndarray:
    """min(rounds needed, deadline + 1) per subset bitmask S and per epoch, without a log.

    ``channel`` is a block of k users' channels (module docstring) with
    ``tx`` transmit antennas and ``subsets`` a sequence of bitmasks; the
    result is (subsets, epochs) of the smallest unsigned type holding
    deadline + 1 (uint8 up to deadline 254).  Each entry is 1 plus the
    number of rounds ell = 1..deadline after which S still fails, by
    comparison with the per-size :func:`_thresholds`: with one receive
    antenna against the power sum of S, its members' power rows added in
    index order (a single member's row is read as drawn), and with N > 1
    against the :func:`_det` of the scaled pooled Gram rows.  The epochs
    run in :func:`_tiles`.
    """
    masks = tuple(map(int, subsets))
    plan = _pooling_plan(masks)
    rx = _rx(channel)
    out = np.ones((len(plan), _shape(channel)[0]), dtype=np.min_scalar_type(deadline + 1))
    limits = {size: _thresholds(size, snr, rate, tx, rx, deadline)
              for size in {m.bit_count() for m in masks}}
    limits = [limits[m.bit_count()] for m in masks]
    if not any(limits):
        return out
    for tile in _tiles(channel, len(plan)):
        rows = _gram_rows(channel, tile)
        if rx == 1:
            values = _pool(rows[:, 0], plan)
        else:
            values = _det(_pool((snr / tx) * rows, plan, np.empty((len(plan), *rows.shape[1:]))), rx)
        for count, value, bounds in zip(out[:, tile], values, limits):
            for bound in bounds:
                count += value < bound
    return out


def batch_first_decodable_round(gains: np.ndarray, snr: float, rate: float) -> np.ndarray:
    """First round after which no subset of all k users fails, per epoch of (epochs, k, rx, tx) gains.

    The ceil of the worst demand |S| * rate / I_S, at least 1, with I_S the
    log2 of each subset's :func:`_det` and the tie rule of :func:`_thresholds`.
    I_S <= 0 demands inf at a positive rate, and rate <= 0 demands 0; inf,
    nan and counts beyond an int64 become NEVER.  Only the worst demand
    outlives a tile of :func:`_tiles`.
    """
    n, k, rx, tx = gains.shape
    plan = _pooling_plan(tuple(range(1, 1 << k)))
    bits = (np.bitwise_count(np.arange(1, 1 << k)) * max(rate, 0.0))[:, None]
    worst = np.empty(n)
    for tile in _tiles(gains, len(plan)):
        rows = (snr / tx) * _gram_rows(gains, tile)
        # I_S per subset, then in place its demand
        demand = np.log2(_det(_pool(rows, plan, np.empty((len(plan), *rows.shape[1:]))), rx))
        silent = ~(demand > 0.0)
        np.divide(bits, demand, out=demand, where=~silent)
        np.copyto(demand, np.inf if rate > 0 else 0.0, where=silent)
        worst[tile] = demand.max(axis=0)
    # boundary ties decode: shave one ulp-scale epsilon before the ceil
    np.ceil(np.multiply(worst, 1.0 - 1e-12, out=worst), out=worst)
    # before the cast: inf, nan and counts beyond int64 become NEVER
    np.copyto(worst, NEVER, where=~(worst < 2.0**63))
    return np.maximum(worst, 1.0, out=worst).astype(np.int64)


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
