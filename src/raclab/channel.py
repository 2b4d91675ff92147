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
with one receive antenna).  The kernels read the lattice of all nonempty
subsets S of the k users, bitmask s in row s - 1, and pool the rows of S
member by member in index order.  det(I_N + (snr/M) * G_S) is the product of
the pivots of an LDL^H elimination, whose only pivot with one receive
antenna is 1 + (snr/M) * power.  Every pivot is at least 1.  Where a
deadline L caps the count, as in every estimator and protocol, the decision
needs no log: S fails after ell rounds iff det < 2^(|S| * rate / ell), and
with one receive antenna iff its power sum is below (2^(|S| * rate / ell) -
1) * M / snr.  :func:`capped_rounds` compares against these thresholds,
computed once per (|S|, ell), and returns min(rounds needed, L + 1) per
lattice row in the smallest unsigned type.  The uncapped count of the
benchmark's slogdet check, :func:`batch_first_decodable_round`, rounds up
the worst demand |S| * rate / I_S with I_S = log2 det.  Both share one tie
rule: the rate is shaved by a factor 1 - 1e-12, so a subset exactly on its
boundary decodes.

A block of channels is what the kernels read, drawn by the callers from
their own generator streams.  With one receive antenna that is each user's
received power sum_tx |h|^2, Gamma(tx, 1) distributed, as (users, epochs)
power rows: no gain is ever drawn.  With N > 1 it is the (epochs, users,
rx, tx) complex gains of :func:`_draw_gains`, one interleaved stream in
which n epochs draw what m epochs and then n - m draw, so a block may be
drawn in any cut.  The estimators and protocols draw through
:func:`_draw_tiles`: power rows a block at a time, gains one kernel tile
at a time, each tile decided while it is in cache.  Given gains of any
shape are read the same way.  Inside the layer the epoch axis is last:
per-user and per-subset quantities are (users or subsets, epochs) arrays,
one contiguous row of epochs each, so every elementwise step streams
along long rows.  Functions other than the draws are pure.

In the infinite-SNR limit the decision is deterministic, and
:func:`asymptotic_survival` gives its round counts as survival indicators.
"""

from __future__ import annotations

import math

import numpy as np

from .system import AntennaConfig, check_counts, check_rate

# A round index safely beyond any deadline, returned when a group of users
# can never be decoded (zero mutual information at a positive rate).
NEVER = 10**9

# Subset-matrix entries (epochs * subsets * rx^2, rx = 1 for power rows) per
# tile of the kernels: 1 MiB of pooled entries, about 2 MiB with the tile's
# temporaries.
_TILE_ENTRIES = 1 << 17


def _scratch(buffers: dict | None, name: str, shape, dtype=np.float64) -> np.ndarray | None:
    """An uninitialised C-contiguous ``shape`` array of ``dtype`` held in ``buffers``; None without buffers.

    ``buffers`` holds one Monte Carlo call's chunk buffers on one thread
    (``montecarlo._sum_chunks``): the bytes of one flat buffer per name,
    allocated on first use and replaced by a larger one when a chunk asks
    for more.  Every request under a name gets a leading view of its bytes,
    whatever the type, so a short last chunk reads flat[:size] reshaped
    (Generator methods fill only contiguous ``out=`` arrays), and a chunk
    may reuse a name whose contents it no longer needs.  Given None, a
    helper's ``out=`` stays None and the helper allocates its result.
    """
    if buffers is None:
        return None
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    flat = buffers.get(name)
    if flat is None or flat.size < nbytes:
        flat = buffers[name] = np.empty(nbytes, np.uint8)
    return flat[:nbytes].view(dtype).reshape(shape)


def _draw_gains(rng: np.random.Generator, shape, out=None) -> np.ndarray:
    """Unit-power circularly symmetric complex Gaussian gains of the given shape.

    One ``standard_normal`` fill of the complex array's float view, so each
    gain's real and imaginary normals are adjacent, epoch after epoch, then
    scaled in place by 1/sqrt(2): the bytes of ``standard_normal(2 * size)
    * (1 / sqrt(2))`` viewed as complex, and the draw holds nothing beyond
    its result.  The generator fills an array one sample after another, so
    n epochs draw what m epochs and then n - m draw.  The gains are written
    into ``out`` (C-contiguous complex, of ``shape``) where given.
    """
    gains = np.empty(shape, dtype=complex) if out is None else out
    flat = gains.reshape(-1).view(np.float64)
    rng.standard_normal(out=flat)
    np.multiply(flat, 1.0 / math.sqrt(2.0), out=flat)
    return gains


def _draw_channel(rng: np.random.Generator, shape, out=None, spare=None) -> np.ndarray:
    """One block of channels for an (epochs, users, rx, tx) ``shape``, as the kernel reads it.

    With rx = 1 these are (users, epochs) power rows: sum_tx |h|^2 of
    unit-power complex Gaussian gains is Gamma(tx, 1), drawn as tx standard
    exponentials added in antenna order, each antenna after the first into
    ``spare``.  With rx > 1 they are the gains of :func:`_draw_gains`.
    Where given, ``out`` and ``spare`` are the C-contiguous arrays of
    :func:`_draw_buffers`; otherwise they are allocated.  The estimators
    and protocols draw through :func:`_draw_tiles`, which holds one tile of
    gains, not a block.
    """
    n, k, rx, tx = shape
    if rx > 1:
        return _draw_gains(rng, shape, out)
    power = rng.standard_exponential((k, n)) if out is None else rng.standard_exponential(out=out)
    for _ in range(tx - 1):
        power += rng.standard_exponential((k, n)) if spare is None else rng.standard_exponential(out=spare)
    return power


def _draw_buffers(buffers: dict | None, shape):
    """:func:`_draw_channel`'s (out, spare) arrays for ``shape``, held in ``buffers`` (:func:`_scratch`)."""
    n, k, rx, tx = shape
    if rx > 1:
        return _scratch(buffers, "channel", shape, complex), None
    return _scratch(buffers, "channel", (k, n)), _scratch(buffers, "spare", (k, n)) if tx > 1 else None


def _draw_tiles(rng: np.random.Generator, shape, subsets: int, buffers: dict | None = None):
    """A block of channels of an (epochs, users, rx, tx) ``shape``, drawn as the :func:`_tiles` for ``subsets``.

    Yields (epoch slice, channels of those epochs) in epoch order.  With
    rx = 1 the block's power rows are drawn whole by :func:`_draw_channel`
    and each tile is a view of them.  With rx > 1 each tile's gains are
    drawn when it is reached, into one tile of memory that every tile
    reuses: no more than one tile of gains is held, and the tiles draw the
    block's :func:`_draw_gains` stream whatever their size.  So a caller
    reads each tile before it asks for the next.  The memory is held in
    ``buffers`` (:func:`_scratch`) when given.
    """
    n, k, rx, tx = shape
    if rx == 1:
        yield from _tiles(_draw_channel(rng, shape, *_draw_buffers(buffers, shape)), subsets)
        return
    step = _tile_epochs(subsets, rx)
    block = _scratch(buffers, "channel", (min(step, n), k, rx, tx), complex)
    for start in range(0, n, step):
        size = min(step, n - start)
        gains = _draw_gains(rng, (size, k, rx, tx), None if block is None else block[:size])
        yield slice(start, start + size), gains


def _shape(channel: np.ndarray) -> tuple[int, int]:
    """(epochs, users) of (users, epochs) power rows or of (epochs, users, rx, tx) gains."""
    return channel.shape[::-1] if channel.ndim == 2 else channel.shape[:2]


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


def _tile_epochs(subsets: int, rx: int) -> int:
    """Epochs per kernel tile of ``subsets`` subsets at ``rx`` receive antennas: max(1, _TILE_ENTRIES // (subsets * rx^2)).

    A tile's Gram rows, pooled entries and elimination temporaries grow as
    subsets * rx^2 per epoch, so the working set stays near cache size for
    every (K, N), and beyond its result a kernel's memory does not grow
    with the batch.
    """
    return max(1, _TILE_ENTRIES // (subsets * rx * rx))


def _tiles(channel: np.ndarray, subsets: int):
    """(epoch slice, channels of those epochs) of consecutive :func:`_tile_epochs` tiles of a given block.

    Power rows count as rx = 1; each tile is a view.
    """
    step = _tile_epochs(subsets, _rx(channel))
    for start in range(0, _shape(channel)[0], step):
        tile = slice(start, start + step)
        yield tile, channel[:, tile] if channel.ndim == 2 else channel[tile]


def _check_tile(subsets: int, rx: int) -> None:
    """ValueError unless one epoch of ``subsets`` subsets at ``rx`` receive antennas fits a tile.

    Past that, a tile of the kernels holds one epoch and the subsets'
    rows alone outgrow the cache (and soon memory): IR-ARQ's joint decoder
    takes 2^K - 1 subsets, so at most 17 users with one receive antenna.
    """
    if subsets * rx * rx > _TILE_ENTRIES:
        raise ValueError(f"{subsets} subsets at {rx} receive antennas exceed one kernel tile "
                         f"of {_TILE_ENTRIES} entries per epoch: too many users for joint decoding")


def _rx(channel: np.ndarray) -> int:
    """Receive antennas of a block of channels; power rows have one."""
    return 1 if channel.ndim == 2 else channel.shape[2]


def _gram_rows(channel: np.ndarray) -> np.ndarray:
    """The (users, rx^2, epochs) Gram rows of a tile: a view of power rows, built from gains."""
    return channel[:, None] if channel.ndim == 2 else _gram_entries(channel)


def _pool(rows: np.ndarray, out: np.ndarray | None = None):
    """The rows of every nonempty subset of the users of ``rows``, row s - 1 for bitmask s.

    Subset s is s without its top member, pooled earlier, plus that
    member's rows: every sum adds its members in index order.  Written into
    ``out`` when it is given, else a list in which a one-member subset is
    its member's rows themselves, not a copy, so it must not be written to.
    """
    pooled = [None] * ((1 << len(rows)) - 1) if out is None else out
    for s in range(1, len(pooled) + 1):
        top = s.bit_length() - 1
        rest = s ^ (1 << top)
        if not rest:
            pooled[s - 1] = rows[top]
        elif out is None:
            pooled[s - 1] = pooled[rest - 1] + rows[top]
        else:
            np.add(out[rest - 1], rows[top], out=out[s - 1])
    return pooled


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


def capped_rounds(channel: np.ndarray, snr: float, rate: float, tx: int, deadline: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """min(rounds needed, deadline + 1) per nonempty subset of the users and per epoch, without a log.

    ``channel`` is a block of k users' channels (module docstring) with
    ``tx`` transmit antennas.  The result is (2^k - 1, epochs), row s - 1
    for subset bitmask s, of the smallest unsigned type holding deadline +
    1 (uint8 up to deadline 254).  Each entry is 1 plus the number of
    rounds ell = 1..deadline after which S still fails, by comparison with
    the :func:`_thresholds` of its size: with one receive antenna against
    the power sum of S (:func:`_pool`; a single member's row is read as
    drawn), and with N > 1 against the :func:`_det` of the scaled pooled
    Gram rows.  The epochs run in :func:`_tiles`, and a lattice that does
    not fit one epoch in a tile raises ValueError before anything is built.
    The counts are written into ``out`` when it is given; it must have the
    result's shape and type.
    """
    n, k = _shape(channel)
    return _capped_tiles(_tiles(channel, (1 << k) - 1), n, k, _rx(channel), snr, rate, tx, deadline, out)


def _capped_tiles(tiles, n: int, k: int, rx: int, snr: float, rate: float, tx: int, deadline: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """:func:`capped_rounds` of n epochs of k users' channels at ``rx`` receive antennas, given as ``tiles``.

    ``tiles`` are the (epoch slice, channels) pairs of :func:`_tiles` or
    :func:`_draw_tiles` for the 2^k - 1 subsets, each counted as it comes.
    Every tile is taken, also where no threshold is compared, so a drawn
    block is always drawn whole.
    """
    subsets = (1 << k) - 1
    _check_tile(subsets, rx)
    dtype = np.min_scalar_type(deadline + 1)
    if out is None:
        out = np.empty((subsets, n), dtype)
    elif out.shape != (subsets, n) or out.dtype != dtype:
        raise ValueError(f"out must be a {(subsets, n)} {dtype} array, got {out.shape} {out.dtype}")
    out.fill(1)
    limits = [_thresholds(size, snr, rate, tx, rx, deadline) for size in range(k + 1)]
    decide = any(limits)
    for tile, channel in tiles:
        if not decide:
            continue
        rows = _gram_rows(channel)
        if rx == 1:
            values = _pool(rows[:, 0])
        else:
            values = _det(_pool((snr / tx) * rows, np.empty((subsets, *rows.shape[1:]))), rx)
        for s, (count, value) in enumerate(zip(out[:, tile], values), 1):
            for bound in limits[s.bit_count()]:
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
    subsets = (1 << k) - 1
    bits = (np.bitwise_count(np.arange(1, 1 << k)) * max(rate, 0.0))[:, None]
    worst = np.empty(n)
    for tile, block in _tiles(gains, subsets):
        rows = (snr / tx) * _gram_rows(block)
        # I_S per subset, then in place its demand
        demand = np.log2(_det(_pool(rows, np.empty((subsets, *rows.shape[1:]))), rx))
        silent = ~(demand > 0.0)
        np.divide(bits, demand, out=demand, where=~silent)
        np.copyto(demand, np.inf if rate > 0 else 0.0, where=silent)
        worst[tile] = demand.max(axis=0)
    # boundary ties decode: shave one ulp-scale epsilon before the ceil
    np.ceil(np.multiply(worst, 1.0 - 1e-12, out=worst), out=worst)
    # before the cast: inf, nan and counts beyond int64 become NEVER
    np.copyto(worst, NEVER, where=~(worst < 2.0**63))
    return np.maximum(worst, 1.0, out=worst).astype(np.int64)


def asymptotic_survival(config: AntennaConfig, r: float, deadline: int) -> np.ndarray:
    """Infinite-SNR survival indicators as a (K, deadline+1) array.

    This is the one statement of the infinite-SNR outage indicator: a
    k-user collision at first-round gain r is in persistent outage after
    ``rounds`` rounds iff r > min(rounds*M, rounds*N/k), so it needs
    max(ceil(r/M), ceil(k*r/N), 1) rounds; boundary equality decodes.
    Entry [k-1, ell] is 1 while a k-user collision still needs more than
    ``ell`` rounds, the layout of a Monte Carlo beta table's values.
    """
    check_counts(deadline=deadline)
    check_rate("multiplexing gain", r)
    need_tx = math.ceil(r / config.tx - 1e-12)
    needed = [max(1, need_tx, math.ceil(k * r / config.rx - 1e-12))
              for k in range(1, config.users + 1)]
    return (np.arange(deadline + 1)[None, :] < np.array(needed)[:, None]).astype(float)
