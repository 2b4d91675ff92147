"""Random-arrival dynamics: per-user queues, empirical stability and delay,
and the analytic M/G/1-with-vacations delay for the deadline-ARQ protocol.

Time is slotted but arrivals are Poisson in continuous time: the packets
landing in a slot arrive uniformly within it, wait at least until its end,
and leave at the end of the slot in which their epoch finishes.  That is
the convention under which the vacation-queue delay formula (residual
vacation E[V^2]/2E[V], service from the head of the queue) is exact, and
it is what the simulator measures.

Participation decisions happen only at epoch starts: every user whose
queue is non-empty at that instant transmits its head-of-line packet with
probability p_t and then keeps transmitting (or stays silent) until the
epoch ends.  Delivered packets leave the queue whether or not they decoded
correctly; tree-pruned packets return to the head of their owner's queue
and are eligible again at the very next epoch.

The simulator keeps each queue as counts only.  Arrivals are drawn as
per-slot Poisson counts in blocks of slots; a user's arrivals before each
slot of a block are the running sum of its counts, and its queue holds
those less its departures.  A block of epoch outcomes is read as one
list of packed cells, length << K | delivered users.  Each epoch updates
only what the next one needs (the mask of non-empty queues, the per-user
departure counts and the slot): an epoch without participants reads no
cell and lasts one slot, which a check of every block's idle cells backs,
and a non-idle epoch reads its departing users and its length from one
packed cell and notes the cell.  When a block is used up, its noted cells
are checked against the packet ledger in one array test (no departure
from outside an epoch's participants) and folded by array gathers into
the run's counts of non-idle epochs, erred epochs and delivered packets,
and into the departures per end slot.  Both statistics are read
after the loop from the per-slot departures and arrival totals.  No
packet is paired with its departure: by Little's law the time in system
summed over the packets is the number in system summed over time.  A
slot's occupancy is the packets that arrived before it and have not
departed, plus half of those arriving in it (the mean share of the slot a
uniform arrival spends in it), and the mean delay is the occupancy summed
over the slots after the warm-up divided by their arrivals.  Packets
still queued at the horizon count for the time they have waited.  The
backlog at a slot's start is the same count without the half, and the
stability slope is its least-squares trend over the slots of the second
half, sum_t (t - mean t) b(t) / sum_t (t - mean t)^2 from centred sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dmt
from .montecarlo import BetaTable
from .protocols import _TILE, _coins, epoch_outcomes
from .system import (IRARQ, AntennaConfig, ProtocolParams, check_p_t, check_rate, is_count,
                     snr_from_db)

STABILITY_SLOPE_EPS = 1e-3   # packets/slot; backlog-trend threshold
WARMUP_FRACTION = 0.2        # leading slots excluded from delay statistics
_ARRIVAL_BLOCK_SLOTS = 1 << 12
# The simulator evaluates every epoch at all 2^K participant sets; beyond
# this many users that stops being cheap.
MAX_TABLE_USERS = 8


@dataclass
class DelayReport:
    """Outcome of one random-arrival simulation at a single load point."""

    protocol: str
    total_rate: float            # packets/slot summed over users
    snr_db: float | None
    delay: float                 # mean sojourn, slots: window occupancy / window arrivals
    delay_ci: float              # 95% half-width, batch means of both sums
    pe: float                    # fraction of non-idle epochs with a decode error
    nonidle_epochs: int
    verdict: str                 # stable | unstable | inconclusive
    backlog_slope: float         # packets/slot, trend of the per-slot backlog, second half
    packets: int                 # arrivals in the delay window, after the warm-up
    arrivals: int
    delivered: int
    horizon_slots: int
    seed: int | list | tuple


# ---------------------------------------------------------------------------
# analytic side (deadline-ARQ protocol)
# ---------------------------------------------------------------------------

def solve_transmission_probability(
    total_rate: float,
    users: int,
    p_t: float,
    deadline: int,
    beta: BetaTable,
) -> float | None:
    """Steady-state per-epoch transmission probability of a single user.

    Root of  K*p = total_rate * (mean epoch length at collision mix p),
    located by bisection on (0, p_t] to width 1e-14.  Returns 0.0 for an
    empty system (zero arrivals) and None when no root exists below p_t,
    which signals an unstable load.
    """
    law = dmt._law(IRARQ, AntennaConfig(users), deadline=deadline, beta=beta)
    check_rate("total_rate", total_rate)
    check_p_t(p_t)
    return _fixed_point(law, total_rate, users, p_t)


def _fixed_point(law, total_rate: float, users: int, p_t: float) -> float | None:
    """:func:`solve_transmission_probability` on a resolved epoch law."""
    if total_rate == 0.0:
        return 0.0
    length = law[0]

    def g(p: float) -> float:
        return users * p - total_rate * dmt.binomial_mix(length, users, p)

    if g(p_t) < 0.0:
        return None
    lo, hi = 0.0, p_t
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    return 0.5 * (lo + hi)


def _moments(law, p: float, users: int) -> tuple[float, float, float, float]:
    """(E[U], E[U^2], E[V], E[V^2]) of the tagged user's relevant and irrelevant epochs."""
    length, square, _ = law
    others = users - 1
    return (
        dmt.binomial_mix(length, others, p, shift=1),
        dmt.binomial_mix(square, others, p, shift=1),
        dmt.binomial_mix(length, others, p),
        dmt.binomial_mix(square, others, p),
    )


def analytic_delay(
    total_rate: float,
    users: int,
    p_t: float,
    deadline: int,
    beta: BetaTable,
) -> float:
    """M/G/1-with-vacations mean delay of the deadline-ARQ protocol, in slots.

    Service is the head-of-line time Y = U + V_1 + ... + V_G: a geometric
    number G of skipped epochs, E[G] = 1/p_t - 1 and E[G(G-1)] = 2 E[G]^2,
    precedes the transmitted one, so E[Y^2] = E[U^2] + 2 E[G] E[U] E[V] +
    E[G] E[V^2] + E[G(G-1)] E[V]^2.  The vacation is the irrelevant epoch,
    and the moments are evaluated at the fixed-point transmission
    probability.  Returns inf outside the stability region.  Exact in the
    regime where U and V are i.i.d.
    """
    law = dmt._law(IRARQ, AntennaConfig(users), deadline=deadline, beta=beta)
    check_rate("total_rate", total_rate)
    check_p_t(p_t)
    if total_rate >= p_t * users / dmt.binomial_mix(law[0], users, p_t):
        return math.inf
    p = _fixed_point(law, total_rate, users, p_t)
    if p is None:
        return math.inf
    eu, eu2, ev, ev2 = _moments(law, p, users)
    skip = 1.0 / p_t - 1.0
    service = eu + skip * ev
    denom = 2.0 * (users - total_rate * service)
    if denom <= 0.0:
        return math.inf
    second = eu2 + 2.0 * skip * eu * ev + skip * ev2 + 2.0 * skip**2 * ev**2
    return service + total_rate * second / denom + ev2 / (2.0 * ev)


# ---------------------------------------------------------------------------
# simulation side
# ---------------------------------------------------------------------------

def simulate_random_arrivals(
    protocol: str,
    config: AntennaConfig,
    params: ProtocolParams,
    total_rate: float,
    snr_db: float | None,
    horizon_slots: int,
    seed,
) -> DelayReport:
    """Drive the protocol with randomly arriving packets for ``horizon_slots``.

    Epoch outcomes come in fixed-size blocks of :func:`protocols.epoch_outcomes`
    evaluated at all 2^K participant sets, and per-slot Poisson arrival
    counts in fixed-size blocks of slots, each drawn from the one generator
    when the loop first needs it.  Each table block becomes one list of
    packed cells, length << K | delivered users, which a non-idle epoch
    reads once; an idle epoch reads none and advances one slot, and a
    block whose idle cells are not all one slot long raises
    AssertionError.  Between draws the loop does integer arithmetic on
    counts, and folds a used-up block's non-idle epochs into the
    statistics (module docstring, :func:`_fold_block`).  The delay is
    the occupancy summed over the window [W, H), W = int(WARMUP_FRACTION *
    H), divided by the window's arrivals, and its CI comes from batch means
    of both sums (:func:`_ratio_ci`).  The stability verdict regresses the total
    backlog at each slot start against time over the second half of the
    horizon, read after the loop from the same per-slot series and fitted
    by centred sums: trend below STABILITY_SLOPE_EPS in absolute value is
    stable, a positive trend above it is unstable, anything else is
    inconclusive.  The packet ledger is checked: an epoch delivers only its
    participants, whose queues hold a packet (tested once per block over
    its non-idle cells, :func:`_fold_block`), and the departures add up to
    the delivered epoch outcomes.
    """
    if not is_count(horizon_slots) or horizon_slots < 10:
        raise ValueError(f"horizon_slots must be an integer >= 10, got {horizon_slots!r}")
    check_rate("total_rate", total_rate)
    if config.users > MAX_TABLE_USERS:
        raise ValueError(
            f"outcome tables grow as 2^K; at most {MAX_TABLE_USERS} users, got {config.users}"
        )
    rng = np.random.default_rng(seed)
    snr = None if snr_db is None else snr_from_db(snr_db)
    rate_per_user = total_rate / config.users
    users = range(config.users)
    stride = 1 << config.users               # table cells per epoch
    block = _TILE >> config.users              # one cache-sized block of the engine
    all_sets = np.broadcast_to(np.arange(stride), (block, stride))
    bits = config.users                      # a packed cell: length << bits | delivered
    low = stride - 1                         # its delivered field
    ones = np.ones(config.users, dtype=np.int64)   # counts @ ones: row sums, faster than .sum

    # before[u][t] counts user u's arrivals in the slots below base + t
    before = [[0] for _ in users]
    departed = [0] * config.users
    members = [[u for u in users if mask >> u & 1] for mask in range(stride)]  # users of each mask
    arrived: list[np.ndarray] = []   # arrivals per slot, all users, block by block
    # departures per end slot; only the run's last epoch can end past the
    # horizon, and its departures land in the last entry
    left = np.zeros(horizon_slots + 1, dtype=np.int64)
    base = 0
    drawn = 0                    # arrivals are drawn for slots [0, drawn)

    slot = 0
    ready = 0                    # bitmask of non-empty queues at ``slot``
    stats = [0, 0, 0]            # non-idle epochs, erred ones, delivered packets

    while slot < horizon_slots:
        coins = _coins(rng, block, config.users, params.p_t).tolist()
        tables = epoch_outcomes(protocol, config, params, snr, all_sets, rng)
        if tables[0].min() < 1:
            raise AssertionError("epoch outcomes: an epoch shorter than one slot")
        if (tables[0][:, 0] != 1).any():
            raise AssertionError("epoch outcomes: an idle epoch longer than one slot")
        packed = (tables[0] << bits | tables[1]).ravel().tolist()
        first = slot                 # the block's first slot
        cells = []                   # table cell of each non-idle epoch of the block
        # offset is the epoch's first cell, its idle one
        for coin, offset in zip(coins, range(0, block * stride, stride)):
            participants = ready & coin
            if participants:
                cell = offset | participants
                cells.append(cell)
                outcome = packed[cell]
                for u in members[outcome & low]:
                    departed[u] += 1
                # pruned packets stay at the head, eligible next epoch
                slot += outcome >> bits
            else:
                slot += 1

            while drawn < slot:
                counts = rng.poisson(rate_per_user, size=(_ARRIVAL_BLOCK_SLOTS, config.users))
                # row 0 is each user's arrivals before ``drawn``, the last block's last entry
                before = (np.concatenate(([[b[-1] for b in before]], counts))
                          .cumsum(axis=0).T.tolist())
                arrived.append(counts @ ones)
                base = drawn
                drawn += _ARRIVAL_BLOCK_SLOTS
            if slot >= horizon_slots:
                break

            i = slot - base
            ready = 0
            for u in users:
                if before[u][i] > departed[u]:
                    ready |= 1 << u
        _fold_block(tables, cells, first, left, stats)

    nonidle, errors, n_delivered = stats
    if sum(departed) != n_delivered:
        raise AssertionError("packet ledger: departures differ from delivered outcomes")
    n_arrivals = sum(before[u][slot - base] for u in users)

    # twice the time in system during each slot: the packets that arrived
    # before it and have not departed, plus half of those arriving in it
    per_slot = np.concatenate(arrived)[:horizon_slots]
    del arrived                  # freed first, so the blocks and the fit never add
    twice = 2 * np.cumsum(per_slot) - per_slot - 2 * np.cumsum(left[:horizon_slots])

    # the backlog at each slot start of the second half, the arrivals before
    # the slot less the departures ending at or before it
    late = (horizon_slots + 1) // 2
    # least squares by centred sums: the slots' mean (late + H - 1) / 2 is a
    # half-integer, so the centred slots are exact and sum to zero
    centred = np.arange(late, horizon_slots) - (late + horizon_slots - 1) / 2
    slope = float(centred @ ((twice[late:] - per_slot[late:]) / 2) / (centred @ centred))
    if abs(slope) < STABILITY_SLOPE_EPS:
        verdict = "stable"
    elif slope > STABILITY_SLOPE_EPS:
        verdict = "unstable"
    else:
        verdict = "inconclusive"

    start = int(WARMUP_FRACTION * horizon_slots)
    occupancy = twice[start:] / 2
    arrivals = per_slot[start:]
    packets = int(arrivals.sum())
    delay = float(occupancy.sum()) / packets if packets else math.nan

    return DelayReport(
        protocol=protocol,
        total_rate=total_rate,
        snr_db=snr_db,
        delay=delay,
        delay_ci=_ratio_ci(delay, occupancy, arrivals),
        pe=errors / nonidle if nonidle else 0.0,
        nonidle_epochs=nonidle,
        verdict=verdict,
        backlog_slope=slope,
        packets=packets,
        arrivals=n_arrivals,
        delivered=n_delivered,
        horizon_slots=horizon_slots,
        seed=seed,
    )


def _fold_block(tables, cells: list[int], start: int, left: np.ndarray,
                stats: list[int]) -> None:
    """Fold one table block's non-idle epochs into the run's statistics.

    ``cells`` are the non-idle epochs' cells in the block's ``tables``, and
    every other epoch of the block up to the last of them was idle (its
    first cell); the block's first epoch starts at slot ``start``.  Raises
    AssertionError, the packet ledger's, when a cell delivers a user
    outside its participants (the cell's offset in its epoch's row), in one
    test over all the block's non-idle cells.  Adds each non-idle epoch's
    delivered packets to ``left`` at its end slot, clipped to the last
    entry, and the block's non-idle, erred and delivered counts to
    ``stats``.
    """
    lengths, delivered, erred = (t.ravel() for t in tables)
    stride = tables[0].shape[1]
    at = np.fromiter(cells, np.intp, len(cells))
    out = delivered[at]
    # a cell's participants are its offset within the epoch's row
    if (out & ~(at & (stride - 1))).any():
        raise AssertionError("packet ledger: a departure from outside the participants")
    epoch = at // stride
    taken = tables[0][:, 0].copy()           # each epoch's length at its cell
    taken[epoch] = lengths[at]
    gone = np.bitwise_count(out)
    # the ends ascend strictly, so no index repeats
    left[np.minimum(start + np.cumsum(taken)[epoch], left.size - 1)] += gone
    stats[0] += at.size
    stats[1] += int(np.count_nonzero(erred[at]))
    stats[2] += int(gone.sum())


def _ratio_ci(delay: float, occupancy: np.ndarray, arrivals: np.ndarray) -> float:
    """95% half-width of ``delay`` = sum(occupancy) / sum(arrivals) by batch means.

    The per-slot series are cut into B = min(20, slots) consecutive batches
    of equal length, leaving out the leading slots that do not fill one.
    With batch sums a_b and c_b the ratio's standard error is
    sqrt(sum_b (a_b - delay * c_b)^2 / (B (B - 1))) / mean(c_b); occupancy
    is serially correlated, batches of it far less.  nan when no batch has
    an arrival.
    """
    batches = min(20, arrivals.size)
    cut = arrivals.size % batches
    a = occupancy[cut:].reshape(batches, -1).sum(axis=1)
    c = arrivals[cut:].reshape(batches, -1).sum(axis=1)
    if not c.any():
        return math.nan
    spread = np.sum((a - delay * c) ** 2) / (batches * (batches - 1))
    return float(1.96 * math.sqrt(spread) / c.mean())


@dataclass
class ScanResult:
    """Stability verdicts across an ascending arrival-rate grid."""

    reports: list[DelayReport]   # one per load, ascending: its total_rate and verdict
    boundary: float | None     # midpoint between last stable and first unstable


def stability_boundary_scan(
    protocol: str,
    config: AntennaConfig,
    params: ProtocolParams,
    snr_db: float | None,
    rate_grid,
    seed: int,
    horizon_slots: int = 40_000,
) -> ScanResult:
    """Classify each load on the grid and bracket the stability boundary.

    A declining backlog (inconclusive verdict with negative trend) counts
    as stable for bracketing purposes; the boundary is the midpoint of the
    last such load and the first unstable one, and half the first load when
    that one is unstable.
    """
    grid = sorted(float(x) for x in rate_grid)
    if not grid:
        raise ValueError("rate grid must be nonempty")
    reports = [simulate_random_arrivals(protocol, config, params, lam, snr_db, horizon_slots,
                                        [seed, i]) for i, lam in enumerate(grid)]
    boundary = None
    for i, rep in enumerate(reports):
        if rep.verdict == "unstable":
            boundary = (grid[i - 1] + grid[i]) / 2.0 if i > 0 else grid[i] / 2.0
            break
    return ScanResult(reports=reports, boundary=boundary)
