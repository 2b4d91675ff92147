"""Random-arrival dynamics: per-user queues, empirical stability and delay,
and the analytic M/G/1-with-vacations delay for the deadline-ARQ protocol.

Time is slotted but arrivals are Poisson in continuous time: a packet
landing in slot s is stamped s + U(0,1), and its sojourn runs until the
end of the slot in which its epoch finishes.  That is the convention under
which the vacation-queue delay formula (residual vacation E[V^2]/2E[V],
service from the head of the queue) is exact, and it is what the simulator
measures.

Participation decisions happen only at epoch starts: every user whose
queue is non-empty at that instant transmits its head-of-line packet with
probability p_t and then keeps transmitting (or stays silent) until the
epoch ends.  Delivered packets leave the queue whether or not they decoded
correctly; tree-pruned packets return to the head of their owner's queue
and are eligible again at the very next epoch.

The simulator keeps each queue as counts: arrival stamps are drawn in
blocks of slots, and with each block every user's stamps are counted below
every slot of it, so a queue holds its arrivals before the current slot
minus its departures.  Queues are FIFO, so a user's j-th departure is its
j-th arrival; the loop records only each departure's end slot, and the
sojourns are formed with numpy at every block boundary.  There, too, the
backlog samples become int64 arrays, and only those the stability slope
regresses, in the second half of the horizon, are kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dmt
from .montecarlo import BetaTable
from .protocols import _bits, _tile_epochs, epoch_outcomes
from .system import IRARQ, AntennaConfig, ProtocolParams, check_rate, is_count, snr_from_db

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
    delay: float                 # mean sojourn, slots
    delay_ci: float              # 95% half-width via batch means
    pe: float                    # fraction of non-idle epochs with a decode error
    nonidle_epochs: int
    verdict: str                 # stable | unstable | inconclusive
    backlog_slope: float         # packets/slot trend over the second half
    packets: int                 # departures counted in the delay statistics
    arrivals: int
    delivered: int
    horizon_slots: int
    seed: int | list | tuple


# ---------------------------------------------------------------------------
# analytic side (deadline-ARQ protocol)
# ---------------------------------------------------------------------------

def _epoch_law(users: int, deadline: int, beta: BetaTable):
    """:func:`dmt.epoch_law` of the deadline-ARQ protocol at the given table."""
    if deadline != beta.deadline:
        raise ValueError(f"deadline {deadline} differs from the beta table's {beta.deadline}")
    return dmt.epoch_law(IRARQ, AntennaConfig(users), beta.values)


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
    length, _, _ = _epoch_law(users, deadline, beta)
    check_rate("total_rate", total_rate)
    if not (0.0 < p_t <= 1.0):
        raise ValueError(f"p_t must lie in (0, 1], got {p_t}")
    if total_rate == 0.0:
        return 0.0

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


def epoch_length_moments(
    p: float, users: int, deadline: int, beta: BetaTable
) -> tuple[float, float, float, float]:
    """First two moments of the tagged user's relevant and irrelevant epochs.

    Relevant epochs include the tagged transmission, so the other K-1 users
    contribute Binomial(K-1, p) colliders on top of it (the per-size
    columns shifted by one); irrelevant epochs see only the others.
    Returns (E[U], E[U^2], E[V], E[V^2]).
    """
    length, square, _ = _epoch_law(users, deadline, beta)
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
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

    Service is the head-of-line time E[Y] = E[U] + (1/p_t - 1) E[V] (a
    geometric number of skipped epochs precedes the transmitted one), the
    vacation is the irrelevant epoch, and the moments are evaluated at the
    fixed-point transmission probability.  Returns inf outside the
    stability region.  Exact in the regime where U and V are i.i.d.
    """
    length, _, _ = _epoch_law(users, deadline, beta)
    check_rate("total_rate", total_rate)
    if not (0.0 < p_t <= 1.0):
        raise ValueError(f"p_t must lie in (0, 1], got {p_t}")
    if total_rate >= p_t * users / dmt.binomial_mix(length, users, p_t):
        return math.inf
    p = solve_transmission_probability(total_rate, users, p_t, deadline, beta)
    if p is None:
        return math.inf
    eu, eu2, ev, ev2 = epoch_length_moments(p, users, deadline, beta)
    skip = 1.0 / p_t - 1.0
    service = eu + skip * ev
    denom = 2.0 * (users - total_rate * service)
    if denom <= 0.0:
        return math.inf
    second = eu2 + (2.0 - p_t) * (1.0 - p_t) / p_t**2 * ev2 + 2.0 * skip * eu * ev
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
    evaluated at all 2^K participant sets, and arrival stamps in fixed-size
    blocks of slots, each drawn from the one generator when the loop first
    needs it.  Between draws the loop does integer arithmetic on per-slot
    arrival counts (module docstring); the sojourns are formed with numpy
    at each arrival-block boundary, in epoch-then-user order.  The
    stability verdict regresses the total backlog against time over the
    second half of the horizon: trend below STABILITY_SLOPE_EPS in absolute
    value is stable, a positive trend above it is unstable, anything else
    is inconclusive.  The packet ledger is checked: no queue departs a
    packet that has not arrived, and departures equal the delivered epoch
    outcomes.
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
    everyone = (1 << config.users) - 1
    block = _tile_epochs(1 << config.users)     # one tile of the engine per block
    all_sets = np.broadcast_to(np.arange(1 << config.users), (block, 1 << config.users))
    warmup_time = WARMUP_FRACTION * horizon_slots

    # per user: sorted stamps of packets not yet departed at the last block
    # boundary (future ones included), numbered from first[u]; before[u][t]
    # counts the stamps below slot base + t, t = 0.._ARRIVAL_BLOCK_SLOTS
    stamps = [np.empty(0) for _ in users]
    first = [0] * config.users
    before = [[0] for _ in users]
    departed = [0] * config.users
    ends: list[list[int]] = [[] for _ in users]   # end slots of departures since the boundary
    base = 0
    drawn = 0                    # arrivals are drawn for slots [0, drawn)

    slot = 0
    epoch = block                # index into the current table block
    ready = 0                    # bitmask of non-empty queues at ``slot``
    n_delivered = 0
    sojourns: list[np.ndarray] = []   # one array per settled block
    errors = 0
    nonidle = 0
    backlog_t: list[int] = []    # (slot, backlog) after each epoch since the boundary
    backlog_v: list[int] = []
    half_t: list[np.ndarray] = []    # the settled samples at t >= horizon/2
    half_v: list[np.ndarray] = []

    def settle():
        """Sojourns of the departures since the last boundary, in loop order.

        The backlog samples since the boundary become int64 arrays, of which
        only the second half of the horizon, the part the slope regresses, is
        kept.
        """
        t = np.array(backlog_t, dtype=np.int64)
        late = t >= horizon_slots / 2.0
        half_t.append(t[late])
        half_v.append(np.array(backlog_v, dtype=np.int64)[late])
        backlog_t.clear()
        backlog_v.clear()
        key, out = [], []
        for u in users:
            done = np.asarray(ends[u])
            stamp = stamps[u][: done.size]
            counted = stamp >= warmup_time
            key.append(done[counted])
            out.append(done[counted] - stamp[counted])
            stamps[u] = stamps[u][done.size :]
            first[u] += done.size
            ends[u].clear()
        # epochs last at least one slot, so end slots order the epochs
        key, out = np.concatenate(key), np.concatenate(out)
        sojourns.append(out[np.argsort(key, kind="stable")])

    while slot < horizon_slots:
        if epoch == block:
            if params.p_t < 1.0:
                coins = _bits(rng.random((block, config.users)) < params.p_t).tolist()
            else:
                coins = [everyone] * block
            tables = epoch_outcomes(protocol, config, params, snr, all_sets, rng)
            if tables[0].min() < 1:
                raise AssertionError("epoch outcomes: an epoch shorter than one slot")
            lengths, delivered, erred = (t.ravel().tolist() for t in tables)
            epoch = 0
        participants = ready & coins[epoch]
        cell = (epoch << config.users) | participants
        end = slot + lengths[cell]
        if participants:
            nonidle += 1
            if erred[cell]:
                errors += 1
            gone = delivered[cell]
            n_delivered += gone.bit_count()
            for u in users:
                if gone >> u & 1:
                    if departed[u] >= before[u][slot - base]:
                        raise AssertionError("packet ledger: departure before arrival")
                    departed[u] += 1
                    ends[u].append(end)
            # pruned packets stay at the head, eligible next epoch
        slot = end
        epoch += 1

        while drawn < slot:
            settle()
            counts = rng.poisson(rate_per_user, size=(_ARRIVAL_BLOCK_SLOTS, config.users))
            base = drawn
            grid = np.arange(base, base + _ARRIVAL_BLOCK_SLOTS + 1)
            for u in users:
                new = np.repeat(grid[:-1], counts[:, u])
                new = np.sort(new + rng.random(new.size))
                stamps[u] = np.concatenate((stamps[u], new))
                before[u] = (first[u] + np.searchsorted(stamps[u], grid)).tolist()
            drawn += _ARRIVAL_BLOCK_SLOTS

        ready = 0
        backlog = 0
        for u in users:
            waiting = before[u][slot - base] - departed[u]
            if waiting:
                ready |= 1 << u
                backlog += waiting
        backlog_t.append(slot)
        backlog_v.append(backlog)

    settle()
    if sum(departed) != n_delivered:
        raise AssertionError("packet ledger: departures differ from delivered outcomes")
    n_arrivals = sum(before[u][slot - base] for u in users)
    delays = np.concatenate(sojourns)

    t = np.concatenate(half_t).astype(float)
    v = np.concatenate(half_v).astype(float)
    if t.size >= 2 and np.ptp(t) > 0:
        slope = float(np.polyfit(t, v, 1)[0])
    else:
        slope = 0.0
    if abs(slope) < STABILITY_SLOPE_EPS:
        verdict = "stable"
    elif slope > STABILITY_SLOPE_EPS:
        verdict = "unstable"
    else:
        verdict = "inconclusive"

    if delays.size:
        mean_delay = float(np.mean(delays))
        ci = _batch_means_ci(delays)
    else:
        mean_delay = math.nan
        ci = math.nan
    pe = errors / nonidle if nonidle else 0.0

    return DelayReport(
        protocol=protocol,
        total_rate=total_rate,
        snr_db=snr_db,
        delay=mean_delay,
        delay_ci=ci,
        pe=pe,
        nonidle_epochs=nonidle,
        verdict=verdict,
        backlog_slope=slope,
        packets=len(delays),
        arrivals=n_arrivals,
        delivered=n_delivered,
        horizon_slots=horizon_slots,
        seed=seed,
    )


def _batch_means_ci(delays: np.ndarray, batches: int = 20) -> float:
    """95% half-width from batch means; sojourns are serially correlated.

    nan for fewer than two sojourns, which carry no spread.
    """
    n = len(delays)
    if n < 2:
        return math.nan
    if n < 2 * batches:
        return float(1.96 * np.std(delays, ddof=1) / math.sqrt(n))
    size = n // batches
    means = [float(np.mean(delays[i * size : (i + 1) * size])) for i in range(batches)]
    return float(1.96 * np.std(means, ddof=1) / math.sqrt(batches))


@dataclass
class ScanResult:
    """Stability verdicts across an ascending arrival-rate grid."""

    grid: list[float]
    verdicts: list[str]
    reports: list[DelayReport]
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
    last such load and the first unstable one.
    """
    grid = sorted(float(x) for x in rate_grid)
    if not grid:
        raise ValueError("rate grid must be nonempty")
    verdicts = []
    reports = []
    for i, lam in enumerate(grid):
        rep = simulate_random_arrivals(
            protocol, config, params, lam, snr_db, horizon_slots, [seed, i]
        )
        reports.append(rep)
        verdicts.append(rep.verdict)
    boundary = None
    for i, rep in enumerate(reports):
        if rep.verdict == "unstable":
            boundary = (grid[i - 1] + grid[i]) / 2.0 if i > 0 else grid[i] / 2.0
            break
    return ScanResult(grid=grid, verdicts=verdicts, reports=reports, boundary=boundary)
