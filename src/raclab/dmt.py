"""Closed-form diversity/multiplexing/stability analytics for the three protocols.

The building block is the classical piecewise-linear diversity-multiplexing
tradeoff (DMT) of a point-to-point MIMO link, d(r) interpolating the points
(k, (M-k)(N-k)).  The coordinated multiple-access tradeoff d_k^MAC wraps it
with an antenna-pooling branch.  On top of those sit:

* one per-size epoch law for all three protocols, :func:`epoch_law`, with
  the tree-splitting (GTA) recursions solved in exact rational arithmetic.
  Mixed over Binomial(K, p_t) collision sizes by :func:`binomial_mix`, it
  gives the stability regions, the slots-per-delivery factor of the GTA
  and O-NDMA tradeoffs, and the moments that ``queueing`` and
  ``montecarlo`` read.  One private resolver, ``_law``, checks an analytic
  call's deadline and table and builds that law once per public call
  (IR-ARQ without a table reads :func:`channel.asymptotic_survival`); there
  is no separate deadline check and no per-entry indicator alias;
* one tradeoff for the three protocols, :func:`protocol_dmt`, which
  :func:`tradeoff_curve` samples: GTA and O-NDMA scale the single-user
  curve by the reciprocal of their :func:`stability_region`, and IR-ARQ
  with a round deadline reads the K-user MAC curve.  The effective
  (throughput) gain of IR-ARQ at first-round gain r is r times its
  infinite-SNR :func:`stability_region` at arrival gain r.

Everything here is a pure function of its arguments.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import asymptotic_survival
from .system import GTA, IRARQ, ONDMA, AntennaConfig, binom_pmf, check_counts, check_p_t


@dataclass(frozen=True)
class TradeoffPoint:
    """One point of a diversity-multiplexing tradeoff curve."""

    r_e: float                 # effective multiplexing gain
    d: float                   # diversity gain
    deadline: int | None = None  # ARQ round limit, None for GTA / O-NDMA

    def __post_init__(self):
        if self.r_e < 0 or self.d < 0:
            raise ValueError("tradeoff point coordinates must be nonnegative")


def point_to_point_dmt(tx: int, rx: int, r: float) -> float:
    """Diversity gain of an M x N point-to-point link at multiplexing gain r.

    Piecewise-linear interpolation of the corner points (k, (M-k)(N-k)) for
    integer k = 0..min(M, N); zero for r >= min(M, N).  This single curve is
    the source of truth for both branches of the multiple-access tradeoff.
    """
    check_counts(tx=tx, rx=rx)
    if not r >= 0:
        raise ValueError(f"multiplexing gain must be nonnegative, got {r}")
    kmax = min(tx, rx)
    if r >= kmax:
        return 0.0
    k = int(math.floor(r))
    d0 = (tx - k) * (rx - k)
    d1 = (tx - k - 1) * (rx - k - 1)
    return d0 + (d1 - d0) * (r - k)


def mac_dmt(k: int, tx: int, rx: int, r: float) -> float:
    """Diversity gain of the k-user coordinated multiple-access channel.

    Below the threshold min(M, N/(k+1)) the channel behaves like a single
    point-to-point link; above it the k users pool their antennas and the
    tradeoff becomes that of a kM x N link at multiplexing gain k*r.  The
    two branches agree at the threshold.
    """
    check_counts(k=k)
    if not r >= 0:
        raise ValueError(f"multiplexing gain must be nonnegative, got {r}")
    threshold = min(tx, rx / (k + 1))
    if r <= threshold:
        return point_to_point_dmt(tx, rx, r)
    return point_to_point_dmt(k * tx, rx, k * r)


@dataclass(frozen=True)
class GtaRecursionTable:
    """Expected epoch length and delivered-packet count of the splitting tree.

    ``expected_slots[k]`` is the mean number of slots needed to finish an
    epoch that starts with a k-user collision (idle and singleton epochs
    take one slot); ``expected_successes[k]`` is the mean number of packets
    that obtain a clean slot (pruned packets do not count).  Values are
    exact rationals: the self-referential recursion is solved symbolically
    so the ratios consumed downstream carry no float drift.
    """

    expected_slots: tuple[Fraction, ...]      # index = initial collision size
    expected_successes: tuple[Fraction, ...]

    def __post_init__(self):
        x, j = self.expected_slots, self.expected_successes
        if x[0] != 1 or j[0] != 0:
            raise ValueError("an idle epoch takes one slot and delivers nothing")
        if len(x) > 1 and (x[1] != 1 or j[1] != 1):
            raise ValueError("a singleton epoch takes one slot and delivers one packet")


def gta_recursion(k_max: int) -> GtaRecursionTable:
    """Solve the tree-splitting recursions exactly for collision sizes 0..k_max.

    A k-collision costs one slot and then splits fairly; the recursion terms
    are weighted by Binomial(k, 1/2) masses of the left-subgroup size i:
    i = 0 re-enters the same k-collision, i = 1 yields one clean slot plus a
    fresh (k-1)-group, i >= 2 recurses on the left group while the right
    group is pruned.  The unknown appears on both sides with coefficient
    2^(1-k), so each level is a one-unknown linear solve.  The table is
    immutable, so solves are cached per k_max.  ``k_max`` is an integer
    >= 0 (numpy integers too) and not a bool; it is checked before the
    cache, where True would find the k_max = 1 entry.
    """
    if isinstance(k_max, bool) or not isinstance(k_max, numbers.Integral) or k_max < 0:
        raise ValueError(f"k_max must be an integer >= 0, got {k_max!r}")
    return _gta_recursion(int(k_max))


@functools.cache
def _gta_recursion(k_max: int) -> GtaRecursionTable:
    slots = [Fraction(1), Fraction(1)]
    succ = [Fraction(0), Fraction(1)]
    for k in range(2, k_max + 1):
        weight = [Fraction(math.comb(k, i), 2**k) for i in range(k + 1)]
        stay = 1 - weight[0] - weight[k]  # mass on strictly-smaller subproblems
        slots.append(
            (1 + weight[1] * (1 + slots[k - 1]) + sum(weight[i] * slots[i] for i in range(2, k)))
            / stay
        )
        succ.append(
            (weight[1] * (1 + succ[k - 1]) + sum(weight[i] * succ[i] for i in range(2, k))) / stay
        )
    return GtaRecursionTable(tuple(slots[: k_max + 1]), tuple(succ[: k_max + 1]))


def protocol_dmt(
    protocol: str,
    config: AntennaConfig,
    r_e: float,
    p_t: float = 1.0,
    deadline: int | None = None,
) -> float:
    """Diversity gain of ``protocol`` at effective multiplexing gain r_e.

    GTA and O-NDMA: the single-user curve at r_e scaled by the slots spent
    per delivered packet, the reciprocal of the protocol's stability
    boundary at ``p_t``; for O-NDMA p_t = 1 makes the factor 1 and gives
    the optimal form.  IR-ARQ with round deadline L: first-round gain
    r_e/K with certain transmission keeps every round below the first
    outage discontinuity, so the value is the K-user MAC tradeoff at
    r_e/(K*L).  ``p_t`` is not read for IR-ARQ, whose optimum is at
    p_t = 1.  The effective gain IR-ARQ delivers at first-round gain r and
    transmission probability p_t is r * stability_region(IRARQ, config,
    p_t, arrival_gain=r, deadline=L).
    """
    if protocol != IRARQ:
        return mac_dmt(1, config.tx, config.rx, r_e / stability_region(protocol, config, p_t))
    if deadline is None:
        raise ValueError("IR-ARQ curve needs a deadline")
    check_counts(deadline=deadline)
    span = config.degrees_of_freedom
    if not (0.0 <= r_e <= span):
        raise ValueError(f"effective gain must lie in [0, {span}], got {r_e}")
    return mac_dmt(config.users, config.tx, config.rx, r_e / (config.users * deadline))


def gta_optimal_pt(config: AntennaConfig) -> float:
    """Transmission probability maximising the GTA effective-multiplexing span.

    Equivalently, the maximiser of the GTA stability boundary over
    p_t in (0, 1], read off :func:`optimal_pt`.  (For two single-antenna
    users the optimum is 1/sqrt(3); for one user it is 1.)
    """
    return optimal_pt(GTA, config)[0]


def random_arrival_diversity(
    protocol: str,
    config: AntennaConfig,
    arrival_gain: float,
    deadline: int | None = None,
) -> float:
    """Diversity gain when the multiplexing gain is pinned by the arrival packet size.

    No optimisation over the rate is possible: GTA and O-NDMA decay like the
    single-user curve at the arrival gain, IR-ARQ like the K-user MAC curve
    at arrival_gain / deadline.
    """
    if not arrival_gain >= 0:
        raise ValueError("arrival multiplexing gain must be nonnegative")
    if protocol in (GTA, ONDMA):
        return mac_dmt(1, config.tx, config.rx, arrival_gain)
    if protocol == IRARQ:
        check_counts(deadline=deadline)
        return mac_dmt(config.users, config.tx, config.rx, arrival_gain / deadline)
    raise ValueError(f"unknown protocol {protocol!r}")


def epoch_law(protocol: str, config: AntennaConfig, beta_values=None):
    """(mean length, mean squared length, mean delivered) of an epoch per collision size k = 0..K.

    The one statement of what each protocol's epoch costs and delivers; an
    idle epoch takes one slot and delivers nothing.  GTA reads the exact
    tree recursions (pruned packets are not delivered; the tree's second
    moment is not derived, so that column is None).  O-NDMA takes k slots
    and delivers k.  IR-ARQ lasts min(N, L) rounds, N the first decodable
    round, and delivers k: from the (K, L+1) survival array ``beta_values``,
    E[min(N, L)] = sum_{l<L} beta(l) and E[min(N, L)^2] = sum_{l<L} (2l+1) beta(l).
    """
    users = config.users
    if protocol == GTA:
        table = gta_recursion(users)
        return (tuple(map(float, table.expected_slots)), None,
                tuple(map(float, table.expected_successes)))
    delivered = tuple(map(float, range(users + 1)))
    if protocol == ONDMA:
        length = (1.0,) + delivered[1:]
        return length, tuple(x * x for x in length), delivered
    if protocol == IRARQ:
        if beta_values is None:
            raise ValueError("the IR-ARQ epoch law needs a (K, L+1) survival table")
        survival = np.asarray(beta_values, dtype=float)[:, :-1]    # rounds 0..L-1
        if survival.shape[0] != users:
            raise ValueError(f"survival table has {survival.shape[0]} rows for {users} users")
        length = (1.0, *survival.sum(axis=1).tolist())
        square = (1.0, *(survival @ (2.0 * np.arange(survival.shape[1]) + 1.0)).tolist())
        return length, square, delivered
    raise ValueError(f"unknown protocol {protocol!r}")


def binomial_mix(column, n: int, p: float, shift: int = 0) -> float:
    """sum_k Binomial(n, p)[k] * column[k + shift]: a per-size column mixed over n colliders."""
    return sum(binom_pmf(n, k, p) * column[k + shift] for k in range(n + 1))


def stability_region(
    protocol: str,
    config: AntennaConfig,
    p_t: float,
    arrival_gain: float | None = None,
    deadline: int | None = None,
    beta=None,
) -> float:
    """Supremum total arrival rate (packets/slot) the protocol can stabilise.

    Mean packets delivered over mean slots spent per epoch, each mixed
    over Binomial(K, p_t) collision sizes from :func:`epoch_law`.  The
    IR-ARQ law needs the per-round survival probabilities: pass ``beta``
    (any object with a ``values`` array of shape (K, L+1), e.g. a Monte
    Carlo table) for a finite-SNR region, or leave it None to use the
    infinite-SNR indicators derived from ``arrival_gain`` and ``deadline``.
    A ``deadline`` given with a table must be the table's.
    """
    check_p_t(p_t)
    return _region(_law(protocol, config, arrival_gain, deadline, beta), config.users, p_t)


def _law(protocol: str, config: AntennaConfig, arrival_gain: float | None = None,
         deadline: int | None = None, beta=None):
    """:func:`epoch_law` at an analytic call's arguments, checked here only: a
    given ``deadline`` is a count and the table's; IR-ARQ without a table
    reads the infinite-SNR indicators at ``arrival_gain`` and ``deadline``."""
    values = None if beta is None else beta.values
    if deadline is not None:
        check_counts(deadline=deadline)
        table = deadline if values is None else np.shape(values)[1] - 1
        if deadline != table:
            raise ValueError(f"deadline {deadline} differs from the beta table's {table}")
    if protocol == IRARQ and values is None:
        if arrival_gain is None or deadline is None:
            raise ValueError("IR-ARQ needs either a beta table or (arrival_gain, deadline)")
        values = asymptotic_survival(config, arrival_gain, deadline)
    return epoch_law(protocol, config, values)


def _region(law, users: int, p_t: float) -> float:
    """Mean delivered over mean length of ``law``, each mixed over Binomial(users, p_t) sizes."""
    length, _, delivered = law
    return binomial_mix(delivered, users, p_t) / binomial_mix(length, users, p_t)


def optimal_pt(
    protocol: str,
    config: AntennaConfig,
    arrival_gain: float | None = None,
    deadline: int | None = None,
    beta=None,
) -> tuple[float, float]:
    """(p_t, boundary) maximising :func:`stability_region` over p_t in (0, 1].

    The trailing arguments go once to the resolver behind
    :func:`stability_region`, which builds the epoch law the search reads
    at every p_t.  No closed-form optimiser exists for the general region,
    so this is a grid search at step 1e-3 plus staged local refinement
    down to 1e-7; ties break toward larger p_t.
    """
    objective = functools.partial(_region, _law(protocol, config, arrival_gain, deadline, beta),
                                  config.users)
    best_p, best_val = 1.0, objective(1.0)
    step = 1e-3
    n = int(round(1.0 / step))
    for i in range(1, n + 1):
        p = i * step
        v = objective(p)
        if v >= best_val:
            best_p, best_val = p, v
    # shrink a centered window by 10x per stage down to 1e-7 resolution
    while step > 1e-7:
        lo = max(step / 10.0, best_p - step)
        hi = min(1.0, best_p + step)
        step /= 10.0
        for i in range(int(round((hi - lo) / step)) + 1):
            p = min(lo + i * step, 1.0)
            v = objective(p)
            if v >= best_val:
                best_p, best_val = p, v
    return min(best_p, 1.0), best_val


def tradeoff_curve(
    protocol: str,
    config: AntennaConfig,
    p_t: float = 1.0,
    deadline: int | None = None,
) -> list[TradeoffPoint]:
    """Sample a protocol's tradeoff curve every 0.01 in r_e over [0, min(K*M, N)).

    GTA and O-NDMA curves clamp to zero once their (smaller) span is
    exhausted, which is exactly how they fail to reach the channel's full
    degrees of freedom.
    """
    grid = [i * 0.01 for i in range(int(math.ceil(config.degrees_of_freedom / 0.01)))]
    if protocol != IRARQ:
        deadline = None
    return [TradeoffPoint(r_e, protocol_dmt(protocol, config, r_e, p_t, deadline), deadline)
            for r_e in grid]
