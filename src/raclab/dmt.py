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
  ``montecarlo`` read;
* the incremental-redundancy ARQ tradeoff with a round deadline, including
  the high-SNR persistent-outage indicators and the mapping between the
  first-round and the effective (throughput) multiplexing gain.

Everything here is a pure function of its arguments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import asymptotic_survival
from .system import GTA, IRARQ, ONDMA, AntennaConfig, binom_pmf


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
    if tx < 1 or rx < 1:
        raise ValueError("antenna counts must be >= 1")
    if r < 0:
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
    if k < 1:
        raise ValueError("user count must be >= 1")
    if r < 0:
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

    @property
    def k_max(self) -> int:
        return len(self.expected_slots) - 1


@functools.cache
def gta_recursion(k_max: int) -> GtaRecursionTable:
    """Solve the tree-splitting recursions exactly for collision sizes 0..k_max.

    A k-collision costs one slot and then splits fairly; the recursion terms
    are weighted by Binomial(k, 1/2) masses of the left-subgroup size i:
    i = 0 re-enters the same k-collision, i = 1 yields one clean slot plus a
    fresh (k-1)-group, i >= 2 recurses on the left group while the right
    group is pruned.  The unknown appears on both sides with coefficient
    2^(1-k), so each level is a one-unknown linear solve.  The table is
    immutable, so solves are cached per k_max.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
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


def gta_dmt(config: AntennaConfig, p_t: float, r_e: float) -> float:
    """Tree-splitting diversity gain at effective multiplexing gain r_e.

    The single-user curve at r_e scaled by the slots spent per delivered
    packet, the reciprocal of the GTA stability boundary.
    """
    return mac_dmt(1, config.tx, config.rx, r_e / stability_region(GTA, config, p_t))


def gta_optimal_pt(config: AntennaConfig) -> float:
    """Transmission probability maximising the GTA effective-multiplexing span.

    Equivalently, the maximiser of the GTA stability boundary over
    p_t in (0, 1].  Grid search plus staged local refinement; ties break
    toward larger p_t.  (For two single-antenna users the optimum is
    1/sqrt(3); for one user it is 1.)
    """
    objective = functools.partial(stability_region, GTA, config)
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
    return min(best_p, 1.0)


def ondma_dmt(config: AntennaConfig, p_t: float, r_e: float) -> float:
    """Orthogonal-repetition diversity gain at effective multiplexing gain r_e.

    The k-slot repetition structure reduces decoding to single-user links,
    so the tradeoff is the single-user curve evaluated at r_e scaled by the
    slots-per-delivery factor, the reciprocal of the O-NDMA stability
    boundary; p_t = 1 makes the factor 1 and gives the optimal form.
    """
    return mac_dmt(1, config.tx, config.rx, r_e / stability_region(ONDMA, config, p_t))


def beta_highsnr(k: int, tx: int, rx: int, r: float, rounds: int) -> float:
    """Infinite-SNR limit of the persistent-outage probability after ``rounds``.

    Indicator of r > min(rounds*M, rounds*N/k), read off
    :func:`channel.asymptotic_survival`.  At the exact boundary the limit is
    not defined by the outage exponent; this returns 0 there (no persistent
    outage), and callers avoid exact-boundary inputs.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    return float(asymptotic_survival(AntennaConfig(k, tx, rx), r, rounds)[k - 1, rounds])


def irarq_effective_multiplexing(
    config: AntennaConfig, p_t: float, r: float, deadline: int
) -> float:
    """Effective multiplexing gain delivered by IR-ARQ at first-round gain r.

    High-SNR renewal accounting: r times the packets delivered per slot,
    i.e. the infinite-SNR IR-ARQ stability boundary at arrival gain r.
    Below the first discontinuity (r < min(M, N/K)) this reduces to
    r_e = p_t*K*r.
    """
    if not (0.0 < p_t <= 1.0):
        raise ValueError(f"p_t must lie in (0, 1], got {p_t}")
    if not (0.0 <= r <= min(config.tx, config.rx)):
        raise ValueError("first-round gain must lie in [0, min(M, N)]")
    if deadline < 1:
        raise ValueError("deadline must be >= 1")
    return r * stability_region(IRARQ, config, p_t, r, deadline)


def irarq_dmdt(config: AntennaConfig, r_e: float, deadline: int) -> float:
    """Optimal IR-ARQ diversity at effective gain r_e and round deadline L.

    Attained by first-round gain r_e/K with certain transmission (p_t = 1),
    which keeps every round below the first outage discontinuity; the value
    is the K-user MAC tradeoff at r_e/(K*L).
    """
    if deadline < 1:
        raise ValueError("deadline must be >= 1")
    span = config.degrees_of_freedom
    if not (0.0 <= r_e <= span):
        raise ValueError(f"effective gain must lie in [0, {span}], got {r_e}")
    return mac_dmt(config.users, config.tx, config.rx, r_e / (config.users * deadline))


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
    if arrival_gain < 0:
        raise ValueError("arrival multiplexing gain must be nonnegative")
    if protocol in (GTA, ONDMA):
        return mac_dmt(1, config.tx, config.rx, arrival_gain)
    if protocol == IRARQ:
        if deadline is None or deadline < 1:
            raise ValueError("IR-ARQ needs a deadline >= 1")
        return mac_dmt(config.users, config.tx, config.rx, arrival_gain / deadline)
    raise ValueError(f"unknown protocol {protocol!r}")


@functools.cache
def _gta_columns(users: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """:func:`gta_recursion`'s slots and successes as floats, converted once per K."""
    table = gta_recursion(users)
    return tuple(map(float, table.expected_slots)), tuple(map(float, table.expected_successes))


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
        slots, successes = _gta_columns(users)
        return slots, None, successes
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
    """
    if not (0.0 < p_t <= 1.0):
        raise ValueError(f"p_t must lie in (0, 1], got {p_t}")
    values = None if beta is None else beta.values
    if protocol == IRARQ and values is None:
        if arrival_gain is None or deadline is None:
            raise ValueError("IR-ARQ needs either a beta table or (arrival_gain, deadline)")
        values = asymptotic_survival(config, arrival_gain, deadline)
    length, _, delivered = epoch_law(protocol, config, values)
    return binomial_mix(delivered, config.users, p_t) / binomial_mix(length, config.users, p_t)


def irarq_stability_pt_scan(
    config: AntennaConfig,
    arrival_gain: float,
    deadline: int,
    points: int = 1000,
    beta=None,
) -> tuple[float, float]:
    """Grid search of the IR-ARQ stability boundary over p_t.

    No closed-form optimiser exists for the general region, so this helper
    only scans ``points`` equispaced probabilities and returns the best
    (p_t, boundary) pair, ties toward larger p_t.
    """
    best = (1.0, stability_region(IRARQ, config, 1.0, arrival_gain, deadline, beta=beta))
    for i in range(1, points + 1):
        p = i / points
        lam = stability_region(IRARQ, config, p, arrival_gain, deadline, beta=beta)
        if lam >= best[1]:
            best = (p, lam)
    return best


def tradeoff_curve(
    protocol: str,
    config: AntennaConfig,
    p_t: float = 1.0,
    deadline: int | None = None,
    step: float = 0.01,
) -> list[TradeoffPoint]:
    """Sample a protocol's tradeoff curve over r_e in [0, min(K*M, N)).

    GTA and O-NDMA curves clamp to zero once their (smaller) span is
    exhausted, which is exactly how they fail to reach the channel's full
    degrees of freedom.
    """
    span = config.degrees_of_freedom
    points = []
    n = int(math.ceil(span / step))
    for i in range(n):
        r_e = i * step
        if protocol == GTA:
            d = gta_dmt(config, p_t, r_e)
            ell = None
        elif protocol == ONDMA:
            d = ondma_dmt(config, p_t, r_e)
            ell = None
        elif protocol == IRARQ:
            if deadline is None:
                raise ValueError("IR-ARQ curve needs a deadline")
            d = irarq_dmdt(config, r_e, deadline)
            ell = deadline
        else:
            raise ValueError(f"unknown protocol {protocol!r}")
        points.append(TradeoffPoint(r_e=r_e, d=d, deadline=ell))
    return points
