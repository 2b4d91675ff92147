"""Monte Carlo estimation engine for the random-access laboratory.

Estimates per-round survival probabilities (beta tables), fully-loaded
throughput via renewal-reward accounting, system error probability, and
diversity exponents fitted from error-probability samples.

Reproducibility contract: work is split into fixed-size chunks and chunk i
of a run tagged ``tag`` uses the generator ``default_rng([seed, tag, i])``.
Each chunk's integer counts are added exactly in chunk order (by
``_sum_chunks``; ``fully_loaded_throughput`` runs its chunks in turn until
its slots are spent), so estimates are bitwise identical for a given
(arguments, seed) no matter how many worker threads execute the chunks.
SNR is expressed in dB at this interface and converted to linear
internally; ``snr_db=None`` selects the infinite-SNR limit in which
decoding outcomes are deterministic indicator thresholds.

Each thread that runs a call's chunks keeps one set of chunk buffers
(:func:`channel._scratch`) for all of them, made on its first chunk and
dropped when the call returns: every chunk draws its channels (power rows
a chunk at a time, gains one kernel tile at a time), and writes its round
lattices and epoch lengths, into the same memory.
The random stream, the chunk plan and the arithmetic are those of freshly
allocated arrays, so the contract above is unchanged.

A chunk is one block of the epoch engine: the fully-loaded estimators
draw its participation coins, evaluate its epochs in the two stages of
:func:`protocols.epoch_outcomes` and count its outcomes.  Throughput reads
no errors, so for GTA and O-NDMA, whose epochs end and deliver whatever
the channel, it runs only the engine's schedule stage and neither draws
nor decodes the chunk's channels, its last draw; ``gta_collision_stats``
runs one splitting tree per chunk.  The chunk is
the engine's cache-sized block, ``DEFAULT_CHUNK`` = ``protocols._TILE``
epochs, so a call's working memory does not grow with its trials.  Only
``estimate_beta`` takes another chunk size.  Its chunk draws one channel
block of all K users and reads every collision size k = 1..K off the
first k users, so the rows of a beta table share their draws (common
random numbers) and the table carries their covariance.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import dmt
from .channel import _check_tile, _mask_rounds, _scratch, _tile_epochs, asymptotic_survival
from .protocols import _TILE, _coins, _decode, _gta_tree_batch, _schedule
from .system import (IRARQ, AntennaConfig, ProtocolParams, binom_pmf, check_counts, check_rate,
                     snr_from_db)

DEFAULT_CHUNK = _TILE

# stream tags keep the independent estimators on disjoint substreams
_TAG_ERROR = 1
_TAG_THROUGHPUT = 2
_TAG_BETA = 3          # + K, the table's users
_TAG_GTA_STATS = 99


# ---------------------------------------------------------------------------
# beta tables
# ---------------------------------------------------------------------------

@dataclass
class BetaTable:
    """Per-round survival probabilities of a k-user collision.

    ``values[k-1, ell]`` is the probability that joint decoding still fails
    after ``ell`` rounds given k initial colliders; column 0 is 1 by
    definition and rows are nonincreasing.  :func:`dmt.epoch_law` reads the
    matching min(first success, deadline) moments off ``values``.
    ``length_cov[j-1, k-1]`` is the covariance of the epoch lengths of j and
    of k colliders within one trial; None when the rows were not drawn
    together (:func:`renewal_prediction` then takes them as independent).
    """

    values: np.ndarray            # shape (users, deadline + 1)
    source: str                   # "monte-carlo" | "high-snr-indicator" | "closed-form"
    trials: int                   # Monte Carlo trials per entry, 0 for an exact table
    snr: float | None             # linear SNR, None for the infinite-SNR table
    length_cov: np.ndarray | None = None   # shape (users, users)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError("values must be a (users, deadline+1) array")
        if not np.all(np.isfinite(vals)):      # the checks below let nan through
            raise ValueError("survival probabilities must be finite")
        if not np.allclose(vals[:, 0], 1.0):
            raise ValueError("survival probability at round 0 must be 1")
        if np.any(vals < -1e-12) or np.any(vals > 1 + 1e-12):
            raise ValueError("survival probabilities must lie in [0, 1]")
        if np.any(np.diff(vals, axis=1) > 1e-12):
            raise ValueError("survival probabilities must be nonincreasing in rounds")
        if self.length_cov is not None and np.shape(self.length_cov) != (vals.shape[0],) * 2:
            raise ValueError("length_cov must be a (users, users) array")
        self.values = vals

    @property
    def users(self) -> int:
        return self.values.shape[0]

    @property
    def deadline(self) -> int:
        return self.values.shape[1] - 1

    @property
    def stderr(self) -> np.ndarray:
        """Binomial standard error sqrt(beta (1 - beta) / trials) per entry; zeros without trials."""
        if not self.trials:
            return np.zeros_like(self.values)
        return np.sqrt(np.maximum(self.values * (1 - self.values), 0.0) / self.trials)

    def beta(self, k: int, rounds: int) -> float:
        """Probability a k-user collision is undecoded after ``rounds`` rounds; the indices
        are checked, as numpy's negative ones would read another row or round."""
        if not 1 <= k <= self.users:
            raise ValueError(f"k must lie in [1, {self.users}], got {k!r}")
        if not 0 <= rounds <= self.deadline:
            raise ValueError(f"rounds must lie in [0, {self.deadline}], got {rounds!r}")
        return float(self.values[k - 1, rounds])

    @classmethod
    def from_indicators(
        cls, config: AntennaConfig, multiplexing_gain: float, deadline: int
    ) -> "BetaTable":
        """Infinite-SNR table of survival indicators.

        Its epoch lengths are deterministic: min(rounds needed, L) is the
        number of rounds 0..L-1 that the collision survives.
        """
        return cls(
            values=asymptotic_survival(config, multiplexing_gain, deadline),
            source="high-snr-indicator",
            trials=0,
            snr=None,
        )


def _sum_chunks(fn, seed: int, tag: int, total: int, name: str,
                chunk: int = DEFAULT_CHUNK, workers: int = 1):
    """Exact sum of the integer counts fn(rng, n, buffers) over ``total`` items, called ``name`` in errors.

    The items are cut into whole chunks, then the rest; chunk i draws from
    ``default_rng([seed, tag, i])`` and the parts are added in chunk order,
    serially or on ``workers`` threads.  Each thread passes all of its
    chunks one dict of chunk buffers (:func:`channel._scratch`), made on
    its first chunk and dropped when the call returns, so its chunks write
    into the same memory instead of allocating it anew.
    """
    check_counts(**{name: total, "chunk": chunk, "workers": workers})
    whole, rest = divmod(total, chunk)
    sizes = [chunk] * whole + [rest] * (rest > 0)
    buffers = {}                                    # thread id -> that thread's chunk buffers

    def part(i, n):
        return fn(np.random.default_rng([seed, tag, i]), n, buffers.setdefault(threading.get_ident(), {}))

    if workers == 1 or len(sizes) == 1:
        return sum(map(part, range(len(sizes)), sizes))
    from concurrent.futures import ThreadPoolExecutor   # only a threaded call pays for the import

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(part, range(len(sizes)), sizes))


def estimate_beta(
    config: AntennaConfig,
    snr_db: float,
    rate: float,
    deadline: int,
    trials: int,
    seed: int,
    chunk: int = DEFAULT_CHUNK,
    workers: int = 1,
) -> BetaTable:
    """Monte Carlo survival probabilities for every collision size k = 1..K.

    Each trial draws one channel set of all K users.  Row k is the row of
    mask 2^k - 1 of ``channel._mask_rounds``, the subset maximum of one
    :func:`capped_rounds` lattice of all 2^K - 1 subsets, so every row is
    read off the same draws (common random numbers): each row keeps its
    law, and ``length_cov`` carries the covariance of the rows' epoch
    lengths min(N_k, L) for :func:`renewal_prediction`.  Every round before
    the first decodable one counts as a survival.  Chunk i draws from
    ``default_rng([seed, _TAG_BETA + K, i])``.
    """
    check_counts(deadline=deadline)
    check_rate("rate", rate)
    snr = snr_from_db(snr_db)
    users, rx, tx = config.users, config.rx, config.tx
    _check_tile((1 << users) - 1, rx)           # before any chunk draws its channels
    step = _tile_epochs((1 << users) - 1, rx)

    def sums(rng, n, buffers):
        """(K, L + K) survival counts at rounds 1..L, then the cross sums of the epoch lengths."""
        # the epoch lengths below reuse the channel buffer, so it is sized
        # first for the larger of them and the chunk's draw (power rows of
        # their size, or one tile of gains: 16 bytes a gain, 8 a length),
        # and a thread's first chunk allocates it once
        _scratch(buffers, "channel", (users, n if rx == 1 else max(n, 2 * min(step, n) * rx * tx)))
        worst = _mask_rounds(rng, (n, users, rx, tx), snr, rate, deadline, buffers)
        needed = [worst[(2 << k) - 1] for k in range(users)]      # the first k + 1 users: mask 2^(k+1) - 1
        survivals = [[np.count_nonzero(row > ell) for ell in range(1, deadline + 1)] for row in needed]
        # epoch lengths are at most L, so every partial sum of the cross sums
        # is an integer at most trials * L^2: exact in float64 below 2^53;
        # one product per row, as x @ x.T runs slower on so wide an x.  No
        # later step reads the channels, and a buffer of the lengths' own
        # would add to the peak
        x = _scratch(buffers, "channel", (users, n))
        for row, length in zip(needed, x):
            np.minimum(row, deadline, dtype=float, out=length)
        return np.hstack([survivals, [x @ row for row in x]])

    counts = _sum_chunks(sums, seed, _TAG_BETA + users, trials, "trials", chunk, workers)
    values = np.ones((users, deadline + 1))
    values[:, 1:] = counts[:, :deadline] / trials
    # off the diagonal E[x_j x_k] - E[x_j] E[x_k]; on it the variance
    # square - length^2 of dmt.epoch_law, which a table without length_cov
    # reads too, so the rows' covariance changes no p_t = 1 prediction
    length, square, _ = dmt.epoch_law(IRARQ, config, values)
    mean = np.array(length[1:])
    cov = counts[:, deadline:] / trials - np.outer(mean, mean)
    np.fill_diagonal(cov, np.maximum(np.array(square[1:]) - mean * mean, 0.0))
    return BetaTable(
        values=values,
        source="monte-carlo",
        trials=trials,
        snr=snr,
        length_cov=cov,
    )


def _fully_loaded_epochs(
    protocol: str,
    config: AntennaConfig,
    params: ProtocolParams,
    snr: float | None,
    n: int,
    rng: np.random.Generator,
    buffers: dict | None = None,
    errors: bool = True,
):
    """n back-to-back epochs of always-backlogged users, each at its coin mask.

    The generator is consumed in a fixed order (participation coins, then
    the protocol's draws, as :func:`protocols.epoch_outcomes` makes them),
    so runs with the same seed share channel realisations across deadlines
    and SNR points.  At p_t = 1 every coin is 1 and none is drawn.  The
    channels are held in ``buffers`` when given (:func:`channel._scratch`);
    the coins' uniforms are not: freed once the coins are set, their
    memory serves the splitting tree that follows, and holding them made
    GTA chunks slower.  Returns the coin masks and the epochs' (lengths,
    delivered, errors), each of shape (n,).  Without ``errors``, GTA and
    O-NDMA epochs, whose lengths and deliveries are the schedule's, stop
    there and return no errors: they draw no channel.
    """
    masks = _coins(rng, n, config.users, params.p_t)[:, None]
    outcomes = _schedule(protocol, config, params, snr, masks, rng)
    if errors or outcomes is None:
        outcomes = _decode(protocol, config, params, snr, masks, rng, outcomes, buffers)
    return masks[:, 0], *(x[:, 0] for x in outcomes)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

@dataclass
class ErrorEstimate:
    """System error probability over non-idle epochs, with per-user rates."""

    value: float
    stderr: float
    per_user: np.ndarray          # per-user error rate, same non-idle denominator
    per_user_stderr: np.ndarray
    trials: int                   # epochs simulated, idle included
    nonidle: int
    snr_db: float | None
    seed: int


def system_error_probability(
    protocol: str,
    config: AntennaConfig,
    params: ProtocolParams,
    snr_db: float | None,
    trials: int,
    seed: int,
    workers: int = 1,
) -> ErrorEstimate:
    """Fraction of non-idle epochs in which at least one message is lost.

    Every run asserts the sandwich bound: the largest per-user error count
    never exceeds the system count, which never exceeds the per-user sum.
    Both hold pathwise, so the check is exact, not statistical.
    """
    snr = None if snr_db is None else snr_from_db(snr_db)

    def counts(rng, n, buffers):
        coins, _, _, erred = _fully_loaded_epochs(protocol, config, params, snr, n, rng, buffers)
        return np.array([np.count_nonzero(coins), np.count_nonzero(erred),
                         *(np.count_nonzero(erred >> u & 1) for u in range(config.users))])

    sums = _sum_chunks(counts, seed, _TAG_ERROR, trials, "trials", workers=workers)
    nonidle, errors, per_user_counts = int(sums[0]), int(sums[1]), sums[2:]

    # hard pathwise invariant, checked on every run
    if not per_user_counts.max(initial=0) <= errors <= per_user_counts.sum():
        raise AssertionError("per-user / system error sandwich violated")

    if nonidle == 0:
        raise ValueError("no non-idle epochs simulated; increase trials")
    p = errors / nonidle
    per_user = per_user_counts / nonidle
    return ErrorEstimate(
        value=p,
        stderr=math.sqrt(max(p * (1 - p), 0.0) / nonidle),
        per_user=per_user,
        per_user_stderr=np.sqrt(np.maximum(per_user * (1 - per_user), 0.0) / nonidle),
        trials=trials,
        nonidle=nonidle,
        snr_db=snr_db,
        seed=seed,
    )


@dataclass
class ThroughputEstimate:
    """Renewal-reward throughput of back-to-back fully-loaded epochs."""

    per_rate: float               # delivered packets per slot (multiples of R)
    per_rate_stderr: float
    rate: float | None            # first-round rate R; None in the infinite-SNR mode
    slots: int
    epochs: int
    seed: int

    @property
    def bits_per_channel_use(self) -> float | None:
        return None if self.rate is None else self.per_rate * self.rate


def fully_loaded_throughput(
    protocol: str,
    config: AntennaConfig,
    params: ProtocolParams,
    snr_db: float | None,
    slots: int,
    seed: int,
) -> ThroughputEstimate:
    """Simulate epochs until at least ``slots`` slots elapse; ratio estimator.

    Throughput counts every delivered packet, decoded correctly or not.
    The standard error follows the delta method for the ratio of means of
    per-epoch (delivered, length) pairs.
    """
    check_counts(slots=slots)
    snr = None if snr_db is None else snr_from_db(snr_db)
    n = min(DEFAULT_CHUNK, max(1024, slots))

    def moments(rng, n, buffers):
        # GTA and O-NDMA lengths and deliveries are the schedule's; only
        # IR-ARQ's need the channel, which is each chunk's last draw
        _, ell, delivered, *_ = _fully_loaded_epochs(protocol, config, params, snr, n, rng, buffers,
                                                     errors=False)
        w = np.bitwise_count(delivered).astype(np.int64)
        # integer dot products: exact, and no chunk-sized product arrays
        return np.array([w.sum(), ell.sum(), w @ w, ell @ ell, w @ ell])

    sums = np.zeros(5, dtype=np.int64)  # W, L, WW, LL, WL, exact
    chunks = 0
    buffers = {}                        # one set of chunk buffers, as _sum_chunks gives a thread
    while sums[1] < slots:             # chunk i as in _sum_chunks, until the slots are spent
        sums += moments(np.random.default_rng([seed, _TAG_THROUGHPUT, chunks]), n, buffers)
        chunks += 1
    epochs = chunks * n
    w_sum, l_sum, ww, ll, wl = sums.astype(float)
    ratio = w_sum / l_sum
    mean_l = l_sum / epochs
    var_w = ww / epochs - (w_sum / epochs) ** 2
    var_l = ll / epochs - mean_l**2
    cov = wl / epochs - (w_sum / epochs) * mean_l
    var_ratio = (var_w - 2 * ratio * cov + ratio**2 * var_l) / (epochs * mean_l**2)
    rate = None if snr is None else params.rate_at(snr)
    return ThroughputEstimate(
        per_rate=ratio,
        per_rate_stderr=math.sqrt(max(var_ratio, 0.0)),
        rate=rate,
        slots=int(l_sum),
        epochs=epochs,
        seed=seed,
    )


def renewal_prediction(
    protocol: str,
    config: AntennaConfig,
    params: ProtocolParams,
    beta: BetaTable | None = None,
) -> tuple[float, float]:
    """Renewal-reward throughput prediction in multiples of R, with stderr.

    The prediction is the protocol's stability boundary, packets delivered
    per slot: exact closed forms for the channel-independent GTA and O-NDMA
    epochs.  The IR-ARQ value is read at the given beta table and inherits
    uncertainty from a Monte Carlo table through its ``length_cov``; a
    table without one is taken to have independent rows, each with the
    epoch-length variance square - length^2 of :func:`dmt.epoch_law`.
    """
    p_t = params.p_t
    if protocol == IRARQ and beta is None:
        raise ValueError("IR-ARQ prediction needs a beta table")
    law = dmt._law(protocol, config, deadline=params.deadline, beta=beta)
    value = dmt._region(law, config.users, p_t)
    if protocol != IRARQ or not beta.trials:
        return value, 0.0
    # the mixed mean length w . E[min(N_k, L)], w_k = Binomial(K, p_t)[k], has
    # variance w' C w / trials for the per-size length covariance C
    length, square, _ = law
    cov = beta.length_cov
    if cov is None:
        cov = np.diag([max(s - m * m, 0.0) for m, s in zip(length[1:], square[1:])])
    w = np.array([binom_pmf(config.users, k, p_t) for k in range(1, config.users + 1)])
    var = max(float(w @ cov @ w), 0.0)
    return value, value / dmt.binomial_mix(length, config.users, p_t) * math.sqrt(var / beta.trials)


def gta_collision_stats(k: int, epochs: int, seed: int):
    """Mean epoch length and delivered count for forced k-user collisions.

    Returns (mean_length, se_length, mean_delivered, se_delivered); the
    Monte Carlo counterpart of the exact splitting-tree recursions.
    """
    check_counts(k=k)

    def moments(rng, n, buffers):
        ell, w = _gta_tree_batch(np.full(n, k, dtype=np.int64), rng)
        return np.array([ell.sum(), ell @ ell, w.sum(), w @ w])      # exact integer dot products

    l1, l2, d1, d2 = _sum_chunks(moments, seed, _TAG_GTA_STATS, epochs, "epochs").astype(float)
    mean_l = l1 / epochs
    mean_d = d1 / epochs
    se_l = math.sqrt(max(l2 / epochs - mean_l**2, 0.0) / epochs)
    se_d = math.sqrt(max(d2 / epochs - mean_d**2, 0.0) / epochs)
    return mean_l, se_l, mean_d, se_d


def diversity_slope(pe_samples) -> float:
    """Least-squares diversity exponent from (linear SNR, error prob) samples.

    Fits -log2(Pe) against log2(snr) over the top decade of the sampled SNR
    range; the intercept is discarded, so any constant prefactor in Pe
    leaves the estimate unchanged.
    """
    samples = [(float(s), float(p)) for s, p in pe_samples]
    if len(samples) < 3:
        raise ValueError("need at least 3 (snr, pe) samples")
    if not all(math.isfinite(s) and 0.0 < p < math.inf for s, p in samples):
        raise ValueError("SNR samples must be finite, error probabilities finite and positive")
    top = max(s for s, _ in samples)
    window = [(s, p) for s, p in samples if s >= top / 10.0 * (1 - 1e-9)]
    if len(window) < 2:
        raise ValueError("need at least 2 samples within the top SNR decade")
    x = np.array([math.log2(s) for s, _ in window])
    y = np.array([-math.log2(p) for _, p in window])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)
