"""Monte Carlo estimation engine for the random-access laboratory.

Estimates per-round survival probabilities (beta tables), fully-loaded
throughput via renewal-reward accounting, system error probability, and
diversity exponents fitted from error-probability samples.

Reproducibility contract: work is split into fixed-size chunks and chunk i
of a run tagged ``tag`` uses the generator ``default_rng([seed, tag, i])``.
Partial results are pure sums merged in chunk order, so estimates are
bitwise identical for a given (arguments, seed) no matter how many worker
threads execute the chunks.  SNR is expressed in dB at this interface and
converted to linear internally; ``snr_db=None`` selects the infinite-SNR
limit in which decoding outcomes are deterministic indicator thresholds.

Within a chunk, the fully-loaded estimators draw the participation coins
tile by tile and the protocol's randomness whole
(:func:`protocols._outcome_tiles`), then count each tile of epoch outcomes
as it is evaluated; ``gta_collision_stats`` runs the splitting tree on
consecutive tiles of its epochs.  The counts are integers, added exactly,
so the tile size changes no estimate, and beyond the chunk's coins,
channels and splitting tree no working array grows with the chunk.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import dmt
from .channel import _draw_channel, asymptotic_survival, capped_rounds
from .protocols import _bits, _epoch_tiles, _gta_tree_batch, _outcome_tiles
from .system import IRARQ, AntennaConfig, ProtocolParams, binom_pmf, check_rate, is_count, snr_from_db

DEFAULT_CHUNK = 1 << 18

# stream tags keep the independent estimators on disjoint substreams
_TAG_ERROR = 1
_TAG_THROUGHPUT = 2
_TAG_BETA = 3          # + k for collision size k
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
    """

    values: np.ndarray            # shape (users, deadline + 1)
    source: str                   # "monte-carlo" | "high-snr-indicator" | "closed-form"
    trials: int
    snr: float | None             # linear SNR, None for the infinite-SNR table
    stderr: np.ndarray | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError("values must be a (users, deadline+1) array")
        if not np.allclose(vals[:, 0], 1.0):
            raise ValueError("survival probability at round 0 must be 1")
        if np.any(vals < -1e-12) or np.any(vals > 1 + 1e-12):
            raise ValueError("survival probabilities must lie in [0, 1]")
        if np.any(np.diff(vals, axis=1) > 1e-12):
            raise ValueError("survival probabilities must be nonincreasing in rounds")
        self.values = vals

    @property
    def users(self) -> int:
        return self.values.shape[0]

    @property
    def deadline(self) -> int:
        return self.values.shape[1] - 1

    def beta(self, k: int, rounds: int) -> float:
        return float(self.values[k - 1, rounds])

    def alpha(self, k: int, rounds: int) -> float:
        """Probability the epoch resolves exactly at round ``rounds``."""
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        return float(self.values[k - 1, rounds - 1] - self.values[k - 1, rounds])

    @classmethod
    def from_indicators(
        cls, config: AntennaConfig, multiplexing_gain: float, deadline: int
    ) -> "BetaTable":
        """Infinite-SNR table of survival indicators.

        Its epoch lengths are deterministic: min(rounds needed, L) is the
        number of rounds 0..L-1 that the collision survives.
        """
        vals = asymptotic_survival(config, multiplexing_gain, deadline)
        return cls(
            values=vals,
            source="high-snr-indicator",
            trials=0,
            snr=None,
            stderr=np.zeros_like(vals),
        )


def _check_counts(**counts) -> None:
    """Raise ValueError unless every value is an integer >= 1 (not a bool)."""
    for name, value in counts.items():
        if not is_count(value):
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _chunk_plan(name: str, total: int, chunk: int) -> list[int]:
    """Chunk sizes for ``total`` items, called ``name`` in errors: whole chunks, then the rest."""
    _check_counts(**{name: total, "chunk": chunk})
    sizes = [chunk] * (total // chunk)
    if total % chunk:
        sizes.append(total % chunk)
    return sizes


def _map_chunks(fn, sizes: list[int], workers: int) -> list:
    """Run fn(chunk_index, chunk_size) over all chunks, results in index order."""
    if not is_count(workers):
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    if workers == 1 or len(sizes) <= 1:
        return [fn(i, n) for i, n in enumerate(sizes)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, i, n) for i, n in enumerate(sizes)]
        return [f.result() for f in futures]


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

    For each trial a fresh channel set is drawn, the first decodable round
    is located, and every earlier round counts as a survival.  The derived
    exactly-at-round view is available as :meth:`BetaTable.alpha`.
    """
    sizes = _chunk_plan("trials", trials, chunk)
    _check_counts(deadline=deadline)
    check_rate("rate", rate)
    snr = snr_from_db(snr_db)
    users, rx, tx = config.users, config.rx, config.tx
    values = np.ones((users, deadline + 1))
    stderr = np.zeros((users, deadline + 1))

    for k in range(1, users + 1):
        def one_chunk(idx, n, k=k):
            rng = np.random.default_rng([seed, _TAG_BETA + k, idx])
            channel = _draw_channel(rng, (n, k, rx, tx))
            needed = capped_rounds(channel, snr, rate, tx, deadline, range(1, 1 << k)).max(axis=0)
            return np.array([(needed > ell).sum() for ell in range(1, deadline + 1)])

        beta = sum(_map_chunks(one_chunk, sizes, workers)) / trials
        values[k - 1, 1:] = beta
        stderr[k - 1, 1:] = np.sqrt(np.maximum(beta * (1 - beta), 0.0) / trials)

    return BetaTable(
        values=values,
        source="monte-carlo",
        trials=trials,
        snr=snr,
        stderr=stderr,
    )


def _fully_loaded_epochs(
    protocol: str,
    config: AntennaConfig,
    params: ProtocolParams,
    snr: float | None,
    n: int,
    rng: np.random.Generator,
):
    """n back-to-back epochs of always-backlogged users, each at its coin mask, tile by tile.

    The generator is consumed in a fixed order (participation coins, drawn
    tile by tile, which is the stream of one whole draw, then the protocol's
    draws), so runs with the same seed share channel realisations across
    deadlines and SNR points.  Yields, per tile of :func:`_epoch_tiles`, the
    coin masks and the epochs' (lengths, delivered, errors), each of shape
    (epochs of the tile,).
    """
    coins = np.empty((n, 1), dtype=np.int64)
    for tile in _epoch_tiles(n):
        coins[tile, 0] = _bits(rng.random((tile.stop - tile.start, config.users)) < params.p_t)
    for tile, *outcomes in _outcome_tiles(protocol, config, params, snr, coins, rng):
        yield coins[tile, 0], *(x[:, 0] for x in outcomes)


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
    chunk: int = DEFAULT_CHUNK,
    workers: int = 1,
) -> ErrorEstimate:
    """Fraction of non-idle epochs in which at least one message is lost.

    Every run asserts the sandwich bound: the largest per-user error count
    never exceeds the system count, which never exceeds the per-user sum.
    Both hold pathwise, so the check is exact, not statistical.
    """
    sizes = _chunk_plan("trials", trials, chunk)
    snr = None if snr_db is None else snr_from_db(snr_db)

    def one_chunk(idx, n):
        rng = np.random.default_rng([seed, _TAG_ERROR, idx])
        nonidle = errors = 0
        per_user = np.zeros(config.users, dtype=np.int64)
        for coins, _, _, erred in _fully_loaded_epochs(protocol, config, params, snr, n, rng):
            nonidle += int(np.count_nonzero(coins))
            errors += int(np.count_nonzero(erred))
            per_user += [np.count_nonzero(erred >> u & 1) for u in range(config.users)]
        return nonidle, errors, per_user

    partials = _map_chunks(one_chunk, sizes, workers)
    nonidle = sum(p[0] for p in partials)
    errors = sum(p[1] for p in partials)
    per_user_counts = sum(p[2] for p in partials)

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
    chunk: int = DEFAULT_CHUNK,
) -> ThroughputEstimate:
    """Simulate epochs until at least ``slots`` slots elapse; ratio estimator.

    Throughput counts every delivered packet, decoded correctly or not.
    The standard error follows the delta method for the ratio of means of
    per-epoch (delivered, length) pairs.
    """
    _check_counts(slots=slots, chunk=chunk)
    snr = None if snr_db is None else snr_from_db(snr_db)
    n = min(chunk, max(1024, slots))

    def one_chunk(idx):
        rng = np.random.default_rng([seed, _TAG_THROUGHPUT, idx])
        sums = np.zeros(5, dtype=np.int64)
        for _, ell, delivered, _ in _fully_loaded_epochs(protocol, config, params, snr, n, rng):
            w = np.bitwise_count(delivered).astype(np.int64)
            sums += [w.sum(), ell.sum(), (w * w).sum(), (ell * ell).sum(), (w * ell).sum()]
        return sums

    sums = np.zeros(5, dtype=np.int64)  # W, L, WW, LL, WL, exact
    epochs = 0
    idx = 0
    while sums[1] < slots:
        sums += one_chunk(idx)
        epochs += n
        idx += 1
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
    uncertainty from a Monte Carlo table through the per-size epoch-length
    variances of :func:`dmt.epoch_law`.
    """
    p_t = params.p_t
    if protocol == IRARQ and beta is None:
        raise ValueError("IR-ARQ prediction needs a beta table")
    value = dmt.stability_region(protocol, config, p_t, beta=beta)
    if protocol != IRARQ or not beta.trials:
        return value, 0.0
    # a table's mean length for k colliders has variance Var[min(N, L)] / trials
    length, square, _ = dmt.epoch_law(IRARQ, config, beta.values)
    var = sum(binom_pmf(config.users, k, p_t) ** 2 * max(s - m * m, 0.0)
              for k, (m, s) in enumerate(zip(length, square)))
    return value, value / dmt.binomial_mix(length, config.users, p_t) * math.sqrt(var / beta.trials)


def gta_collision_stats(k: int, epochs: int, seed: int, chunk: int = DEFAULT_CHUNK,
                        workers: int = 1):
    """Mean epoch length and delivered count for forced k-user collisions.

    Returns (mean_length, se_length, mean_delivered, se_delivered); the
    Monte Carlo counterpart of the exact splitting-tree recursions.
    """
    _check_counts(k=k)
    sizes = _chunk_plan("epochs", epochs, chunk)

    def one_chunk(idx, n):
        rng = np.random.default_rng([seed, _TAG_GTA_STATS, idx])
        sums = np.zeros(4, dtype=np.int64)
        # every epoch collides (k >= 2), so tiles of epochs are the tree's own tiles
        for tile in _epoch_tiles(n):
            ell, w = _gta_tree_batch(np.full(tile.stop - tile.start, k, dtype=np.int64), rng)
            sums += [ell.sum(), (ell * ell).sum(), w.sum(), (w * w).sum()]
        return sums

    l1, l2, d1, d2 = sum(_map_chunks(one_chunk, sizes, workers)).astype(float)
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
    if any(p <= 0 for _, p in samples):
        raise ValueError("error probabilities must be positive")
    top = max(s for s, _ in samples)
    window = [(s, p) for s, p in samples if s >= top / 10.0 * (1 - 1e-9)]
    if len(window) < 2:
        raise ValueError("need at least 2 samples within the top SNR decade")
    x = np.array([math.log2(s) for s, _ in window])
    y = np.array([-math.log2(p) for _, p in window])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)
