"""Monte Carlo engines against closed forms, indicators, and each other."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import raclab
from raclab import channel, montecarlo

from raclab import (
    AntennaConfig,
    BetaTable,
    ProtocolParams,
    diversity_slope,
    epoch_law,
    estimate_beta,
    fully_loaded_throughput,
    gta_recursion,
    renewal_prediction,
    simulate_random_arrivals,
    snr_from_db,
    system_error_probability,
)
from raclab.channel import asymptotic_survival
from raclab.montecarlo import gta_collision_stats

SCALAR1 = AntennaConfig(users=1)
SCALAR2 = AntennaConfig(users=2)


# ---------------------------------------------------------------------------
# beta estimation
# ---------------------------------------------------------------------------

def test_beta_single_user_exponential_law():
    # log2(1 + 10*e) < 1  <=>  e < 0.1
    table = estimate_beta(SCALAR1, snr_db=10.0, rate=1.0, deadline=1, trials=10**6, seed=3)
    exact = 1 - math.exp(-0.1)
    assert abs(table.beta(1, 1) - exact) < 3 * table.stderr[0, 1]
    assert table.beta(1, 0) == 1.0


def test_beta_matches_highsnr_indicators():
    # r = 0.6 keeps every survival exponent above 0.4, so 60 dB is already
    # within 0.01 of the indicator limit for each (k, rounds) entry
    r = 0.6
    rate = r * math.log2(1 + 10**6)
    table = estimate_beta(SCALAR2, snr_db=60.0, rate=rate, deadline=2, trials=10**5, seed=5)
    indicators = asymptotic_survival(SCALAR2, r, 2)
    for k in (1, 2):
        for rounds in (1, 2):
            assert abs(table.beta(k, rounds) - indicators[k - 1, rounds]) < 0.01


def test_beta_monotone_in_rounds_and_snr():
    low = estimate_beta(SCALAR2, snr_db=5.0, rate=2.0, deadline=4, trials=10**5, seed=7)
    high = estimate_beta(SCALAR2, snr_db=12.0, rate=2.0, deadline=4, trials=10**5, seed=7)
    assert np.all(np.diff(low.values, axis=1) <= 1e-12)
    # same seed means shared channel draws: the comparison holds pathwise
    assert np.all(high.values <= low.values + 1e-12)


def test_beta_alpha_view_and_validation():
    table = estimate_beta(SCALAR2, snr_db=10.0, rate=1.5, deadline=3, trials=10**4, seed=9)
    with pytest.raises(ValueError):
        estimate_beta(SCALAR2, 10.0, 1.0, 2, trials=0, seed=1)
    with pytest.raises(ValueError):
        BetaTable(values=np.array([[0.9, 0.5]]), source="closed-form", trials=0, snr=None)
    with pytest.raises(ValueError):
        BetaTable(values=np.array([[1.0, 0.5, 0.6]]), source="closed-form", trials=0, snr=None)
    # every range and order check is a comparison, which nan fails unseen
    for bad in ([1.0, math.nan, 0.1], [math.nan, 0.5, 0.1], [1.0, 0.5, -math.inf], [1.0, math.inf, 0.1]):
        with pytest.raises(ValueError, match="finite"):
            BetaTable(values=np.array([bad, [1.0, 0.5, 0.2]]), source="closed-form", trials=0, snr=None)
    with pytest.raises(ValueError, match="length_cov"):
        BetaTable(values=table.values, source="monte-carlo", trials=10**4, snr=10.0,
                  length_cov=np.zeros((2, 3)))
    for bad, match in (([1.0, 0.5], "values must be a"), ([[1.0, 1.5]], r"lie in \[0, 1\]"),
                       ([[1.0, -0.5]], r"lie in \[0, 1\]")):
        with pytest.raises(ValueError, match=match):
            BetaTable(values=np.array(bad), source="closed-form", trials=0, snr=None)


def test_beta_alpha_reject_indices_outside_the_table():
    # unchecked, numpy's index -1 read the last user's row or round L
    table = BetaTable(values=np.array([[1.0, 0.5, 0.2], [1.0, 0.8, 0.6]]),
                      source="closed-form", trials=0, snr=None)
    assert table.beta(2, 2) == 0.6 and table.beta(1, 0) == 1.0
    for k, rounds in ((0, 1), (3, 1), (-1, 1), (1, -1), (1, 3)):
        with pytest.raises(ValueError):
            table.beta(k, rounds)


def test_beta_deterministic_and_worker_invariant():
    kw = dict(snr_db=8.0, rate=1.2, deadline=3, trials=3 * 10**5, seed=11, chunk=1 << 16)
    a = estimate_beta(SCALAR2, **kw)
    b = estimate_beta(SCALAR2, **kw)
    c = estimate_beta(SCALAR2, workers=4, **kw)
    assert np.array_equal(a.values, b.values) and np.array_equal(a.length_cov, b.length_cov)
    assert np.array_equal(a.values, c.values) and np.array_equal(a.length_cov, c.length_cov)
    # the MIMO kernel, chunked: K=3 2x2, 20k trials in 4096-trial chunks; and
    # two transmit antennas at one receive antenna (the extra antenna's draw
    # block), three whole chunks and a short one
    for cfg, trials in ((AntennaConfig(users=3, tx=2, rx=2), 20_000),
                        (AntennaConfig(users=3, tx=2, rx=1), 3 * 4096 + 17)):
        kw = dict(snr_db=10.0, rate=2.0, deadline=3, trials=trials, seed=12, chunk=4096)
        a = estimate_beta(cfg, **kw)
        c = estimate_beta(cfg, workers=4, **kw)
        assert np.array_equal(a.values, c.values)
        assert np.array_equal(a.stderr, c.stderr)
        assert np.array_equal(a.length_cov, c.length_cov)


def watch_draws(monkeypatch, rx):
    """Thread id -> addresses of the channel blocks drawn, and every block.

    Power rows (rx = 1) are drawn a chunk at a time by
    ``channel._draw_channel``, gains a kernel tile at a time by
    ``channel._draw_gains``.  Each block is kept alive, so a draw that
    allocated its own block could not be handed the memory of an earlier one.
    """
    name = "_draw_gains" if rx > 1 else "_draw_channel"
    blocks, drawn = {}, []
    real = getattr(channel, name)

    def draw(*args, **kwargs):
        block = real(*args, **kwargs)
        blocks.setdefault(threading.get_ident(), set()).add(block.__array_interface__["data"][0])
        drawn.append(block)
        return block

    monkeypatch.setattr(channel, name, draw)
    return blocks, drawn


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("cfg", [AntennaConfig(users=2, tx=2), AntennaConfig(users=2, tx=2, rx=2)],
                         ids=["2x1", "2x2"])
def test_each_thread_draws_its_chunks_into_one_block(monkeypatch, cfg, workers):
    # every draw of a thread, the short last chunk's too, writes its channels
    # into the same memory; another thread has its own.  Power rows are one
    # draw per chunk; gains one per kernel tile of the chunk, so a 16 384-
    # epoch chunk at K = 2, 2x2 is two draws, of 10 922 and 5 462 epochs
    params = ProtocolParams(p_t=0.7, multiplexing_gain=0.45, deadline=2)
    step = channel._tile_epochs(3, cfg.rx)

    def draws(n):
        return 1 if cfg.rx == 1 else -(-n // step)

    runs = [
        (6 * draws(1000) + draws(7), lambda: estimate_beta(cfg, 10.0, 1.0, 2, trials=6 * 1000 + 7, seed=3,
                                                           chunk=1000, workers=workers)),
        # the fully-loaded estimators draw through the engine's decode stage
        (3 * draws(16384) + draws(5), lambda: system_error_probability("irarq", cfg, params, 10.0,
                                                                       3 * 16384 + 5, seed=3, workers=workers)),
        (None, lambda: fully_loaded_throughput("irarq", cfg, params, 10.0, 40_000, seed=3)),
    ]
    for count, run in runs:
        blocks, drawn = watch_draws(monkeypatch, cfg.rx)
        run()
        assert len(drawn) == count or (count is None and len(drawn) > 1)
        assert all(len(addresses) == 1 for addresses in blocks.values())
        assert len(set.union(*blocks.values())) == len(blocks) <= workers
        monkeypatch.undo()


def test_mimo_beta_holds_one_tile_of_gains_whatever_the_chunk():
    # one estimate_beta call at K = 4, 2x4: from chunk 2^12 to 2^14 its
    # traced peak may grow by the uint8 lattice (2^K bytes) and the float64
    # length rows (8K bytes) per epoch, plus one tile of gains; a chunk of
    # gains would add their 512 bytes per epoch
    cfg = AntennaConfig(users=4, tx=2, rx=4)
    tile = channel._tile_epochs(15, 4) * 4 * 4 * 2 * 16
    estimate_beta(cfg, 20.0, 2.0, 2, 1 << 12, seed=1, chunk=1 << 12)     # lazy imports out of the count
    peaks = []
    for chunk in (1 << 12, 1 << 14):
        tracemalloc.start()
        try:
            estimate_beta(cfg, 20.0, 2.0, 2, chunk, seed=1, chunk=chunk)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= ((1 << 4) + 8 * 4) * ((1 << 14) - (1 << 12)) + tile, peaks


@pytest.mark.parametrize("cfg", [AntennaConfig(users=4, tx=2, rx=4), AntennaConfig(users=3, tx=2, rx=2)],
                         ids=["K4-2x4", "K3-2x2"])
def test_each_thread_allocates_its_channel_buffer_once(monkeypatch, cfg):
    # estimate_beta's epoch-length rows reuse the channel buffer, which also
    # holds one tile of gains: at K = 4, 2x4 the rows are the larger, at
    # K = 3, 2x2 the tile.  Either way a thread's first chunk sizes it once
    made = {}                                   # thread id -> {id: buffer}, each kept alive
    real = channel._scratch

    def scratch(buffers, name, *args):
        view = real(buffers, name, *args)
        if name == "channel":
            made.setdefault(threading.get_ident(), {})[id(buffers[name])] = buffers[name]
        return view

    monkeypatch.setattr(channel, "_scratch", scratch)
    monkeypatch.setattr(montecarlo, "_scratch", scratch)
    estimate_beta(cfg, 20.0, 2.0, 2, 3 * montecarlo.DEFAULT_CHUNK + 5, seed=1, workers=2)
    assert made and all(len(held) == 1 for held in made.values()), [
        [flat.nbytes for flat in held.values()] for held in made.values()]


def test_threads_keep_to_their_own_chunk_buffers():
    # more threads than cores, switching often: a chunk that wrote into
    # another thread's buffers would change the table
    cfg = AntennaConfig(users=3, tx=2)
    kw = dict(snr_db=10.0, rate=1.0, deadline=3, trials=40 * 500 + 3, seed=5, chunk=500)
    want = estimate_beta(cfg, **kw)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = estimate_beta(cfg, workers=8, **kw)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got.values, want.values) and np.array_equal(got.length_cov, want.length_cov)


def test_import_leaves_the_thread_pool_unloaded():
    # concurrent.futures is imported by a threaded chunk run, not by the package
    src = str(Path(raclab.__file__).resolve().parents[1])
    code = "import sys, raclab; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("cfg, snr_db, rate", [(AntennaConfig(users=3), 5.0, 1.0),
                                               (AntennaConfig(users=3, tx=2, rx=2), 0.0, 1.2),
                                               (AntennaConfig(users=4, tx=1, rx=2), 10.0, 1.5)],
                         ids=["K3-scalar", "K3-2x2", "K4-1x2"])
def test_beta_rows_share_their_draws(cfg, snr_db, rate):
    # every row reads the same K-user draws, so a trial that k colliders
    # survive is survived by k + 1 as well: the counts never drop in k
    table = estimate_beta(cfg, snr_db, rate, 3, trials=5000, seed=41, chunk=2048)
    assert np.all(np.diff(table.values, axis=0) >= 0.0)
    assert np.any(np.diff(table.values, axis=0) > 0.0)
    length, square, _ = epoch_law("irarq", cfg, table.values)
    var = np.array(square[1:]) - np.array(length[1:]) ** 2
    cov = table.length_cov
    assert cov.shape == (cfg.users, cfg.users) and np.array_equal(cov, cov.T)
    assert np.allclose(np.diag(cov), var, rtol=0.0, atol=1e-12)
    # here the nested lengths covary positively, and C is positive semidefinite
    assert np.all(cov > 0.0) and np.linalg.eigvalsh(cov).min() > -1e-12
    # at p_t = 1 only row K counts: the covariance changes nothing
    params = ProtocolParams(p_t=1.0, rate=rate, deadline=3)
    alone = BetaTable(values=table.values, source="monte-carlo", trials=table.trials, snr=table.snr)
    assert renewal_prediction("irarq", cfg, params, table) == renewal_prediction("irarq", cfg, params, alone)


@pytest.mark.parametrize("p_t", [0.7, 0.4])
def test_renewal_prediction_stderr_is_calibrated(p_t):
    # over 400 independent tables the predictions spread as their reported
    # stderr says: var(pred) / mean(se^2) is then about chi^2_399 / 399, and
    # [0.79, 1.21] is 1 +- 3 sd of that
    params = ProtocolParams(p_t=p_t, multiplexing_gain=0.45, deadline=3)
    rate = params.rate_at(snr_from_db(10.0))
    pred, se = np.array([
        renewal_prediction("irarq", SCALAR2, params,
                           estimate_beta(SCALAR2, 10.0, rate, 3, trials=2000, seed=seed))
        for seed in range(1, 401)]).T
    assert 0.79 <= np.var(pred, ddof=1) / np.mean(se**2) <= 1.21


def scalar_outage(snr, rate):
    """q(R) = 1 - exp(-(2^(R (1 - 1e-12)) - 1) / snr): a one-antenna user's one-round outage.

    Its power is a unit exponential; the rate carries the kernels' tie shave.
    """
    return -math.expm1(-math.expm1(rate * (1.0 - 1e-12) * math.log(2.0)) / snr)


def check_calibrated(est, se, exact):
    """N = 400 estimates with their reported se, held to an exact value.

    The 95% interval est +- 1.96 se covers it at a rate within 0.95 +- 3 sd,
    [0.917, 0.983]; the mean z = (est - exact) / se lies within 3 / sqrt(N)
    of 0; and var(est) / mean(se^2), about chi^2_399 / 399, lies within
    [0.79, 1.21], 1 +- 3 sd, so an se too wide fails as one too narrow.
    """
    z = (np.asarray(est) - exact) / np.asarray(se)
    assert len(z) == 400
    assert 0.917 <= np.mean(np.abs(z) <= 1.96) <= 0.983
    assert abs(np.mean(z)) <= 3 / math.sqrt(len(z))
    assert 0.79 <= np.var(est, ddof=1) / np.mean(np.square(se)) <= 1.21


def test_error_stderr_is_calibrated_against_exact_values():
    # O-NDMA at p_t = 1, K = 2 scalar users at 10 dB and R = 2: each user
    # fails on its own with probability q, so the system error is exactly
    # 1 - (1 - q)^2 and user 0's is q
    q = scalar_outage(snr_from_db(10.0), 2.0)
    params = ProtocolParams(p_t=1.0, rate=2.0)
    runs = [system_error_probability("ondma", SCALAR2, params, 10.0, trials=1000, seed=seed)
            for seed in range(1, 401)]
    check_calibrated([r.value for r in runs], [r.stderr for r in runs], 1.0 - (1.0 - q) ** 2)
    check_calibrated([r.per_user[0] for r in runs], [r.per_user_stderr[0] for r in runs], q)


def test_beta_stderr_is_calibrated_against_exact_values():
    # one scalar user at 10 dB and R = 2 still fails after ell rounds iff
    # ell * log2(1 + snr * power) < R: beta(ell) is exactly q at rate R / ell
    tables = [estimate_beta(SCALAR1, 10.0, 2.0, 2, trials=1000, seed=seed) for seed in range(1, 401)]
    for ell in (1, 2):
        check_calibrated([t.values[0, ell] for t in tables], [t.stderr[0, ell] for t in tables],
                         scalar_outage(snr_from_db(10.0), 2.0 / ell))


def test_indicator_table_construction():
    table = BetaTable.from_indicators(SCALAR2, multiplexing_gain=0.7, deadline=3)
    assert table.values.tolist() == [[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]]
    # the epoch-length columns read off the table, idle epochs first
    length, square, _ = epoch_law("irarq", SCALAR2, table.values)
    assert length == (1.0, 1.0, 2.0)
    assert square == (1.0, 1.0, 4.0)
    # min(N, 2) is 1 or 2 with probability 1/2 each: mean 1.5, variance 0.25
    half = BetaTable(values=np.array([[1.0, 0.5, 0.25]]), source="closed-form", trials=0, snr=None)
    length, square, _ = epoch_law("irarq", SCALAR1, half.values)
    assert length == (1.0, 1.5)
    assert square[1] - length[1] ** 2 == 0.25


# ---------------------------------------------------------------------------
# throughput
# ---------------------------------------------------------------------------

def test_throughput_infinite_snr_limits():
    p_ir = ProtocolParams(p_t=1.0, multiplexing_gain=0.2, deadline=2)
    est = fully_loaded_throughput("irarq", SCALAR2, p_ir, None, slots=20_000, seed=13)
    assert est.per_rate == pytest.approx(2.0)   # every slot carries both packets
    assert est.bits_per_channel_use is None

    p_on = ProtocolParams(p_t=1.0, multiplexing_gain=0.2)
    est = fully_loaded_throughput("ondma", SCALAR2, p_on, None, slots=20_000, seed=13)
    assert est.per_rate == pytest.approx(1.0)

    est = fully_loaded_throughput("gta", SCALAR2, p_on, None, slots=300_000, seed=13)
    assert abs(est.per_rate - 0.5) < 3 * est.per_rate_stderr


def test_throughput_renewal_consistency_at_finite_snr():
    snr_db = 10.0
    for protocol, params in [
        ("gta", ProtocolParams(p_t=0.6, multiplexing_gain=0.45)),
        ("ondma", ProtocolParams(p_t=0.8, multiplexing_gain=0.45)),
        ("irarq", ProtocolParams(p_t=0.7, multiplexing_gain=0.45, deadline=3)),
    ]:
        est = fully_loaded_throughput(protocol, SCALAR2, params, snr_db, slots=400_000, seed=17)
        beta = None
        if protocol == "irarq":
            rate = params.rate_at(10 ** (snr_db / 10))
            beta = estimate_beta(SCALAR2, snr_db, rate, 3, trials=10**6, seed=18)
        pred, pred_se = renewal_prediction(protocol, SCALAR2, params, beta)
        gap = abs(est.per_rate - pred)
        assert gap < 3 * math.sqrt(est.per_rate_stderr**2 + pred_se**2) + 1e-12, (
            f"{protocol}: simulated {est.per_rate} vs predicted {pred}"
        )


def test_throughput_validation():
    p = ProtocolParams(p_t=1.0, rate=1.0)
    with pytest.raises(ValueError):
        fully_loaded_throughput("ondma", SCALAR2, p, 10.0, slots=0, seed=1)


# ---------------------------------------------------------------------------
# error probability
# ---------------------------------------------------------------------------

def test_error_probability_single_user_closed_form():
    params = ProtocolParams(p_t=1.0, rate=1.0, deadline=1)
    est = system_error_probability("irarq", SCALAR1, params, 10.0, trials=10**6, seed=19)
    exact = 1 - math.exp(-0.1)
    assert abs(est.value - exact) < 3 * est.stderr


def test_error_probability_sandwich_bounds():
    for protocol, params in [
        ("gta", ProtocolParams(p_t=0.6, multiplexing_gain=0.45)),
        ("ondma", ProtocolParams(p_t=1.0, multiplexing_gain=0.45)),
        ("irarq", ProtocolParams(p_t=0.9, multiplexing_gain=0.45, deadline=2)),
    ]:
        est = system_error_probability(protocol, SCALAR2, params, 12.0, trials=10**5, seed=23)
        assert est.per_user.max() <= est.value + 1e-12
        assert est.value <= est.per_user.sum() + 1e-12


def test_error_probability_deadline_ordering_pathwise():
    # shared seed means shared channels: more rounds never hurt
    last = None
    for deadline in (1, 2, 4):
        params = ProtocolParams(p_t=1.0, multiplexing_gain=0.45, deadline=deadline)
        est = system_error_probability("irarq", SCALAR2, params, 15.0, trials=10**5, seed=29)
        if last is not None:
            assert est.value <= last + 1e-12
        last = est.value


def test_error_probability_monotone_in_snr_pathwise():
    params = ProtocolParams(p_t=1.0, multiplexing_gain=0.45, deadline=2)
    values = [
        system_error_probability("irarq", SCALAR2, params, snr_db, trials=10**5, seed=31).value
        for snr_db in (10.0, 20.0, 30.0)
    ]
    assert values[0] >= values[1] >= values[2]


def test_error_probability_deterministic_and_worker_invariant():
    params = ProtocolParams(p_t=0.8, multiplexing_gain=0.45, deadline=2)
    kw = dict(trials=2 * 10**5, seed=37)
    a = system_error_probability("gta", SCALAR2, params, 15.0, **kw)
    b = system_error_probability("gta", SCALAR2, params, 15.0, workers=4, **kw)
    assert a.value == b.value and np.array_equal(a.per_user, b.per_user)


@pytest.mark.parametrize("protocol", ["ondma", "gta", "irarq"])
def test_error_probability_counts_only_nonidle_epochs(protocol):
    # at infinite SNR and multiplexing gain 1.5 every delivered packet is
    # lost, so every non-idle epoch errs: exactly 1, while about a quarter
    # of the epochs (p_t = 0.5, K = 2) are idle and must not count
    params = ProtocolParams(p_t=0.5, multiplexing_gain=1.5, deadline=1)
    est = system_error_probability(protocol, SCALAR2, params, None, trials=4096, seed=3)
    assert est.value == 1.0
    assert 0 < est.nonidle < est.trials == 4096


def test_error_probability_beyond_queue_user_cap():
    # fully-loaded epochs are evaluated at one participant set each, so the
    # 2^K cap of the random-arrival simulator does not apply here
    ten = AntennaConfig(users=10)
    params = ProtocolParams(p_t=1.0, rate=1.0)
    q = 1 - math.exp(-0.1)                                   # single-user outage at 10 dB
    ondma = system_error_probability("ondma", ten, params, 10.0, trials=2 * 10**4, seed=41)
    assert ondma.per_user.shape == (10,) and ondma.nonidle == 2 * 10**4
    assert abs(ondma.value - (1 - (1 - q) ** 10)) < 4 * ondma.stderr
    gta = system_error_probability("gta", ten, params, 10.0, trials=2 * 10**4, seed=41)
    assert gta.per_user.max() <= gta.value <= gta.per_user.sum()
    assert 0.0 < gta.value < ondma.value


# ---------------------------------------------------------------------------
# tree statistics and slope fitting
# ---------------------------------------------------------------------------

def test_gta_collision_stats_match_recursion():
    table = gta_recursion(6)
    for k in (2, 3, 4, 5, 6):
        mean_l, se_l, mean_d, se_d = gta_collision_stats(k, 2 * 10**5, seed=41)
        assert abs(mean_l - float(table.expected_slots[k])) < 4 * se_l
        # delivered count is deterministic for k=2 (nothing is ever pruned)
        assert abs(mean_d - float(table.expected_successes[k])) < 4 * se_d + 1e-12


def test_diversity_slope_synthetic():
    snrs = [10 ** (db / 10) for db in range(10, 55, 5)]
    samples = [(s, s**-1.5) for s in snrs]
    assert diversity_slope(samples) == pytest.approx(1.5, abs=1e-9)
    scaled = [(s, 7.3 * s**-1.5) for s in snrs]
    assert diversity_slope(scaled) == pytest.approx(1.5, abs=1e-9)


def test_diversity_slope_uses_top_decade():
    # slope 2 below 40 dB, slope 1 above: the fit sees only the top decade
    def pe(s):
        knee = 1e4
        return (s / knee) ** -1.0 * knee**-2.0 if s > knee else s**-2.0

    snrs = [10 ** (db / 10) for db in range(10, 55, 5)]
    samples = [(s, pe(s)) for s in snrs]
    assert diversity_slope(samples) == pytest.approx(1.0, abs=1e-6)


def test_diversity_slope_validation():
    with pytest.raises(ValueError):
        diversity_slope([(10.0, 0.1), (100.0, 0.01)])
    with pytest.raises(ValueError):
        diversity_slope([(10.0, 0.1), (100.0, 0.0), (1000.0, 0.001)])
    # unchecked, a nan sample made the fitted slope nan
    for bad in ((math.nan, 0.01), (math.inf, 0.01), (100.0, math.nan), (100.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            diversity_slope([(10.0, 0.1), bad, (1000.0, 0.001), (1e4, 1e-4)])


# ---------------------------------------------------------------------------
# invalid inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [0, -1])
def test_gta_collision_stats_rejects_empty_collisions(k):
    with pytest.raises(ValueError, match="k must be"):
        gta_collision_stats(k, 100, seed=1)


@pytest.mark.parametrize("k", [65, 300])
def test_gta_collision_stats_refuses_more_than_64_users(k):
    # the tree's sizes are byte-wide: the 64-user bound is checked before
    # they are made, so k >= 256 is refused by name, not by an overflow
    with pytest.raises(ValueError, match=f"at most 64 users, got {k}"):
        gta_collision_stats(k, 100, seed=1)


def test_beta_rejects_zero_chunk():
    with pytest.raises(ValueError, match="chunk"):
        estimate_beta(SCALAR2, 10.0, 1.0, 2, trials=100, seed=1, chunk=0)


def test_beta_rejects_negative_rate():
    with pytest.raises(ValueError, match="rate"):
        estimate_beta(SCALAR2, 10.0, -0.5, 2, trials=100, seed=1)
    # a zero rate is valid: every collision decodes in the first round
    table = estimate_beta(SCALAR2, 10.0, 0.0, 2, trials=100, seed=1)
    assert np.all(table.values[:, 1:] == 0.0)


@pytest.mark.parametrize("build", [
    lambda: ProtocolParams(p_t=1.0, rate=math.nan, deadline=2),
    lambda: ProtocolParams(p_t=1.0, rate=math.inf, deadline=2),
    lambda: ProtocolParams(p_t=1.0, multiplexing_gain=math.nan, deadline=2),
    lambda: ProtocolParams(p_t=1.0, multiplexing_gain=math.inf, deadline=2),
    lambda: ProtocolParams(p_t=1.0, rate=1.0, deadline=True),
    lambda: AntennaConfig(users=True),
    lambda: AntennaConfig(users=2, tx=True),
    lambda: AntennaConfig(users=2, rx=True),
    lambda: estimate_beta(SCALAR2, 10.0, math.nan, 2, trials=100, seed=1),
    lambda: estimate_beta(SCALAR2, 10.0, math.inf, 2, trials=100, seed=1),
    lambda: estimate_beta(SCALAR2, 10.0, 1.0, True, trials=100, seed=1),
    lambda: ProtocolParams(p_t=1.0),
    lambda: ProtocolParams(p_t=1.0, rate=1.0, multiplexing_gain=0.45),
    lambda: ProtocolParams(p_t=1.0, multiplexing_gain=0.45).rate_at(None),
], ids=["rate-nan", "rate-inf", "gain-nan", "gain-inf", "deadline-bool", "users-bool", "tx-bool",
        "rx-bool", "beta-rate-nan", "beta-rate-inf", "beta-deadline-bool", "no-rate", "both-rates",
        "gain-rate-at-infinite-snr"])
def test_invalid_rates_and_counts_fail_loudly(build):
    # unchecked, a nan rate would give pe = 1.0 or an all-ones beta table
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("run, match", [
    (lambda: system_error_probability("ondma", SCALAR2, ProtocolParams(p_t=1e-9, rate=1.0), 10.0,
                                      trials=1, seed=1), "no non-idle epochs"),
    (lambda: renewal_prediction("irarq", SCALAR2,
                                ProtocolParams(p_t=1.0, multiplexing_gain=0.45, deadline=2)),
     "needs a beta table"),
    (lambda: diversity_slope([(1.0, 0.5), (10.0, 0.05), (1000.0, 5e-4)]), "top SNR decade"),
], ids=["pe-all-idle", "renewal-irarq-no-table", "slope-one-in-top-decade"])
def test_estimators_reject_bad_inputs(run, match):
    with pytest.raises(ValueError, match=match):
        run()


@pytest.mark.parametrize("workers", [0, -1, True, 1.5])
def test_worker_count_must_be_positive(workers):
    # a nonpositive count once ran serially as if it were 1
    params = ProtocolParams(p_t=1.0, rate=1.0, deadline=2)
    for run in (lambda: estimate_beta(SCALAR2, 10.0, 1.0, 2, trials=100, seed=1, workers=workers),
                lambda: system_error_probability("gta", SCALAR2, params, 10.0, 100, seed=1,
                                                 workers=workers)):
        with pytest.raises(ValueError, match="workers"):
            run()


@pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf, 4000.0, -4000.0, np.float64(4000.0)],
                         ids=["nan", "inf", "-inf", "overflow", "underflow", "np-overflow"])
def test_non_finite_snr_fails_loudly(snr_db):
    # unchecked, nan gave pe = 0 and an all-zero beta table, 4000 dB an OverflowError
    with pytest.raises(ValueError, match="SNR"):
        snr_from_db(snr_db)
    params = ProtocolParams(p_t=1.0, multiplexing_gain=0.45, deadline=2)
    for run in (lambda: estimate_beta(SCALAR2, snr_db, 1.0, 2, trials=100, seed=1),
                lambda: system_error_probability("irarq", SCALAR2, params, snr_db, 100, seed=1),
                lambda: fully_loaded_throughput("ondma", SCALAR2, params, snr_db, 100, seed=1),
                lambda: simulate_random_arrivals("gta", SCALAR2, params, 0.3, snr_db, 100, seed=1)):
        with pytest.raises(ValueError, match="SNR"):
            run()


def test_finite_snr_converts_as_before():
    for snr_db in (-300.0, -3.0, 0.0, 10.0, 23.3, 3080.0):
        assert snr_from_db(snr_db) == 10.0 ** (snr_db / 10.0)
    assert snr_from_db(np.float64(23.3)) == 10.0 ** (np.float64(23.3) / 10.0)


ERROR_PARAMS = ProtocolParams(p_t=1.0, rate=1.0, deadline=2)


@pytest.mark.parametrize("run", [
    lambda: gta_collision_stats(2.5, 100, seed=1),
    lambda: gta_collision_stats(True, 100, seed=1),
    lambda: gta_collision_stats(3, 100.0, seed=1),
    lambda: fully_loaded_throughput("ondma", SCALAR2, ERROR_PARAMS, 10.0, slots=100.5, seed=1),
    lambda: system_error_probability("irarq", SCALAR2, ERROR_PARAMS, 10.0, True, seed=1),
    lambda: system_error_probability("irarq", SCALAR2, ERROR_PARAMS, 10.0, 1.5, seed=1),
    lambda: estimate_beta(SCALAR2, 10.0, 1.0, 2, trials=True, seed=1),
    lambda: estimate_beta(SCALAR2, 10.0, 1.0, 2, trials=1.5, seed=1),
    lambda: estimate_beta(SCALAR2, 10.0, 1.0, 2, trials=100, seed=1, chunk=64.0),
], ids=["tree-k-float", "tree-k-bool", "tree-epochs-float", "throughput-slots-float",
        "pe-trials-bool", "pe-trials-float", "beta-trials-bool", "beta-trials-float",
        "beta-chunk-float"])
def test_counts_must_be_integers(run):
    # unchecked, k = 2.5 simulated k = 2, chunk = 2.5 ran chunks of 2,
    # trials = True ran one trial and trials = 1.5 died with a TypeError
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        run()
