"""Monte Carlo engines against closed forms, indicators, and each other."""

import math

import numpy as np
import pytest

from raclab import (
    AntennaConfig,
    BetaTable,
    ProtocolParams,
    beta_highsnr,
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
    for k in (1, 2):
        for rounds in (1, 2):
            assert abs(table.beta(k, rounds) - beta_highsnr(k, 1, 1, r, rounds)) < 0.01


def test_beta_monotone_in_rounds_and_snr():
    low = estimate_beta(SCALAR2, snr_db=5.0, rate=2.0, deadline=4, trials=10**5, seed=7)
    high = estimate_beta(SCALAR2, snr_db=12.0, rate=2.0, deadline=4, trials=10**5, seed=7)
    assert np.all(np.diff(low.values, axis=1) <= 1e-12)
    # same seed means shared channel draws: the comparison holds pathwise
    assert np.all(high.values <= low.values + 1e-12)


def test_beta_alpha_view_and_validation():
    table = estimate_beta(SCALAR2, snr_db=10.0, rate=1.5, deadline=3, trials=10**4, seed=9)
    for k in (1, 2):
        total = sum(table.alpha(k, ell) for ell in range(1, 4))
        assert total == pytest.approx(1.0 - table.beta(k, 3))
    with pytest.raises(ValueError):
        estimate_beta(SCALAR2, 10.0, 1.0, 2, trials=0, seed=1)
    with pytest.raises(ValueError):
        BetaTable(values=np.array([[0.9, 0.5]]), source="closed-form", trials=0, snr=None)
    with pytest.raises(ValueError):
        BetaTable(values=np.array([[1.0, 0.5, 0.6]]), source="closed-form", trials=0, snr=None)


def test_beta_deterministic_and_worker_invariant():
    kw = dict(snr_db=8.0, rate=1.2, deadline=3, trials=3 * 10**5, seed=11, chunk=1 << 16)
    a = estimate_beta(SCALAR2, **kw)
    b = estimate_beta(SCALAR2, **kw)
    c = estimate_beta(SCALAR2, workers=4, **kw)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.values, c.values)
    # the MIMO kernel, chunked: K=3 2x2, 20k trials in 4096-trial chunks
    mimo = AntennaConfig(users=3, tx=2, rx=2)
    kw = dict(snr_db=10.0, rate=2.0, deadline=3, trials=20_000, seed=12, chunk=4096)
    a = estimate_beta(mimo, **kw)
    c = estimate_beta(mimo, workers=4, **kw)
    assert np.array_equal(a.values, c.values)
    assert np.array_equal(a.stderr, c.stderr)


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
    kw = dict(trials=2 * 10**5, seed=37, chunk=1 << 15)
    a = system_error_probability("gta", SCALAR2, params, 15.0, **kw)
    b = system_error_probability("gta", SCALAR2, params, 15.0, workers=4, **kw)
    assert a.value == b.value and np.array_equal(a.per_user, b.per_user)


def test_matched_combining_ondma_on_mimo():
    # at p_t = 1 no epoch has a one-user set, and 8-trial chunks at p_t = 0.5
    # leave some sizes out of a chunk: the kernel must take empty batches.
    # Same draws with and without combining, so gain k >= 1 never adds errors.
    mimo = AntennaConfig(users=2, tx=2, rx=2)
    for p_t, chunk in ((1.0, 4096), (0.5, 8)):
        kw = dict(trials=4000, seed=43, chunk=chunk)
        matched, plain = (
            system_error_probability(
                "ondma", mimo, ProtocolParams(p_t=p_t, rate=3.0, matched_combining=mc), 5.0, **kw)
            for mc in (True, False)
        )
        assert matched.nonidle == plain.nonidle > 0
        assert 0.0 < matched.value < plain.value
        assert np.all(matched.per_user <= plain.per_user)

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


# ---------------------------------------------------------------------------
# invalid inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [0, -1])
def test_gta_collision_stats_rejects_empty_collisions(k):
    with pytest.raises(ValueError, match="k must be"):
        gta_collision_stats(k, 100, seed=1)


def test_beta_rejects_zero_chunk():
    with pytest.raises(ValueError, match="chunk"):
        estimate_beta(SCALAR2, 10.0, 1.0, 2, trials=100, seed=1, chunk=0)


def test_error_probability_rejects_zero_chunk():
    params = ProtocolParams(p_t=1.0, rate=1.0, deadline=2)
    with pytest.raises(ValueError, match="chunk"):
        system_error_probability("irarq", SCALAR2, params, 10.0, trials=100, seed=1, chunk=0)


def test_throughput_rejects_zero_chunk():
    params = ProtocolParams(p_t=1.0, rate=1.0)
    with pytest.raises(ValueError, match="chunk"):
        fully_loaded_throughput("ondma", SCALAR2, params, 10.0, slots=100, seed=1, chunk=0)


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
], ids=["rate-nan", "rate-inf", "gain-nan", "gain-inf", "deadline-bool", "users-bool", "tx-bool",
        "rx-bool", "beta-rate-nan", "beta-rate-inf", "beta-deadline-bool"])
def test_invalid_rates_and_counts_fail_loudly(build):
    # unchecked, a nan rate would give pe = 1.0 or an all-ones beta table
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("workers", [0, -1, True, 1.5])
def test_worker_count_must_be_positive(workers):
    # a nonpositive count once ran serially as if it were 1
    params = ProtocolParams(p_t=1.0, rate=1.0, deadline=2)
    for run in (lambda: estimate_beta(SCALAR2, 10.0, 1.0, 2, trials=100, seed=1, workers=workers),
                lambda: system_error_probability("gta", SCALAR2, params, 10.0, 100, seed=1,
                                                 workers=workers),
                lambda: gta_collision_stats(3, 100, seed=1, workers=workers)):
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
    lambda: gta_collision_stats(3, 100, seed=1, chunk=2.5),
    lambda: fully_loaded_throughput("ondma", SCALAR2, ERROR_PARAMS, 10.0, slots=100, seed=1, chunk=2.5),
    lambda: fully_loaded_throughput("ondma", SCALAR2, ERROR_PARAMS, 10.0, slots=100.5, seed=1),
    lambda: system_error_probability("irarq", SCALAR2, ERROR_PARAMS, 10.0, True, seed=1),
    lambda: system_error_probability("irarq", SCALAR2, ERROR_PARAMS, 10.0, 1.5, seed=1),
    lambda: system_error_probability("irarq", SCALAR2, ERROR_PARAMS, 10.0, 100, seed=1, chunk=2.5),
    lambda: estimate_beta(SCALAR2, 10.0, 1.0, 2, trials=True, seed=1),
    lambda: estimate_beta(SCALAR2, 10.0, 1.0, 2, trials=1.5, seed=1),
    lambda: estimate_beta(SCALAR2, 10.0, 1.0, 2, trials=100, seed=1, chunk=64.0),
], ids=["tree-k-float", "tree-k-bool", "tree-epochs-float", "tree-chunk-float",
        "throughput-chunk-float", "throughput-slots-float", "pe-trials-bool", "pe-trials-float",
        "pe-chunk-float", "beta-trials-bool", "beta-trials-float", "beta-chunk-float"])
def test_counts_must_be_integers(run):
    # unchecked, k = 2.5 simulated k = 2, chunk = 2.5 ran chunks of 2,
    # trials = True ran one trial and trials = 1.5 died with a TypeError
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        run()
