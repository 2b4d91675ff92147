"""Random-arrival dynamics: fixed point, vacation-queue delay, stability."""

import dataclasses
import math
import warnings
from bisect import bisect_left

import numpy as np
import pytest

from raclab import (
    AntennaConfig,
    BetaTable,
    ProtocolParams,
    analytic_delay,
    epoch_length_moments,
    estimate_beta,
    simulate_random_arrivals,
    solve_transmission_probability,
    stability_boundary_scan,
)
from raclab import protocols, queueing
from raclab.channel import batch_first_decodable_round
from raclab.protocols import _bits, epoch_outcomes
from raclab.system import binom_pmf

SCALAR2 = AntennaConfig(users=2)
ZERO_BETA = BetaTable.from_indicators(SCALAR2, multiplexing_gain=0.45, deadline=2)


def table_from(values):
    vals = np.asarray(values, dtype=float)
    return BetaTable(values=vals, source="closed-form", trials=0, snr=None)


# ---------------------------------------------------------------------------
# fixed-point transmission probability
# ---------------------------------------------------------------------------

def test_fixed_point_all_zero_beta():
    p = solve_transmission_probability(1.0, 2, 1.0, 2, ZERO_BETA)
    assert p == pytest.approx(0.5, abs=1e-10)


def test_fixed_point_blocking_collision():
    # beta_2(1)=1, beta_1(1)=0: 2p = lam*(1 + p^2); at lam=1 the root is 1
    table = table_from([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    p = solve_transmission_probability(1.0, 2, 1.0, 2, table)
    assert p == pytest.approx(1.0, abs=1e-6)
    residual = 2 * p - 1.0 * (1 + p * p)
    assert abs(residual) < 1e-9


def test_fixed_point_against_bisection_oracle():
    table = table_from([[1.0, 0.3, 0.1], [1.0, 0.8, 0.2]])
    lam, users, p_t, deadline = 0.9, 2, 0.95, 2

    def g(p):
        extra = sum(
            binom_pmf(users, k, p) * table.beta(k, 1) for k in (1, 2)
        )
        return users * p - lam * (1 + extra)

    lo, hi = 1e-12, p_t
    assert g(lo) < 0 < g(hi)
    for _ in range(200):
        mid = (lo + hi) / 2
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    oracle = (lo + hi) / 2
    p = solve_transmission_probability(lam, users, p_t, deadline, table)
    assert p == pytest.approx(oracle, abs=1e-9)
    assert abs(g(p)) < 1e-9


def test_fixed_point_boundaries():
    assert solve_transmission_probability(0.0, 2, 1.0, 2, ZERO_BETA) == 0.0
    # overload: no root below p_t
    assert solve_transmission_probability(2.5, 2, 1.0, 2, ZERO_BETA) is None


@pytest.mark.parametrize("total_rate, p_t, match", [
    (math.nan, 1.0, "total_rate"), (math.inf, 1.0, "total_rate"), (-math.inf, 1.0, "total_rate"),
    (-0.5, 1.0, "total_rate"), (0.5, 2.0, "p_t"), (0.5, 0.0, "p_t"), (0.5, -0.1, "p_t"),
    (0.5, math.nan, "p_t"),
], ids=["rate-nan", "rate-inf", "rate-neg-inf", "rate-negative", "p_t-2", "p_t-0", "p_t-negative",
        "p_t-nan"])
def test_analytics_reject_invalid_rate_and_p_t(total_rate, p_t, match):
    # unchecked, a nan rate gave p = 3.6e-15 and a nan delay, and p_t = 2
    # bisected on (0, 2]
    for run in (solve_transmission_probability, analytic_delay):
        with pytest.raises(ValueError, match=match):
            run(total_rate, 2, p_t, 2, ZERO_BETA)


def test_deadline_must_match_beta_table():
    table = BetaTable.from_indicators(SCALAR2, multiplexing_gain=0.7, deadline=2)
    with pytest.raises(ValueError, match="deadline"):
        solve_transmission_probability(0.5, 2, 1.0, 1, table)
    with pytest.raises(ValueError, match="deadline"):
        epoch_length_moments(0.5, 2, 1, table)
    with pytest.raises(ValueError, match="deadline"):
        analytic_delay(0.5, 2, 1.0, 1, table)


# ---------------------------------------------------------------------------
# epoch-length moments
# ---------------------------------------------------------------------------

def test_moments_degenerate_epochs():
    assert epoch_length_moments(0.7, 2, 2, ZERO_BETA) == (1.0, 1.0, 1.0, 1.0)


def test_moments_two_user_substitution():
    table = table_from([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    for p in (0.2, 0.5, 0.9):
        eu, eu2, ev, ev2 = epoch_length_moments(p, 2, 2, table)
        assert eu == pytest.approx(1 + p)
        assert eu2 == pytest.approx(1 + 3 * p)
        assert ev == pytest.approx(1.0)
        assert ev2 == pytest.approx(1.0)


def _moments_by_pmf_enumeration(p, users, deadline, table):
    """Independent oracle: build the epoch-length pmfs and sum directly.

    Given k colliders the epoch ends at round ell < L with probability
    beta(ell-1) - beta(ell) and at the deadline with probability
    beta(L-1); the tagged user adds itself to Binomial(users-1, p) others
    for relevant epochs and is absent for irrelevant ones.
    """
    def length_pmf(k):
        pmf = []
        for ell in range(1, deadline):
            pmf.append(table.beta(k, ell - 1) - table.beta(k, ell))
        pmf.append(table.beta(k, deadline - 1))
        return pmf

    def mix(weights):
        m1 = m2 = 0.0
        for k, w in weights:
            if k == 0:
                m1 += w * 1.0
                m2 += w * 1.0
                continue
            for ell, q in enumerate(length_pmf(k), start=1):
                m1 += w * q * ell
                m2 += w * q * ell * ell
        return m1, m2

    relevant = [(1 + j, binom_pmf(users - 1, j, p)) for j in range(users)]
    other = [(j, binom_pmf(users - 1, j, p)) for j in range(users)]
    u1, u2 = mix(relevant)
    v1, v2 = mix(other)
    return u1, u2, v1, v2


def test_moments_match_pmf_enumeration():
    rng = np.random.default_rng(51)
    for users in (2, 3, 4):
        for deadline in (2, 3):
            raw = np.sort(rng.random((users, deadline)), axis=1)[:, ::-1]
            vals = np.hstack([np.ones((users, 1)), raw])
            table = table_from(vals)
            for p in (0.15, 0.6, 1.0):
                got = epoch_length_moments(p, users, deadline, table)
                want = _moments_by_pmf_enumeration(p, users, deadline, table)
                assert got == pytest.approx(want, rel=1e-12)


def test_moments_match_direct_simulation():
    # sample relevant/irrelevant epoch lengths at matching collision mix
    users, deadline, snr_db, p = 2, 2, 12.0, 0.55
    rate = 0.45 * math.log2(1 + 10 ** (snr_db / 10))
    table = estimate_beta(SCALAR2, snr_db, rate, deadline, trials=4 * 10**5, seed=53)
    eu, eu2, ev, ev2 = epoch_length_moments(p, users, deadline, table)

    rng = np.random.default_rng(54)
    n = 2 * 10**5
    snr = 10 ** (snr_db / 10)
    for tagged, (m1_want, m2_want) in ((True, (eu, eu2)), (False, (ev, ev2))):
        others = rng.binomial(users - 1, p, size=n)
        k_arr = others + (1 if tagged else 0)
        lengths = np.ones(n)
        for k in range(1, users + 1):
            sel = k_arr == k
            m = int(sel.sum())
            if m == 0:
                continue
            gains = (rng.standard_normal((m, k, 1, 1)) + 1j * rng.standard_normal((m, k, 1, 1))) / math.sqrt(2)
            lengths[sel] = np.minimum(batch_first_decodable_round(gains, snr, rate), deadline)
        for sample, want in ((lengths, m1_want), (lengths**2, m2_want)):
            se = sample.std(ddof=1) / math.sqrt(n)
            assert abs(sample.mean() - want) < 4 * se + 2e-3


# ---------------------------------------------------------------------------
# analytic delay
# ---------------------------------------------------------------------------

def test_analytic_delay_high_snr_values():
    assert analytic_delay(1.0, 2, 1.0, 2, ZERO_BETA) == pytest.approx(2.0)
    assert analytic_delay(1e-9, 2, 1.0, 2, ZERO_BETA) == pytest.approx(1.5, abs=1e-6)
    for lam in (0.4, 1.0, 1.6):
        assert analytic_delay(lam, 2, 1.0, 2, ZERO_BETA) == pytest.approx(
            1.5 + lam / (2 * (2 - lam))
        )


def test_analytic_delay_vector_channel():
    vec = AntennaConfig(users=2, tx=1, rx=2)
    table = BetaTable.from_indicators(vec, multiplexing_gain=0.9, deadline=2)
    assert table.values[:, 1:].sum() == 0.0  # any r_A < 1 leaves no survivals
    assert analytic_delay(1.0, 2, 1.0, 2, table) == pytest.approx(2.0)


def test_analytic_delay_unstable_is_infinite():
    assert analytic_delay(2.0, 2, 1.0, 2, ZERO_BETA) == math.inf
    table = table_from([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    # boundary load for this table is 2/(1+1) = 1
    assert analytic_delay(1.0, 2, 1.0, 2, table) == math.inf
    assert analytic_delay(0.9, 2, 1.0, 2, table) < math.inf


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

IR_PARAMS = ProtocolParams(p_t=1.0, multiplexing_gain=0.45, deadline=2)


def test_simulated_delay_matches_vacation_formula_infinite_snr():
    rep = simulate_random_arrivals("irarq", SCALAR2, IR_PARAMS, 1.0, None, 300_000, seed=55)
    assert rep.verdict == "stable"
    assert rep.pe == 0.0
    assert abs(rep.delay - 2.0) < 0.05


def test_stability_examples():
    ondma = ProtocolParams(p_t=1.0, multiplexing_gain=0.45)
    rep = simulate_random_arrivals("ondma", SCALAR2, ondma, 1.2, None, 100_000, seed=56)
    assert rep.verdict == "unstable"
    rep = simulate_random_arrivals("irarq", SCALAR2, IR_PARAMS, 1.8, None, 100_000, seed=57)
    assert rep.verdict == "stable"


def test_delay_monotone_in_load():
    delays = [
        simulate_random_arrivals("irarq", SCALAR2, IR_PARAMS, lam, None, 200_000, seed=58).delay
        for lam in (0.3, 0.9, 1.5)
    ]
    assert delays[0] < delays[1] < delays[2]


@pytest.mark.parametrize("extra", [0b11, 0b100], ids=["non-participant", "no-such-user"])
def test_ledger_rejects_corrupt_outcome_tables(monkeypatch, extra):
    # delivering an empty queue's packet, or a user that does not exist,
    # must trip the ledger rather than skew the statistics
    real = queueing.epoch_outcomes

    def corrupt(*args):
        lengths, delivered, errors = real(*args)
        return lengths, delivered | extra, errors

    monkeypatch.setattr(queueing, "epoch_outcomes", corrupt)
    with pytest.raises(AssertionError, match="ledger"):
        simulate_random_arrivals("irarq", SCALAR2, IR_PARAMS, 0.5, None, 20_000, seed=65)


def test_rejects_epochs_shorter_than_a_slot(monkeypatch):
    real = queueing.epoch_outcomes

    def corrupt(*args):
        lengths, delivered, errors = real(*args)
        return lengths - 1, delivered, errors

    monkeypatch.setattr(queueing, "epoch_outcomes", corrupt)
    with pytest.raises(AssertionError, match="shorter than one slot"):
        simulate_random_arrivals("irarq", SCALAR2, IR_PARAMS, 0.5, None, 20_000, seed=65)


def test_gta_queue_conserves_packets_under_pruning():
    cfg = AntennaConfig(users=3)
    params = ProtocolParams(p_t=1.0, multiplexing_gain=0.1)
    # capacity at p_t=1 is J_3/X_3 = 0.4286 packets/slot; 0.3 is safely inside
    rep = simulate_random_arrivals("gta", cfg, params, 0.3, None, 50_000, seed=59)
    # the ledger assertion inside the simulator already enforces exact
    # conservation; sanity-check the report is coherent
    assert rep.arrivals >= rep.delivered
    assert rep.verdict == "stable"
    assert rep.pe == 0.0


def test_gta_queue_finite_snr_records_errors():
    params = ProtocolParams(p_t=1.0, multiplexing_gain=0.45)
    rep = simulate_random_arrivals("gta", SCALAR2, params, 0.3, 10.0, 50_000, seed=60)
    assert rep.pe > 0.0
    assert rep.verdict == "stable"


def report_bits(report):
    """Every field of a DelayReport, floats by their bit pattern."""
    return {k: v.hex() if isinstance(v, float) else v
            for k, v in dataclasses.asdict(report).items()}


def test_simulation_replays_bitwise():
    reps = [
        simulate_random_arrivals("irarq", SCALAR2, IR_PARAMS, 0.8, 20.0, 20_000, seed=61)
        for _ in range(2)
    ]
    assert reps[0].packets > 0
    assert report_bits(reps[0]) == report_bits(reps[1])


def simulate_by_stamp_lists(protocol, config, params, total_rate, snr_db, horizon_slots, seed):
    """Oracle: the simulator with per-user sorted stamp lists and bisects.

    It makes the same outcome-table, Poisson and stamp draws as
    :func:`simulate_random_arrivals` but keeps each queue as a list of
    stamps with a head pointer, finds the waiting packets by bisection and
    appends every sojourn as it happens.
    """
    rng = np.random.default_rng(seed)
    snr = None if snr_db is None else 10 ** (snr_db / 10)
    rate_per_user = total_rate / config.users
    users = range(config.users)
    block = max(1, protocols._TILE >> config.users)
    all_sets = np.broadcast_to(np.arange(1 << config.users), (block, 1 << config.users))
    warmup_time = queueing.WARMUP_FRACTION * horizon_slots
    stamps = [[] for _ in users]
    head = [0] * config.users
    dropped = [0] * config.users
    drawn = slot = n_delivered = errors = nonidle = ready = 0
    epoch = block
    delays, backlog_t, backlog_v = [], [], []
    while slot < horizon_slots:
        if epoch == block:
            if params.p_t < 1.0:
                coins = _bits(rng.random((block, config.users)) < params.p_t).tolist()
            else:
                coins = [(1 << config.users) - 1] * block
            tables = epoch_outcomes(protocol, config, params, snr, all_sets, rng)
            lengths, delivered, erred = (t.ravel().tolist() for t in tables)
            epoch = 0
        participants = ready & coins[epoch]
        cell = (epoch << config.users) | participants
        end = slot + lengths[cell]
        if participants:
            nonidle += 1
            errors += bool(erred[cell])
            n_delivered += delivered[cell].bit_count()
            for u in users:
                if delivered[cell] >> u & 1:
                    stamp = stamps[u][head[u]]
                    assert stamp < slot
                    head[u] += 1
                    if stamp >= warmup_time:
                        delays.append(end - stamp)
        slot = end
        epoch += 1
        while drawn < slot:
            counts = rng.poisson(rate_per_user, size=(queueing._ARRIVAL_BLOCK_SLOTS, config.users))
            base = np.arange(drawn, drawn + queueing._ARRIVAL_BLOCK_SLOTS)
            for u in users:
                new = np.repeat(base, counts[:, u])
                new = np.sort(new + rng.random(new.size))
                dropped[u] += head[u]
                stamps[u] = stamps[u][head[u]:] + new.tolist()
                head[u] = 0
            drawn += queueing._ARRIVAL_BLOCK_SLOTS
        ready = backlog = 0
        for u in users:
            waiting = bisect_left(stamps[u], slot, head[u]) - head[u]
            if waiting:
                ready |= 1 << u
                backlog += waiting
        backlog_t.append(slot)
        backlog_v.append(backlog)
    assert sum(dropped) + sum(head) == n_delivered

    t = np.asarray(backlog_t, dtype=float)
    v = np.asarray(backlog_v, dtype=float)
    half = t >= horizon_slots / 2.0
    slope = float(np.polyfit(t[half], v[half], 1)[0]) if half.sum() >= 2 else 0.0
    if abs(slope) < queueing.STABILITY_SLOPE_EPS:
        verdict = "stable"
    else:
        verdict = "unstable" if slope > 0 else "inconclusive"
    return queueing.DelayReport(
        protocol=protocol, total_rate=total_rate, snr_db=snr_db,
        delay=float(np.mean(delays)), delay_ci=queueing._batch_means_ci(delays),
        pe=errors / nonidle, nonidle_epochs=nonidle, verdict=verdict, backlog_slope=slope,
        packets=len(delays), arrivals=sum(dropped[u] + bisect_left(stamps[u], slot) for u in users),
        delivered=n_delivered, horizon_slots=horizon_slots, seed=seed,
    )


@pytest.mark.parametrize("protocol, config, params, rate, snr_db, seed", [
    ("irarq", SCALAR2, ProtocolParams(p_t=0.7, multiplexing_gain=0.45, deadline=3), 0.9, 15.0, 66),
    ("irarq", SCALAR2, ProtocolParams(p_t=0.7, multiplexing_gain=0.45, deadline=2), 1.1, None, 67),
    ("gta", AntennaConfig(users=3), ProtocolParams(p_t=1.0, multiplexing_gain=0.1), 0.35, None, 68),
    ("gta", AntennaConfig(users=3), ProtocolParams(p_t=0.8, multiplexing_gain=0.3), 0.3, 10.0, 69),
    ("ondma", SCALAR2, ProtocolParams(p_t=1.0, multiplexing_gain=0.45), 0.8, 10.0, 70),
], ids=["irarq-15dB", "irarq-inf", "gta-K3-inf", "gta-K3-10dB", "ondma-10dB"])
def test_simulation_matches_stamp_list_oracle(protocol, config, params, rate, snr_db, seed):
    # at 1 000 and 10 001 slots the midpoint, where the slope's samples
    # start, falls inside an arrival block
    for horizon in (20_000, 1_000, 10_001):
        args = (protocol, config, params, rate, snr_db, horizon, seed)
        got = simulate_random_arrivals(*args)
        want = simulate_by_stamp_lists(*args)
        assert got.packets > 0 and got.nonidle_epochs > 0
        assert report_bits(got) == report_bits(want), f"horizon {horizon}"


class StampsOnSlotEdges:
    """A generator whose every third arrival-stamp uniform is the largest double below 1.

    For a packet of slot s >= 1 that stamp s + U rounds to exactly s + 1,
    so the packet waits for slot s + 2.  Every other draw is the wrapped
    generator's own.
    """

    def __init__(self, rng):
        self.rng = rng

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def random(self, size=None):
        out = self.rng.random(size)
        if isinstance(size, int):   # stamps; the coin draws pass a shape tuple
            out[::3] = np.nextafter(1.0, 0.0)
        return out


def test_stamps_rounded_onto_a_slot_edge_match_oracle(monkeypatch):
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: StampsOnSlotEdges(real(seed)))
    args = ("irarq", SCALAR2, ProtocolParams(p_t=0.8, multiplexing_gain=0.45, deadline=2),
            1.0, 20.0, 12_000, 71)
    rigged = np.random.default_rng(0).random(3)
    assert rigged[0] + 5 == 6.0   # a slot-5 packet with this uniform lands on slot 6
    got = simulate_random_arrivals(*args)
    assert report_bits(got) == report_bits(simulate_by_stamp_lists(*args))


def test_boundary_scan_brackets_tree_protocol():
    params = ProtocolParams(p_t=1 / math.sqrt(3), multiplexing_gain=0.45)
    target = 1 / math.sqrt(3)
    grid = [target + off for off in (-0.125, -0.075, -0.025, 0.025, 0.075, 0.125)]
    scan = stability_boundary_scan("gta", SCALAR2, params, None, grid, seed=62,
                                   horizon_slots=30_000)
    assert scan.boundary is not None
    assert abs(scan.boundary - target) <= 0.05


@pytest.mark.parametrize("n", [0, 1, 2, 39, 40, 400])
def test_batch_means_ci_is_quiet_for_any_sojourn_count(n):
    delays = np.random.default_rng(n).exponential(size=n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ci = queueing._batch_means_ci(delays)
    if n < 2:
        assert math.isnan(ci)
    else:
        assert math.isfinite(ci) and ci > 0.0


@pytest.mark.parametrize("horizon", [2000.7, 2000.0, True, 9, 0, -100],
                         ids=["fraction", "float", "bool", "nine", "zero", "negative"])
def test_simulation_horizon_must_be_an_integer_of_at_least_ten(horizon):
    # unchecked, 2000.7 ran and was reported as the horizon
    with pytest.raises(ValueError, match="horizon_slots must be an integer >= 10"):
        simulate_random_arrivals("irarq", SCALAR2, IR_PARAMS, 0.5, None, horizon, seed=1)
    with pytest.raises(ValueError, match="horizon_slots must be an integer >= 10"):
        stability_boundary_scan("irarq", SCALAR2, IR_PARAMS, None, [0.5], seed=1, horizon_slots=horizon)


@pytest.mark.parametrize("total_rate", [math.nan, math.inf, -0.5], ids=["nan", "inf", "negative"])
def test_simulation_rejects_invalid_arrival_rates(total_rate):
    # unchecked, nan failed only inside numpy's Poisson draw
    with pytest.raises(ValueError, match="total_rate"):
        simulate_random_arrivals("irarq", SCALAR2, IR_PARAMS, total_rate, None, 100, seed=1)
    with pytest.raises(ValueError, match="total_rate"):
        stability_boundary_scan("irarq", SCALAR2, IR_PARAMS, None, [total_rate], seed=1, horizon_slots=100)


def test_boundary_scan_trivial_grid():
    scan = stability_boundary_scan("irarq", SCALAR2, IR_PARAMS, None, [0.0], seed=63,
                                   horizon_slots=5_000)
    assert scan.verdicts == ["stable"]
    assert scan.boundary is None
