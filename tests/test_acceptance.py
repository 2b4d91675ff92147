"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
stated inline; simulations are seeded and deterministic.  Criterion 5
checks the 40 dB delay simulation against the exact two-user delay at
40 dB, from a queue-length Markov chain solved in this module.  The
paper's infinite-SNR closed form is not a 40 dB target: the sum-rate
outage term decays only like snr^-0.2 at that operating point (it is
still 0.069 at 40 dB).  It is pinned instead as the chain's beta -> 0
limit, and the companion tests that follow check the simulator against
the finite-SNR vacation-queue evaluation at 40 dB and against the closed
form in the infinite-SNR limit.
"""

import functools
import math
import time

import numpy as np
import pytest

from raclab import (
    AntennaConfig,
    ProtocolParams,
    analytic_delay,
    diversity_slope,
    estimate_beta,
    fully_loaded_throughput,
    gta_dmt,
    gta_optimal_pt,
    gta_recursion,
    irarq_dmdt,
    ondma_dmt,
    random_arrival_diversity,
    renewal_prediction,
    simulate_random_arrivals,
    stability_boundary_scan,
    stability_region,
    system_error_probability,
)
from raclab.montecarlo import gta_collision_stats

SCALAR2 = AntennaConfig(users=2)
VECTOR2 = AntennaConfig(users=2, tx=1, rx=2)
INV_SQRT3 = 1.0 / math.sqrt(3.0)


def report(num: int, title: str, checks):
    """Print one line per criterion plus its sub-checks, then assert."""
    ok = all(flag for flag, _ in checks)
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {title}")
    for flag, msg in checks:
        print(f"    {'ok  ' if flag else 'BAD '}{msg}")
    assert ok, f"criterion {num} failed; see printed sub-checks"


# ---------------------------------------------------------------------------
# 1. two-user tree closed form and optimal transmission probability (< 1 s)
# ---------------------------------------------------------------------------

def test_criterion_01_tree_closed_form():
    t0 = time.time()
    checks = []
    worst = 0.0
    for i in range(1, 101):
        p = i / 100.0
        worst = max(worst, abs(1 / stability_region("gta", SCALAR2, p) - (1 + 3 * p * p) / (2 * p)))
    checks.append((worst < 1e-12, f"coefficient vs (1+3p^2)/(2p) on 100-point grid: max err {worst:.2e}"))
    p_star = gta_optimal_pt(SCALAR2)
    checks.append((abs(p_star - INV_SQRT3) < 1e-4, f"optimal p_t {p_star:.6f} vs 3^-0.5 within 1e-4"))
    elapsed = time.time() - t0
    checks.append((elapsed < 1.0, f"runtime {elapsed:.2f}s < 1s"))
    report(1, "two-user tree coefficient and optimal p_t", checks)


# ---------------------------------------------------------------------------
# 2. splitting-tree recursion vs simulation, k <= 4 at 1e6 epochs (< 1 min)
# ---------------------------------------------------------------------------

def test_criterion_02_tree_recursion_vs_simulation():
    t0 = time.time()
    table = gta_recursion(4)
    checks = []
    for k in (1, 2, 3, 4):
        mean_l, se_l, mean_d, se_d = gta_collision_stats(k, 10**6, seed=1002)
        x, j = float(table.expected_slots[k]), float(table.expected_successes[k])
        checks.append((abs(mean_l - x) <= 3 * se_l + 1e-12,
                       f"k={k}: mean length {mean_l:.4f} vs {x:.4f} (3se={3*se_l:.4f})"))
        checks.append((abs(mean_d - j) <= 3 * se_d + 1e-12,
                       f"k={k}: mean delivered {mean_d:.4f} vs {j:.4f} (3se={3*se_d:.4f})"))
    elapsed = time.time() - t0
    checks.append((elapsed < 60.0, f"runtime {elapsed:.1f}s < 60s"))
    report(2, "tree recursion vs 1e6-epoch simulation", checks)


# ---------------------------------------------------------------------------
# 3. stability table exact + boundary scans at 50 dB (< 10 min)
# ---------------------------------------------------------------------------

def test_criterion_03_stability_table_and_scans():
    t0 = time.time()
    checks = []
    # six closed-form entries of the two-user scalar stability table
    for p in (1.0, INV_SQRT3, 0.5):
        checks.append((abs(stability_region("gta", SCALAR2, p) - 2 * p / (1 + 3 * p * p)) < 1e-12,
                       f"tree region at p_t={p:.4f}"))
        checks.append((abs(stability_region("ondma", SCALAR2, p) - 2 * p / (2 * p + (1 - p) ** 2)) < 1e-12,
                       f"repetition region at p_t={p:.4f}"))
        checks.append((abs(stability_region("irarq", SCALAR2, p, 0.45, 2) - 2 * p) < 1e-12,
                       f"deadline-ARQ region, low rate, p_t={p:.4f}"))
        checks.append((abs(stability_region("irarq", SCALAR2, p, 0.7, 2) - 2 * p / (1 + p * p)) < 1e-12,
                       f"deadline-ARQ region, high rate, p_t={p:.4f}"))
    # maxima: 3^-0.5 at p_t=3^-0.5, 1 at p_t=1, and {2, 1} at p_t=1
    p_star = gta_optimal_pt(SCALAR2)
    checks.append((abs(stability_region("gta", SCALAR2, p_star) - INV_SQRT3) < 1e-4,
                   "tree maximum 3^-0.5 at its optimal p_t"))
    checks.append((abs(stability_region("ondma", SCALAR2, 1.0) - 1.0) < 1e-12, "repetition maximum 1"))
    checks.append((abs(stability_region("irarq", SCALAR2, 1.0, 0.45, 2) - 2.0) < 1e-12,
                   "deadline-ARQ maximum 2 below the rate knee"))
    checks.append((abs(stability_region("irarq", SCALAR2, 1.0, 0.7, 2) - 1.0) < 1e-12,
                   "deadline-ARQ maximum 1 above the rate knee"))

    # simulated boundary scans at 50 dB against the analytic boundary at the
    # same SNR (the deadline-ARQ region keeps a snr^-0.2 survival term at
    # r=0.45, so its 50 dB boundary sits at ~1.92, not yet at the limit 2)
    snr_db = 50.0
    b45 = estimate_beta(SCALAR2, snr_db, 0.45 * math.log2(1 + 1e5), 2, 10**6, seed=1031)
    b70 = estimate_beta(SCALAR2, snr_db, 0.70 * math.log2(1 + 1e5), 2, 10**6, seed=1032)
    # near-critical points of the high-capacity regions (98%+ utilisation one
    # grid step below the boundary) need longer horizons to equilibrate
    cases = [
        ("gta", ProtocolParams(p_t=INV_SQRT3, multiplexing_gain=0.45),
         stability_region("gta", SCALAR2, INV_SQRT3), 60_000),
        ("gta", ProtocolParams(p_t=1.0, multiplexing_gain=0.45),
         stability_region("gta", SCALAR2, 1.0), 60_000),
        ("ondma", ProtocolParams(p_t=1.0, multiplexing_gain=0.45),
         stability_region("ondma", SCALAR2, 1.0), 60_000),
        ("ondma", ProtocolParams(p_t=0.5, multiplexing_gain=0.45),
         stability_region("ondma", SCALAR2, 0.5), 60_000),
        ("irarq", ProtocolParams(p_t=1.0, multiplexing_gain=0.45, deadline=2),
         stability_region("irarq", SCALAR2, 1.0, beta=b45), 300_000),
        ("irarq", ProtocolParams(p_t=1.0, multiplexing_gain=0.7, deadline=2),
         stability_region("irarq", SCALAR2, 1.0, beta=b70), 150_000),
    ]
    for i, (protocol, params, boundary, horizon) in enumerate(cases):
        grid = [boundary + off for off in (-0.125, -0.075, -0.025, 0.025, 0.075, 0.125)]
        scan = stability_boundary_scan(protocol, SCALAR2, params, snr_db, grid,
                                       seed=1040 + i, horizon_slots=horizon)
        got = scan.boundary
        ok = got is not None and abs(got - boundary) <= 0.05
        checks.append((ok, f"scan {protocol} p_t={params.p_t:.3f} r={params.multiplexing_gain}: "
                           f"estimated {got} vs analytic {boundary:.4f} (tol 0.05)"))
    elapsed = time.time() - t0
    checks.append((elapsed < 600.0, f"runtime {elapsed:.0f}s < 600s"))
    report(3, "stability table exact + 50 dB boundary scans", checks)


# ---------------------------------------------------------------------------
# 4. tradeoff-curve ordering and span claims (analytic, property-based)
# ---------------------------------------------------------------------------

def test_criterion_04_tradeoff_curve_claims():
    checks = []
    p_star = gta_optimal_pt(SCALAR2)
    dominance = True
    strict = False
    for i in range(1, 100):
        r_e = i / 100.0
        for deadline in (1, 2):
            d_ir = irarq_dmdt(SCALAR2, r_e, deadline)
            d_on = ondma_dmt(SCALAR2, 1.0, r_e)
            d_gt = gta_dmt(SCALAR2, p_star, r_e)
            dominance &= d_ir >= d_on - 1e-12 >= d_gt - 2e-12
            strict |= d_ir > d_on + 1e-9 and d_on > d_gt + 1e-9
    checks.append((dominance, "scalar: deadline-ARQ >= repetition >= tree pointwise"))
    checks.append((strict, "scalar: ordering strict somewhere on the span"))

    near_full = irarq_dmdt(VECTOR2, 1.999, 1)
    checks.append((0.0 < near_full < 0.01, f"vector: d({1.999}) = {near_full:.4f} -> 0 as r_e -> 2"))
    checks.append((all(irarq_dmdt(VECTOR2, 1.9, ell) > 0 for ell in (1, 2, 4)),
                   "vector: positive diversity at r_e=1.9 for every deadline"))
    checks.append((ondma_dmt(VECTOR2, 1.0, 1.2) == 0.0, "vector: repetition dead beyond r_e=1"))
    p_star_v = gta_optimal_pt(VECTOR2)
    checks.append((gta_dmt(VECTOR2, p_star_v, 1.2) == 0.0, "vector: tree dead beyond its span"))
    report(4, "tradeoff dominance and full-span claims", checks)


# ---------------------------------------------------------------------------
# 5. delay at 40 dB vs the exact two-user chain, whose beta -> 0 limit is the
#    closed form (< 5 min)
# ---------------------------------------------------------------------------

PARAMS_L2 = ProtocolParams(p_t=1.0, multiplexing_gain=0.45, deadline=2)
# At lam=1.6 (80% load) one run's delay has a standard deviation of about
# 0.03 slots over 1M slots, where a correct simulator would miss the 0.05
# tolerance on about one seed in eight; 6M slots put it at about 4 sd.
C5_POINTS = [(0.4, 600_000), (1.0, 600_000), (1.6, 6_000_000)]
C5_RATE = 0.45 * math.log2(1 + 1e4)


@functools.cache
def _c5_reports():
    return {
        lam: simulate_random_arrivals("irarq", SCALAR2, PARAMS_L2, lam, 40.0, horizon,
                                      seed=[1050, int(10 * lam)])
        for lam, horizon in C5_POINTS
    }


@functools.cache
def _c5_beta():
    return estimate_beta(SCALAR2, 40.0, C5_RATE, 2, trials=2 * 10**6, seed=1051)


def exact_first_round_survival(snr: float, rate: float) -> tuple[float, float]:
    """Exact (beta_1(1), beta_2(1)) of the scalar Rayleigh channel, one round.

    A user's gain g is Exp(1).  One user decodes in round 1 iff g >= a, and
    a two-user collision iff g1 >= a, g2 >= a and g1 + g2 >= b, with
    a = (2^R - 1)/snr and b = (2^{2R} - 1)/snr.
    """
    a = (2**rate - 1) / snr
    b = (2 ** (2 * rate) - 1) / snr
    beta1 = -math.expm1(-a)
    if b > 2 * a:
        return beta1, 1 - math.exp(-b) * (1 + b - 2 * a)
    return beta1, -math.expm1(-2 * a)


def exact_two_user_delay(total_rate: float, beta1: float, beta2: float,
                         size: int = 150, tol: float = 1e-14,
                         max_iter: int = 100_000) -> tuple[float, float]:
    """Exact mean delay of deadline IR-ARQ with K=2, M=N=1, p_t=1, L=2.

    Each user receives Poisson arrivals at ``total_rate``/2 per slot.  The
    state is the queue pair (q1, q2) at an epoch start, with k non-empty
    queues.  An idle epoch lasts one slot; otherwise the epoch lasts two
    slots with probability beta_k(1), else one.  Each non-empty queue sends
    its head-of-line packet at the epoch end, and during an epoch of l slots
    each user gains Poisson(total_rate*l/2) packets.  The stationary law pi
    comes from power iteration on a ``size`` x ``size`` grid, where the
    per-user Poisson convolutions are Toeplitz matmuls.  By renewal-reward
    and Little's law the delay is
    E_pi[(q1+q2)l + total_rate*l^2/2] / (total_rate*E_pi[l]): arrivals are
    uniform within their slot and a packet departs at its epoch's end.

    Returns (delay, tail), where tail is the probability per epoch, under
    pi, that the chain steps off the grid.
    """
    q = np.arange(size)
    busy = (q[:, None] > 0).astype(int) + (q[None, :] > 0).astype(int)
    p_long = np.array([0.0, beta1, beta2])[busy]
    served = np.maximum(q - 1, 0)
    n = np.arange(2 * size)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(n[1:]))))
    legs = []
    for length, weight in ((1, 1.0 - p_long), (2, p_long)):
        mean = total_rate * length / 2
        pmf = np.exp(n * math.log(mean) - mean - log_fact)
        survival = np.cumsum(pmf[::-1])[::-1]
        lag = q[:, None] - served[None, :]
        kernel = np.where(lag >= 0, pmf[np.maximum(lag, 0)], 0.0)
        legs.append((weight, kernel, survival[size - served]))

    pi = np.zeros((size, size))
    pi[0, 0] = 1.0
    for _ in range(max_iter):
        new = sum(kernel @ (pi * weight) @ kernel.T for weight, kernel, _ in legs)
        new /= new.sum()
        step = np.abs(new - pi).sum()
        pi = new
        if step < tol:
            break
    else:
        raise RuntimeError("power iteration did not converge")

    tail = 0.0
    for weight, _, off in legs:
        mass = pi * weight
        tail += (off @ mass).sum() + (mass @ off).sum() - off @ mass @ off
    backlog = q[:, None] + q[None, :]
    mean_len = 1 + p_long
    mean_sq = 1 + 3 * p_long
    delay = ((pi * (backlog * mean_len + total_rate * mean_sq / 2)).sum()
             / (total_rate * (pi * mean_len).sum()))
    return float(delay), float(tail)


def test_criterion_05_delay_formula_at_40db():
    t0 = time.time()
    checks = []
    reports = _c5_reports()
    t_chain = time.time()
    beta1, beta2 = exact_first_round_survival(1e4, C5_RATE)
    tails = []
    for lam, rep in reports.items():
        target, tail = exact_two_user_delay(lam, beta1, beta2)
        tails.append(tail)
        gap = abs(rep.delay - target)
        checks.append((gap <= 0.05,
                       f"lam={lam}: simulated {rep.delay:.4f} vs exact 40 dB {target:.4f} "
                       f"(gap {gap:.4f}, tol 0.05; ci {rep.delay_ci:.4f})"))
    # the same chain with beta == 0 is the paper's snr -> inf closed form
    for lam, _ in C5_POINTS:
        limit, tail = exact_two_user_delay(lam, 0.0, 0.0)
        tails.append(tail)
        closed = 1.5 + lam / (2 * (2 - lam))
        checks.append((abs(limit - closed) <= 1e-9,
                       f"lam={lam}: beta=0 chain {limit:.12f} vs closed form {closed:.12f} "
                       f"(gap {abs(limit - closed):.1e}, tol 1e-9)"))
    chain_s = time.time() - t_chain
    checks.append((max(tails) <= 1e-12,
                   f"chain truncation: tail mass {max(tails):.1e} <= 1e-12"))
    # criterion 9's convention: 3 standard errors of the exact value
    table = _c5_beta()
    for k, exact in ((1, beta1), (2, beta2)):
        se = math.sqrt(exact * (1 - exact) / table.trials)
        gap = abs(table.beta(k, 1) - exact)
        checks.append((gap <= 3 * se, f"beta_{k}(1): closed form {exact:.6f} vs Monte Carlo "
                                      f"{table.beta(k, 1):.6f} (gap {gap:.6f}, 3se {3*se:.6f})"))
    elapsed = time.time() - t0
    checks.append((elapsed < 300.0, f"runtime {elapsed:.0f}s < 300s (chain {chain_s:.1f}s)"))
    # The closed form is the snr -> inf limit only: the two-user sum-rate
    # survival decays as snr^-0.2 at r_A=0.45 and is still 0.069 at 40 dB,
    # so the simulation is held to the exact 40 dB chain instead.
    report(5, "delay vs exact two-user chain at 40 dB", checks)


def test_criterion_05_companion_finite_snr_theory_agrees():
    # the same simulated points match the vacation-queue evaluation at the
    # measured 40 dB survival probabilities within 2% (the analytic side is
    # itself an approximation whose error vanishes only as snr -> inf)
    beta = _c5_beta()
    checks = []
    for lam, rep in _c5_reports().items():
        theory = analytic_delay(lam, 2, 1.0, 2, beta)
        gap = abs(rep.delay - theory)
        tol = 0.02 * theory + rep.delay_ci
        checks.append((gap <= tol, f"lam={lam}: simulated {rep.delay:.4f} vs finite-SNR theory "
                                   f"{theory:.4f} (gap {gap:.4f}, tol {tol:.4f})"))
    report(5, "companion: 40 dB delay matches finite-SNR theory", checks)


def test_criterion_05_companion_infinite_snr_limit_matches():
    checks = []
    for lam, horizon in C5_POINTS:
        rep = simulate_random_arrivals("irarq", SCALAR2, PARAMS_L2, lam, None, horizon,
                                       seed=[1052, int(10 * lam)])
        target = 1.5 + lam / (2 * (2 - lam))
        gap = abs(rep.delay - target)
        checks.append((gap <= 0.05, f"lam={lam}: infinite-SNR simulation {rep.delay:.4f} vs "
                                    f"{target:.4f} (gap {gap:.4f}, tol 0.05)"))
    report(5, "companion: infinite-SNR simulation matches the closed form", checks)


# ---------------------------------------------------------------------------
# 6. diversity slopes over 20..50 dB at r_A = 0.45 (< 30 min)
# ---------------------------------------------------------------------------

def test_criterion_06_diversity_slopes():
    t0 = time.time()
    snr_grid = [20, 25, 30, 35, 40, 45, 50]

    def schedule(base, mid, high):
        return {20: base, 25: base, 30: base, 35: mid, 40: mid, 45: high, 50: high}

    runs = [
        ("gta", ProtocolParams(p_t=INV_SQRT3, multiplexing_gain=0.45),
         random_arrival_diversity("gta", SCALAR2, 0.45), schedule(10**6, 10**6, 2 * 10**6)),
        ("ondma", ProtocolParams(p_t=1.0, multiplexing_gain=0.45),
         random_arrival_diversity("ondma", SCALAR2, 0.45), schedule(10**6, 10**6, 2 * 10**6)),
        ("irarq", ProtocolParams(p_t=1.0, multiplexing_gain=0.45, deadline=2),
         random_arrival_diversity("irarq", SCALAR2, 0.45, 2), schedule(2 * 10**6, 4 * 10**6, 10**7)),
        ("irarq", ProtocolParams(p_t=1.0, multiplexing_gain=0.45, deadline=4),
         random_arrival_diversity("irarq", SCALAR2, 0.45, 4),
         {20: 2 * 10**6, 25: 2 * 10**6, 30: 2 * 10**6, 35: 4 * 10**6, 40: 10**7,
          45: 2 * 10**7, 50: 4 * 10**7}),
    ]
    expected = {("gta", None): 0.55, ("ondma", None): 0.55, ("irarq", 2): 0.775,
                ("irarq", 4): 0.8875}
    checks = []
    for protocol, params, analytic, trials_by_snr in runs:
        samples = []
        for snr_db in snr_grid:
            est = system_error_probability(protocol, SCALAR2, params, float(snr_db),
                                           trials_by_snr[snr_db], seed=1060)
            samples.append((10 ** (snr_db / 10.0), est.value))
        slope = diversity_slope(samples)
        key = (protocol, params.deadline)
        assert analytic == pytest.approx(expected[key]), "analytic target mismatch"
        ok = abs(slope - analytic) <= 0.1
        checks.append((ok, f"{protocol} L={params.deadline}: fitted {slope:.4f} vs "
                           f"analytic {analytic:.4f} (tol 0.1)"))
    elapsed = time.time() - t0
    checks.append((elapsed < 1800.0, f"runtime {elapsed:.0f}s < 1800s"))
    report(6, "fitted diversity slopes vs analytic targets", checks)


# ---------------------------------------------------------------------------
# 7. renewal-reward consistency at 10 and 30 dB (< 5 min)
# ---------------------------------------------------------------------------

def test_criterion_07_renewal_reward_consistency():
    t0 = time.time()
    checks = []
    for snr_db in (10.0, 30.0):
        for protocol, params in [
            ("gta", ProtocolParams(p_t=INV_SQRT3, multiplexing_gain=0.45)),
            ("ondma", ProtocolParams(p_t=1.0, multiplexing_gain=0.45)),
            ("irarq", ProtocolParams(p_t=1.0, multiplexing_gain=0.45, deadline=2)),
        ]:
            est = fully_loaded_throughput(protocol, SCALAR2, params, snr_db,
                                          slots=400_000, seed=1070)
            beta = None
            if protocol == "irarq":
                rate = params.rate_at(10 ** (snr_db / 10.0))
                beta = estimate_beta(SCALAR2, snr_db, rate, 2, trials=10**6, seed=1071)
            pred, pred_se = renewal_prediction(protocol, SCALAR2, params, beta)
            gap = abs(est.per_rate - pred)
            tol = 3 * math.sqrt(est.per_rate_stderr**2 + pred_se**2) + 1e-12
            checks.append((gap <= tol,
                           f"{protocol} @ {snr_db:.0f} dB: simulated {est.per_rate:.5f} vs "
                           f"renewal prediction {pred:.5f} (gap {gap:.5f}, 3se {tol:.5f})"))
    elapsed = time.time() - t0
    checks.append((elapsed < 300.0, f"runtime {elapsed:.0f}s < 300s"))
    report(7, "simulated throughput vs renewal-reward prediction", checks)


# ---------------------------------------------------------------------------
# 8. per-user / system error sandwich, zero tolerance
# ---------------------------------------------------------------------------

def test_criterion_08_error_sandwich():
    checks = []
    for snr_db in (8.0, 20.0):
        for protocol, params in [
            ("gta", ProtocolParams(p_t=0.7, multiplexing_gain=0.45)),
            ("ondma", ProtocolParams(p_t=0.9, multiplexing_gain=0.45)),
            ("irarq", ProtocolParams(p_t=0.8, multiplexing_gain=0.45, deadline=2)),
        ]:
            est = system_error_probability(protocol, SCALAR2, params, snr_db,
                                           trials=2 * 10**5, seed=1080)
            lower = float(est.per_user.max())
            upper = float(est.per_user.sum())
            ok = lower <= est.value <= upper
            checks.append((ok, f"{protocol} @ {snr_db:.0f} dB: "
                               f"{lower:.5f} <= {est.value:.5f} <= {upper:.5f}"))
    checks.append((True, "estimator also asserts the bound pathwise on every run"))
    report(8, "error-probability sandwich bound", checks)


# ---------------------------------------------------------------------------
# 9. single-user outage vs exponential closed form, 1e6 trials per point
# ---------------------------------------------------------------------------

def test_criterion_09_closed_form_outage_oracle():
    single = AntennaConfig(users=1)
    checks = []
    for rate in (0.5, 1.0, 2.0):
        for snr in (3.0, 10.0, 100.0):
            snr_db = 10 * math.log10(snr)
            table = estimate_beta(single, snr_db, rate, 1, trials=10**6, seed=1090)
            exact = 1 - math.exp(-(2**rate - 1) / snr)
            se = math.sqrt(exact * (1 - exact) / 10**6)
            gap = abs(table.beta(1, 1) - exact)
            checks.append((gap <= 3 * se, f"R={rate}, snr={snr}: {table.beta(1, 1):.6f} vs "
                                          f"{exact:.6f} (gap {gap:.6f}, 3se {3*se:.6f})"))
    report(9, "Monte Carlo outage vs exponential closed form", checks)


# ---------------------------------------------------------------------------
# 10. deadline tradeoff: larger L means fewer errors but more delay (15 dB)
# ---------------------------------------------------------------------------

def test_criterion_10_deadline_delay_error_tradeoff():
    t0 = time.time()
    reports = {}
    for deadline in (2, 4):
        params = ProtocolParams(p_t=1.0, multiplexing_gain=0.45, deadline=deadline)
        reports[deadline] = simulate_random_arrivals("irarq", SCALAR2, params, 1.0, 15.0,
                                                     700_000, seed=[1100, deadline])
    lo, hi = reports[2], reports[4]

    def pe_ci(rep):
        return 1.96 * math.sqrt(rep.pe * (1 - rep.pe) / rep.nonidle_epochs)

    checks = [
        (hi.pe + pe_ci(hi) < lo.pe - pe_ci(lo),
         f"error: L=4 {hi.pe:.5f}(+-{pe_ci(hi):.5f}) < L=2 {lo.pe:.5f}(+-{pe_ci(lo):.5f}), "
         "non-overlapping 95% intervals"),
        (hi.delay - hi.delay_ci > lo.delay + lo.delay_ci,
         f"delay: L=4 {hi.delay:.4f}(+-{hi.delay_ci:.4f}) > L=2 {lo.delay:.4f}"
         f"(+-{lo.delay_ci:.4f}), non-overlapping 95% intervals"),
    ]
    elapsed = time.time() - t0
    checks.append((elapsed < 300.0, f"runtime {elapsed:.0f}s < 300s"))
    report(10, "deadline trades error probability against delay at 15 dB", checks)
