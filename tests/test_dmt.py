"""Closed-form tradeoff analytics against hand-derived values and properties."""

import math
from fractions import Fraction

import pytest

from raclab import (
    AntennaConfig,
    GtaRecursionTable,
    TradeoffPoint,
    beta_highsnr,
    epoch_law,
    gta_dmt,
    gta_optimal_pt,
    gta_recursion,
    irarq_dmdt,
    irarq_effective_multiplexing,
    irarq_stability_pt_scan,
    mac_dmt,
    ondma_dmt,
    point_to_point_dmt,
    random_arrival_diversity,
    stability_region,
    tradeoff_curve,
)

SCALAR2 = AntennaConfig(users=2, tx=1, rx=1)
VECTOR2 = AntennaConfig(users=2, tx=1, rx=2)
INV_SQRT3 = 1.0 / math.sqrt(3.0)


# ---------------------------------------------------------------------------
# point-to-point and MAC curves
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "tx,rx,r,expected",
    [
        (1, 1, 0.25, 0.75),
        (1, 1, 1.0, 0.0),
        (2, 2, 1.5, 0.5),   # between corner points (1,1) and (2,0)
        (2, 2, 0.0, 4.0),
        (3, 2, 0.5, 4.0),   # corners (0,6), (1,2)
        (2, 1, 0.9, pytest.approx(0.2)),
    ],
)
def test_point_to_point_values(tx, rx, r, expected):
    assert point_to_point_dmt(tx, rx, r) == pytest.approx(expected)


def test_point_to_point_rejects_negative_gain():
    with pytest.raises(ValueError):
        point_to_point_dmt(2, 2, -0.1)


def test_point_to_point_corners_and_monotone():
    for tx in range(1, 5):
        for rx in range(1, 5):
            assert point_to_point_dmt(tx, rx, 0.0) == tx * rx
            for k in range(min(tx, rx) + 1):
                assert point_to_point_dmt(tx, rx, k) == (tx - k) * (rx - k)
            last = math.inf
            for i in range(101):
                r = i * min(tx, rx) / 100.0
                d = point_to_point_dmt(tx, rx, r)
                assert d <= last + 1e-12
                last = d


@pytest.mark.parametrize(
    "k,tx,rx,r,expected",
    [
        (2, 1, 1, 0.25, 0.75),   # lightly-loaded branch
        (2, 1, 1, 0.45, 0.2),    # antenna-pooling branch, 2*(1 - 0.9)
    ],
)
def test_mac_dmt_branches(k, tx, rx, r, expected):
    assert mac_dmt(k, tx, rx, r) == pytest.approx(expected)


def test_mac_dmt_single_user_reduces_to_point_to_point():
    for tx, rx in [(1, 1), (2, 3), (4, 2)]:
        for i in range(30):
            r = i * min(tx, rx) / 30.0
            assert mac_dmt(1, tx, rx, r) == pytest.approx(point_to_point_dmt(tx, rx, r))


def test_mac_dmt_continuous_at_threshold():
    for k in range(1, 7):
        for tx in range(1, 5):
            for rx in range(1, 5):
                thr = min(tx, rx / (k + 1))
                below = mac_dmt(k, tx, rx, thr * (1 - 1e-9))
                above = mac_dmt(k, tx, rx, thr * (1 + 1e-9))
                assert abs(below - above) < 1e-6


# ---------------------------------------------------------------------------
# splitting-tree recursions
# ---------------------------------------------------------------------------

def test_gta_recursion_base_cases():
    t = gta_recursion(1)
    assert t.expected_slots == (1, 1)
    assert t.expected_successes == (0, 1)


def test_gta_recursion_table_rejects_bad_base_cases():
    # raised, not asserted: the check survives python -O
    for slots, successes in (((2, 1), (0, 1)), ((1, 1), (1, 1)), ((1, 2), (0, 1)), ((1, 1), (0, 0))):
        with pytest.raises(ValueError):
            GtaRecursionTable(expected_slots=slots, expected_successes=successes)


def test_gta_recursion_hand_solved_values():
    t = gta_recursion(3)
    assert t.expected_slots[2] == Fraction(4)
    assert t.expected_successes[2] == Fraction(2)
    assert t.expected_slots[3] == Fraction(35, 6)
    assert t.expected_successes[3] == Fraction(5, 2)


def test_gta_recursion_residuals_vanish_exactly():
    # the table must satisfy its own defining equations in exact arithmetic
    t = gta_recursion(12)
    for k in range(2, 13):
        w = [Fraction(math.comb(k, i), 2**k) for i in range(k + 1)]
        x = t.expected_slots
        j = t.expected_successes
        rhs_x = 1 + w[0] * x[k] + w[1] * (1 + x[k - 1]) + sum(w[i] * x[i] for i in range(2, k + 1))
        rhs_j = w[0] * j[k] + w[1] * (1 + j[k - 1]) + sum(w[i] * j[i] for i in range(2, k + 1))
        assert rhs_x == x[k]
        assert rhs_j == j[k]
        assert x[k] >= 1
        assert j[k] <= k


def test_gta_penalty_two_user_closed_form():
    # slots per delivered packet, the reciprocal of the tree's stability region
    for i in range(1, 101):
        p = i / 100.0
        assert 1 / stability_region("gta", SCALAR2, p) == pytest.approx(
            (1 + 3 * p * p) / (2 * p), abs=1e-12
        )


@pytest.mark.parametrize(
    "p_t,r_e,expected",
    [
        (INV_SQRT3, 0.0, 1.0),
        (INV_SQRT3, INV_SQRT3, 0.0),
        (1.0, 0.25, 0.5),     # penalty (1+3)/2 = 2
    ],
)
def test_gta_dmt_two_user(p_t, r_e, expected):
    assert gta_dmt(SCALAR2, p_t, r_e) == pytest.approx(expected, abs=1e-9)


def test_gta_dmt_rejects_zero_pt():
    with pytest.raises(ValueError):
        gta_dmt(SCALAR2, 0.0, 0.1)


def test_gta_optimal_pt_two_users():
    assert gta_optimal_pt(SCALAR2) == pytest.approx(INV_SQRT3, abs=1e-4)


def test_gta_optimal_pt_single_user():
    assert gta_optimal_pt(AntennaConfig(users=1)) == pytest.approx(1.0, abs=1e-9)


def test_gta_optimal_pt_three_users_vs_grid_oracle():
    cfg = AntennaConfig(users=3)
    # independent dense-grid minimisation of the slots-per-delivery ratio
    best_p, best_v = 1.0, 1 / stability_region("gta", cfg, 1.0)
    n = 100_000
    for i in range(1, n + 1):
        p = i / n
        v = 1 / stability_region("gta", cfg, p)
        if v <= best_v:
            best_p, best_v = p, v
    assert gta_optimal_pt(cfg) == pytest.approx(best_p, abs=2e-5)


# ---------------------------------------------------------------------------
# repetition protocol
# ---------------------------------------------------------------------------

def test_ondma_dmt_values():
    assert ondma_dmt(SCALAR2, 1.0, 0.4) == pytest.approx(0.6)
    # scaling (2*0.5 + 0.25) / (2*0.5) = 1.25
    assert ondma_dmt(SCALAR2, 0.5, 0.4) == pytest.approx(0.5)


def test_ondma_dmt_zero_gain_full_diversity():
    for cfg in (SCALAR2, VECTOR2, AntennaConfig(users=3, tx=2, rx=2)):
        assert ondma_dmt(cfg, 0.7, 0.0) == cfg.tx * cfg.rx


# ---------------------------------------------------------------------------
# deadline-ARQ protocol
# ---------------------------------------------------------------------------

BETA_HIGHSNR_ROWS = [
    # (k, tx, rx, r, rounds, expected)
    (2, 1, 1, 0.3, 1, 0.0),
    (2, 1, 1, 0.7, 1, 1.0),
    (2, 1, 1, 0.7, 2, 0.0),
    (2, 1, 1, 0.5, 1, 0.0),   # boundary convention: no persistent outage
    (2, 1, 2, 1.0, 1, 0.0),   # boundary r = N/k
    (1, 2, 1, 1.0, 1, 0.0),   # boundary r = N
    (2, 2, 2, 2.0, 1, 1.0),
    (2, 2, 2, 2.0, 2, 0.0),   # boundary r = 2N/k
    (3, 2, 2, 1.5, 2, 1.0),
    (3, 2, 2, 1.5, 3, 0.0),
]


def _beta_highsnr_id(row):
    k, tx, rx, r, rounds, expected = row
    antennas = "" if (tx, rx) == (1, 1) else f"{tx}x{rx}-"
    return f"{k}-{antennas}{r}-{rounds}-{expected}"


@pytest.mark.parametrize(
    "k,tx,rx,r,rounds,expected",
    BETA_HIGHSNR_ROWS,
    ids=[_beta_highsnr_id(row) for row in BETA_HIGHSNR_ROWS],
)
def test_beta_highsnr_indicator(k, tx, rx, r, rounds, expected):
    assert beta_highsnr(k, tx, rx, r, rounds) == expected


@pytest.mark.parametrize(
    "p_t,r,deadline,expected",
    [
        (1.0, 0.2, 2, 0.4),
        (1.0, 0.7, 2, 0.7),   # denominator 1 + 1(0.7 > 0.5) = 2
        (1.0, 0.0, 5, 0.0),
    ],
)
def test_irarq_effective_multiplexing(p_t, r, deadline, expected):
    assert irarq_effective_multiplexing(SCALAR2, p_t, r, deadline) == pytest.approx(expected)


def test_irarq_dmdt_values():
    assert irarq_dmdt(SCALAR2, 0.5, 1) == pytest.approx(0.75)
    assert irarq_dmdt(SCALAR2, 1.0, 2) == pytest.approx(0.75)
    # full degrees of freedom reached in the vector channel
    assert irarq_dmdt(VECTOR2, 2.0 - 1e-9, 1) == pytest.approx(0.0, abs=1e-6)


def test_irarq_dmdt_domain():
    with pytest.raises(ValueError):
        irarq_dmdt(SCALAR2, 1.5, 2)
    with pytest.raises(ValueError):
        irarq_dmdt(SCALAR2, -0.1, 2)


def test_irarq_dmdt_nondecreasing_in_deadline():
    for cfg in (SCALAR2, VECTOR2):
        for i in range(1, 20):
            r_e = i * cfg.degrees_of_freedom / 20.0
            prev = -1.0
            for deadline in (1, 2, 3, 4):
                d = irarq_dmdt(cfg, r_e, deadline)
                assert d >= prev - 1e-12
                prev = d


def test_random_arrival_diversity():
    assert random_arrival_diversity("gta", SCALAR2, 0.45) == pytest.approx(0.55)
    assert random_arrival_diversity("ondma", SCALAR2, 0.45) == pytest.approx(0.55)
    assert random_arrival_diversity("irarq", SCALAR2, 0.45, 2) == pytest.approx(0.775)
    for proto in ("gta", "ondma"):
        assert random_arrival_diversity(proto, VECTOR2, 0.0) == 2.0
    with pytest.raises(ValueError):
        random_arrival_diversity("csma", SCALAR2, 0.3)


# ---------------------------------------------------------------------------
# stability regions
# ---------------------------------------------------------------------------

def test_stability_two_user_closed_forms():
    for p in (1.0, INV_SQRT3, 0.5, 0.31):
        assert stability_region("gta", SCALAR2, p) == pytest.approx(
            2 * p / (1 + 3 * p * p), abs=1e-12
        )
        assert stability_region("ondma", SCALAR2, p) == pytest.approx(
            2 * p / (2 * p + (1 - p) ** 2), abs=1e-12
        )
        assert stability_region("irarq", SCALAR2, p, 0.45, 2) == pytest.approx(2 * p, abs=1e-12)
        assert stability_region("irarq", SCALAR2, p, 0.7, 2) == pytest.approx(
            2 * p / (1 + p * p), abs=1e-12
        )


def test_stability_ondma_closed_form_for_any_user_count():
    # a k-collision takes max(k, 1) slots and delivers k packets
    for users in range(1, 9):
        cfg = AntennaConfig(users=users)
        for i in range(1, 41):
            p = i / 40
            closed = users * p / (users * p + (1 - p) ** users)
            assert stability_region("ondma", cfg, p) == pytest.approx(closed, abs=1e-12)


def test_epoch_law_columns():
    length, square, delivered = epoch_law("ondma", AntennaConfig(users=3))
    assert length == (1.0, 1.0, 2.0, 3.0)
    assert square == (1.0, 1.0, 4.0, 9.0)
    assert delivered == (0.0, 1.0, 2.0, 3.0)
    length, square, delivered = epoch_law("gta", AntennaConfig(users=3))
    t = gta_recursion(3)
    assert length == tuple(map(float, t.expected_slots))
    assert delivered == tuple(map(float, t.expected_successes))
    assert square is None


def test_epoch_law_rejects_bad_inputs():
    with pytest.raises(ValueError):
        epoch_law("irarq", SCALAR2)                         # no survival table
    with pytest.raises(ValueError):
        epoch_law("irarq", SCALAR2, [[1.0, 0.0]])           # one row for two users
    with pytest.raises(ValueError):
        epoch_law("aloha", SCALAR2)


def test_stability_ondma_pt_one_is_one_for_any_antennas():
    for cfg in (SCALAR2, VECTOR2, AntennaConfig(users=4, tx=3, rx=2)):
        assert stability_region("ondma", cfg, 1.0) == pytest.approx(1.0)


def test_stability_vector_irarq():
    assert stability_region("irarq", VECTOR2, 1.0, 0.9, 2) == pytest.approx(2.0)
    # r = 1.5 needs two rounds for one user (r > M) and for two (2r > N), none after
    for p in (0.3, 0.5, 0.8, 1.0):
        closed = 2 * p / (2 - (1 - p) ** 2)
        assert stability_region("irarq", VECTOR2, p, 1.5, 3) == pytest.approx(closed, rel=1e-12)


def test_stability_rejects_bad_inputs():
    with pytest.raises(ValueError):
        stability_region("gta", SCALAR2, 0.0)
    with pytest.raises(ValueError):
        stability_region("aloha", SCALAR2, 0.5)
    with pytest.raises(ValueError):
        stability_region("irarq", SCALAR2, 0.5)  # no beta, no (gain, deadline)


def test_irarq_stability_pt_scan_prefers_full_transmission():
    p, lam = irarq_stability_pt_scan(SCALAR2, 0.45, 2, points=500)
    assert p == pytest.approx(1.0)
    assert lam == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# curve-level properties
# ---------------------------------------------------------------------------

def _curve_values(protocol, cfg, **kw):
    return [(p.r_e, p.d) for p in tradeoff_curve(protocol, cfg, **kw)]


def test_curves_nonincreasing_and_start_at_full_diversity():
    for cfg in (SCALAR2, VECTOR2):
        curves = [
            _curve_values("gta", cfg, p_t=gta_optimal_pt(cfg)),
            _curve_values("ondma", cfg, p_t=1.0),
            _curve_values("irarq", cfg, deadline=2),
        ]
        for curve in curves:
            assert curve[0][1] == pytest.approx(cfg.tx * cfg.rx)
            diffs = [b[1] - a[1] for a, b in zip(curve, curve[1:])]
            assert all(d <= 1e-12 for d in diffs)


def test_protocol_dominance_at_matched_parameters():
    for cfg in (SCALAR2, VECTOR2):
        p_star = gta_optimal_pt(cfg)
        for deadline in (1, 2, 4):
            for i in range(1, 100):
                r_e = i * cfg.degrees_of_freedom / 100.0
                d_ir = irarq_dmdt(cfg, r_e, deadline)
                d_on = ondma_dmt(cfg, 1.0, r_e)
                d_gta = gta_dmt(cfg, p_star, r_e)
                assert d_ir >= d_on - 1e-12
                assert d_on >= d_gta - 1e-12


def test_tradeoff_point_validation():
    with pytest.raises(ValueError):
        TradeoffPoint(r_e=-0.1, d=1.0)
    with pytest.raises(ValueError):
        TradeoffPoint(r_e=0.1, d=-1.0)


def test_antenna_config_validation():
    with pytest.raises(ValueError):
        AntennaConfig(users=0)
    with pytest.raises(ValueError):
        AntennaConfig(users=2, tx=0)
    with pytest.raises(ValueError):
        AntennaConfig(users=2, rx=-1)
