"""Physical-layer behaviour: fading statistics, mutual information, outage.

The subset mutual information and the joint-outage predicate below are the
definitional oracle, one subset and one determinant at a time over a plain
(users, rx, tx) gains array; the batched kernels are checked against it.
"""

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from raclab import AntennaConfig, ProtocolParams
from raclab.channel import (
    _TILE_ENTRIES,
    NEVER,
    _det,
    _draw_channel,
    _draw_gains,
    _first_round,
    _gram_entries,
    _information,
    _shape,
    batch_first_decodable_round,
    capped_rounds,
    rounds_from_demand,
    subset_demand,
)
from raclab.montecarlo import _TAG_BETA, estimate_beta
from raclab.protocols import _gta_tree_batch, epoch_outcomes

SCALAR2 = AntennaConfig(users=2, tx=1, rx=1)


def subset_mutual_information(gains, subset, snr):
    """log2 det(I + (snr/M) * sum of subset Gram matrices), in bits/channel-use."""
    users = list(subset)
    if not users:
        raise ValueError("subset must be nonempty")
    rx, tx = gains.shape[1:]
    gram = np.zeros((rx, rx), dtype=complex)
    for i in users:
        gram += gains[i] @ gains[i].conj().T
    _, logdet = np.linalg.slogdet(np.eye(rx) + (snr / tx) * gram)
    return float(logdet / math.log(2.0))


def joint_outage(gains, active, snr, rate, rounds):
    """True iff some subset of the active users is undecodable after ``rounds``.

    A subset condition fails strictly: equality decodes.
    """
    users = list(active)
    if not users:
        raise ValueError("active set must be nonempty")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if rate < 0:
        raise ValueError("rate must be nonnegative")
    for size in range(1, len(users) + 1):
        for subset in combinations(users, size):
            if rounds * subset_mutual_information(gains, subset, snr) < size * rate:
                return True
    return False


def single_user_info(channel, snr, gain, tx):
    """Per-user mutual information as (users, epochs) rows of a block of channels.

    The log form of the single-user outage decision: a user is in outage
    iff its information is below the rate.  The protocols decide by
    :func:`capped_rounds` instead, with the joint decision's tie rule.
    """
    return _information(channel, gain * snr / tx, 1 << np.arange(_shape(channel)[1]))


def scalar_gains(powers):
    """(users, 1, 1) real scalar gains of the given squared magnitudes."""
    return np.array([[[math.sqrt(p)]] for p in powers], dtype=complex)


def draw(cfg, rng, n=None):
    shape = (cfg.users, cfg.rx, cfg.tx) if n is None else (n, cfg.users, cfg.rx, cfg.tx)
    return _draw_gains(rng, shape)


# ---------------------------------------------------------------------------
# fading statistics
# ---------------------------------------------------------------------------

def test_draw_shapes_and_determinism():
    cfg = AntennaConfig(users=3, tx=2, rx=4)
    a = draw(cfg, np.random.default_rng(5), n=7)
    b = draw(cfg, np.random.default_rng(5), n=7)
    assert a.shape == (7, 3, 4, 2)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("shape", [(0, 2, 1, 1), (5, 1, 1, 1), (7, 3, 2, 4)])
def test_draw_pins_the_two_call_stream(shape):
    # real halves first, then imaginary halves, scaled by 1/sqrt(2)
    rng, twin = np.random.default_rng(43), np.random.default_rng(43)
    got = _draw_gains(rng, shape)
    want = (twin.standard_normal(shape) + 1j * twin.standard_normal(shape)) / math.sqrt(2.0)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == twin.bit_generator.state


def test_draw_holds_one_and_a_half_gains_at_peak():
    # the complex result plus one float buffer for a half; the single
    # two-half draw it replaced peaked at twice the gains
    shape = (20_000, 4, 4, 2)
    tracemalloc.start()
    try:
        gains = _draw_gains(np.random.default_rng(3), shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * gains.nbytes + 65536


def test_unit_mean_power():
    n = 10**6
    power = _draw_channel(np.random.default_rng(7), (n, 1, 1, 1))
    assert power.shape == (1, n)
    mean = float(np.mean(power))
    # exponential power: sd of the mean is 1/sqrt(n) = 1e-3
    assert abs(mean - 1.0) < 0.01


def test_successive_epochs_uncorrelated():
    n = 10**5
    power = _draw_channel(np.random.default_rng(11), (2 * n, 1, 1, 1))[0]
    first, second = power[0::2], power[1::2]
    corr = np.corrcoef(first, second)[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(n)


def gamma_cdf(x, shape):
    """CDF of Gamma(shape, 1) for a whole shape: 1 - exp(-x) sum_{j<shape} x^j / j!."""
    term = np.ones_like(x)
    total = np.ones_like(x)
    for j in range(1, shape):
        term = term * x / j
        total += term
    return 1.0 - np.exp(-x) * total


# Kolmogorov-Smirnov bound at level 0.001 for n samples, fixed before the
# first run: sqrt(-ln(0.0005) / 2) / sqrt(n) = 1.95 / sqrt(n).
KS_LEVEL_0001 = 1.95


@pytest.mark.parametrize("tx", [1, 2])
def test_power_rows_follow_the_gamma_law(tx):
    # sum_tx |h|^2 of unit-power Rayleigh gains is Gamma(tx, 1), drawn directly
    n, users = 200_000, 3
    power = _draw_channel(np.random.default_rng(90 + tx), (n, users, 1, tx))
    assert power.shape == (users, n) and power.dtype == np.float64
    for row in power:
        x = np.sort(row)
        cdf = gamma_cdf(x, tx)
        grid = np.arange(n + 1) / n
        ks = max(np.max(grid[1:] - cdf), np.max(cdf - grid[:-1]))
        assert ks < KS_LEVEL_0001 / math.sqrt(n)
        # lag-one correlation across epochs: sd 1/sqrt(n) under independence
        corr = np.corrcoef(row[:-1], row[1:])[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(n)
    # users are independent of each other as well
    assert abs(np.corrcoef(power[0], power[1])[0, 1]) < 4.0 / math.sqrt(n)


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------

def test_subset_mi_zero_channels():
    assert subset_mutual_information(scalar_gains([0.0, 0.0]), [0, 1], 10.0) == pytest.approx(0.0)


def test_subset_mi_scalar_values():
    g = scalar_gains([1.0, 1.0])
    assert subset_mutual_information(g, [0], 3.0) == pytest.approx(2.0)
    assert subset_mutual_information(g, [0, 1], 3.0) == pytest.approx(math.log2(7))


def test_subset_mi_rejects_empty():
    with pytest.raises(ValueError):
        subset_mutual_information(scalar_gains([1.0]), [], 1.0)


def test_subset_mi_monotone_in_snr_and_subset():
    rng = np.random.default_rng(3)
    cfg = AntennaConfig(users=3, tx=2, rx=2)
    for _ in range(50):
        g = draw(cfg, rng)
        i_single = subset_mutual_information(g, [0], 5.0)
        i_pair = subset_mutual_information(g, [0, 1], 5.0)
        i_all = subset_mutual_information(g, [0, 1, 2], 5.0)
        assert 0.0 <= i_single <= i_pair <= i_all + 1e-12
        assert subset_mutual_information(g, [0], 50.0) >= i_single


def test_per_antenna_power_normalisation():
    # two transmit antennas split the power: unit-gain columns give
    # log2(1 + 2 * (snr/2)) = log2(1 + snr)
    gains = np.array([[[1.0, 1.0]]], dtype=complex)
    assert subset_mutual_information(gains, [0], 3.0) == pytest.approx(2.0)
    assert single_user_info(gains[None], 3.0, 1.0, 2)[0, 0] == pytest.approx(2.0)
    wide = np.array([[[1.0, 1.0], [0.0, 0.0]]], dtype=complex)    # rx=2: determinant branch
    assert single_user_info(wide[None], 3.0, 1.0, 2)[0, 0] == pytest.approx(2.0)


# Relative tolerance of the kernel against the oracle, fixed up front.
MI_RTOL = 1e-12
UNIT_ROUNDOFF = 2.0**-53
# From this SNR on, the oracle's own slogdet of a rank-deficient Gram
# departs from the exact log2 det by more than MI_RTOL (up to about 6e-11).
ROUNDING_LIMITED_DB = 60.0


def mi_tolerance(gains, members, snr_db, info):
    """|kernel - oracle| allowed for one subset, in bits.

    MI_RTOL * info, except for a rank-deficient G_S at ROUNDING_LIMITED_DB
    and above, which also gets the first-order effect of rounding the
    entries of A = I + (snr/M) * G_S that both the kernel and the oracle
    form: each entry carries at most (N + |S| * M) roundings of size
    u * (1 + c tr G), and log det moves by at most N * ||E||_F <= N^2 * max |E|
    because ||A^-1|| <= 1.
    """
    tol = MI_RTOL * abs(info)
    _, rx, tx = gains.shape
    gram = sum(gains[i] @ gains[i].conj().T for i in members)
    if snr_db < ROUNDING_LIMITED_DB or np.linalg.matrix_rank(gram) == rx:
        return tol
    snr = 10.0 ** (snr_db / 10.0)
    trace = float(np.sum(np.abs(gains[list(members)]) ** 2))
    per_entry = (rx + len(members) * tx) * UNIT_ROUNDOFF * (1.0 + snr / tx * trace)
    return tol + 2 * rx**2 * per_entry / math.log(2.0)


def mimo_battery(k, tx, rx, rng):
    """Random epochs plus rank-deficient ones: a silent user, twin users, rank-1 wide gains."""
    gains = _draw_gains(rng, (12, k, rx, tx))
    gains[3:6, 0] = 0.0                                   # user 0 silent
    if k >= 2:
        gains[6:9, 1] = gains[6:9, 0]                     # users 0 and 1 identical
    gains[9:12, :, 1:, :] = 0.0                           # every user on receive row 0 only
    return gains


@pytest.mark.parametrize("snr_db", [0.0, 20.0, 60.0])
def test_information_matches_oracle_on_mimo_battery(snr_db):
    snr, rate = 10.0 ** (snr_db / 10.0), 1.5
    rng = np.random.default_rng(41)
    for k in range(1, 5):
        subsets = [members_of(s, k) for s in lattice(k)]
        for tx in range(1, 4):
            for rx in range(2, 5):
                gains = mimo_battery(k, tx, rx, rng)
                info = _information(gains, snr / tx, lattice(k))
                demand = subset_demand(gains, snr, rate, tx)
                assert info.shape == demand.shape == (len(subsets), len(gains))
                for n, g in enumerate(gains):
                    for s, members in enumerate(subsets):
                        want = subset_mutual_information(g, members, snr)
                        tol = mi_tolerance(g, members, snr_db, want)
                        where = f"K={k} {tx}x{rx} epoch {n} subset {members}"
                        assert abs(info[s, n] - want) <= tol, where
                        if want == 0.0:
                            assert info[s, n] == 0.0 and demand[s, n] == math.inf, where
                        else:
                            want_demand = len(members) * rate / want
                            assert abs(demand[s, n] - want_demand) <= want_demand * tol / want, where



def stacked_mutual_information(gains, subsets, snr):
    """subset_mutual_information for every epoch and subset bitmask at once."""
    k, rx, tx = gains.shape[1:]
    masks = (np.array(subsets)[:, None] >> np.arange(k)) & 1
    grams = gains @ gains.conj().swapaxes(-1, -2)                  # (n, k, rx, rx)
    pooled = np.einsum("sk,nkij->nsij", masks, grams)
    _, logdet = np.linalg.slogdet(np.eye(rx) + (snr / tx) * pooled)
    return logdet / math.log(2.0)


def lattice(k):
    """Every nonempty subset of k users as bitmasks, in the order of subset_demand's rows."""
    return range(1, 1 << k)


def members_of(subset, k):
    return [i for i in range(k) if subset >> i & 1]


def tile_epochs(subsets, rx):
    return max(1, _TILE_ENTRIES // (len(subsets) * rx * rx))


@pytest.mark.parametrize("k, tx, rx", [(4, 2, 4), (3, 2, 2)], ids=["K4-2x4", "K3-2x2"])
def test_information_across_tile_edges_matches_oracle(k, tx, rx):
    snr_db = 20.0
    snr = 10.0 ** (snr_db / 10.0)
    subsets = [members_of(s, k) for s in lattice(k)]
    tile = tile_epochs(lattice(k), rx)
    rng = np.random.default_rng(47)
    for n in (0, 1, tile - 1, tile, tile + 1, 3 * tile + 17):
        gains = _draw_gains(rng, (n, k, rx, tx))
        got = _information(gains, snr / tx, lattice(k)).T
        want = stacked_mutual_information(gains, lattice(k), snr)
        assert got.shape == want.shape == (n, len(subsets))
        # mi_tolerance is at least MI_RTOL * info; evaluate it where that is exceeded
        for e, s in np.argwhere(np.abs(got - want) > MI_RTOL * np.abs(want)):
            tol = mi_tolerance(gains[e], subsets[s], snr_db, want[e, s])
            assert abs(got[e, s] - want[e, s]) <= tol, f"n={n} epoch {e} subset {subsets[s]}"


def test_first_decodable_round_on_several_tiles_matches_oracle():
    cfg, snr, rate = AntennaConfig(users=4, tx=2, rx=4), 3.0, 2.5
    n = 2 * tile_epochs(lattice(cfg.users), cfg.rx) + 17
    gains = draw(cfg, np.random.default_rng(49), n=n)
    batch = batch_first_decodable_round(gains, snr, rate)
    assert len(set(batch.tolist())) > 1
    for i in range(n):
        assert batch[i] == first_round_by_predicate(gains[i], snr, rate), f"epoch {i}"


def test_information_memory_beyond_result_is_flat_in_epochs():
    # an untiled kernel holds about four times as much at 4n epochs as at n;
    # given gains are tiled at one receive antenna too
    for n, shape in ((20_000, (4, 4, 2)), (1 << 16, (2, 1, 2))):
        extra = []
        for epochs in (n, 4 * n):
            gains = _draw_gains(np.random.default_rng(53), (epochs, *shape))
            tracemalloc.start()
            try:
                info = _information(gains, 50.0, lattice(shape[0]))
                extra.append(tracemalloc.get_traced_memory()[1] - info.nbytes)
            finally:
                tracemalloc.stop()
        assert extra[1] < 2 * extra[0], shape


@pytest.mark.parametrize("rx", [1, 2, 3])
def test_information_of_no_epochs_is_empty(rx):
    channel = _draw_channel(np.random.default_rng(0), (0, 3, rx, 2))
    assert channel.shape == ((3, 0) if rx == 1 else (0, 3, rx, 2))
    assert _information(channel, 1.0, lattice(3)).shape == (7, 0)
    assert subset_demand(channel, 10.0, 1.0, 2).shape == (7, 0)

# ---------------------------------------------------------------------------
# outage predicates
# ---------------------------------------------------------------------------

def test_joint_outage_boundary_is_decodable():
    assert joint_outage(scalar_gains([1.0]), [0], 3.0, rate=2.0, rounds=1) is False


def test_joint_outage_two_user_examples():
    g = scalar_gains([1.0, 1.0])
    # sum condition: 2 * 1.6 = 3.2 > log2(7) = 2.807
    assert joint_outage(g, [0, 1], 3.0, rate=1.6, rounds=1) is True
    # 2.807 >= 2.6 and 2.0 >= 1.3
    assert joint_outage(g, [0, 1], 3.0, rate=1.3, rounds=1) is False


def test_joint_outage_validation():
    g = scalar_gains([1.0])
    with pytest.raises(ValueError):
        joint_outage(g, [], 3.0, 1.0, 1)
    with pytest.raises(ValueError):
        joint_outage(g, [0], 3.0, 1.0, 0)


def test_joint_outage_nested_in_rounds():
    rng = np.random.default_rng(9)
    cfg = AntennaConfig(users=3, tx=1, rx=2)
    for _ in range(200):
        g = draw(cfg, rng)
        rate = float(rng.uniform(0.2, 3.0))
        decodable_seen = False
        for rounds in range(1, 7):
            out = joint_outage(g, [0, 1, 2], 2.0, rate, rounds)
            if not out:
                decodable_seen = True
            if decodable_seen:
                assert out is False  # once decodable, stays decodable


def test_joint_outage_monotone_in_snr():
    rng = np.random.default_rng(13)
    for _ in range(200):
        g = draw(SCALAR2, rng)
        rate = float(rng.uniform(0.2, 3.0))
        flipped = False
        for snr in (0.5, 1.0, 2.0, 8.0, 64.0, 1e4):
            out = joint_outage(g, [0, 1], snr, rate, 1)
            if not out:
                flipped = True
            if flipped:
                assert out is False


def test_subset_consistency_removing_users():
    rng = np.random.default_rng(17)
    for _ in range(200):
        g = draw(AntennaConfig(users=3), rng)
        rate = float(rng.uniform(0.1, 2.0))
        if not joint_outage(g, [0, 1, 2], 4.0, rate, 1):
            assert not joint_outage(g, [0, 1], 4.0, rate, 1)
            assert not joint_outage(g, [2], 4.0, rate, 1)


def test_single_user_outage_examples():
    h = np.ones((1, 1))                                            # one user's unit power row
    assert not single_user_info(h, 3.0, 1.0, 1)[0, 0] < 2.0     # boundary decodes
    assert single_user_info(h, 3.0, 1.0, 1)[0, 0] < 2.1
    # matched combining over 3 slots triples the effective SNR
    assert not single_user_info(h, 1.0, 3.0, 1)[0, 0] < 1.9
    assert single_user_info(h, 1.0, 1.0, 1)[0, 0] < 1.9


def test_single_user_outage_matches_exponential_law():
    rng = np.random.default_rng(23)
    n = 10**6
    for rate, snr in [(1.0, 10.0), (2.0, 3.0)]:
        info = single_user_info(_draw_channel(rng, (n, 1, 1, 1)), snr, 1.0, 1)
        freq = float(np.mean(info < rate))
        exact = 1 - math.exp(-(2**rate - 1) / snr)
        assert abs(freq - exact) < 3 * math.sqrt(exact * (1 - exact) / n)


# ---------------------------------------------------------------------------
# first decodable round: the batched kernel and the outcome table against
# the oracle
# ---------------------------------------------------------------------------

def first_round_by_predicate(gains, snr, rate, cap=64):
    """Smallest round count with no joint outage, by direct search."""
    for rounds in range(1, cap + 1):
        if not joint_outage(gains, range(gains.shape[0]), snr, rate, rounds):
            return rounds
    return NEVER


def test_first_decodable_round_agrees_with_outage_predicate():
    rng = np.random.default_rng(29)
    for cfg in (SCALAR2, AntennaConfig(users=3, tx=1, rx=2)):
        users = tuple(range(cfg.users))
        for _ in range(100):
            g = draw(cfg, rng)
            rate = float(rng.uniform(0.2, 2.5))
            needed = int(batch_first_decodable_round(g[None], 3.0, rate)[0])
            if needed < NEVER:
                assert joint_outage(g, users, 3.0, rate, needed) is False
                if needed > 1:
                    assert joint_outage(g, users, 3.0, rate, needed - 1) is True


def test_batch_first_decodable_round_matches_scalar_path():
    rng = np.random.default_rng(31)
    for cfg in (SCALAR2, AntennaConfig(users=3, tx=2, rx=1), AntennaConfig(users=2, tx=1, rx=2),
                AntennaConfig(users=3, tx=2, rx=2)):
        gains = draw(cfg, rng, n=200)
        batch = batch_first_decodable_round(gains, 3.0, 1.1)
        for i in range(gains.shape[0]):
            assert batch[i] == first_round_by_predicate(gains[i], 3.0, 1.1)


def test_first_decodable_round_boundary_and_zero_rate():
    unit = scalar_gains([1.0])[None]
    assert batch_first_decodable_round(unit, 3.0, 2.0)[0] == 1   # exact boundary decodes
    assert batch_first_decodable_round(unit, 3.0, 0.0)[0] == 1
    dead = scalar_gains([0.0])[None]
    assert batch_first_decodable_round(dead, 3.0, 1.0)[0] == NEVER


def test_rounds_from_demand_maps_what_int64_cannot_hold_to_never():
    # a positive I_S from rx > 1 pivots can be tiny, so a finite demand can pass 2^63
    demand = np.array([0.0, 0.5, 2.0, 2.5, 3e9, 2.0**62, 2.0**64, 1e300, np.inf, np.nan])
    want = [1, 1, 2, 3, 3_000_000_000, math.ceil(2.0**62 * (1.0 - 1e-12)), NEVER, NEVER, NEVER, NEVER]
    got = rounds_from_demand(demand)
    assert got.dtype == np.int64
    assert got.tolist() == want


@pytest.mark.parametrize("columns", [[0], [1], [0, 1]], ids=["e1", "e2", "e1+e2"])
def test_mimo_boundary_tie_decodes(columns):
    # orthonormal unit columns, rx=2, tx=1, snr=3: every subset S has
    # I_S = 2|S| bits exactly, so rate 2 sits on the boundary of each
    gains = np.zeros((len(columns), 2, 1), dtype=complex)
    for user, axis in enumerate(columns):
        gains[user, axis, 0] = 1.0
    users = range(len(columns))
    for rate, expected in [(2.0, 1), (2.0 + 1e-9, 2)]:
        needed = int(batch_first_decodable_round(gains[None], 3.0, rate)[0])
        assert needed == expected
        assert joint_outage(gains, users, 3.0, rate, needed) is False
        if needed > 1:
            assert joint_outage(gains, users, 3.0, rate, needed - 1) is True


@pytest.mark.parametrize("cfg", [AntennaConfig(users=3), AntennaConfig(users=3, tx=2, rx=2)],
                         ids=["scalar", "2x2"])
def test_outcome_table_per_mask_matches_kernel_and_oracle(cfg):
    # the IR-ARQ table draws its channels first, so a twin generator sees
    # them; the oracle reads power rows as real gains sqrt(power)
    n, snr, deadline = 300, 2.0, 50
    params = ProtocolParams(p_t=1.0, rate=1.2, deadline=deadline)
    all_sets = np.broadcast_to(np.arange(8), (n, 8))
    lengths, delivered, errors = epoch_outcomes("irarq", cfg, params, snr, all_sets,
                                                np.random.default_rng(37))
    channel = _draw_channel(np.random.default_rng(37), (n, 3, cfg.rx, cfg.tx))
    rows = cfg.rx == 1
    gains = np.sqrt(channel.T)[:, :, None, None].astype(complex) if rows else channel
    assert lengths.shape == (n, 8)
    assert np.all(lengths[:, 0] == 1) and np.all(errors[:, 0] == 0)
    checked = 0
    for mask in range(1, 8):
        members = [i for i in range(3) if mask >> i & 1]
        picked = channel[members] if rows else channel[:, members]
        needed = _first_round(picked, snr, params.rate, cfg.tx)
        assert np.array_equal(lengths[:, mask], np.minimum(needed, deadline))
        assert np.array_equal(errors[:, mask], np.where(needed > deadline, mask, 0))
        assert np.all(delivered[:, mask] == mask)
        for i in range(40):
            ell = int(lengths[i, mask])
            if ell < deadline:
                assert joint_outage(gains[i], members, snr, params.rate, ell) is False
                if ell > 1:
                    assert joint_outage(gains[i], members, snr, params.rate, ell - 1) is True
                    checked += 1
    assert checked > 0   # some masks needed more than one round


# ---------------------------------------------------------------------------
# the epochs-last layout against the epochs-first code it replaced
# ---------------------------------------------------------------------------
# The functions below compute the kernel's quantities as (epochs, subsets)
# arrays in one untiled batch, as bitwise oracles.  Each subset's entries
# are its members' entries added one by one in index order; the scalar
# power is |h|^2 by np.abs, and the rx > 1 log det is log2 of the product
# of the pivots of the same LDL^H elimination.

def member_sums(terms, subsets):
    """Each subset's members' terms added one by one in index order; zeros for no member."""
    sums = []
    for s in subsets:
        members = members_of(s, len(terms))
        total = terms[members[0]].copy() if members else np.zeros_like(terms[0])
        for i in members[1:]:
            total += terms[i]
        sums.append(total)
    return sums


def power_rows(gains):
    """sum_tx |h|^2 of rx = 1 gains as (users, epochs) rows, |h| by np.abs."""
    return np.sum(np.abs(gains) ** 2, axis=(2, 3)).T


def information_epochs_first(gains, coef, subsets):
    rx = gains.shape[2]
    if rx == 1:
        power = coef * np.sum(np.abs(gains) ** 2, axis=(2, 3))           # (n, k)
        return np.log2(1.0 + np.stack(member_sums(list(power.T), subsets), axis=1))
    rows, cols = np.tril_indices(rx, -1)
    cross = np.sum(gains[:, :, cols].conj() * gains[:, :, rows], axis=3)
    # per user: diagonal, then re and im of conj(h_col) h_row below it
    entries = np.concatenate([np.sum(gains.real**2 + gains.imag**2, axis=3), cross.real, cross.imag],
                             axis=2)                                 # (n, k, entries)
    entries *= coef
    pooled = np.stack(member_sums(list(entries.swapaxes(0, 1)), subsets), axis=1)
    pooled[..., :rx] += 1.0
    below = list(zip(rows.tolist(), cols.tolist()))
    diag = [pooled[..., i] for i in range(rx)]
    re = {rc: pooled[..., rx + p] for p, rc in enumerate(below)}
    im = {rc: pooled[..., rx + len(below) + p] for p, rc in enumerate(below)}
    for j in range(rx):
        inv = 1.0 / diag[j]
        for i in range(j + 1, rx):
            lr, li = re[i, j] * inv, im[i, j] * inv
            diag[i] -= lr * re[i, j] + li * im[i, j]
            for m in range(j + 1, i):
                re[i, m] -= lr * re[m, j] + li * im[m, j]
                im[i, m] -= li * re[m, j] - lr * im[m, j]
    det = diag[0]
    for d in diag[1:]:
        det = det * d
    return np.log2(det)


def first_round_epochs_first(gains, snr, rate):
    if rate <= 0:
        return np.ones(gains.shape[0], dtype=np.int64)
    k = gains.shape[1]
    sizes = np.array([len(members_of(s, k)) for s in lattice(k)])
    info = information_epochs_first(gains, snr / gains.shape[3], lattice(k))
    with np.errstate(divide="ignore"):
        demand = np.where(info > 0.0, sizes[None, :] * rate / np.maximum(info, 1e-300), np.inf)
    rounds = np.ceil(demand.max(axis=1) * (1.0 - 1e-12))
    out = np.full(rounds.shape, NEVER, dtype=np.int64)
    finite = np.isfinite(rounds)
    out[finite] = np.maximum(rounds[finite].astype(np.int64), 1)
    return out


def outage_bits_epochs_first(gains, snr, rate):
    k, tx = gains.shape[1], gains.shape[3]
    info = information_epochs_first(gains, snr / tx, [1 << i for i in range(k)])
    return (info < rate) @ (1 << np.arange(k))


def scalar_battery(k, tx, n, seed):
    """Rayleigh epochs plus a silent user and a one-user-only block."""
    gains = _draw_gains(np.random.default_rng(seed), (n, k, 1, tx))
    gains[: n // 8, 0] = 0.0
    gains[n // 8 : n // 4, 1:] = 0.0
    return gains


SNRS = (0.1, 3.0, 100.0, 1e6)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_scalar_information_is_bitwise_the_epochs_first_kernel(k):
    for tx in (1, 2, 3):
        gains = scalar_battery(k, tx, 4000, seed=100 + 10 * k + tx)
        for snr in SNRS:
            got = _information(power_rows(gains), snr / tx, lattice(k))
            assert got.shape == (len(lattice(k)), len(gains))
            assert got.T.tobytes() == information_epochs_first(gains, snr / tx, lattice(k)).tobytes()


def member_by_member_information(power, coef, subsets):
    """log2(1 + coef * power of S) with the members of S added one by one in index order."""
    return np.log2(1.0 + np.array(member_sums(list(coef * power), subsets)))


@pytest.mark.parametrize("k", range(2, 9))
def test_scalar_subset_sums_are_bitwise_member_by_member(k):
    rng = np.random.default_rng(160 + k)
    for n in (1, 64, 4097):
        power = _draw_channel(rng, (n, k, 1, 2))
        for subsets in (lattice(k), [1 << i for i in range(k)]):
            got = _information(power, 3.0, subsets)
            assert got.tobytes() == member_by_member_information(power, 3.0, subsets).tobytes()


def test_scalar_information_of_any_mask_order_matches_the_lattice():
    # subsets out of lattice order, repeated and empty ones get the same
    # bits, from power rows and from rx > 1 gains alike
    k = 4
    picks = [15, 1, 7, 7, 3, 10]
    gains = _draw_gains(np.random.default_rng(151), (500, k, 2, 2))
    gains[:50, 1] = 0.0
    for channel in (power_rows(scalar_battery(k, 2, 500, seed=150)), gains):
        full = _information(channel, 5.0, lattice(k))
        got = _information(channel, 5.0, [0, *picks, 0])
        assert np.all(got[0] == 0.0) and np.all(got[-1] == 0.0)
        assert got[1:-1].tobytes() == full[np.array(picks) - 1].tobytes()


# Tolerance of the kernel against exactly rounded subset sums, fixed before
# the first run: a running sum of |S| nonnegative terms is within
# (|S| - 1) u of the exact sum (u = 2^-53), forming 1 + x adds u and log2
# adds an ulp of the result; d log2(1 + x) = dx / ((1 + x) ln 2), so a
# relative error d in x moves the result by at most d / ln 2 bits.
def member_sum_tolerance(size, info):
    return (size + 1) * 2.0**-53 / math.log(2.0) + 2 * np.spacing(info)


@pytest.mark.parametrize("k", [4, 5, 8])
def test_scalar_information_beyond_three_users(k):
    # I_S is held to exactly rounded sums; round counts and outage bits,
    # read from the gains, must match the epochs-first oracle bitwise
    gains = scalar_battery(k, 2, 400, seed=200 + k)
    for snr in SNRS:
        info = _information(power_rows(gains), snr / 2, lattice(k))
        power = (snr / 2) * np.sum(np.abs(gains) ** 2, axis=(2, 3))        # (n, k)
        for s, subset in enumerate(lattice(k)):
            members = members_of(subset, k)
            exact = np.array([math.fsum(p) for p in power[:, members]])
            want = np.log2(1.0 + exact)
            assert np.all(np.abs(info[s] - want) <= member_sum_tolerance(len(members), want))
        for rate in (0.3, 1.0, 2.5):
            rate *= math.log2(1.0 + snr)
            assert np.array_equal(batch_first_decodable_round(gains, snr, rate),
                                  first_round_epochs_first(gains, snr, rate))
            got = (single_user_info(gains, snr, 1.0, 2) < rate).T @ (1 << np.arange(k))
            assert np.array_equal(got, outage_bits_epochs_first(gains, snr, rate))


@pytest.mark.parametrize("k, tx, rx", [(1, 1, 1), (2, 1, 1), (3, 2, 1), (3, 2, 2), (4, 2, 4)],
                         ids=["K1", "K2", "K3-2x1", "K3-2x2", "K4-2x4"])
def test_first_decodable_round_is_bitwise_the_epochs_first_kernel(k, tx, rx):
    n = 2 * tile_epochs(lattice(k), rx) + 5 if rx > 1 else 3000
    gains = _draw_gains(np.random.default_rng(300 + k), (n, k, rx, tx))
    gains[:20, 0] = 0.0                                       # some subsets with no information
    seen = set()
    for snr in (1.0, 100.0):
        for rate in (0.0, 0.5, 2.0, 6.0):
            got = batch_first_decodable_round(gains, snr, rate)
            assert got.dtype == np.int64
            assert np.array_equal(got, first_round_epochs_first(gains, snr, rate))
            seen.update(got.tolist())
        if rx > 1:
            info = _information(gains, snr / tx, lattice(k))
            assert info.T.tobytes() == information_epochs_first(gains, snr / tx, lattice(k)).tobytes()
    assert NEVER in seen and len(seen) > 3                     # several round counts and NEVER
    empty = gains[:0]
    assert batch_first_decodable_round(empty, 100.0, 2.0).shape == (0,)
    assert batch_first_decodable_round(empty, 100.0, 0.0).shape == (0,)


@pytest.mark.parametrize("rx", [1, 2])
def test_single_user_info_is_bitwise_the_identity_mask_kernel(rx):
    gains = _draw_gains(np.random.default_rng(400 + rx), (3000, 3, rx, 2))
    channel = power_rows(gains) if rx == 1 else gains
    for gain in (1.0, 3.0):
        got = single_user_info(channel, 7.0, gain, 2)
        want = information_epochs_first(gains, gain * 7.0 / 2, [1, 2, 4])
        assert got.shape == (3, 3000)
        assert got.T.tobytes() == want.tobytes()


@pytest.mark.parametrize("k, tx, rx", [(3, 2, 2), (4, 2, 4), (5, 1, 2)], ids=["K3-2x2", "K4-2x4", "K5-1x2"])
def test_information_bits_do_not_depend_on_batch_or_tile_size(k, tx, rx, monkeypatch):
    gains = _draw_gains(np.random.default_rng(600 + k), (10_000, k, rx, tx))
    gains[:50, 0] = 0.0
    full = _information(gains, 50.0, lattice(k))
    assert _information(gains[1:], 50.0, lattice(k)).tobytes() == full[:, 1:].tobytes()
    for entries in (1 << 10, 1 << 20):
        monkeypatch.setattr("raclab.channel._TILE_ENTRIES", entries)
        assert _information(gains, 50.0, lattice(k)).tobytes() == full.tobytes(), entries


# ---------------------------------------------------------------------------
# rx > 1 keeps the gains stream; batch_first_decodable_round keeps its oracles
# ---------------------------------------------------------------------------

MIMO_SHAPES = [AntennaConfig(users=3, tx=2, rx=2), AntennaConfig(users=4, tx=2, rx=4),
               AntennaConfig(users=2, tx=1, rx=3)]


@pytest.mark.parametrize("protocol, params", [
    ("irarq", ProtocolParams(p_t=1.0, rate=1.2, deadline=2)),
    ("ondma", ProtocolParams(p_t=1.0, rate=1.2)),
    ("ondma", ProtocolParams(p_t=1.0, rate=1.2, matched_combining=True)),
    ("gta", ProtocolParams(p_t=1.0, rate=1.2)),
], ids=["irarq", "ondma", "ondma-matched", "gta"])
@pytest.mark.parametrize("cfg", MIMO_SHAPES, ids=["K3-2x2", "K4-2x4", "K2-1x3"])
def test_mimo_epochs_draw_the_gains_stream(protocol, params, cfg):
    # at rx > 1 the generator is consumed as by _draw_gains (GTA: after its
    # tree words, then a ranking for each epoch with a cell the tree pruned,
    # none at K=2), and the outcomes read those gains
    n = 300
    masks = np.random.default_rng(8).integers(0, 1 << cfg.users, size=(n, 2))
    rng, twin = np.random.default_rng(81), np.random.default_rng(81)
    lengths, _, errors = epoch_outcomes(protocol, cfg, params, 2.0, masks, rng)
    if protocol == "gta":
        sizes = np.bitwise_count(masks).astype(np.int64)
        _, delivered = _gta_tree_batch(sizes.ravel(), twin)
        short = np.count_nonzero((delivered.reshape(masks.shape) < sizes).any(axis=1))
        assert (short > 0) == (cfg.users > 2)
        twin.random((short, cfg.users))
    gains = _draw_gains(twin, (n, cfg.users, cfg.rx, cfg.tx))
    assert rng.bit_generator.state == twin.bit_generator.state
    if protocol == "irarq":
        for e in range(0, n, 37):
            for j, mask in enumerate(masks[e]):
                members = [i for i in range(cfg.users) if mask >> i & 1]
                if members:
                    want = batch_first_decodable_round(gains[e : e + 1, members], 2.0, params.rate)
                    assert lengths[e, j] == min(int(want[0]), params.deadline)
    elif protocol == "ondma" and not params.matched_combining:
        out = single_user_info(gains, 2.0, 1.0, cfg.tx) < params.rate
        assert np.array_equal(errors, masks & (out.T @ (1 << np.arange(cfg.users)))[:, None])


@pytest.mark.parametrize("cfg", [AntennaConfig(users=3, tx=2, rx=2), AntennaConfig(users=4, tx=2, rx=4)],
                         ids=["K3-2x2", "K4-2x4"])
def test_mimo_beta_chunk_reads_the_gains_stream(cfg):
    # one chunk of estimate_beta per collision size k reads the gains that
    # _draw_gains makes from that chunk's generator
    trials, snr_db, rate, deadline, seed = 3000, 20.0, 3.0, 3, 17
    table = estimate_beta(cfg, snr_db, rate, deadline, trials, seed=seed)
    for k in range(1, cfg.users + 1):
        rng = np.random.default_rng([seed, _TAG_BETA + k, 0])          # chunk 0
        gains = _draw_gains(rng, (trials, k, cfg.rx, cfg.tx))
        needed = batch_first_decodable_round(gains, 10.0 ** (snr_db / 10.0), rate)
        want = np.array([(needed > ell).sum() for ell in range(1, deadline + 1)]) / trials
        assert table.values[k - 1, 1:].tobytes() == want.tobytes()


def first_round_by_slogdet(gains, snr, rate):
    """Ceil of the worst subset demand from stacked slogdets, with the kernel's 1e-12 shave."""
    k = gains.shape[1]
    sizes = np.array([len(members_of(s, k)) for s in lattice(k)])
    info = stacked_mutual_information(gains, lattice(k), snr)      # (n, subsets)
    with np.errstate(divide="ignore"):
        demand = np.where(info > 0.0, sizes * rate / np.where(info > 0.0, info, 1.0), np.inf)
    worst = demand.max(axis=1)
    rounds = np.full(len(gains), NEVER, dtype=np.int64)
    finite = np.isfinite(worst)
    rounds[finite] = np.maximum(np.ceil(worst[finite] * (1.0 - 1e-12)), 1.0)
    return rounds


@pytest.mark.parametrize("k, tx, rx", [(1, 1, 1), (2, 1, 1), (3, 2, 1), (2, 3, 1), (4, 1, 1),
                                       (2, 1, 2), (3, 2, 2), (2, 2, 3), (4, 2, 4)])
def test_batch_first_decodable_round_on_given_gains_matches_slogdet(k, tx, rx):
    rng = np.random.default_rng(500 + 16 * k + 4 * tx + rx)
    gains = _draw_gains(rng, (600, k, rx, tx))
    gains[:10, 0] = 0.0                                           # subsets with no information
    seen = set()
    for snr in (1.0, 100.0):
        for rate in (0.0, 0.7, 3.0):
            got = batch_first_decodable_round(gains, snr, rate)
            want = np.ones(len(gains), dtype=np.int64) if rate == 0 else first_round_by_slogdet(gains, snr, rate)
            assert got.dtype == np.int64 and np.array_equal(got, want)
            seen.update(got.tolist())
    assert NEVER in seen and len(seen) > 3


# ---------------------------------------------------------------------------
# capped round counts: the threshold decision against the log form
# ---------------------------------------------------------------------------
# min(rounds_from_demand(subset_demand(...)), L + 1), per subset, is the log
# form that capped_rounds replaced in the estimators and the protocols.

def capped_by_demand(channel, snr, rate, tx, deadline):
    """Every lattice subset's min(ceil of its demand, deadline + 1), as (subsets, epochs)."""
    return np.minimum(rounds_from_demand(subset_demand(channel, snr, rate, tx)), deadline + 1)


@pytest.mark.parametrize("k, tx, rx", [(1, 1, 1), (1, 2, 1), (1, 3, 1), (2, 1, 1), (2, 2, 1), (2, 3, 1),
                                       (3, 1, 1), (3, 2, 1), (3, 3, 1), (4, 1, 1), (4, 2, 1), (4, 3, 1),
                                       (5, 1, 1), (5, 2, 1), (5, 3, 1), (3, 2, 2), (4, 2, 4)])
def test_capped_rounds_are_bitwise_the_capped_demand_rounds(k, tx, rx):
    n = 2 * tile_epochs(lattice(k), rx) + 17                  # three tiles, the last one short
    channel = _draw_channel(np.random.default_rng(700 + 16 * k + 4 * tx + rx), (n, k, rx, tx))
    if rx == 1:
        channel[0, : n // 8] = 0.0                            # a silent user
    else:
        channel[: n // 8, 0] = 0.0
    seen = set()
    for snr_db in (0.0, 20.0, 40.0):
        snr = 10.0 ** (snr_db / 10.0)
        for r in (0.4, 0.9):
            rate = r * math.log2(1.0 + snr)
            for deadline in range(1, 5):
                got = capped_rounds(channel, snr, rate, tx, deadline, lattice(k))
                assert got.dtype == np.uint8 and got.shape == (len(lattice(k)), n)
                want = capped_by_demand(channel, snr, rate, tx, deadline)
                assert np.array_equal(got, want), (snr_db, r, deadline)
                seen.update(got.ravel().tolist())
    assert seen == {1, 2, 3, 4, 5}


def test_rate_zero_decodes_in_round_one_at_every_antenna_shape():
    # h = (1e9, 30) at coefficient 1 is rank one, and its trailing LDL pivot,
    # 1 + 900 / (1 + 1e18) exactly, rounds to just below 1
    rank_one = np.array([[[[1e9], [30.0]]]], dtype=complex)
    pivots = _gram_entries(rank_one)
    _det(pivots, 2)
    assert pivots[0, 1, 0] < 1.0
    assert capped_rounds(rank_one, 1.0, 0.0, 1, 3, [1]).tolist() == [[1]]
    assert batch_first_decodable_round(rank_one, 1.0, 0.0).tolist() == [1]
    rng = np.random.default_rng(710)
    for k, tx, rx in [(2, 1, 1), (3, 2, 1), (2, 1, 2), (3, 2, 2), (4, 2, 4), (2, 1, 3)]:
        gains = mimo_battery(k, tx, rx, rng)
        channel = power_rows(gains) if rx == 1 else gains
        for snr in (1.0, 1e6):
            assert np.all(capped_rounds(channel, snr, 0.0, tx, 3, lattice(k)) == 1)
            assert np.all(batch_first_decodable_round(gains, snr, 0.0) == 1)


@pytest.mark.parametrize("rx", [1, 2, 4])
def test_zero_gains_never_decode_at_a_positive_rate(rx):
    # down to rates whose threshold 2^(|S| R / ell) rounds to 1, and at an
    # SNR whose power threshold underflows
    channel = _draw_channel(np.random.default_rng(0), (5, 3, rx, 2)) * 0.0
    for snr in (1.0, 1e6, 1e300):
        for rate in (1e-300, 1e-20, 1.0, 30.0):
            got = capped_rounds(channel, snr, rate, 2, 4, lattice(3))
            assert np.all(got == 5), (snr, rate)
            assert np.array_equal(got, capped_by_demand(channel, snr, rate, 2, 4))


@pytest.mark.parametrize("k, tx, rx", [(2, 1, 1), (3, 2, 1), (3, 2, 2), (4, 2, 4)])
def test_a_rate_beyond_the_float_range_survives_every_round(k, tx, rx):
    # 2^(|S| R / ell) overflows for some or all (|S|, ell): such a threshold
    # is inf, not an OverflowError, and the counts are those of the log form
    channel = _draw_channel(np.random.default_rng(720 + k), (300, k, rx, tx))
    for rate in (1100.0, 3000.0, 1e300):
        got = capped_rounds(channel, 100.0, rate, tx, 4, lattice(k))
        assert np.all(got == 5)
        assert np.array_equal(got, capped_by_demand(channel, 100.0, rate, tx, 4))
    cfg = AntennaConfig(users=k, tx=tx, rx=rx)
    table = estimate_beta(cfg, 20.0, 3000.0, 3, trials=200, seed=1)
    assert np.all(table.values == 1.0)
    params = ProtocolParams(p_t=1.0, rate=3000.0, deadline=3)
    masks = np.full((50, 1), (1 << k) - 1)
    lengths, _, errors = epoch_outcomes("irarq", cfg, params, 100.0, masks, np.random.default_rng(2))
    assert np.all(lengths == 3) and np.all(errors == masks)


def test_capped_rounds_hold_deadlines_beyond_uint8():
    channel = _draw_channel(np.random.default_rng(730), (4000, 2, 1, 1))
    for deadline, dtype in ((254, np.uint8), (255, np.uint16), (300, np.uint16)):
        got = capped_rounds(channel, 1.0, 2.0, 1, deadline, lattice(2))
        assert got.dtype == dtype
        assert np.array_equal(got, capped_by_demand(channel, 1.0, 2.0, 1, deadline))
        assert got.max() == deadline + 1


def test_first_round_memory_beyond_result_is_flat_in_epochs():
    # only the (epochs,) worst demand outlives a tile; the untiled
    # (subsets, epochs) demand grew about fourfold from 20k to 80k epochs
    extra = []
    for epochs in (20_000, 80_000):
        gains = _draw_gains(np.random.default_rng(57), (epochs, 4, 4, 2))
        tracemalloc.start()
        try:
            rounds = batch_first_decodable_round(gains, 100.0, 2.0)
            extra.append(tracemalloc.get_traced_memory()[1] - rounds.nbytes)
        finally:
            tracemalloc.stop()
    assert extra[1] < 2 * extra[0]
