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
    _TRACE_MARGIN,
    NEVER,
    _check_tile,
    _det,
    _draw_channel,
    _draw_gains,
    _draw_tiles,
    _fails_alone,
    _gram_entries,
    _mask_rounds,
    _pool,
    _scratch,
    _shape,
    _thresholds,
    batch_first_decodable_round,
    capped_rounds,
)
from raclab.montecarlo import (
    _TAG_BETA,
    estimate_beta,
    fully_loaded_throughput,
    system_error_probability,
)
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

    The log form of the single-user outage decision, by the oracle
    :func:`subset_information` below.  A user is in outage iff its
    information is below the rate; the protocols decide by
    :func:`capped_rounds` instead, with the joint decision's tie rule
    (:func:`single_user_outage`).
    """
    return subset_information(channel, gain * snr, tx, [1 << i for i in range(_shape(channel)[1])])


def single_user_outage(channel, snr, gain, rate, tx):
    """The protocols' single-user decision: (users, epochs) True where a user fails its one round.

    The singleton rows of the lattice, row 2^i - 1 for user i.
    """
    singles = (1 << np.arange(_shape(channel)[1])) - 1
    return capped_rounds(channel, gain * snr, rate, tx, 1)[singles] > 1


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


@pytest.mark.parametrize("shape", [(0, 2, 1, 1), (5, 1, 1, 1), (7, 3, 2, 4), (3000, 4, 4, 2)])
def test_draw_pins_the_interleaved_stream(shape):
    # each gain's real and imaginary normals adjacent, scaled by 1/sqrt(2)
    rng, twin = np.random.default_rng(43), np.random.default_rng(43)
    got = _draw_gains(rng, shape)
    want = (twin.standard_normal(2 * math.prod(shape)) * (1.0 / math.sqrt(2.0))).view(complex).reshape(shape)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("k, tx, rx", [(4, 2, 4), (3, 2, 2), (2, 1, 3)], ids=["K4-2x4", "K3-2x2", "K2-1x3"])
def test_gains_stream_does_not_depend_on_the_cut(k, tx, rx):
    # n epochs in one draw are m epochs and then n - m, for m = 0, 1, n - 1
    # and one kernel tile; the tiles of _draw_tiles, reused memory and all,
    # draw the block's stream too, and hold one tile of gains at a time
    tile = tile_epochs(lattice(k), rx)
    n = 2 * tile + 17
    want = _draw_gains(np.random.default_rng(44), (n, k, rx, tx))
    end = np.random.default_rng(44)
    _draw_gains(end, (n, k, rx, tx))
    for m in (0, 1, n - 1, tile):
        rng = np.random.default_rng(44)
        parts = [_draw_gains(rng, (m, k, rx, tx)), _draw_gains(rng, (n - m, k, rx, tx))]
        assert np.concatenate(parts).tobytes() == want.tobytes(), m
        assert rng.bit_generator.state == end.bit_generator.state
    for buffers in (None, {}):
        rng = np.random.default_rng(44)
        sizes, held = [], set()
        for span, rows in _draw_tiles(rng, (n, k, rx, tx), len(lattice(k)), buffers):
            # a tile's Gram rows are those of its slice of the one-call draw
            assert rows.tobytes() == _gram_entries(want[span]).tobytes()
            sizes.append(span.stop - span.start)
            if buffers is not None:
                held.add(id(buffers["channel"]))
        assert sizes == [tile, tile, 17]
        assert rng.bit_generator.state == end.bit_generator.state
        if buffers is not None:
            assert len(held) == 1 and buffers["channel"].nbytes == tile * k * rx * tx * 16


def test_scratch_hands_out_leading_views_of_one_buffer_per_name():
    buffers = {}
    full = _scratch(buffers, "a", (3, 100))
    assert full.shape == (3, 100) and full.flags.c_contiguous
    short = _scratch(buffers, "a", (3, 7))              # a short last chunk: flat[:21], reshaped
    assert short.flags.c_contiguous and np.shares_memory(short, full)
    assert short.__array_interface__["data"][0] == full.__array_interface__["data"][0]
    # another type under the name reads the same bytes; another name is
    # another buffer, and a larger request replaces the name's buffer
    as_bytes = _scratch(buffers, "a", (3, 100), np.uint8)
    assert as_bytes.dtype == np.uint8 and np.shares_memory(as_bytes, full)
    assert _scratch(buffers, "a", (2,), complex).flags.aligned
    assert not np.shares_memory(_scratch(buffers, "b", (3, 100)), full)
    assert not np.shares_memory(_scratch(buffers, "a", (3, 101)), full)
    assert _scratch(None, "a", (3, 100)) is None


@pytest.mark.parametrize("shape", [(300, 3, 1, 1), (300, 3, 1, 2), (300, 2, 1, 3), (300, 2, 2, 2),
                                   (7000, 3, 4, 2)])
def test_draw_into_buffers_is_the_allocating_draw(shape):
    # out= and the spare block draw the same stream and add in the same order,
    # and a shorter block reads a leading view of the same memory; gains
    # need no spare, power rows one per transmit antenna after the first.
    # The IR-ARQ mask rounds, drawn and counted into chunk buffers, are
    # those of allocated arrays too
    buffers, addresses, chunk = {}, set(), {}
    for n in (shape[0], shape[0] - 17):
        block = (n, *shape[1:])
        _, k, rx, tx = block
        rng, twin = np.random.default_rng(44), np.random.default_rng(44)
        if rx > 1:
            out, spare = _scratch(buffers, "channel", block, complex), None
        else:
            out = _scratch(buffers, "channel", (k, n))
            spare = _scratch(buffers, "spare", (k, n)) if tx > 1 else None
        got = _draw_channel(rng, block, out, spare)
        want = _draw_channel(twin, block)
        assert got is out and got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state
        addresses.add(out.__array_interface__["data"][0])
        rounds = _mask_rounds(np.random.default_rng(45), block, 10.0, 1.5 * rx, 3, chunk)
        assert np.shares_memory(rounds, chunk["worst"])
        assert rounds.tobytes() == _mask_rounds(np.random.default_rng(45), block, 10.0, 1.5 * rx, 3).tobytes()
    assert len(addresses) == 1 and len(buffers) == 1 + (spare is not None)


def test_draw_holds_one_and_a_half_gains_at_peak():
    # a two-half draw peaked at twice the gains; the interleaved draw
    # fills and scales its result in place and holds nothing else
    shape = (20_000, 4, 4, 2)
    tracemalloc.start()
    try:
        gains = _draw_gains(np.random.default_rng(3), shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * gains.nbytes + 65536
    assert peak <= gains.nbytes + 65536


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
    # so rate 2 sits on the kernel's boundary: it decodes, and a hair more fails
    wide = np.array([[[1.0, 1.0], [0.0, 0.0]]], dtype=complex)    # rx=2: determinant branch
    for g in (gains, wide):
        assert single_user_outage(g[None], 3.0, 1.0, 2.0, 2).tolist() == [[False]]
        assert single_user_outage(g[None], 3.0, 1.0, 2.0 + 1e-9, 2).tolist() == [[True]]


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


def slogdet_count_range(info, tol, sizes, rate, deadline):
    """The capped counts that an I_S within ``tol`` of ``info`` allows, as (lowest, highest).

    S fails after ell rounds iff ell * I_S < |S| * rate * (1 - 1e-12), the
    kernel's tie rule; ``sizes`` broadcasts against ``info``.
    """
    bits = sizes * rate * (1.0 - 1e-12)
    ells = np.arange(1, deadline + 1)
    lo = 1 + np.sum(np.multiply.outer(ells, info + tol) < bits, axis=0)
    hi = 1 + np.sum(np.multiply.outer(ells, info - tol) < bits, axis=0)
    return lo, hi


def check_capped_rounds_against_slogdet(gains, snr_db, rate, deadline):
    """capped_rounds of (epochs, k, rx, tx) gains held to the slogdet oracle; returns the counts.

    Each count must lie in the range that an I_S within mi_tolerance of the
    oracle allows.  MI_RTOL * I_S settles almost every entry; the full
    tolerance is evaluated for the rest.  A subset with no information at a
    positive rate gets tolerance 0 below ROUNDING_LIMITED_DB, so it must
    never decode.
    """
    k, rx, tx = gains.shape[1:]
    snr = 10.0 ** (snr_db / 10.0)
    got = capped_rounds(gains, snr, rate, tx, deadline)
    info = stacked_mutual_information(gains, lattice(k), snr).T          # (subsets, epochs)
    assert got.shape == info.shape == (len(lattice(k)), len(gains))
    sizes = np.bitwise_count(np.array(lattice(k)))[:, None]
    lo, hi = slogdet_count_range(info, MI_RTOL * np.abs(info), sizes, rate, deadline)
    for s, e in np.argwhere((got < lo) | (got > hi)):
        members = members_of(lattice(k)[s], k)
        tol = mi_tolerance(gains[e], members, snr_db, info[s, e])
        lo_e, hi_e = slogdet_count_range(info[s, e], tol, len(members), rate, deadline)
        assert lo_e <= got[s, e] <= hi_e, f"K={k} {tx}x{rx} rate {rate} epoch {e} subset {members}"
    return got


@pytest.mark.parametrize("snr_db", [0.0, 20.0, 60.0])
def test_information_matches_oracle_on_mimo_battery(snr_db):
    # capped_rounds reads I_S through thresholds on det(I + (snr/M) G_S);
    # its counts agree with slogdet, rank-deficient epochs included
    rates = [scale * math.log2(1.0 + 10.0 ** (snr_db / 10.0)) for scale in (0.5, 2.0)] + [1.5]
    rng = np.random.default_rng(41)
    seen = set()
    for k in range(1, 5):
        for tx in range(1, 4):
            for rx in range(2, 5):
                gains = mimo_battery(k, tx, rx, rng)
                for rate in rates:
                    seen.update(check_capped_rounds_against_slogdet(gains, snr_db, rate, 8).ravel().tolist())
    assert len(seen) > 3


def stacked_mutual_information(gains, subsets, snr):
    """subset_mutual_information for every epoch and subset bitmask at once."""
    k, rx, tx = gains.shape[1:]
    masks = (np.array(subsets)[:, None] >> np.arange(k)) & 1
    grams = gains @ gains.conj().swapaxes(-1, -2)                  # (n, k, rx, rx)
    pooled = np.einsum("sk,nkij->nsij", masks, grams)
    _, logdet = np.linalg.slogdet(np.eye(rx) + (snr / tx) * pooled)
    return logdet / math.log(2.0)


def lattice(k):
    """Every nonempty subset of k users as bitmasks, in lattice order (bit i for user i)."""
    return range(1, 1 << k)


def members_of(subset, k):
    return [i for i in range(k) if subset >> i & 1]


def tile_epochs(subsets, rx):
    return max(1, _TILE_ENTRIES // (len(subsets) * rx * rx))


@pytest.mark.parametrize("k, tx, rx", [(4, 2, 4), (3, 2, 2)], ids=["K4-2x4", "K3-2x2"])
def test_information_across_tile_edges_matches_oracle(k, tx, rx):
    # capped_rounds at and around the edges of its tiles, against slogdet
    tile = tile_epochs(lattice(k), rx)
    rng = np.random.default_rng(47)
    seen = set()
    for n in (0, 1, tile - 1, tile, tile + 1, 3 * tile + 17):
        gains = _draw_gains(rng, (n, k, rx, tx))
        for r in (1.0, 2.5):
            rate = r * math.log2(101.0)                          # 20 dB
            seen.update(check_capped_rounds_against_slogdet(gains, 20.0, rate, 4).ravel().tolist())
    assert len(seen) > 2


def test_first_decodable_round_on_several_tiles_matches_oracle():
    cfg, snr, rate = AntennaConfig(users=4, tx=2, rx=4), 3.0, 2.5
    n = 2 * tile_epochs(lattice(cfg.users), cfg.rx) + 17
    gains = draw(cfg, np.random.default_rng(49), n=n)
    batch = batch_first_decodable_round(gains, snr, rate)
    assert len(set(batch.tolist())) > 1
    for i in range(n):
        assert batch[i] == first_round_by_predicate(gains[i], snr, rate), f"epoch {i}"


def test_information_memory_beyond_result_is_flat_in_epochs():
    # capped_rounds: an untiled kernel holds about four times as much at 4n
    # epochs as at n; given gains are tiled at one receive antenna too
    for n, shape, draw_block in ((20_000, (4, 4, 2), _draw_gains), (1 << 16, (2, 1, 2), _draw_gains),
                                 (1 << 16, (3, 1, 2), _draw_channel)):
        extra = []
        for epochs in (n, 4 * n):
            channel = draw_block(np.random.default_rng(53), (epochs, *shape))
            tracemalloc.start()
            try:
                rounds = capped_rounds(channel, 100.0, 2.0, shape[2], 4)
                extra.append(tracemalloc.get_traced_memory()[1] - rounds.nbytes)
            finally:
                tracemalloc.stop()
        assert extra[1] < 2 * extra[0], shape


@pytest.mark.parametrize("rx", [1, 2, 3])
def test_information_of_no_epochs_is_empty(rx):
    channel = _draw_channel(np.random.default_rng(0), (0, 3, rx, 2))
    assert channel.shape == ((3, 0) if rx == 1 else (0, 3, rx, 2))
    got = capped_rounds(channel, 10.0, 1.0, 2, 3)
    assert got.shape == (7, 0) and got.dtype == np.uint8
    gains = _draw_gains(np.random.default_rng(0), (0, 3, rx, 2))
    assert batch_first_decodable_round(gains, 10.0, 1.0).shape == (0,)

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
    assert not single_user_outage(h, 3.0, 1.0, 2.0, 1)[0, 0]     # boundary decodes
    assert single_user_outage(h, 3.0, 1.0, 2.1, 1)[0, 0]
    # matched combining over 3 slots triples the effective SNR
    assert not single_user_outage(h, 1.0, 3.0, 1.9, 1)[0, 0]
    assert single_user_outage(h, 1.0, 1.0, 1.9, 1)[0, 0]


def test_single_user_outage_matches_exponential_law():
    rng = np.random.default_rng(23)
    n = 10**6
    for rate, snr in [(1.0, 10.0), (2.0, 3.0)]:
        freq = float(np.mean(single_user_outage(_draw_channel(rng, (n, 1, 1, 1)), snr, 1.0, rate, 1)))
        exact = 1 - math.exp(-(2**rate - 1) / snr)
        assert abs(freq - exact) < 3 * math.sqrt(exact * (1 - exact) / n)


# ---------------------------------------------------------------------------
# first decodable round: the batched kernel and the outcome table against
# the oracle
# ---------------------------------------------------------------------------

def first_round_by_predicate(gains, snr, rate):
    """Smallest round count with no joint outage, by direct search.

    NEVER when some subset's rounds * I_S can never reach |S| * rate: no
    information at a positive rate (or I_S rounded below 0 at rate 0);
    otherwise every subset decodes after finitely many rounds, and the
    search runs until all do.
    """
    users = range(gains.shape[0])
    info = [subset_mutual_information(gains, subset, snr)
            for size in range(1, len(users) + 1) for subset in combinations(users, size)]
    if any(i <= 0.0 if rate > 0 else i < 0.0 for i in info):
        return NEVER
    rounds = 1
    while joint_outage(gains, users, snr, rate, rounds):
        rounds += 1
    return rounds


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


def test_first_decodable_round_maps_what_int64_cannot_hold_to_never():
    # a positive I_S from rx > 1 pivots can be tiny, so a finite demand can
    # pass 2^63.  One unit-power user at snr 1 has I_S = log2(2) = 1 bit
    # exactly, so its demand is the rate itself; a silent user demands inf.
    unit = np.ones((1, 1, 1, 1), dtype=complex)
    rates = [0.0, 0.5, 2.0, 2.5, 3e9, 2.0**62, 1.5 * 2.0**62, 2.0**64, 1e300, np.inf, np.nan]
    want = [1, 1, 2, 3, 3_000_000_000, math.ceil(2.0**62 * (1.0 - 1e-12)),
            math.ceil(1.5 * 2.0**62 * (1.0 - 1e-12)), NEVER, NEVER, NEVER, NEVER]
    got = [batch_first_decodable_round(unit, 1.0, rate) for rate in rates]
    assert all(g.dtype == np.int64 for g in got)
    assert [g.tolist() for g in got] == [[w] for w in want]
    assert batch_first_decodable_round(0.0 * unit, 1.0, 1.0).tolist() == [NEVER]


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
        needed = capped_by_demand(picked, snr, params.rate, cfg.tx, deadline).max(axis=0)
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
# the kernels against the log form
# ---------------------------------------------------------------------------
# The helpers below give I_S as (subsets, epochs) rows in one untiled
# batch: of power rows, log2(1 + c * P_S) with each subset's powers added
# one by one in index order, the sums capped_rounds compares; of rx > 1
# gains, the stacked slogdets above.  capped_rounds must decide as the
# capped ceil of the worst demand |S| * rate / I_S they give, bit for bit
# (on gains, where no demand lies within rounding of a round boundary).

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


def scalar_battery(k, tx, n, seed):
    """Rayleigh epochs plus a silent user and a one-user-only block."""
    gains = _draw_gains(np.random.default_rng(seed), (n, k, 1, tx))
    gains[: n // 8, 0] = 0.0
    gains[n // 8 : n // 4, 1:] = 0.0
    return gains


SNRS = (0.1, 3.0, 100.0, 1e6)


def kernel_values(channel, coef):
    """What capped_rounds compares with its thresholds, as (lattice subsets, epochs), in one tile.

    The lattice's power sums of power rows, or the :func:`_det` of gains'
    Gram rows scaled by ``coef`` and pooled over the lattice.
    """
    if channel.ndim == 2:
        return np.array(_pool(channel))
    rows = coef * _gram_entries(channel)
    return _det(_pool(rows, np.empty(((1 << len(rows)) - 1, *rows.shape[1:]))), channel.shape[2])


def member_by_member_information(power, coef, subsets):
    """log2(1 + coef * power of S) with the members of S added one by one in index order."""
    return np.log2(1.0 + np.array(member_sums(list(coef * power), subsets)))


def capped_from_information(info, subsets, rate, deadline):
    """min(ceil of |S| * rate / I_S, deadline + 1), at least 1, per row of (subsets, epochs) I_S.

    The log form of capped_rounds: a subset with I_S <= 0 demands inf at a
    positive rate, every subset demands 0 at rate <= 0, and the demand is
    shaved by 1 - 1e-12 before the ceil, so a boundary tie decodes.
    """
    bits = np.bitwise_count(np.array(subsets))[:, None] * max(rate, 0.0)
    silent = ~(info > 0.0)
    demand = np.where(silent, np.inf if rate > 0 else 0.0, bits / np.where(silent, 1.0, info))
    return np.clip(np.ceil(demand * (1.0 - 1e-12)), 1, deadline + 1)


def subset_information(channel, snr, tx, subsets):
    """I_S of a block of channels as (subsets, epochs) rows: power rows member by member, gains by slogdet."""
    if channel.ndim == 2:
        return member_by_member_information(channel, snr / tx, subsets)
    return stacked_mutual_information(channel, subsets, snr).T


def capped_by_demand(channel, snr, rate, tx, deadline):
    """Each lattice subset's capped round count by the log form, as (subsets, epochs)."""
    subsets = lattice(_shape(channel)[1])
    return capped_from_information(subset_information(channel, snr, tx, subsets), subsets, rate, deadline)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_scalar_information_is_bitwise_the_epochs_first_kernel(k):
    # the power rows of given gains, silent and lone users among them, over
    # one to three transmit antennas and SNRs from -10 to 60 dB, against
    # their I_S summed member by member
    for tx in (1, 2, 3):
        power = power_rows(scalar_battery(k, tx, 4000, seed=100 + 10 * k + tx))
        for snr in SNRS:
            info = member_by_member_information(power, snr / tx, lattice(k))
            for r in (0.4, 0.9):
                rate = r * math.log2(1.0 + snr)
                got = capped_rounds(power, snr, rate, tx, 4)
                assert got.shape == (len(lattice(k)), power.shape[1])
                assert np.array_equal(got, capped_from_information(info, lattice(k), rate, 4)), (tx, snr, r)


@pytest.mark.parametrize("k", range(2, 9))
def test_scalar_subset_sums_are_bitwise_member_by_member(k):
    # the lattice's pooled rows, of power rows and of rx > 1 Gram rows, in
    # the pooled and the in-place form, are the member-by-member sums
    rng, gains_rng = np.random.default_rng(160 + k), np.random.default_rng([160 + k, 2])
    for n in (1, 64, 4097):
        power = _draw_channel(rng, (n, k, 1, 2))
        sums = np.array(member_sums(list(power), lattice(k)))
        assert kernel_values(power, 3.0).tobytes() == sums.tobytes()
        for rate in (2.0, 4.0):
            got = capped_rounds(power, 6.0, rate, 2, 4)
            assert np.array_equal(got, capped_by_demand(power, 6.0, rate, 2, 4)), (n, rate)
        rows = _gram_entries(_draw_gains(gains_rng, (n, k, 2, 2)))
        sums = np.array(member_sums(list(rows), lattice(k)))
        assert np.array(_pool(rows)).tobytes() == sums.tobytes()
        assert _pool(rows, np.empty_like(sums)).tobytes() == sums.tobytes()


@pytest.mark.parametrize("k", [4, 5, 8])
def test_scalar_information_beyond_three_users(k):
    # the pooled power sums are held to exactly rounded sums: a running sum
    # of |S| nonnegative terms is within gamma_{|S|-1} of the exact sum
    # (u = 2^-53), and fsum's rounding of it adds half an ulp; the counts
    # must match the log form of the same sums, and the round counts of the
    # gains the slogdet oracle, bitwise
    gains = scalar_battery(k, 2, 400, seed=200 + k)
    power = power_rows(gains)
    sums = kernel_values(power, 1.0)
    for s, subset in enumerate(lattice(k)):
        members = members_of(subset, k)
        exact = np.array([math.fsum(p) for p in power[members].T])
        gamma = (len(members) - 1) * 2.0**-53 / (1.0 - (len(members) - 1) * 2.0**-53)
        assert np.all(np.abs(sums[s] - exact) <= gamma * exact + 0.5 * np.spacing(exact))
    for snr in SNRS:
        for rate in (0.3, 1.0, 2.5):
            rate *= math.log2(1.0 + snr)
            got = capped_rounds(power, snr, rate, 2, 4)
            assert np.array_equal(got, capped_by_demand(power, snr, rate, 2, 4))
            assert np.array_equal(batch_first_decodable_round(gains, snr, rate),
                                  first_round_by_slogdet(gains, snr, rate))


@pytest.mark.parametrize("rx", [1, 2])
def test_single_user_info_is_bitwise_the_identity_mask_kernel(rx):
    # the single-user decisions of capped_rounds, as the protocols make them
    gains = _draw_gains(np.random.default_rng(400 + rx), (3000, 3, rx, 2))
    channel = power_rows(gains) if rx == 1 else gains
    shares = []
    for gain in (1.0, 3.0):
        info = single_user_info(channel, 7.0, gain, 2)
        for rate in (2.0, 6.0):
            got = single_user_outage(channel, 7.0, gain, rate, 2)
            assert got.shape == (3, 3000)
            assert np.array_equal(got, capped_from_information(info, [1, 2, 4], rate, 1) > 1)
            shares.append(got.mean())
    assert 0.0 < max(shares) and min(shares) < 1.0


@pytest.mark.parametrize("k, tx, rx", [(3, 2, 2), (4, 2, 4), (5, 1, 2)], ids=["K3-2x2", "K4-2x4", "K5-1x2"])
def test_information_bits_do_not_depend_on_batch_or_tile_size(k, tx, rx, monkeypatch):
    # counts spread over many rounds, so a det that moved would show in some
    gains = _draw_gains(np.random.default_rng(600 + k), (10_000, k, rx, tx))
    gains[:50, 0] = 0.0

    def counts(g):
        return (capped_rounds(g, 50.0 * tx, 60.0, tx, 16).tobytes(),
                batch_first_decodable_round(g, 50.0 * tx, 60.0).tobytes())

    full = capped_rounds(gains, 50.0 * tx, 60.0, tx, 16)
    assert len(np.unique(full)) > 8
    whole = counts(gains)
    tail = counts(gains[1:])
    assert tail[0] == full[:, 1:].tobytes()
    assert tail[1] == batch_first_decodable_round(gains, 50.0 * tx, 60.0)[1:].tobytes()
    for entries in (1 << 12, 1 << 20):
        monkeypatch.setattr("raclab.channel._TILE_ENTRIES", entries)
        assert counts(gains) == whole, entries
    # a tile is a slice of epochs, and the det of a slice is the slice of the det
    det = kernel_values(gains, 50.0)
    for a, b in ((1, 10_000), (17, 4113), (5000, 5001)):
        assert kernel_values(gains[a:b], 50.0).tobytes() == det[:, a:b].tobytes()


# ---------------------------------------------------------------------------
# rx > 1 keeps the gains stream; batch_first_decodable_round keeps its oracles
# ---------------------------------------------------------------------------

MIMO_SHAPES = [AntennaConfig(users=3, tx=2, rx=2), AntennaConfig(users=4, tx=2, rx=4),
               AntennaConfig(users=2, tx=1, rx=3)]


@pytest.mark.parametrize("protocol, params", [
    ("irarq", ProtocolParams(p_t=1.0, rate=1.2, deadline=2)),
    ("ondma", ProtocolParams(p_t=1.0, rate=1.2)),
    ("gta", ProtocolParams(p_t=1.0, rate=1.2)),
], ids=["irarq", "ondma", "gta"])
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
    elif protocol == "ondma":
        out = single_user_info(gains, 2.0, 1.0, cfg.tx) < params.rate
        assert np.array_equal(errors, masks & (out.T @ (1 << np.arange(cfg.users)))[:, None])


@pytest.mark.parametrize("protocol", ["irarq", "ondma"])
@pytest.mark.parametrize("rx", [1, 2])
def test_a_block_is_drawn_whole_where_nothing_is_compared(protocol, rx):
    # at rate 0 no threshold is compared, yet every tile of the block is
    # drawn, so what the generator gives next does not depend on the rate
    cfg = AntennaConfig(users=3, tx=2, rx=rx)
    masks = np.full((20_000, 1), 7)
    states = []
    for rate in (0.0, 1.0):
        rng = np.random.default_rng(3)
        epoch_outcomes(protocol, cfg, ProtocolParams(p_t=1.0, rate=rate, deadline=2), 10.0, masks, rng)
        states.append(rng.bit_generator.state)
    assert states[0] == states[1]


@pytest.mark.parametrize("cfg, rate", [(AntennaConfig(users=3, tx=2, rx=2), 1.2),
                                       (AntennaConfig(users=4, tx=2, rx=4), 2.0)],
                         ids=["K3-2x2", "K4-2x4"])
def test_mimo_beta_chunk_reads_the_gains_stream(cfg, rate):
    # chunk i of a K-user table draws the gains _draw_gains makes from
    # default_rng([seed, _TAG_BETA + K, i]), and row k reads its first k users
    trials, chunk, snr_db, deadline, seed = 3000, 2048, 0.0, 3, 17
    table = estimate_beta(cfg, snr_db, rate, deadline, trials, seed=seed, chunk=chunk)
    # at 0 dB every row survives its first round in some trials, not in all
    assert np.all((table.values[:, 1] > 0.05) & (table.values[:, 1] < 0.95))
    counts = np.zeros((cfg.users, deadline), dtype=np.int64)
    for i, n in enumerate((chunk, trials - chunk)):
        rng = np.random.default_rng([seed, _TAG_BETA + cfg.users, i])
        gains = _draw_gains(rng, (n, cfg.users, cfg.rx, cfg.tx))
        for k in range(1, cfg.users + 1):
            needed = batch_first_decodable_round(gains[:, :k], 10.0 ** (snr_db / 10.0), rate)
            counts[k - 1] += [(needed > ell).sum() for ell in range(1, deadline + 1)]
    assert table.values[:, 1:].tobytes() == (counts / trials).tobytes()


@pytest.mark.parametrize("cfg", MIMO_SHAPES[:2], ids=["K3-2x2", "K4-2x4"])
def test_mimo_estimates_do_not_depend_on_tile_size_or_workers(cfg, monkeypatch):
    # the tiles cut one gains stream, so neither their size nor the threads
    # that run the chunks move a bit of a beta table or an error estimate
    params = ProtocolParams(p_t=0.7, rate=1.5, deadline=3)

    def run(workers):
        table = estimate_beta(cfg, 5.0, 1.5, 3, 5000, seed=19, chunk=2048, workers=workers)
        errors = [system_error_probability(protocol, cfg, params, 5.0, 20_000, seed=19, workers=workers)
                  for protocol in ("irarq", "ondma")]
        return [table.values.tobytes(), table.length_cov.tobytes(),
                *((e.value, e.per_user.tobytes()) for e in errors)]

    want = run(1)
    assert run(2) == want
    for entries in (1 << 13, 1 << 20):
        monkeypatch.setattr("raclab.channel._TILE_ENTRIES", entries)
        assert run(1) == want, entries


def first_round_by_slogdet(gains, snr, rate):
    """Ceil of the worst subset demand from stacked slogdets, with the kernel's 1e-12 shave.

    At rate <= 0 every subset demands nothing: one round.
    """
    if rate <= 0:
        return np.ones(len(gains), dtype=np.int64)
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
            assert got.dtype == np.int64 and np.array_equal(got, first_round_by_slogdet(gains, snr, rate))
            seen.update(got.tolist())
    assert NEVER in seen and len(seen) > 3


@pytest.mark.parametrize("k, tx, rx", [(1, 1, 1), (2, 1, 1), (3, 2, 1), (3, 2, 2), (4, 2, 4)],
                         ids=["K1", "K2", "K3-2x1", "K3-2x2", "K4-2x4"])
def test_first_decodable_round_is_bitwise_the_epochs_first_kernel(k, tx, rx):
    # three kernel tiles (the last one short) at rx > 1, 3000 epochs at
    # rx = 1, against the worst demand of the I_S of the whole batch,
    # computed epochs first by stacked slogdets
    n = 2 * tile_epochs(lattice(k), rx) + 5 if rx > 1 else 3000
    gains = _draw_gains(np.random.default_rng(300 + k), (n, k, rx, tx))
    gains[:20, 0] = 0.0                                       # some subsets with no information
    seen = set()
    for snr in (1.0, 100.0):
        for rate in (0.0, 0.5, 2.0, 6.0):
            got = batch_first_decodable_round(gains, snr, rate)
            assert got.dtype == np.int64
            assert np.array_equal(got, first_round_by_slogdet(gains, snr, rate))
            seen.update(got.tolist())
    assert NEVER in seen and len(seen) > 3                     # several round counts and NEVER
    empty = gains[:0]
    assert batch_first_decodable_round(empty, 100.0, 2.0).shape == (0,)
    assert batch_first_decodable_round(empty, 100.0, 0.0).shape == (0,)


# ---------------------------------------------------------------------------
# capped round counts: the threshold decision against the log form
# ---------------------------------------------------------------------------
# capped_by_demand, the log form from member-by-member power sums or stacked
# slogdets, is what capped_rounds replaced in the estimators and the protocols.

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
        info = subset_information(channel, snr, tx, lattice(k))
        for r in (0.4, 0.9):
            rate = r * math.log2(1.0 + snr)
            for deadline in range(1, 5):
                got = capped_rounds(channel, snr, rate, tx, deadline)
                assert got.dtype == np.uint8 and got.shape == (len(lattice(k)), n)
                want = capped_from_information(info, lattice(k), rate, deadline)
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
    assert capped_rounds(rank_one, 1.0, 0.0, 1, 3).tolist() == [[1]]
    assert batch_first_decodable_round(rank_one, 1.0, 0.0).tolist() == [1]
    rng = np.random.default_rng(710)
    for k, tx, rx in [(2, 1, 1), (3, 2, 1), (2, 1, 2), (3, 2, 2), (4, 2, 4), (2, 1, 3)]:
        gains = mimo_battery(k, tx, rx, rng)
        channel = power_rows(gains) if rx == 1 else gains
        for snr in (1.0, 1e6):
            assert np.all(capped_rounds(channel, snr, 0.0, tx, 3) == 1)
            assert np.all(batch_first_decodable_round(gains, snr, 0.0) == 1)


@pytest.mark.parametrize("rx", [1, 2, 4])
def test_zero_gains_never_decode_at_a_positive_rate(rx):
    # down to rates whose threshold 2^(|S| R / ell) rounds to 1, and at an
    # SNR whose power threshold underflows
    channel = _draw_channel(np.random.default_rng(0), (5, 3, rx, 2)) * 0.0
    for snr in (1.0, 1e6, 1e300):
        for rate in (1e-300, 1e-20, 1.0, 30.0):
            got = capped_rounds(channel, snr, rate, 2, 4)
            assert np.all(got == 5), (snr, rate)
            assert np.array_equal(got, capped_by_demand(channel, snr, rate, 2, 4))


@pytest.mark.parametrize("k, tx, rx", [(2, 1, 1), (3, 2, 1), (3, 2, 2), (4, 2, 4)])
def test_a_rate_beyond_the_float_range_survives_every_round(k, tx, rx):
    # 2^(|S| R / ell) overflows for some or all (|S|, ell): such a threshold
    # is inf, not an OverflowError, and the counts are those of the log form
    channel = _draw_channel(np.random.default_rng(720 + k), (300, k, rx, tx))
    for rate in (1100.0, 3000.0, 1e300):
        got = capped_rounds(channel, 100.0, rate, tx, 4)
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
        got = capped_rounds(channel, 1.0, 2.0, 1, deadline)
        assert got.dtype == dtype
        assert np.array_equal(got, capped_by_demand(channel, 1.0, 2.0, 1, deadline))
        assert got.max() == deadline + 1


def test_subsets_beyond_one_kernel_tile_fail_before_anything_is_built():
    # one epoch's subsets times rx^2 entries must fit a tile: at most 17
    # users with one receive antenna and 13 with four
    assert _TILE_ENTRIES == 1 << 17
    for users, rx in ((17, 1), (13, 4)):
        _check_tile((1 << users) - 1, rx)
        with pytest.raises(ValueError, match="kernel tile"):
            _check_tile((1 << (users + 1)) - 1, rx)
    # 40 users' 2^40 - 1 subsets: a kernel that built them first would not return
    power = np.ones((40, 3))
    with pytest.raises(ValueError, match="kernel tile"):
        capped_rounds(power, 10.0, 1.0, 1, 2)
    gains = np.zeros((3, 14, 4, 1), dtype=complex)
    with pytest.raises(ValueError, match="kernel tile"):
        capped_rounds(gains, 10.0, 1.0, 1, 2)
    # the estimators reach the joint decoder at 2^K - 1 subsets; estimate_beta
    # reads every row off one K-user call, checked before any chunk draws
    params = ProtocolParams(p_t=1.0, rate=1.0, deadline=2)
    for users in (18, 40):
        big = AntennaConfig(users=users)
        with pytest.raises(ValueError, match="kernel tile"):
            estimate_beta(big, 10.0, 1.0, 2, 100, seed=1)
        with pytest.raises(ValueError, match="kernel tile"):
            system_error_probability("irarq", big, params, 10.0, 100, seed=1)
        with pytest.raises(ValueError, match="kernel tile"):
            fully_loaded_throughput("irarq", big, params, 10.0, 100, seed=1)
    with pytest.raises(ValueError, match="kernel tile"):
        estimate_beta(AntennaConfig(users=14, tx=1, rx=4), 10.0, 1.0, 2, 100, seed=1)


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


# ---------------------------------------------------------------------------
# the trace screen: rx > 1 counts are those of a det of every pair
# ---------------------------------------------------------------------------
# det(I + A) >= 1 + tr A for PSD A, so with rx >= 3 the kernels skip the
# det of a (subset, epoch) pair whose trace clears its round-1 threshold by
# the relative margin _TRACE_MARGIN.  The reference below runs _det on every
# pair of the lattice (kernel_values) and compares with the thresholds one
# round at a time, as the kernel did before the screen.

def capped_by_det(gains, snr, rate, deadline):
    """capped_rounds of (epochs, k, rx, tx) gains from a det of every lattice pair, as (subsets, epochs)."""
    k, rx, tx = gains.shape[1:]
    det = kernel_values(gains, snr / tx)
    counts = np.ones(det.shape, dtype=np.int64)
    for s, (count, value) in enumerate(zip(counts, det), 1):
        for bound in _thresholds(s.bit_count(), snr, rate, tx, rx, deadline):
            count += value < bound
    return counts


def mask_max(counts, k):
    """(2^k, epochs): row m is the most rounds of a nonempty subset of mask m, row 0 is 0."""
    worst = np.zeros((1 << k, counts.shape[1]), dtype=np.int64)
    for m in range(1, 1 << k):
        worst[m] = np.max([counts[s - 1] for s in range(1, m + 1) if s & m == s], axis=0)
    return worst


def det_spy(monkeypatch):
    """Record (leading rows, epochs) of every _det call the kernels make; the reference's are not seen."""
    calls = []
    real = _det

    def spy(a, rx):
        calls.append((a.shape[0], a.shape[2]))
        return real(a, rx)

    monkeypatch.setattr("raclab.channel._det", spy)
    return calls


@pytest.mark.parametrize("rx", [2, 3, 4])
def test_screened_counts_are_bitwise_a_det_of_every_pair(rx, monkeypatch):
    # K = 1..5, tx = 1..3, 0-60 dB, L = 1, 2, 8, rank-deficient epochs among
    # Rayleigh ones, at the default tile and at tiles of a few epochs
    calls = det_spy(monkeypatch)
    pairs = 0
    rng = np.random.default_rng(800 + rx)
    for k in range(1, 6):
        for tx in range(1, 4):
            gains = np.concatenate([mimo_battery(k, tx, rx, rng), _draw_gains(rng, (150, k, rx, tx)),
                                    mimo_battery(k, tx, rx, rng)])
            for snr_db in (0.0, 20.0, 40.0, 60.0):
                snr = 10.0 ** (snr_db / 10.0)
                for r in (0.3, 0.9, 2.0):
                    rate = r * math.log2(1.0 + snr)
                    for deadline in (1, 2, 8):
                        want = capped_by_det(gains, snr, rate, deadline)
                        for entries in (_TILE_ENTRIES, 1 << 11):
                            monkeypatch.setattr("raclab.channel._TILE_ENTRIES", entries)
                            got = capped_rounds(gains, snr, rate, tx, deadline)
                            assert np.array_equal(got, want), (k, tx, snr_db, r, deadline, entries)
                            pairs += got.size
                        monkeypatch.setattr("raclab.channel._TILE_ENTRIES", _TILE_ENTRIES)
    # rx >= 3 gathers the open pairs into one row, so fewer pairs reached
    # the det than were counted; rx = 2 computes every det of a tile, a det
    # of several subset rows
    assert (sum(rows * epochs for rows, epochs in calls) < pairs) == (rx > 2)
    assert all(rows == 1 for rows, _ in calls) == (rx > 2)


@pytest.mark.parametrize("k, tx, rx", [(1, 2, 2), (3, 2, 2), (2, 1, 3), (4, 2, 4), (5, 3, 4)])
def test_drawn_decisions_are_bitwise_a_det_of_every_pair(k, tx, rx):
    # _mask_rounds (the subset maximum) and _fails_alone draw several tiles
    # of gains; a twin generator gives the same gains to the reference
    n = 2 * tile_epochs(lattice(k), rx) + 37
    for snr_db in (0.0, 20.0, 40.0, 60.0):
        snr = 10.0 ** (snr_db / 10.0)
        for r in (0.45, 1.5):
            rate = r * math.log2(1.0 + snr)
            seed = [k, tx, rx, int(snr_db), int(10 * r)]
            gains = _draw_gains(np.random.default_rng(seed), (n, k, rx, tx))
            for deadline in (1, 2, 8):
                got = _mask_rounds(np.random.default_rng(seed), (n, k, rx, tx), snr, rate, deadline)
                assert np.array_equal(got, mask_max(capped_by_det(gains, snr, rate, deadline), k))
            lost = _fails_alone(np.random.default_rng(seed), (n, k, rx, tx), snr, rate)
            det = _det((snr / tx) * _gram_entries(gains), rx)             # each user as its own subset
            assert np.array_equal(lost, det < _thresholds(1, snr, rate, tx, rx, 1)[0])


def test_a_pair_on_the_trace_bound_reaches_the_det(monkeypatch):
    # tx = 1 singletons are rank one, so det(I + A) = 1 + tr A.  At snr 3 and
    # rate 2 a unit column has det 4, exactly the boundary (it decodes by
    # the tie rule), and a column whose det sits half a margin below the
    # round-1 threshold fails round 1: neither may be certified by the
    # trace.  One a margin above it, and 60 strong columns, are certified.
    threshold = _thresholds(1, 3.0, 2.0, 1, 3, 1)[0]
    powers = [1.0, (threshold * (1.0 - _TRACE_MARGIN / 2) - 1.0) / 3.0,
              (threshold * (1.0 + 2 * _TRACE_MARGIN) - 1.0) / 3.0] + [4.0] * 60
    gains = np.zeros((len(powers), 1, 3, 1), dtype=complex)
    gains[:, 0, 0, 0] = np.sqrt(powers)
    calls = det_spy(monkeypatch)
    got = capped_rounds(gains, 3.0, 2.0, 1, 2)
    assert calls == [(1, 2)]                         # the tie and the near miss, gathered
    assert got[0].tolist() == [1, 2] + [1] * 61
    assert np.array_equal(got, capped_by_det(gains, 3.0, 2.0, 2))


def test_rank_one_decisions_at_100_db(monkeypatch):
    # Beyond the checked 60 dB the det's rounding passes the margin.  A
    # tx = 1 column at rx = 4 is rank one, det(I + A) = 1 + tr A exactly,
    # at 100 dB and rate 1.2 log2(1 + snr).  1e-7 above the round-1
    # threshold it is inside the margin: it reaches the det, which rounds
    # about 8e-5 below the threshold, so it fails round 1 as a det of every
    # pair says.  2e-6 above it is certified and decodes in round 1, its
    # exact decision, where the det (about 1e-5 below) would fail it.
    snr = 1e10
    rate = 1.2 * math.log2(1.0 + snr)
    threshold = _thresholds(1, snr, rate, 1, 4, 1)[0]
    column = np.array([1.0, 1.0 + 1.0j, 2.0, 3.0]) / math.sqrt(16.0)
    gains = np.zeros((2, 1, 4, 1), dtype=complex)
    for epoch, above in enumerate((1e-7, 2e-6)):
        gains[epoch, 0, :, 0] = column * math.sqrt((threshold * (1.0 + above) - 1.0) / snr)
    calls = det_spy(monkeypatch)
    got = capped_rounds(gains, snr, rate, 1, 2)
    assert calls == [(1, 1)]                          # only the pair inside the margin
    assert got[0].tolist() == [2, 1]
    assert capped_by_det(gains, snr, rate, 2)[0].tolist() == [2, 2]


def test_trace_screen_leaves_few_pairs_to_the_det(monkeypatch):
    # the benchmark's K = 4, 2x4 table at 20 dB, r = 0.45, L = 2: the bound
    # certifies about 93% of the (subset, epoch) pairs.  The pairs that reach
    # the det are exactly those whose 1 + (snr/M) tr G_S, from the gains,
    # stays below the round-1 threshold times 1 + _TRACE_MARGIN
    k, tx, rx, n = 4, 2, 4, 20_000
    snr, rate = 100.0, 0.45 * math.log2(101.0)
    gains = _draw_gains(np.random.default_rng(59), (n, k, rx, tx))
    calls = det_spy(monkeypatch)
    got = capped_rounds(gains, snr, rate, tx, 2)
    reached = sum(rows * epochs for rows, epochs in calls)
    assert reached <= 0.15 * len(lattice(k)) * n
    masks = (np.array(lattice(k))[:, None] >> np.arange(k)) & 1                # (subsets, k)
    trace = snr / tx * (masks @ np.sum(np.abs(gains) ** 2, axis=(2, 3)).T)     # (subsets, n)
    first = np.array([_thresholds(s.bit_count(), snr, rate, tx, rx, 1)[0] for s in lattice(k)])[:, None]
    bound = first * (1.0 + _TRACE_MARGIN)
    assert not np.any(np.isclose(1.0 + trace, bound, rtol=1e-12, atol=0.0))
    assert reached == np.count_nonzero(1.0 + trace < bound)
    assert np.array_equal(got, capped_by_det(gains, snr, rate, 2))
