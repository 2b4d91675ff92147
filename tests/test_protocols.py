"""Epoch outcomes: scripted trees, unit-gain decisions, recursion consistency."""

import math

import numpy as np
import pytest

from raclab import (
    AntennaConfig,
    ProtocolParams,
    epoch_law,
    estimate_beta,
    gta_recursion,
    simulate_random_arrivals,
)
from raclab.montecarlo import gta_collision_stats, system_error_probability
from raclab.protocols import (
    _bits,
    _gta_tree_batch,
    _split,
    _split_masks,
    _subset_max,
    _tree_members,
    epoch_outcomes,
)
from raclab.queueing import MAX_TABLE_USERS

SCALAR2 = AntennaConfig(users=2, tx=1, rx=1)
BOTH = 0b11


class UnitGainRng:
    """Draws every channel as a unit-power one: each single-antenna user's power is 1."""

    def standard_exponential(self, size):
        return np.ones(size)


class ScriptedTreeRng:
    """Feeds pre-arranged left-group sizes to the vectorised splitting tree.

    Each split word carries its left-group size as that many low bits set.
    """

    def __init__(self, lefts):
        self.lefts = [np.asarray(x, dtype=np.int64) for x in lefts]

    def integers(self, low, high, size, dtype):
        left = self.lefts.pop(0)
        assert (low, high, dtype) == (0, 1 << 64, np.uint64) and size == (left.size, 1)
        return ((np.uint64(1) << left.astype(np.uint64)) - np.uint64(1))[:, None]


def tables(protocol, params, snr=3.0, config=SCALAR2, n=1, rng=None):
    """Outcomes of n epochs at every participant set, indexed [epoch, mask]."""
    rng = rng if rng is not None else UnitGainRng()
    all_sets = np.broadcast_to(np.arange(1 << config.users), (n, 1 << config.users))
    return epoch_outcomes(protocol, config, params, snr, all_sets, rng)


def popcount(x):
    return np.vectorize(lambda v: int(v).bit_count())(x)


# ---------------------------------------------------------------------------
# deadline ARQ
# ---------------------------------------------------------------------------

def test_irarq_idle_epoch():
    lengths, delivered, errors = tables("irarq", ProtocolParams(p_t=1.0, rate=1.0, deadline=2))
    assert lengths[0, 0] == 1 and delivered[0, 0] == 0 and errors[0, 0] == 0


def test_irarq_decodes_first_round():
    lengths, delivered, errors = tables("irarq", ProtocolParams(p_t=1.0, rate=1.3, deadline=2))
    assert lengths[0, BOTH] == 1
    assert delivered[0, BOTH] == BOTH and errors[0, BOTH] == 0
    # a zero rate decodes in one round whatever the channel
    lengths, _, errors = tables("irarq", ProtocolParams(p_t=1.0, rate=0.0, deadline=2), n=50,
                                rng=np.random.default_rng(4))
    assert np.all(lengths == 1) and np.all(errors == 0)


def test_irarq_second_round_rescues_sum_constraint():
    # round 1: log2(7) = 2.807 < 2*1.6; round 2: 5.614 >= 3.2 decodes
    lengths, _, errors = tables("irarq", ProtocolParams(p_t=1.0, rate=1.6, deadline=2))
    assert lengths[0, BOTH] == 2 and errors[0, BOTH] == 0
    # each user alone decodes at once: log2(4) = 2 >= 1.6
    assert lengths[0, 0b01] == 1 and lengths[0, 0b10] == 1


def test_irarq_deadline_failure_still_drains():
    # rate 3: round 2 accumulates 2*log2(7) = 5.61 < 2*3, still in outage
    lengths, delivered, errors = tables("irarq", ProtocolParams(p_t=1.0, rate=3.0, deadline=2))
    assert lengths[0, BOTH] == 2
    assert errors[0, BOTH] == BOTH
    assert delivered[0, BOTH] == BOTH


def test_irarq_length_capped_by_deadline():
    params = ProtocolParams(p_t=1.0, multiplexing_gain=0.45, deadline=3)
    lengths, _, _ = tables("irarq", params, snr=2.0, n=200, rng=np.random.default_rng(1))
    assert lengths.min() >= 1 and lengths.max() <= 3
    assert lengths[:, BOTH].max() == 3   # the cap is reached


def test_irarq_asymptotic_mode():
    params = ProtocolParams(p_t=1.0, multiplexing_gain=0.45, deadline=2)
    lengths, _, errors = tables("irarq", params, snr=None)
    assert lengths[0, BOTH] == 1 and errors[0, BOTH] == 0
    hot = ProtocolParams(p_t=1.0, multiplexing_gain=0.7, deadline=2)
    lengths, _, errors = tables("irarq", hot, snr=None)
    assert lengths[0, BOTH] == 2 and errors[0, BOTH] == 0   # 2 rounds at r=0.7
    assert lengths[0, 0b01] == 1
    with pytest.raises(ValueError):
        tables("irarq", ProtocolParams(p_t=1.0, rate=1.0, deadline=2), snr=None)
    with pytest.raises(ValueError):
        tables("irarq", ProtocolParams(p_t=1.0, rate=1.0))


# ---------------------------------------------------------------------------
# orthogonal repetition
# ---------------------------------------------------------------------------

def test_ondma_lengths():
    lengths, delivered, _ = tables("ondma", ProtocolParams(p_t=1.0, rate=2.0),
                                   config=AntennaConfig(users=3))
    assert lengths[0].tolist() == [1, 1, 1, 2, 1, 2, 2, 3]
    assert delivered[0].tolist() == list(range(8))


def test_ondma_single_user_decode():
    _, delivered, errors = tables("ondma", ProtocolParams(p_t=1.0, rate=2.0))
    assert errors[0, 0b01] == 0
    _, delivered, errors = tables("ondma", ProtocolParams(p_t=1.0, rate=2.1))
    assert errors[0, 0b01] == 0b01 and delivered[0, 0b01] == 0b01


def test_ondma_matched_combining_helps():
    # log2(1 + 3) = 2 < 2.5 but log2(1 + 2*3) = 2.807 >= 2.5
    _, _, errors = tables("ondma", ProtocolParams(p_t=1.0, rate=2.5))
    assert errors[0, BOTH] == BOTH
    matched = ProtocolParams(p_t=1.0, rate=2.5, matched_combining=True)
    _, _, errors = tables("ondma", matched)
    assert errors[0, BOTH] == 0
    assert errors[0, 0b10] == 0b10   # a lone user combines one slot only


# ---------------------------------------------------------------------------
# splitting tree
# ---------------------------------------------------------------------------

GOOD = ProtocolParams(p_t=1.0, rate=1.0)  # unit gains at snr 3 decode rate 1


def test_gta_scripted_split_both_clean():
    # one user goes left, the other right: collision, clean, clean
    lengths, delivered, pruned = _gta_tree_batch(np.array([2]), ScriptedTreeRng([[1]]))
    assert (lengths[0], delivered[0], pruned[0]) == (3, 2, 0)


def test_gta_scripted_empty_left_then_resolve():
    # both users go right (empty left), then split cleanly
    lengths, delivered, pruned = _gta_tree_batch(np.array([2]), ScriptedTreeRng([[0], [1]]))
    assert (lengths[0], delivered[0], pruned[0]) == (4, 2, 0)


def test_gta_scripted_prune():
    # two users go left together, one right: right is pruned after the
    # second collision, then the left pair resolves in two clean slots
    lengths, delivered, pruned = _gta_tree_batch(np.array([3]), ScriptedTreeRng([[2], [1]]))
    assert (lengths[0], delivered[0], pruned[0]) == (4, 2, 1)


def popcount_splits(size, words, rng):
    """Left-group sizes: the count of set bits among the first ``size`` bits of ``words`` uniform words."""
    draw = rng.integers(0, 1 << 64, size=(len(size), words), dtype=np.uint64)
    bits = np.unpackbits(draw.astype("<u8").view(np.uint8), axis=1, bitorder="little")
    return np.sum(bits * (np.arange(64 * words) < size[:, None]), axis=1, dtype=np.int64)


def tree_by_masks(k_init, rng):
    """Oracle: the splitting tree with boolean masks over all epochs at every step."""
    n = k_init.shape[0]
    lengths = np.ones(n, dtype=np.int64)
    delivered = np.zeros(n, dtype=np.int64)
    pruned = np.zeros(n, dtype=np.int64)
    delivered[k_init == 1] = 1
    group = k_init.copy()
    active = k_init >= 2
    words = -(-int(k_init.max(initial=1)) // 64)
    while active.any():
        idx = np.flatnonzero(active)
        size = group[idx]
        left = popcount_splits(size, words, rng)
        empty = left == 0
        lengths[idx[empty]] += 1
        single = left == 1
        rest = size - 1
        done = single & (rest == 1)
        lengths[idx[done]] += 2
        delivered[idx[done]] += 2
        active[idx[done]] = False
        cont = single & (rest >= 2)
        lengths[idx[cont]] += 2
        delivered[idx[cont]] += 1
        group[idx[cont]] = rest[cont]
        big = left >= 2
        pruned[idx[big]] += (size - left)[big]
        lengths[idx[big]] += 1
        group[idx[big]] = left[big]
    return lengths, delivered, pruned


@pytest.mark.parametrize("k_max", [2, 3, 4, 8, 64, 65, 130])
def test_gta_tree_matches_mask_oracle(k_max):
    seeds = np.random.default_rng(k_max).integers(1 << 30, size=2)
    mixed = np.random.default_rng(seeds[0]).integers(0, k_max + 1, 5000)
    for k_init in (np.full(5000, k_max), mixed):
        rngs = [np.random.default_rng(seeds[1]) for _ in range(2)]
        got = _gta_tree_batch(k_init, rngs[0])
        want = tree_by_masks(k_init, rngs[1])
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert rngs[0].random() == rngs[1].random()   # same draws consumed
    assert all(x.size == 0 for x in _gta_tree_batch(np.zeros(0, dtype=np.int64), rngs[0]))
    with pytest.raises(ValueError, match="at most"):
        _gta_tree_batch(np.array([1 << 16]), rngs[0])   # overflows the packed counts


# Chi-square acceptance at level 0.001, fixed before the first run: the
# Wilson-Hilferty quantile df (1 - 2/(9 df) + z sqrt(2/(9 df)))^3 with
# z = 3.0902, bins merged at the tails until each expects at least 5 draws.
CHI2_Z_0001 = 3.0902


def chi2_critical(df):
    a = 2.0 / (9.0 * df)
    return df * (1.0 - a + CHI2_Z_0001 * math.sqrt(a)) ** 3


@pytest.mark.parametrize("group", [2, 3, 8, 63, 64, 65, 130])
def test_popcount_splits_are_binomial_half(group):
    n = 200_000
    pmf = np.array([math.comb(group, j) for j in range(group + 1)], dtype=float) / 2.0**group
    expected = n * pmf
    keep = np.flatnonzero(expected >= 5.0)
    lo, hi = int(keep[0]), int(keep[-1])
    # the group's own word count, and more words than it needs
    for k_max in (group, 130):
        rng = np.random.default_rng([group, k_max])
        left = _split(np.full(n, group), _split_masks(k_max), rng)
        assert left.min() >= 0 and left.max() <= group
        counts = np.bincount(left.astype(np.int64), minlength=group + 1)
        observed = np.concatenate([[counts[: lo + 1].sum()], counts[lo + 1 : hi], [counts[hi:].sum()]])
        want = np.concatenate([[expected[: lo + 1].sum()], expected[lo + 1 : hi], [expected[hi:].sum()]])
        stat = float(np.sum((observed - want) ** 2 / want))
        assert stat < chi2_critical(len(want) - 1), f"group {group}, {k_max} users at most"


@pytest.mark.parametrize("k_max", [1, 2, 64, 65, 128, 129])
def test_split_takes_ceil_k_max_over_64_words_per_group(k_max):
    masks = _split_masks(k_max)
    words = -(-k_max // 64)
    assert masks.shape == (k_max + 1, words) and masks.dtype == np.uint64
    assert np.array_equal(np.bitwise_count(masks).sum(axis=1), np.arange(k_max + 1))
    group = np.random.default_rng(9).integers(0, k_max + 1, 1000)
    rng, twin = np.random.default_rng(10), np.random.default_rng(10)
    _split(group, masks, rng)
    twin.integers(0, 1 << 64, size=(1000, words), dtype=np.uint64)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_gta_single_and_idle():
    lengths, delivered, errors = tables("gta", GOOD, rng=np.random.default_rng(2))
    assert lengths[0, 0] == 1 and delivered[0, 0] == 0
    for single in (0b01, 0b10):
        assert lengths[0, single] == 1 and delivered[0, single] == single
        assert errors[0, single] == 0


def test_gta_loop_mean_length_matches_recursion():
    n = 4000
    cfg = AntennaConfig(users=3)
    params = ProtocolParams(p_t=1.0, multiplexing_gain=0.1)
    lengths, delivered, errors = tables("gta", params, snr=None, config=cfg, n=n,
                                        rng=np.random.default_rng(41))
    table = gta_recursion(3)
    masks = np.arange(8)
    assert np.all(delivered & ~masks == 0)        # only participants are delivered
    assert np.all(errors == 0)                    # no outage below full gain
    for k, mask in ((2, 0b101), (3, 0b111)):
        count = popcount(delivered[:, mask])
        for sample, exact in ((lengths[:, mask], table.expected_slots[k]),
                              (count, table.expected_successes[k])):
            mean = float(np.mean(sample))
            se = float(np.std(sample, ddof=1)) / math.sqrt(n)
            assert abs(mean - float(exact)) < max(4 * se, 1e-9)
    # the delivered subset of a full collision is uniform over the users
    share = [(delivered[:, 0b111] >> u & 1).mean() for u in range(3)]
    assert max(share) - min(share) < 0.05


@pytest.mark.parametrize("protocol", ["gta", "ondma", "irarq"])
def test_epoch_outcomes_follow_the_per_size_law(protocol):
    # every epoch evaluated at the size-k sets {0..k-1}, k = 0..3; trial
    # counts and the 4-se bound fixed before the first run
    cfg = AntennaConfig(users=3)
    params = ProtocolParams(p_t=1.0, multiplexing_gain=0.5, deadline=3)
    snr_db, n = 15.0, 40_000
    snr = 10 ** (snr_db / 10)
    values, law_se = None, np.zeros(4)
    if protocol == "irarq":
        beta = estimate_beta(cfg, snr_db, params.rate_at(snr), 3, trials=200_000, seed=61)
        values = beta.values
    length, square, delivered = epoch_law(protocol, cfg, values)
    if protocol == "irarq":
        # the table's mean length for k colliders has variance Var[min(N, L)] / trials
        law_se = np.sqrt((np.array(square) - np.array(length) ** 2) / beta.trials)
    masks = np.tile((1 << np.arange(4)) - 1, (n, 1))
    lengths, got, _ = epoch_outcomes(protocol, cfg, params, snr, masks, np.random.default_rng(62))
    for k in range(4):
        for sample, want, extra in ((lengths[:, k], length[k], law_se[k]),
                                    (np.bitwise_count(got[:, k]), delivered[k], 0.0)):
            sample = sample.astype(float)
            se = math.sqrt(sample.var(ddof=1) / n + extra**2)
            assert abs(sample.mean() - want) <= 4 * se, (k, sample.mean(), want, se)


def test_gta_loop_agrees_with_vectorised_tree():
    # the full-collision column against the collision statistics of the tree
    n = 4000
    cfg = AntennaConfig(users=4)
    params = ProtocolParams(p_t=1.0, multiplexing_gain=0.1)
    lengths, _, _ = tables("gta", params, snr=None, config=cfg, n=n,
                           rng=np.random.default_rng(43))
    full = lengths[:, 0b1111].astype(float)
    vec_mean, vec_se, _, _ = gta_collision_stats(4, 10**5, seed=44)
    se = float(np.std(full, ddof=1)) / math.sqrt(n)
    assert abs(full.mean() - vec_mean) < 4 * math.sqrt(se**2 + vec_se**2)


def test_epoch_replay_is_deterministic():
    params = ProtocolParams(p_t=1.0, multiplexing_gain=0.45, deadline=2)
    for protocol in ("gta", "ondma", "irarq"):
        runs = [tables(protocol, params, snr=10.0, n=500, rng=np.random.default_rng(77))
                for _ in range(2)]
        for a, b in zip(*runs):
            assert np.array_equal(a, b)


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        tables("tdma", GOOD)


def test_large_user_count_rejected():
    # only the simulator asks for all 2^K participant sets
    big = AntennaConfig(users=MAX_TABLE_USERS + 1)
    params = ProtocolParams(p_t=1.0, multiplexing_gain=0.45, deadline=2)
    with pytest.raises(ValueError, match="2\\^K"):
        simulate_random_arrivals("irarq", big, params, 0.5, None, 100, seed=3)


@pytest.mark.parametrize("protocol", ["irarq", "ondma", "gta"])
def test_bitmask_engine_takes_at_most_63_users(protocol):
    # participant bitmasks are int64, so a 64th user would land on the sign bit
    params = ProtocolParams(p_t=1.0, rate=1.0, deadline=2)
    rng = np.random.default_rng(11)
    with pytest.raises(ValueError, match="at most 63 users"):
        epoch_outcomes(protocol, AntennaConfig(users=64), params, 10.0,
                       np.zeros((4, 1), dtype=np.int64), rng)
    with pytest.raises(ValueError, match="at most 63 users"):
        system_error_probability(protocol, AntennaConfig(users=64), params, 10.0, 100, seed=1)
    if protocol == "irarq":
        return                                  # 2^63 subsets: the joint decoder stops far below
    masks = np.array([[(1 << 63) - 1], [1 << 62], [0]])
    lengths, delivered, errors = epoch_outcomes(protocol, AntennaConfig(users=63), params, 10.0,
                                                masks, rng)
    assert (lengths >= 1).all() and (delivered & ~masks == 0).all()
    assert (errors & ~delivered == 0).all() and delivered[2, 0] == 0
    if protocol == "ondma":
        assert lengths.ravel().tolist() == [63, 1, 1]
    est = system_error_probability(protocol, AntennaConfig(users=63), params, 10.0, 200, seed=1)
    assert est.per_user.shape == (63,) and 0.0 <= est.value <= 1.0


@pytest.mark.parametrize("protocol, params", [
    ("irarq", ProtocolParams(p_t=1.0, rate=1.2, deadline=2)),
    ("ondma", ProtocolParams(p_t=1.0, rate=1.2)),
    ("ondma", ProtocolParams(p_t=1.0, rate=1.2, matched_combining=True)),
], ids=["irarq", "ondma", "ondma-matched"])
@pytest.mark.parametrize("config", [AntennaConfig(users=3), AntennaConfig(users=3, tx=2, rx=2)],
                         ids=["scalar", "2x2"])
def test_outcomes_at_coin_masks_match_full_table(protocol, params, config):
    # the channel draws do not depend on the masks, so one column per epoch
    # reads the same outcome as that epoch's cell of the full table
    n = 400
    coins = np.random.default_rng(5).integers(0, 8, size=n)
    full = tables(protocol, params, snr=2.0, config=config, n=n, rng=np.random.default_rng(6))
    at_coins = epoch_outcomes(protocol, config, params, 2.0, coins[:, None],
                              np.random.default_rng(6))
    for table, column in zip(full, at_coins):
        assert column.shape == (n, 1)
        assert np.array_equal(column[:, 0], table[np.arange(n), coins])


# ---------------------------------------------------------------------------
# sort-free and epochs-last helpers against the code they replaced
# ---------------------------------------------------------------------------

def tree_members_by_argsort(masks, count, users, rng, kind=None):
    """The argsort ranking the pairwise one replaced, kept as its bitwise oracle."""
    order = np.argsort(rng.random((masks.shape[0], users)), axis=1, kind=kind)[:, None, :]
    member = masks[:, :, None] >> order & 1
    take = member & (np.cumsum(member, axis=2) <= count[:, :, None])
    return (take << order).sum(axis=2)


class TiedRng:
    """Uniform draws on a grid of three values, so rankings tie often."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def random(self, shape):
        return self.rng.integers(0, 3, shape) / 4.0


@pytest.mark.parametrize("users", [2, 3, 5, 8])
def test_tree_members_match_argsort_oracle(users):
    rng = np.random.default_rng(60 + users)
    masks = rng.integers(0, 1 << users, (3000, 6))
    count = rng.integers(0, users + 1, (3000, 6))
    got_rng, want_rng = np.random.default_rng(61), np.random.default_rng(61)
    got = _tree_members(masks, count, users, got_rng)
    assert got.dtype == np.int64 and got.shape == masks.shape
    assert np.array_equal(got, tree_members_by_argsort(masks, count, users, want_rng))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    # ties rank the lower user index first, as a stable sort does (numpy's
    # default argsort need not: with AVX-512, numpy 2.4 reorders ties in rows
    # of four or more); uniform doubles tie with probability about K^2 2^-53
    tied = _tree_members(masks, count, users, TiedRng(62))
    want = tree_members_by_argsort(masks, count, users, TiedRng(62), kind="stable")
    assert np.array_equal(tied, want)
    # the taken users are members, as many as the count allows
    assert np.all(got & ~masks == 0)
    assert np.array_equal(np.bitwise_count(got), np.minimum(np.bitwise_count(masks), count))


def subset_max_epochs_first(demand, users):
    """The (epochs, 2^K) subset max the row layout replaced, kept as its oracle."""
    n = demand.shape[0]
    worst = np.zeros((n, 1 << users))
    worst[:, 1:] = demand
    for i in range(users):
        v = worst.reshape(n, -1, 2, 1 << i)
        np.maximum(v[:, :, 1], v[:, :, 0], out=v[:, :, 1])
    return worst


@pytest.mark.parametrize("users", [1, 2, 3, 4])
def test_subset_max_matches_epochs_first_oracle(users):
    rng = np.random.default_rng(70 + users)
    demand = rng.exponential(size=(500, (1 << users) - 1))
    demand[rng.random(demand.shape) < 0.05] = np.inf
    got = _subset_max(np.ascontiguousarray(demand.T), users)
    assert got.shape == (1 << users, 500)
    assert got.T.tobytes() == subset_max_epochs_first(demand, users).tobytes()
    assert _subset_max(np.zeros(((1 << users) - 1, 0)), users).shape == (1 << users, 0)


@pytest.mark.parametrize("users", [0, 1, 2, 8, 9, 12])
def test_bits_match_matmul(users):
    flags = np.random.default_rng(80 + users).random((700, users)) < 0.4
    want = flags.astype(np.int64) @ (1 << np.arange(users, dtype=np.int64))
    for layout in (flags, np.asfortranarray(flags)):
        got = _bits(layout)
        assert got.dtype == np.int64 and np.array_equal(got, want)
