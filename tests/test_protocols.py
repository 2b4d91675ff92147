"""Epoch outcomes: scripted trees, unit-gain decisions, recursion consistency."""

import math
import tracemalloc
from fractions import Fraction

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
from raclab import montecarlo, protocols
from raclab.channel import _draw_channel, _pick_epochs, asymptotic_first_decodable_round, capped_rounds
from raclab.montecarlo import fully_loaded_throughput, gta_collision_stats, system_error_probability
from raclab.protocols import (
    _bits,
    _gta_tree_batch,
    _outage_bits,
    _split,
    _subset_max,
    _tree_members,
    epoch_outcomes,
)
from raclab.queueing import MAX_TABLE_USERS

SCALAR2 = AntennaConfig(users=2, tx=1, rx=1)
BOTH = 0b11


class UnitGainRng:
    """Draws every channel with one power: each single-antenna user's power is ``power``, 1 by default.

    The splitting tree's words and rankings come from a seeded generator.
    """

    def __init__(self, seed=0, power=1.0):
        self.rng = np.random.default_rng(seed)
        self.power = power

    def standard_exponential(self, size):
        return np.full(size, self.power)

    def integers(self, low, high, size, dtype):
        return self.rng.integers(low, high, size=size, dtype=dtype)

    def random(self, size):
        return self.rng.random(size)


class ScriptedTreeRng:
    """Feeds pre-arranged 64-bit words to the splitting tree, one list of rows per step."""

    def __init__(self, steps):
        self.steps = [np.array(rows, dtype=np.uint64).reshape(len(rows), -1) for rows in steps]

    def integers(self, low, high, size, dtype):
        words = self.steps.pop(0)
        assert (low, high, dtype) == (0, 1 << 64, np.uint64) and size == words.shape
        return words


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


@pytest.mark.parametrize("protocol, mask, gain, extra", [
    ("irarq", 0b01, 1, {"deadline": 1}),
    ("ondma", BOTH, 1, {}),
    ("ondma", BOTH, 2, {"matched_combining": True}),
    ("gta", BOTH, 1, {}),
], ids=["irarq", "ondma", "ondma-matched", "gta"])
def test_single_user_power_at_the_threshold_decodes(protocol, mask, gain, extra):
    # one tie rule for every decision: a power exactly at (2^R - 1) * M / (gain * snr)
    # decodes; log2(1 + 3 * power) of this one comes out an ulp below R = 0.45
    snr, rate = 3.0, 0.45
    power = (2.0**rate - 1.0) / (gain * snr)
    params = ProtocolParams(p_t=1.0, rate=rate, **extra)
    masks = np.full((4, 1), mask)
    lengths, delivered, errors = epoch_outcomes(protocol, SCALAR2, params, snr, masks,
                                                UnitGainRng(power=power))
    assert np.all(errors == 0) and np.all(delivered == masks)
    if protocol == "irarq":
        assert np.all(lengths == 1)


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
    lengths, delivered = _gta_tree_batch(np.array([2]), ScriptedTreeRng([[0b01]]))
    assert (lengths[0], delivered[0]) == (3, 2)


def test_gta_scripted_empty_left_then_resolve():
    # chunk 0 (bits 0-1) sends both users right (empty left); chunk 1 of the
    # same word (bits 2-3) splits them cleanly
    lengths, delivered = _gta_tree_batch(np.array([2]), ScriptedTreeRng([[0b01_00]]))
    assert (lengths[0], delivered[0]) == (4, 2)


def test_gta_scripted_prune():
    # three users, chunks of stride 4: two go left together, one right; the
    # right one is pruned after the second collision, then the left pair
    # resolves in two clean slots
    lengths, delivered = _gta_tree_batch(np.array([3]), ScriptedTreeRng([[0b011], [0b01]]))
    assert (lengths[0], delivered[0]) == (4, 2)       # 3 - 2 = 1 pruned


def test_gta_scripted_words_whose_chunks_all_recollide():
    # step 1: epoch 0 (2 users) reads 32 chunks 00, epoch 1 (3 users) 16
    # chunks 111, epoch 2 (65 users) 65 ones over two words (bits of word 1
    # past the group ignored): each adds a slot per chunk and draws again;
    # epoch 3 splits at once.  Step 2: epoch 0 splits cleanly, epoch 1 sends
    # one user left, epoch 2 two users left (63 pruned).  Step 3: both pairs split.
    every = (1 << 64) - 1
    steps = [[[0, 5], [0x7777_7777_7777_7777, 0], [every, 0b11], [0b10, every]],
             [[0b01, 0], [0b001, 0], [0b11, 0]],
             [[0b01], [0b10]]]
    lengths, delivered = _gta_tree_batch(np.array([2, 3, 65, 2]), ScriptedTreeRng(steps))
    assert lengths.tolist() == [1 + 32 + 2, 1 + 16 + 2 + 2, 1 + 1 + 1 + 2, 3]
    assert delivered.tolist() == [2, 3, 2, 2]
    want = tree_by_chunks(np.array([2, 3, 65, 2]), ScriptedTreeRng(steps), protocols._TILE)
    assert [x.tolist() for x in want] == [lengths.tolist(), delivered.tolist()]


def tree_by_chunks(k_init, rng, tile):
    """Oracle: the splitting tree one epoch at a time, reading each step's words chunk by chunk.

    Tiles of ``tile`` colliding epochs run to their end in turn; a step
    draws ceil(g_max / 64) words per live epoch of the tile.  A group of
    g <= 64 users reads the chunks of g bits at stride bit_ceil(g) in its
    first word, a larger group the first g bits of its words, until one
    splits; every chunk read costs a slot.
    """
    lengths = [1] * len(k_init)
    delivered = [int(k == 1) for k in k_init]
    colliding = [e for e, k in enumerate(k_init) if k >= 2]
    for lo in range(0, len(colliding), tile):
        group = {e: int(k_init[e]) for e in colliding[lo : lo + tile]}
        while group:
            words = -(-max(group.values()) // 64)
            draw = rng.integers(0, 1 << 64, size=(len(group), words), dtype=np.uint64)
            for row, e in zip(draw, list(group)):
                g = group[e]
                bits = sum(int(x) << 64 * j for j, x in enumerate(row))
                starts = range(0, 64, 1 << (g - 1).bit_length()) if g <= 64 else [0]
                for start in starts:
                    lengths[e] += 1
                    left = (bits >> start & ((1 << g) - 1)).bit_count()
                    if 0 < left < g:
                        break
                else:
                    continue                            # every chunk re-collided: draw again
                if left == 1:                           # clean slot, then the rest collides
                    lengths[e] += 1
                    delivered[e] += 1 + (g == 2)        # a lone rest is clean at once
                    left = g - 1
                if left >= 2:
                    group[e] = left
                else:
                    del group[e]
    return np.array(lengths), np.array(delivered)


@pytest.mark.parametrize("k_max", [2, 3, 4, 8, 64, 65, 130])
def test_gta_tree_matches_mask_oracle(k_max, monkeypatch):
    seeds = np.random.default_rng(k_max).integers(1 << 30, size=2)
    mixed = np.random.default_rng(seeds[0]).integers(0, k_max + 1, 5000)
    # one tile, then tiles of 777 colliding epochs
    for tile in (protocols._TILE, 777):
        monkeypatch.setattr(protocols, "_TILE", tile)
        for k_init in (np.full(5000, k_max), mixed):
            rngs = [np.random.default_rng(seeds[1]) for _ in range(2)]
            got = _gta_tree_batch(k_init, rngs[0])
            want = tree_by_chunks(k_init, rngs[1], tile)
            for a, b in zip(got, want, strict=True):
                np.testing.assert_array_equal(a, b)
            assert rngs[0].random() == rngs[1].random()   # same draws consumed
    assert all(x.size == 0 for x in _gta_tree_batch(np.zeros(0, dtype=np.int64), rngs[0]))
    with pytest.raises(ValueError, match="at most"):
        _gta_tree_batch(np.array([1 << 16]), rngs[0])   # past the documented cap


# Chi-square acceptance at level 0.001, fixed before the first run: the
# Wilson-Hilferty quantile df (1 - 2/(9 df) + z sqrt(2/(9 df)))^3 with
# z = 3.0902, bins merged at the tails until each expects at least 5 draws.
CHI2_Z_0001 = 3.0902


def chi2_critical(df):
    a = 2.0 / (9.0 * df)
    return df * (1.0 - a + CHI2_Z_0001 * math.sqrt(a)) ** 3


def chi2_pooled(counts, pmf, n):
    """Chi-square statistic and df over the cells of a joint pmf (dicts keyed alike).

    Cells expecting at least 5 draws are bins of their own; all others,
    and the mass outside the listed cells, form one pooled bin, which joins
    the own bin expecting least if it expects fewer than 5 itself.
    """
    own = sorted((cell for cell, p in pmf.items() if n * p >= 5.0), key=lambda c: pmf[c])
    observed = [counts.get(cell, 0) for cell in own]
    expected = [n * float(pmf[cell]) for cell in own]
    rest = n - sum(observed), n - sum(expected)
    if rest[1] < 5.0:
        observed[0] += rest[0]
        expected[0] += rest[1]
    else:
        observed.append(rest[0])
        expected.append(rest[1])
    observed, expected = np.array(observed, dtype=float), np.array(expected)
    return float(np.sum((observed - expected) ** 2 / expected)), len(expected) - 1


@pytest.mark.parametrize("group", [2, 3, 8, 63, 64, 65, 130])
def test_popcount_splits_are_binomial_half(group):
    # the first split of a row: each chunk re-collides with probability
    # q = 2^(1-g), independently, and a chunk that splits has its left size
    # Binomial(g, 1/2) given 0 < left < g; no split at all reads left 0
    n = 200_000
    chunks = 64 >> (group - 1).bit_length() if group <= 64 else 1
    q = Fraction(2, 2**group)
    pmf = {(j, left): q**j * Fraction(math.comb(group, left), 2**group)
           for j in range(min(chunks, 40)) for left in range(1, group)}
    pmf[chunks, 0] = q**chunks
    # the group's own word count, and more words than it needs
    for words in (-(-group // 64), 3):
        draw = np.random.default_rng([group, words]).integers(
            0, 1 << 64, size=(n, words), dtype=np.uint64)
        loops, left = _split(draw, np.full(n, group))
        loops, left = loops.astype(np.int64), left.astype(np.int64)
        assert left.min() >= 0 and left.max() < group and loops.max() <= chunks
        assert np.array_equal(left == 0, loops == chunks)
        cells, counts = np.unique(np.stack([loops, left]), axis=1, return_counts=True)
        stat, df = chi2_pooled(dict(zip(map(tuple, cells.T.tolist()), counts.tolist())), pmf, n)
        assert stat < chi2_critical(df), f"group {group}, {words} words"


class RecordingRng:
    """A generator that records the size of every ``integers`` call."""

    def __init__(self, seed):
        self.rng, self.sizes = np.random.default_rng(seed), []

    def integers(self, low, high, size, dtype):
        self.sizes.append(size)
        return self.rng.integers(low, high, size=size, dtype=dtype)


@pytest.mark.parametrize("k_max", [1, 2, 64, 65, 128, 129])
def test_split_takes_ceil_k_max_over_64_words_per_group(k_max):
    # a step takes ceil(g_max / 64) words per live epoch, so one word per
    # epoch once every live group has at most 64 users
    group = np.random.default_rng(9).integers(0, k_max + 1, 1000)
    group[0] = k_max
    rng = RecordingRng(10)
    _gta_tree_batch(group, rng)
    words = [w for _, w in rng.sizes]
    if k_max < 2:
        assert words == []
        return
    assert rng.sizes[0] == (np.count_nonzero(group >= 2), -(-k_max // 64))
    assert words == sorted(words, reverse=True) and words[-1] == 1   # groups only shrink
    assert (k_max > 64) == (max(words) > 1)
    twin = np.random.default_rng(10)
    for size in rng.sizes:
        twin.integers(0, 1 << 64, size=size, dtype=np.uint64)
    assert rng.rng.bit_generator.state == twin.bit_generator.state


def tree_pmf(k, cap):
    """Exact pmf of (length, delivered) of a k-user epoch, lengths up to ``cap``.

    From the group-size chain: a collided group of g users re-collides with
    probability 2^(1-g) (one slot); otherwise its left group has l users,
    0 < l < g, with probability C(g, l) / 2^g.  l = 1 costs two slots, one
    delivered, and the other g - 1 go on (a lone one is delivered in the
    second slot); l >= 2 costs one slot and goes on with l users, the other
    g - l pruned.  ``after[g][s][d]`` is the probability that a collided
    g-user group needs s more slots and delivers d.
    """
    after = {1: [[Fraction(d == 1) for d in range(k + 1)]] + [[Fraction(0)] * (k + 1)] * cap}
    for g in range(2, k + 1):
        p = [Fraction(math.comb(g, left), 2**g) for left in range(g + 1)]
        rows = [[Fraction(0)] * (k + 1) for _ in range(cap + 1)]
        for s in range(1, cap + 1):
            for d in range(k + 1):
                total = 2 * p[0] * rows[s - 1][d]
                total += sum(p[left] * after[left][s - 1][d] for left in range(2, g))
                if s >= 2 and d >= 1:
                    total += p[1] * after[g - 1][s - 2][d - 1]
                rows[s][d] = total
        after[g] = rows
    return {(1 + s, d): after[k][s][d] for s in range(cap) for d in range(k + 1) if after[k][s][d]}


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_gta_tree_joint_law_is_exact(k):
    # (length, delivered) of k-user epochs against the exact chain; the
    # pruned count is k - delivered.  200k epochs, cells below 5 expected
    # draws and lengths past 40 pooled, level 0.001: all fixed before the first run
    n = 200_000
    lengths, delivered = _gta_tree_batch(np.full(n, k), np.random.default_rng(1400 + k))
    assert delivered.min() >= 1 and delivered.max() <= k
    cells, counts = np.unique(np.stack([lengths, delivered]), axis=1, return_counts=True)
    stat, df = chi2_pooled(dict(zip(map(tuple, cells.T.tolist()), counts.tolist())),
                           tree_pmf(k, 40), n)
    assert stat < chi2_critical(df), (k, stat, df)


def test_gta_tree_holds_no_table_quadratic_in_users():
    # the tree's own data is O(k_max): a call at k_max = 2000 leaves at most
    # 16 bytes per user behind (per-size step tables would hold 64 MB); the
    # first call, at 130 users, takes the lazy imports out of the count
    _gta_tree_batch(np.array([130, 2]), np.random.default_rng(6))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = _gta_tree_batch(np.array([2000, 65, 2, 0]), np.random.default_rng(7))
        assert out[0][0] >= 3 and out[1][0] >= 1
        del out
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 16 * 2000, held
    # chunk tables for g <= 64 only: a byte and two words per size
    assert sum(t.nbytes for t in (protocols._STRIDE_LOG2, protocols._PAIRS, protocols._LOW)) == 17 * 65


def test_gta_single_and_idle():
    lengths, delivered, errors = tables("gta", GOOD, rng=UnitGainRng(2))
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


def tree_members_of_short_epochs(masks, count, users, rng, kind=None):
    """Whole masks, except in the epochs where some count falls short: the argsort oracle there."""
    short = (count < np.bitwise_count(masks)).any(axis=1)
    taken = masks.copy()
    taken[short] = tree_members_by_argsort(masks[short], count[short], users, rng, kind)
    return taken


@pytest.mark.parametrize("users", [2, 3, 5, 8])
def test_tree_members_match_argsort_oracle(users):
    rng = np.random.default_rng(60 + users)
    masks = rng.integers(0, 1 << users, (3000, 6))
    count = rng.integers(0, users + 1, (3000, 6))
    count[::3] = users                              # whole masks: these epochs draw no ranking
    got_rng, want_rng = np.random.default_rng(61), np.random.default_rng(61)
    got = _tree_members(masks, count, users, got_rng)
    assert got.dtype == np.int64 and got.shape == masks.shape
    assert np.array_equal(got, tree_members_of_short_epochs(masks, count, users, want_rng))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    # ties rank the lower user index first, as a stable sort does (numpy's
    # default argsort need not: with AVX-512, numpy 2.4 reorders ties in rows
    # of four or more); uniform doubles tie with probability about K^2 2^-53
    tied = _tree_members(masks, count, users, TiedRng(62))
    want = tree_members_of_short_epochs(masks, count, users, TiedRng(62), kind="stable")
    assert np.array_equal(tied, want)
    # the taken users are members, as many as the count allows
    assert np.all(got & ~masks == 0)
    assert np.array_equal(np.bitwise_count(got), np.minimum(np.bitwise_count(masks), count))
    # no cell short of its mask: no ranking drawn
    untouched = np.random.default_rng(63)
    state = untouched.bit_generator.state
    assert np.array_equal(_tree_members(masks, np.bitwise_count(masks), users, untouched), masks)
    assert untouched.bit_generator.state == state


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
    # capped round counts keep their uint8 type and take the same maxima
    rounds = rng.integers(1, 6, size=demand.shape, dtype=np.uint8)
    got = _subset_max(np.ascontiguousarray(rounds.T), users)
    assert got.dtype == np.uint8
    assert got.T.astype(float).tobytes() == subset_max_epochs_first(rounds.astype(float), users).tobytes()


@pytest.mark.parametrize("users", [0, 1, 2, 8, 9, 12])
def test_bits_match_matmul(users):
    flags = np.random.default_rng(80 + users).random((700, users)) < 0.4
    want = flags.astype(np.int64) @ (1 << np.arange(users, dtype=np.int64))
    for layout in (flags, np.asfortranarray(flags)):
        got = _bits(layout)
        assert got.dtype == np.int64 and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# tiled evaluation against the whole-block engine it replaced
# ---------------------------------------------------------------------------

def outcomes_whole_block(protocol, config, params, snr, masks, rng):
    """The single whole-block pass the tiled engine replaced, kept as its bitwise oracle."""
    users, n = config.users, masks.shape[0]
    shape = (n, users, config.rx, config.tx)
    sizes = np.bitwise_count(masks).astype(np.int64)
    delivered = masks
    if protocol == "irarq":
        deadline = params.deadline
        if snr is None:
            needed = np.array([1] + [asymptotic_first_decodable_round(k, config, params.multiplexing_gain)
                                     for k in range(1, users + 1)])[sizes]
        else:
            channel = _draw_channel(rng, shape)
            rounds = capped_rounds(channel, snr, params.rate_at(snr), config.tx, deadline,
                                   range(1, 1 << users))
            worst = _subset_max(rounds, users)
            worst[0] = 1
            needed = worst.ravel()[masks * n + np.arange(n)[:, None]]
        lengths = np.minimum(needed, deadline, dtype=np.int64)
        errors = np.where(needed > deadline, masks, 0)
    elif protocol == "ondma":
        lengths = np.maximum(sizes, 1)
        channel = None if snr is None else _draw_channel(rng, shape)
        if snr is not None and params.matched_combining:
            by_size = np.zeros((n, users + 1), dtype=np.int64)
            for k in range(1, users + 1):
                rows = (sizes == k).any(axis=1)
                by_size[rows, k] = _outage_bits(config, params, snr, _pick_epochs(channel, rows), float(k))
            out = np.take_along_axis(by_size, sizes, axis=1)
        else:
            out = np.reshape(_outage_bits(config, params, snr, channel, 1.0), (-1, 1))
        errors = masks & out
    else:
        tree_len, tree_del = _gta_tree_batch(sizes.ravel(), rng)
        lengths = tree_len.reshape(masks.shape)
        delivered = _tree_members(masks, tree_del.reshape(masks.shape), users, rng)
        channel = None if snr is None else _draw_channel(rng, shape)
        errors = delivered & np.reshape(_outage_bits(config, params, snr, channel, 1.0), (-1, 1))
    return lengths, delivered, errors


def fully_loaded_whole_chunk(protocol, config, params, snr, n, rng):
    """Coin masks and outcomes of n fully-loaded epochs, each drawn and evaluated whole."""
    coins = _bits(rng.random((n, config.users)) < params.p_t)
    outcomes = outcomes_whole_block(protocol, config, params, snr, coins[:, None], rng)
    return (coins, *(x[:, 0] for x in outcomes))


def whole_chunk_error(protocol, config, params, snr, trials, seed, chunk):
    """(value, per_user, nonidle) of ``system_error_probability`` from whole chunks, as before."""
    nonidle = errors = per_user = 0
    for idx, n in enumerate(montecarlo._chunk_plan("trials", trials, chunk)):
        rng = np.random.default_rng([seed, montecarlo._TAG_ERROR, idx])
        coins, _, _, erred = fully_loaded_whole_chunk(protocol, config, params, snr, n, rng)
        nonidle += int(np.count_nonzero(coins))
        errors += int(np.count_nonzero(erred))
        per_user = per_user + np.array([np.count_nonzero(erred >> u & 1) for u in range(config.users)])
    return errors / nonidle, per_user / nonidle, nonidle


def whole_chunk_throughput(protocol, config, params, snr, slots, seed, chunk):
    """(per_rate, stderr, slots, epochs) of ``fully_loaded_throughput`` from float sums
    over whole chunks, as before."""
    n = min(chunk, max(1024, slots))
    sums, epochs, idx = np.zeros(5), 0, 0
    while sums[1] < slots:
        rng = np.random.default_rng([seed, montecarlo._TAG_THROUGHPUT, idx])
        _, lengths, delivered, _ = fully_loaded_whole_chunk(protocol, config, params, snr, n, rng)
        w, ell = np.bitwise_count(delivered).astype(float), lengths.astype(float)
        sums += w.sum(), ell.sum(), (w * w).sum(), (ell * ell).sum(), (w * ell).sum()
        epochs, idx = epochs + n, idx + 1
    w_sum, l_sum, ww, ll, wl = sums
    ratio, mean_l = w_sum / l_sum, l_sum / epochs
    cov = wl / epochs - (w_sum / epochs) * mean_l
    var = (ww / epochs - (w_sum / epochs) ** 2 - 2 * ratio * cov
           + ratio**2 * (ll / epochs - mean_l**2)) / (epochs * mean_l**2)
    return ratio, math.sqrt(max(var, 0.0)), int(l_sum), epochs


def whole_chunk_tree_stats(k, epochs, seed, chunk):
    """``gta_collision_stats`` from one tree call and float sums per chunk, as before."""
    sums = np.zeros(4)
    for idx, n in enumerate(montecarlo._chunk_plan("epochs", epochs, chunk)):
        rng = np.random.default_rng([seed, montecarlo._TAG_GTA_STATS, idx])
        lf, df = (x.astype(float) for x in _gta_tree_batch(np.full(n, k), rng))
        sums += lf.sum(), (lf**2).sum(), df.sum(), (df**2).sum()
    mean_l, mean_d = sums[0] / epochs, sums[2] / epochs
    return (mean_l, math.sqrt(max(sums[1] / epochs - mean_l**2, 0.0) / epochs),
            mean_d, math.sqrt(max(sums[3] / epochs - mean_d**2, 0.0) / epochs))


def bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# tile sizes with the epochs, slots and chunk that give each several tiles and chunks
TILINGS = {"default": (None, 40_000, 1 << 15), "777": (777, 3000, 2048), "1": (1, 120, 64)}


@pytest.mark.parametrize("tiling", TILINGS)
@pytest.mark.parametrize("snr_db", [10.0, None], ids=["10dB", "inf"])
@pytest.mark.parametrize("p_t", [0.7, 1.0])
@pytest.mark.parametrize("users", [2, 3, 5])
@pytest.mark.parametrize("protocol", ["irarq", "ondma", "gta"])
def test_tiled_estimators_match_whole_chunk_oracle(protocol, users, p_t, snr_db, tiling, monkeypatch):
    tile, trials, chunk = TILINGS[tiling]
    if tile is not None:
        monkeypatch.setattr(protocols, "_TILE", tile)
    config = AntennaConfig(users=users)
    snr = None if snr_db is None else 10.0 ** (snr_db / 10.0)
    variants = ([{"deadline": L} for L in (1, 2, 3)] if protocol == "irarq" else
                [{}, {"matched_combining": True}] if protocol == "ondma" else [{}])
    for extra in variants:
        params = ProtocolParams(p_t=p_t, multiplexing_gain=0.4, **extra)
        seed = 90 + users
        est = system_error_probability(protocol, config, params, snr_db, trials, seed, chunk=chunk)
        value, per_user, nonidle = whole_chunk_error(protocol, config, params, snr, trials, seed, chunk)
        assert bitwise(est.value, value) and bitwise(est.per_user, per_user)
        assert est.nonidle == nonidle
        thr = fully_loaded_throughput(protocol, config, params, snr_db, trials, seed, chunk=chunk)
        got = (thr.per_rate, thr.per_rate_stderr, thr.slots, thr.epochs)
        want = whole_chunk_throughput(protocol, config, params, snr, trials, seed, chunk)
        assert all(bitwise(a, b) for a, b in zip(got, want, strict=True)), (got, want)


@pytest.mark.parametrize("tiling", TILINGS)
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_tiled_tree_stats_match_whole_chunk_oracle(k, tiling, monkeypatch):
    # every epoch collides, so tiles of epochs are the tree's own tiles
    tile, epochs, chunk = TILINGS[tiling]
    if tile is not None:
        monkeypatch.setattr(protocols, "_TILE", tile)
    got = gta_collision_stats(k, epochs, seed=20 + k, chunk=chunk)
    want = whole_chunk_tree_stats(k, epochs, 20 + k, chunk)
    assert all(bitwise(a, b) for a, b in zip(got, want, strict=True)), (got, want)


@pytest.mark.parametrize("tile", [None, 777, 1])
@pytest.mark.parametrize("protocol", ["irarq", "ondma", "gta"])
def test_epoch_outcomes_match_whole_block_oracle(protocol, tile, monkeypatch):
    # the queue's layout (every epoch at all 2^K sets) and the estimators'
    # (one set per epoch), scalar and 2x2, at finite and infinite SNR
    if tile is not None:
        monkeypatch.setattr(protocols, "_TILE", tile)
    n = 300 if tile == 1 else 3000
    for config in (AntennaConfig(users=3), AntennaConfig(users=3, tx=2, rx=2)):
        all_sets = np.broadcast_to(np.arange(8), (n, 8))
        coins = np.random.default_rng(3).integers(0, 8, (n, 1))
        for masks in (all_sets, coins):
            for snr, extra in ((2.0, {}), (2.0, {"matched_combining": True}), (None, {})):
                params = ProtocolParams(p_t=1.0, multiplexing_gain=0.6, deadline=2, **extra)
                rngs = [np.random.default_rng(4) for _ in range(2)]
                got = epoch_outcomes(protocol, config, params, snr, masks, rngs[0])
                want = outcomes_whole_block(protocol, config, params, snr, masks, rngs[1])
                for a, b in zip(got, want, strict=True):
                    assert a.dtype == np.int64 and np.array_equal(a, b)
                assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@pytest.mark.parametrize("protocol", ["irarq", "ondma"])
def test_error_probability_memory_does_not_grow_with_the_chunk(protocol):
    # beyond the chunk's coin masks (8 bytes per epoch) and power rows (8 per
    # user and epoch), a call's traced peak is its tiles' working set: equal
    # at 2^16 and 2^18 epochs within 64 KiB, a bound fixed before the first run
    params = ProtocolParams(p_t=0.7, multiplexing_gain=0.45, deadline=2)
    system_error_probability(protocol, SCALAR2, params, 20.0, 1 << 12, seed=1)
    peaks = []
    for n in (1 << 16, 1 << 18):
        tracemalloc.start()
        try:
            system_error_probability(protocol, SCALAR2, params, 20.0, n, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peaks.append(peak - n * 8 * (SCALAR2.users + 1))
    assert abs(peaks[1] - peaks[0]) <= 64 * 1024, peaks
