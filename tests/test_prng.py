"""Baseline counter-based generator: reproducibility is the whole contract."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqmc.prng import _SETS_AHEAD, BaselinePrng, partial_fisher_yates

# frozen outputs of the documented construction; any change to the
# constants or mixing breaks cross-run reproducibility and must fail here
GOLDEN_SEED0 = (0xBB90C7A6337C19D9, 0x2319836A87853061,
                0x65684F19BD20F47F, 0xBA8A8EAB66A475FE)


class TestDeterminism:
    def test_golden_outputs(self):
        assert tuple(int(v) for v in BaselinePrng(0).uint64(4)) == GOLDEN_SEED0

    def test_counter_continuation(self):
        g = BaselinePrng(42, 7)
        a = np.concatenate([g.uniform(5), g.uniform(5)])
        b = BaselinePrng(42, 7).uniform(10)
        assert np.array_equal(a, b)

    def test_streams_and_seeds_differ(self):
        base = BaselinePrng(0).uint64(4)
        assert not np.array_equal(base, BaselinePrng(1).uint64(4))
        assert not np.array_equal(base, BaselinePrng(0, 1).uint64(4))

    @pytest.mark.parametrize("seed, stream, counter", [(0, 0, 0), (2**64 - 1, 5, 9),
                                                       (77, 2**70 + 3, 2**63)])
    def test_words_follow_the_documented_construction(self, seed, stream, counter):
        mask = (1 << 64) - 1

        def mix(z):
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)

        key = mix(mix(seed ^ 0x243F6A8885A308D3) ^ (stream * 0xD1B54A32D192ED03 & mask))
        words = [mix((key + (counter + i + 1) * 0x9E3779B97F4A7C15) & mask) for i in range(6)]
        g = BaselinePrng(seed, stream, counter)
        assert [int(v) for v in g.uint64(3)] == words[:3]
        assert g.uniform(3).tolist() == [(w >> 11) * 2.0**-53 for w in words[3:]]

    def test_uniform_peak_memory_is_two_outputs(self):
        # the words are mixed in place, then converted once
        g = BaselinePrng(4)
        g.uniform(25_600)
        tracemalloc.start()
        try:
            u = g.uniform(25_600)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * u.nbytes

    def test_uniform_range(self):
        u = BaselinePrng(3).uniform(10_000)
        assert u.min() >= 0.0
        assert u.max() < 1.0

    def test_negative_counter_refused_at_construction(self):
        with pytest.raises(ValueError, match="counter"):
            BaselinePrng(0, 3, counter=-1)

    @pytest.mark.parametrize("seed", [2**64, -1])
    def test_seed_outside_64_bits_refused_at_construction(self, seed):
        # reduced mod 2^64, 2^64 drew the stream of seed 0
        with pytest.raises(ValueError, match="seed must be in 0..2\\^64 - 1"):
            BaselinePrng(seed)

    def test_uniform_moments(self):
        u = BaselinePrng(12).uniform(200_000)
        assert u.mean() == pytest.approx(0.5, abs=0.005)
        assert u.var() == pytest.approx(1 / 12, abs=0.002)


class TestIndexSubset:
    def test_without_replacement(self):
        g = BaselinePrng(1)
        idx = g.index_subset(100, 30)
        assert len(set(idx.tolist())) == 30
        assert idx.min() >= 0 and idx.max() < 100

    def test_full_draw_is_permutation(self):
        idx = BaselinePrng(2).index_subset(8, 8)
        assert sorted(idx.tolist()) == list(range(8))

    def test_validation(self):
        with pytest.raises(ValueError):
            BaselinePrng(0).index_subset(5, 6)

    @given(st.integers(min_value=0, max_value=2**62), st.integers(1, 50))
    def test_subset_always_valid(self, seed, n):
        idx = BaselinePrng(seed).index_subset(n, min(n, 10))
        assert len(set(idx.tolist())) == len(idx)

    def test_roughly_uniform_inclusion(self):
        counts = np.zeros(10)
        for s in range(2000):
            counts[BaselinePrng(s, 5).index_subset(10, 3)] += 1
        freq = counts / 2000
        assert np.abs(freq - 0.3).max() < 0.05


def _pool_subset(u, n, k):
    """The plain partial Fisher-Yates over a materialized pool."""
    pool = np.arange(n)
    for j in range(k):
        r = j + int(u[j] * (n - j))
        pool[j], pool[r] = pool[r], pool[j]
    return pool[:k].copy()


_SIZES = st.one_of(st.integers(0, 40), st.sampled_from(
    [0, 1, 1023, 1024, 1025, 2051]))


class TestLookAhead:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**50),
           counter=st.sampled_from([0, 1, 5, 1021, 2**40 + 7]),
           calls=st.lists(st.tuples(st.sampled_from(["uint64", "uniform", "index_subset"]),
                                    _SIZES, st.integers(0, 30)), max_size=25))
    def test_every_draw_is_its_slice_of_one_bulk_draw(self, seed, stream, counter, calls):
        # Words and uniforms come straight from the counter, index sets from
        # their look-ahead block; either way output i of the stream is the same.
        total = sum(size for _, size, _ in calls)
        words = BaselinePrng(seed, stream, counter).uint64(total)
        units = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
        g = BaselinePrng(seed, stream, counter)
        used = 0
        for kind, size, extra in calls:
            lo, used = used, used + size
            if kind == "uint64":
                out, want = g.uint64(size), words[lo:used]
            elif kind == "uniform":
                out, want = g.uniform(size), units[lo:used]
            else:
                out = g.index_subset(size + extra, size)
                want = _pool_subset(units[lo:used], size + extra, size)
            assert out.dtype == want.dtype and np.array_equal(out, want)
            assert g._counter == counter + used

    def test_returned_words_do_not_alias_the_block(self):
        g = BaselinePrng(4)
        g.uint64(3)[:] = 0
        g.uniform(3)[:] = 0
        assert np.array_equal(g.uint64(4), BaselinePrng(4).uint64(10)[6:10])


class TestFisherYatesEquivalence:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 64, 200])
    def test_every_k_in_turn_on_one_stream(self, n):
        g, ref = BaselinePrng(9, n), BaselinePrng(9, n)
        for k in range(n + 1):
            out = g.index_subset(n, k)
            want = _pool_subset(ref.uniform(k), n, k)
            assert out.dtype == want.dtype == np.int64
            assert np.array_equal(out, want)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1),
           draws=st.lists(st.integers(0, 200).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(0, n))), max_size=20))
    def test_successive_draws_match_the_pool_loop(self, seed, draws):
        g, ref = BaselinePrng(seed, 1), BaselinePrng(seed, 1)
        for n, k in draws:
            assert np.array_equal(g.index_subset(n, k), _pool_subset(ref.uniform(k), n, k))


class TestIndexSetBlock:
    @pytest.mark.parametrize("n, k", [(10**6, 1000), (5000, 5000), (0, 0), (9, 0), (1, 1), (7, 1),
                                      (100, 10)]
                             + [(3 * _SETS_AHEAD, k)
                                for k in (_SETS_AHEAD - 1, _SETS_AHEAD, _SETS_AHEAD + 1)])
    def test_draw_for_draw_against_the_pool_loop(self, n, k):
        # Past the end of one block and into the next, at every size the
        # block's row count D = max(1, _SETS_AHEAD // k) changes around.
        draws = max(1, _SETS_AHEAD // max(k, 1)) + 2
        g, ref = BaselinePrng(11, k, counter=5), BaselinePrng(11, k, counter=5)
        for _ in range(draws):
            out = g.index_subset(n, k)
            want = _pool_subset(ref.uniform(k), n, k)
            assert out.dtype == want.dtype and np.array_equal(out, want)
        assert g._counter == 5 + draws * k

    @pytest.mark.parametrize("n, k", [(1, 1), (2, 2), (5, 5), (12, 4), (40, 25), (10**5, 3)])
    def test_kernel_rows_are_independent_draws(self, n, k):
        # Small n packs many repeated swap targets into each row.
        u = BaselinePrng(3, n).uniform(300 * k).reshape(300, k)
        want = np.array([_pool_subset(row, n, k) for row in u])
        assert np.array_equal(partial_fisher_yates(u, n), want)

    def test_switching_sizes_and_interleaved_uniforms(self):
        # uniform(20) skips two rows of the (100, 10) block; uniform(3) and
        # uniform(1) move the next draw off its rows.
        g, ref = BaselinePrng(8, 2, counter=13), BaselinePrng(8, 2, counter=13)
        for kind, n, k in [("set", 100, 10), ("set", 100, 10), ("uniform", 0, 3),
                           ("set", 100, 10), ("uniform", 0, 20), ("set", 100, 10),
                           ("set", 50, 10), ("set", 100, 7), ("set", 100, 10),
                           ("uniform", 0, 1), ("set", 100, 7), ("set", 8, 8)]:
            if kind == "uniform":
                assert np.array_equal(g.uniform(k), ref.uniform(k))
            else:
                assert np.array_equal(g.index_subset(n, k), _pool_subset(ref.uniform(k), n, k))
        assert g._counter == ref._counter

    def test_returned_sets_do_not_alias_the_block(self):
        g, ref = BaselinePrng(4), BaselinePrng(4)
        for _ in range(5):
            out = g.index_subset(100, 10)
            assert np.array_equal(out, _pool_subset(ref.uniform(10), 100, 10))
            assert not np.shares_memory(out, g._sets)
            out[:] = -1
