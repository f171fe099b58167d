import numpy as np
import pytest

from istanet.data import SkeletonSequence, pad_to_windows
from istanet.engine import Tensor, UsageError
from istanet.tokenizer import (EmbedParams, embed, entity_rearrange,
                               partition, tokenize, token_rows, u_layout)

from helpers import unpartition


def random_seq(rng, c=3, t=6, j=4, e=2):
    return SkeletonSequence(rng.normal(size=(c, t, j, e)), label=0)


class TestEntityRearrange:
    def test_two_entities_swap_half_the_time(self):
        rng = np.random.default_rng(1)
        seq = random_seq(rng, e=2)
        swaps = 0
        n = 4000
        for _ in range(n):
            out = entity_rearrange(seq, rng)
            swaps += int(not np.array_equal(out.data, seq.data))
        assert abs(swaps / n - 0.5) < 0.02

    def test_only_entity_order_changes(self):
        rng = np.random.default_rng(2)
        seq = random_seq(rng, e=3)
        out = entity_rearrange(seq, rng)
        # sorting entity slices by a canonical key restores the original
        key = lambda d: np.lexsort([d.reshape(-1, d.shape[-1])[0]])
        np.testing.assert_array_equal(
            np.sort(out.data, axis=-1), np.sort(seq.data, axis=-1))

    def test_frozen_indices_keep_slots(self):
        rng = np.random.default_rng(3)
        seq = random_seq(rng, e=3)
        for _ in range(50):
            out = entity_rearrange(seq, rng, frozen=(0,))
            np.testing.assert_array_equal(out.data[..., 0], seq.data[..., 0])

    def test_uniform_over_permutations(self):
        from scipy import stats
        rng = np.random.default_rng(7)
        seq = SkeletonSequence(np.arange(2 * 1 * 1 * 3, dtype=float).reshape(2, 1, 1, 3),
                               label=0)
        counts = {}
        n = 6000
        for _ in range(n):
            out = entity_rearrange(seq, rng)
            key = tuple(out.data[0, 0, 0])
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        _, p = stats.chisquare(list(counts.values()))
        assert p > 0.01


class TestPartition:
    def test_full_window_is_single_token(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 2, 2))
        out = partition(x, (3, 2, 2))
        assert out.shape == (2, 3, 4, 1)
        np.testing.assert_array_equal(unpartition(out, (3, 2, 2), (3, 2, 2)), x)

    def test_token_count_for_reference_window(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 120, 25, 2))
        out = partition(x, (20, 1, 2))
        assert out.shape == (3, 20, 2, 150)

    def test_scalar_multiset_preserved(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            c = int(rng.integers(2, 4))
            t, j, e = (int(rng.integers(1, 12)) for _ in range(3))
            w = tuple(int(rng.integers(1, n + 1)) for n in (t, j, e))
            x = rng.normal(size=(c, t, j, e))
            padded = pad_to_windows(x, w)
            tokens = partition(padded, w)
            assert sorted(tokens.reshape(-1)) == sorted(padded.reshape(-1))

    def test_divisibility_enforced(self):
        with pytest.raises(UsageError, match="pad"):
            partition(np.zeros((2, 5, 2, 2)), (2, 1, 1))

    def test_block_ordering_temporal_outermost(self):
        # distinct values per (t,j,e) block let us read the u layout directly
        t, j, e = 4, 2, 2
        w = (2, 1, 1)
        x = np.zeros((2, t, j, e))
        for tb in range(2):
            for jb in range(2):
                for eb in range(2):
                    x[:, tb * 2:(tb + 1) * 2, jb, eb] = (tb * 2 + jb) * 2 + eb
        tokens = partition(x, w)
        for u in range(8):
            assert (tokens[..., u] == u).all()


class TestUnpartition:
    def test_round_trip_random(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            c = int(rng.integers(2, 4))
            t, j, e = (int(rng.integers(1, 10)) for _ in range(3))
            w = tuple(int(rng.integers(1, n + 1)) for n in (t, j, e))
            x = pad_to_windows(rng.normal(size=(c, t, j, e)), w)
            np.testing.assert_array_equal(unpartition(partition(x, w), w, x.shape[1:]), x)

    def test_single_window_is_reshape_inverse(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 2, 3, 2))
        w = (2, 3, 2)
        np.testing.assert_array_equal(unpartition(partition(x, w), w, (2, 3, 2)), x)

    def test_round_trip_after_permutation_gives_permuted(self):
        rng = np.random.default_rng(10)
        seq = random_seq(rng, t=4, j=2, e=2)
        permuted = entity_rearrange(seq, np.random.default_rng(3))
        w = (2, 1, 2)
        back = unpartition(partition(permuted.data, w), w, permuted.data.shape[1:])
        np.testing.assert_array_equal(back, permuted.data)

    def test_layout_mismatch_rejected(self):
        from istanet.engine import DimensionError
        with pytest.raises(DimensionError):
            unpartition(np.zeros((2, 2, 2, 3)), (2, 1, 2), (4, 1, 2))


class TestEquivariance:
    @pytest.mark.parametrize("e", [2, 3])
    def test_entity_permutation_permutes_token_slots(self, e):
        rng = np.random.default_rng(11 + e)
        for _ in range(20):
            t, j = int(rng.integers(2, 8)), int(rng.integers(1, 6))
            seq = random_seq(rng, t=t, j=j, e=e)
            w = (int(rng.integers(1, t + 1)), int(rng.integers(1, j + 1)), e)
            perm = rng.permutation(e)
            permuted = seq.data[:, :, :, perm]
            tok_orig, _ = tokenize(seq.data, w)
            tok_perm, _ = tokenize(permuted, w)
            # slot s = local_j * e + local_e; entity slots permute inside tokens
            s_orig = tok_orig.reshape(tok_orig.shape[0], tok_orig.shape[1], -1, e,
                                      tok_orig.shape[3])
            s_perm = tok_perm.reshape(s_orig.shape)
            np.testing.assert_array_equal(s_perm, s_orig[:, :, :, perm])


class TestEmbed:
    def test_identity_extension_keeps_input_channels(self):
        rng = np.random.default_rng(12)
        tokens = Tensor(np.abs(rng.normal(size=(3, 2, 2, 4))))  # nonnegative
        p = EmbedParams(3, 5, gamma=0.1, rng=rng, dtype=np.float64)
        p.weight.data = np.zeros((5, 3))
        p.weight.data[:3, :3] = np.eye(3)
        p.bias.data[:] = 0.0
        p.norm.eps = 1e-14
        out = embed(tokens, p, mode="infer")
        np.testing.assert_allclose(out.data[:3], tokens.data, rtol=1e-6)

    def test_zero_input_gives_activated_shifted_bias(self):
        rng = np.random.default_rng(13)
        p = EmbedParams(3, 4, gamma=0.2, rng=rng, dtype=np.float64)
        p.bias.data = np.array([1.0, -1.0, 0.5, -0.5])
        tokens = Tensor(np.zeros((3, 2, 2, 2)))
        out = embed(tokens, p, mode="infer")
        expect = np.where(p.bias.data >= 0, p.bias.data, 0.2 * p.bias.data)
        np.testing.assert_allclose(out.data, np.broadcast_to(
            expect.reshape(4, 1, 1, 1), out.shape), rtol=1e-4)


class TestULayout:
    def test_blocks_per_axis_round_up_and_match_tokenize(self):
        assert u_layout((5, 25, 2), (2, 1, 2)) == (3, 25, 1)
        tokens, layout = tokenize(np.zeros((3, 5, 25, 2)), (2, 1, 2))
        assert layout == (3, 25, 1) and tokens.shape[3] == 3 * 25 * 1


class TestTokenRows:
    def test_row_count_and_columns(self):
        tokens, layout = tokenize(np.zeros((3, 2, 2, 2)), (1, 2, 2))
        rows = list(token_rows(tokens, layout))
        assert len(rows) == 24
        assert all(len(r) == 8 for r in rows)
        assert {r[0] for r in rows} == {0, 1}
