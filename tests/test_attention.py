import numpy as np
import pytest

from istanet import attention
from istanet.attention import (TSABlockConfig, TSABlockParams,
                               attention_scores, positional_encoding,
                               qkv_project, temporal_aggregate,
                               tsa_block_forward)
from istanet.data import SkeletonSequence
from istanet.engine import ConfigurationError, Parameter, Tensor
from istanet.model import ISTANet, ModelConfig, ce_label_smoothing

from helpers import composed_attention_scores, fd_grad, rel_err


def make_block(c_in=4, c_out=4, heads=2, c_qkv=2, u=4, seed=0, dtype=np.float64,
               k_u=3, k_t=3):
    cfg = TSABlockConfig(c_in=c_in, c_out=c_out, heads=heads, c_qkv=c_qkv,
                         k_u=k_u, k_t=k_t, gamma=0.1)
    params = TSABlockParams(cfg, u, rng=np.random.default_rng(seed), dtype=dtype)
    return cfg, params


class TestPositionalEncoding:
    def test_origin_values(self):
        pe = positional_encoding(4, 2, 3, 5)
        assert pe[0, 0, 0, 0] == 0.0  # sin(0)
        assert pe[1, 0, 0, 0] == 1.0  # cos(0)

    def test_constant_over_within_token_axes(self):
        pe = positional_encoding(4, 3, 5, 7)
        assert (pe == pe[:, :1, :1, :]).all()

    def test_range_and_injectivity(self):
        pe = positional_encoding(8, 1, 1, 512)
        assert (np.abs(pe) <= 1.0).all()
        cols = pe[:, 0, 0, :].T
        assert len({tuple(c) for c in cols}) == 512

    def test_table_is_built_once_and_read_only(self):
        pe = positional_encoding(4, 2, 3, 5, dtype=np.float32)
        assert pe is positional_encoding(4, 2, 3, 5, dtype=np.float32)
        assert pe.dtype == np.float32 and not pe.flags.writeable


class TestQKVProject:
    def test_zero_input_isolates_positional_encoding(self):
        cfg, params = make_block()
        x = Tensor(np.zeros((4, 2, 2, 4)))
        q, _, _ = qkv_project(x, params, h=0)
        pe = positional_encoding(4, 2, 2, 4)
        expect = np.einsum("oi,itsu->otsu", params.q_weights[0].data, pe)
        np.testing.assert_allclose(q.data, expect, rtol=1e-12)

    def test_values_are_unprojected_input_slice(self):
        cfg, params = make_block()
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(4, 2, 2, 4)))
        for h in range(cfg.heads):
            _, _, v = qkv_project(x, params, h)
            np.testing.assert_array_equal(v.data, x.data[2 * h:2 * (h + 1)])

    def test_projection_gradients(self):
        cfg, params = make_block()
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 2, 2, 4))
        w0 = params.q_weights[0].data.copy()

        def loss_np(w):
            params.q_weights[0].data = w
            q, _, _ = qkv_project(Tensor(x), params, 0)
            return float((q.data ** 2).sum())

        params.q_weights[0].data = w0
        q, _, _ = qkv_project(Tensor(x), params, 0)
        (q * q).sum().backward()
        fd = fd_grad(loss_np, [w0], wrt=0)
        assert rel_err(fd, params.q_weights[0].grad) <= 1e-4
        params.q_weights[0].data = w0


class TestAttentionScores:
    def test_alpha_zero_returns_m(self):
        rng = np.random.default_rng(3)
        q = Tensor(rng.normal(size=(2, 2, 2, 3)))
        k = Tensor(rng.normal(size=(2, 2, 2, 3)))
        m = Tensor(rng.normal(size=(3, 3)))
        out = attention_scores(q, k, Tensor(np.zeros(())), m, c_beta=8)
        np.testing.assert_array_equal(out.data, m.data)

    def test_scores_within_alpha_of_m(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            q = Tensor(rng.normal(size=(2, 2, 2, 3)) * 10)
            k = Tensor(rng.normal(size=(2, 2, 2, 3)) * 10)
            m = Tensor(rng.normal(size=(3, 3)))
            alpha = Tensor(rng.normal(size=()))
            out = attention_scores(q, k, alpha, m, c_beta=8)
            assert (np.abs(out.data - m.data) <= np.abs(alpha.data)).all()

    def test_dominant_token_diagonal(self):
        # two tokens, all feature mass on token 0
        q = np.zeros((1, 1, 4, 2))
        q[0, 0, :, 0] = 2.0  # squared norm 16
        c_beta = 4.0
        out = attention_scores(Tensor(q), Tensor(q), Tensor(np.ones(())),
                               Tensor(np.zeros((2, 2))), c_beta=c_beta)
        np.testing.assert_allclose(out.data[0, 0], np.tanh(16 / np.sqrt(c_beta)))
        np.testing.assert_allclose(out.data[1, 1], 0.0)


def score_inputs(rng, dtype, rank, u=5, c=3, n=2):
    """q, k, alpha, M and an upstream gradient for one score map; q and k
    are scaled so that the tanh ranges from linear to saturated."""
    shape = ((n,) if rank == 5 else ()) + (c, 2, 2, u)
    q = rng.normal(size=shape) * 2
    k = rng.normal(size=shape) * 2
    alpha = rng.normal(size=())
    m = rng.normal(size=(u, u))
    upstream = rng.normal(size=shape[:-4] + (u, u))
    return [np.asarray(a, dtype=dtype) for a in (q, k, alpha, m, upstream)]


def scores_and_grads(fn, q, k, alpha, m, upstream, c_beta=12):
    """Output of fn and the gradients of sum(out * upstream) w.r.t. every
    input that is a Tensor (None for the others)."""
    leaves = [Parameter("q", q), Parameter("k", k), alpha, m]
    out = fn(*leaves, c_beta=c_beta)
    (out * Tensor(upstream)).sum().backward()
    return out, [x.grad if isinstance(x, Tensor) else None for x in leaves]


def tape_nodes(out):
    """Op nodes (tensors with parents) reachable from `out`."""
    seen, stack = set(), [out]
    while stack:
        t = stack.pop()
        if id(t) not in seen and t._parents:
            seen.add(id(t))
            stack.extend(t._parents)
    return len(seen)


def readme_blocks_config():
    return ModelConfig(
        window=(1, 1, 1), in_channels=3, frames=40, joints=5, entities=2,
        embed_channels=16, gamma=0.1,
        blocks=[TSABlockConfig(c_in=16, c_out=16, heads=2, c_qkv=4),
                TSABlockConfig(c_in=16, c_out=32, heads=2, c_qkv=4)],
        num_classes=4)


class TestFusedScoreNode:
    """attention_scores is one tape node after the contraction; it must give
    the bytes of the composed primitive chain, forward and backward."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rank", [4, 5])
    @pytest.mark.parametrize("operands", ["tensors", "float-alpha-ndarray-m"])
    def test_bytes_equal_composed_chain(self, dtype, rank, operands):
        q, k, alpha, m, upstream = score_inputs(np.random.default_rng(rank), dtype, rank)
        if operands == "tensors":
            alpha, m = Parameter("alpha", alpha), Parameter("m", m)
        else:
            alpha = float(alpha)
        fused, fused_grads = scores_and_grads(attention_scores, q, k, alpha, m, upstream)
        ref, ref_grads = scores_and_grads(composed_attention_scores, q, k, alpha, m, upstream)
        assert fused.dtype == ref.dtype == dtype
        assert fused.data.tobytes() == ref.data.tobytes()
        for got, want in zip(fused_grads, ref_grads):
            if want is None:
                assert got is None
            else:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_out_of_band_entry_is_nudged_into_band(self):
        # tanh saturates to exactly 1 at entry (0, 0), and 1 + 7e-8 rounds up
        # to the next float32 after 1, 1.19e-7 away from M: out of band
        q = np.zeros((1, 1, 4, 2), dtype=np.float32)
        q[0, 0, :, 0] = 10.0
        alpha = np.asarray(7e-8, dtype=np.float32)
        m = np.ones((2, 2), dtype=np.float32)
        raw = alpha * np.float32(1.0) + m
        assert np.abs(raw - m)[0, 0] > alpha
        upstream = np.random.default_rng(0).normal(size=(2, 2)).astype(np.float32)
        args = (q, q.copy(), Parameter("alpha", alpha), Parameter("m", m), upstream)
        fused, fused_grads = scores_and_grads(attention_scores, *args, c_beta=4)
        ref, ref_grads = scores_and_grads(composed_attention_scores, *args, c_beta=4)
        assert fused.data.tobytes() == ref.data.tobytes()
        assert (np.abs(fused.data - m) <= alpha).all()
        assert fused.data[0, 0] == np.float32(1.0)
        for got, want in zip(fused_grads, ref_grads):
            assert got.tobytes() == want.tobytes()

    def test_python_float_m_is_nudged_in_the_score_dtype(self):
        # the same saturated entry with M = 1.0 given as a Python float: the
        # nudge must step in float32, where M takes the scores' dtype (a
        # float64 step rounds back to the same float32 and never ends)
        q = np.zeros((1, 1, 4, 2), dtype=np.float32)
        q[0, 0, :, 0] = 10.0
        alpha = Parameter("alpha", np.asarray(7e-8, dtype=np.float32))
        out = attention_scores(Parameter("q", q), Parameter("k", q), alpha, 1.0, c_beta=4)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out.data, np.ones((2, 2), dtype=np.float32))

    def test_adds_two_tape_nodes(self):
        q, k, alpha, m, _ = score_inputs(np.random.default_rng(1), np.float32, 5)
        args = [Parameter(name, a) for name, a in zip("qkam", (q, k, alpha, m))]
        assert tape_nodes(attention_scores(*args, c_beta=12)) == 2
        assert tape_nodes(composed_attention_scores(*args, c_beta=12)) == 6

    def test_gradients_match_central_differences(self):
        q, k, alpha, m, upstream = score_inputs(np.random.default_rng(2), np.float64, 5)

        def loss(q_, alpha_, m_):
            out = attention_scores(Tensor(q_), Tensor(k), Tensor(alpha_), Tensor(m_), c_beta=12)
            return float((out.data * upstream).sum())

        _, grads = scores_and_grads(attention_scores, q, k, Parameter("alpha", alpha),
                                    Parameter("m", m), upstream)
        for i, grad in enumerate((grads[0], grads[2], grads[3])):
            assert rel_err(fd_grad(loss, [q, alpha, m], wrt=i), grad) <= 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_readme_blocks_train_step_equals_composed_chain(self, dtype, monkeypatch):
        cfg = readme_blocks_config()
        rng = np.random.default_rng(3)
        seqs = [SkeletonSequence(rng.normal(size=(3, 40, 5, 2)), label=c) for c in (0, 1)]

        def loss_and_grads():
            model = ISTANet(cfg, rng=np.random.default_rng(0), dtype=dtype)
            tokens = np.stack([model.tokenize_sample(s) for s in seqs])
            loss = ce_label_smoothing(model.forward_tokens(tokens, "train"), [0, 1],
                                      smoothing=0.1, temperature=1.0)
            loss.backward()
            return loss.data.tobytes(), {p.name: p.grad.tobytes() for p in model.parameters()}

        fused = loss_and_grads()
        monkeypatch.setattr(attention, "attention_scores", composed_attention_scores)
        assert loss_and_grads() == fused


class TestTemporalAggregate:
    def test_identity_kernel_doubles_input(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(3, 4, 2, 2)))
        w = Tensor(np.eye(3)[:, :, None])
        out = temporal_aggregate(x, w, Tensor(np.zeros(3)), k_t=1)
        np.testing.assert_allclose(out.data, 2 * x.data)

    def test_zero_weights_pass_residual(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(3, 4, 2, 2)))
        out = temporal_aggregate(x, Tensor(np.zeros((3, 3, 3))),
                                 Tensor(np.zeros(3)), k_t=3)
        np.testing.assert_array_equal(out.data, x.data)

    def test_gradients(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 4, 2, 2))
        w = rng.normal(size=(2, 2, 3))
        b = rng.normal(size=2)
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = temporal_aggregate(xt, wt, bt, k_t=3)
        (out * out).sum().backward()
        for i, t in enumerate((xt, wt, bt)):
            fd = fd_grad(lambda a, bb, c: float(
                (temporal_aggregate(Tensor(a), Tensor(bb), Tensor(c), k_t=3).data ** 2).sum()),
                [x, w, b], wrt=i)
            assert rel_err(fd, t.grad) <= 1e-4


class TestBlockForward:
    def test_single_token_degenerate(self):
        cfg, params = make_block(u=1)
        x = Tensor(np.random.default_rng(8).normal(size=(4, 2, 2, 1)))
        out = tsa_block_forward(x, params, cfg, mode="infer")
        assert out.shape == (4, 2, 2, 1)
        assert np.isfinite(out.data).all()

    @pytest.mark.parametrize("c_out", [4, 8])
    def test_output_shape(self, c_out):
        cfg, params = make_block(c_out=c_out)
        x = Tensor(np.random.default_rng(9).normal(size=(4, 2, 2, 4)))
        out = tsa_block_forward(x, params, cfg, mode="infer")
        assert out.shape == (c_out, 2, 2, 4)

    def test_batched_output_shape(self):
        cfg, params = make_block(c_out=8)
        x = Tensor(np.random.default_rng(10).normal(size=(3, 4, 2, 2, 4)))
        out = tsa_block_forward(x, params, cfg, mode="train")
        assert out.shape == (3, 8, 2, 2, 4)

    def test_determinism(self):
        cfg, params = make_block()
        x = Tensor(np.random.default_rng(11).normal(size=(4, 2, 2, 4)))
        a = tsa_block_forward(x, params, cfg, mode="infer").data
        b = tsa_block_forward(x, params, cfg, mode="infer").data
        assert a.tobytes() == b.tobytes()

    def test_residual_dominated_golden_values(self):
        # alpha=0, M=identity, zeroed conv weights: attention passes values
        # through, the token conv contributes only its bias, and the block
        # output is computable in closed form from the residual path.
        cfg, params = make_block()
        for h in range(cfg.heads):
            params.alphas[h].data = np.zeros(())
            params.ms[h].data = np.eye(4)
        params.ffn_conv_weight.data[:] = 0.0
        params.ffn_pw_weight.data[:] = 0.0
        params.ta_weight.data[:] = 0.0
        params.ffn_pw_bias.data = np.array([0.5, -0.5, 0.25, 0.0])
        params.ta_bias.data = np.array([0.1, 0.2, -0.3, 0.4])
        params.ffn_norm.eps = params.ta_norm.eps = 1e-14
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 2, 2, 4))
        out = tsa_block_forward(Tensor(x), params, cfg, mode="infer")
        gamma = cfg.gamma
        act = lambda v: np.where(v >= 0, v, gamma * v)
        # the token-conv branch dies in the zeroed pointwise conv, so the
        # output is act(x + pw_bias + ta_bias) from the residual path alone
        pre_ta = params.ffn_pw_bias.data.reshape(4, 1, 1, 1) + x
        expect = act(pre_ta + params.ta_bias.data.reshape(4, 1, 1, 1))
        np.testing.assert_allclose(out.data, expect, rtol=1e-10)

    def test_every_parameter_receives_gradient(self):
        cfg, params = make_block(c_out=8)  # includes the residual projection
        x = Tensor(np.random.default_rng(13).normal(size=(4, 2, 2, 4)))
        out = tsa_block_forward(x, params, cfg, mode="train")
        (out * out).sum().backward()
        for p in params.parameters():
            assert p.grad is not None, p.name
            assert np.abs(p.grad).max() > 0, f"dead parameter {p.name}"

    def test_full_block_gradient_check(self):
        cfg, params = make_block()
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, 2, 2, 4))
        # pad channels to c_in=4 via a fixed lift so the input is (4,2,2,4)
        x4 = np.concatenate([x, 0.5 * x], axis=0)

        def loss_with(p, name, value):
            old = p.data
            p.data = value
            res = tsa_block_forward(Tensor(x4), params, cfg, mode="train")
            out = float((res.data ** 2).sum())
            p.data = old
            return out

        out = tsa_block_forward(Tensor(x4), params, cfg, mode="train")
        (out * out).sum().backward()
        worst = 0.0
        for p in params.parameters():
            base = p.data.copy()
            fd = np.zeros_like(base).reshape(-1)
            flat = base.reshape(-1)
            for i in range(flat.size):
                pert = base.copy().reshape(-1)
                pert[i] = flat[i] + 1e-5
                hi = loss_with(p, p.name, pert.reshape(base.shape))
                pert[i] = flat[i] - 1e-5
                lo = loss_with(p, p.name, pert.reshape(base.shape))
                fd[i] = (hi - lo) / 2e-5
            worst = max(worst, rel_err(fd.reshape(base.shape), p.grad, floor=1e-4))
        assert worst <= 1e-4


class TestBlockConfig:
    def test_invalid_channel_doubling(self):
        with pytest.raises(ConfigurationError):
            TSABlockConfig(c_in=4, c_out=12, heads=2, c_qkv=1)

    def test_heads_must_divide_channels(self):
        with pytest.raises(ConfigurationError):
            TSABlockConfig(c_in=4, c_out=4, heads=3, c_qkv=1)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            TSABlockConfig(c_in=4, c_out=4, heads=2, c_qkv=1, k_u=2)
