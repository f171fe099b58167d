import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from istanet import attention, engine
from istanet.attention import (TSABlockConfig, TSABlockParams,
                               attention_scores, positional_encoding,
                               qkv_project, temporal_aggregate,
                               tsa_block_forward)
from istanet.data import SkeletonSequence
from istanet.engine import ConfigurationError, Parameter, Tensor, UsageError
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
        engine.backward(engine.tensor_sum(engine.mul(q, q)))
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
    engine.backward(engine.tensor_sum(engine.mul(out, Tensor(upstream))))
    return out, [x.grad if isinstance(x, Tensor) else None for x in leaves]


def record_blocks(monkeypatch):
    """Make attention._score_blocks record the blocks of every call; returns
    the list of recorded block lists."""
    calls, score_blocks = [], attention._score_blocks

    def spy(shape):
        calls.append(score_blocks(shape))
        return calls[-1]

    monkeypatch.setattr(attention, "_score_blocks", spy)
    return calls


def record_scans(monkeypatch):
    """Make attention._scan_band record, for every full scan it runs,
    whether the scan changed its block; returns the list of records."""
    scans, scan_band = [], attention._scan_band

    def spy(out, center, radius):
        before = out.copy()
        scan_band(out, center, radius)
        scans.append(not np.array_equal(before, out))

    monkeypatch.setattr(attention, "_scan_band", spy)
    return scans


def record_threads(monkeypatch):
    """Make the per-sample band pre-test record the thread that runs each
    block; returns the set of thread idents."""
    idents, band_pretest = set(), attention._band_pretest

    def spy(dtype, m, radius):
        in_band = band_pretest(dtype, m, radius)

        def recorded(tau):
            idents.add(threading.get_ident())
            return in_band(tau)
        return recorded

    monkeypatch.setattr(attention, "_band_pretest", spy)
    return idents


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


def readme_blocks_train_step(dtype):
    """Loss bytes and gradient bytes of one train step of the README blocks
    at window (1,1,1), so U = 400, on two random samples."""
    rng = np.random.default_rng(3)
    seqs = [SkeletonSequence(rng.normal(size=(3, 40, 5, 2)), label=c) for c in (0, 1)]
    model = ISTANet(readme_blocks_config(), rng=np.random.default_rng(0), dtype=dtype)
    tokens = np.stack([model.tokenize_sample(s) for s in seqs])
    loss = ce_label_smoothing(model.forward_tokens(tokens, "train"), [0, 1],
                              smoothing=0.1, temperature=1.0)
    engine.backward(loss)
    return loss.data.tobytes(), {p.name: p.grad.tobytes() for p in model.parameters()}


class TestFusedScoreNode:
    """attention_scores is one tape node after the contraction; it must give
    the bytes of the composed primitive chain, forward and backward."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rank", [4, 5])
    def test_bytes_equal_composed_chain(self, dtype, rank):
        self.check_bytes_equal_composed_chain(dtype, rank, seed=rank, n=2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_per_sample_blocks_equal_composed_chain(self, dtype, monkeypatch):
        # a map larger than SCORE_BLOCK_ELEMENTS is worked a sample at a time
        monkeypatch.setattr(attention, "SCORE_BLOCK_ELEMENTS", 3 * 5 * 5)
        blocks = record_blocks(monkeypatch)
        self.check_bytes_equal_composed_chain(dtype, 5, seed=5, n=4)
        assert blocks == [[slice(b, b + 1) for b in range(4)]]

    @staticmethod
    def check_bytes_equal_composed_chain(dtype, rank, seed, n):
        q, k, alpha, m, upstream = score_inputs(np.random.default_rng(seed), dtype, rank, n=n)
        alpha, m = Parameter("alpha", alpha), Parameter("m", m)
        fused, fused_grads = scores_and_grads(attention_scores, q, k, alpha, m, upstream)
        ref, ref_grads = scores_and_grads(composed_attention_scores, q, k, alpha, m, upstream)
        assert fused.dtype == ref.dtype == dtype
        assert fused.data.tobytes() == ref.data.tobytes()
        for got, want in zip(fused_grads, ref_grads):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_threaded_blocks_equal_composed_chain(self, dtype, threads, n, monkeypatch):
        # every sample is its own block, and THREADS is set here, not read
        # from the host, so a one-CPU host runs the pool too (the pool may
        # run its ranges on one worker); U = 7 is odd, so the backward's row
        # ranges differ in length. A short switch interval makes the threads
        # interleave within each block
        monkeypatch.setattr(attention, "SCORE_BLOCK_ELEMENTS", 0)
        monkeypatch.setattr(attention, "THREADS", threads)
        idents = record_threads(monkeypatch)
        q, k, alpha, m, upstream = score_inputs(np.random.default_rng(n), dtype, 5, u=7, n=n)
        alpha, m = Parameter("alpha", alpha), Parameter("m", m)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            fused, fused_grads = scores_and_grads(attention_scores, q, k, alpha, m, upstream)
        finally:
            sys.setswitchinterval(interval)
        assert (len(idents) > 1) == (threads > 1 and n > 1)
        ref, ref_grads = scores_and_grads(composed_attention_scores, q, k, alpha, m, upstream)
        assert fused.data.tobytes() == ref.data.tobytes()
        for got, want in zip(fused_grads, ref_grads):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("invalid", ["raise", "ignore"])
    def test_workers_keep_the_callers_errstate(self, invalid, monkeypatch):
        # alpha = inf: sample 0's tanh is positive, so alpha * t = inf, but
        # sample 1's q is zero, so alpha * tanh(0) = inf * 0 is invalid, on
        # the worker's block only. Under numpy's default state the worker
        # would warn, which this suite's filters make an error
        monkeypatch.setattr(attention, "SCORE_BLOCK_ELEMENTS", 0)
        monkeypatch.setattr(attention, "THREADS", 2)
        idents = record_threads(monkeypatch)
        q = np.zeros((2, 1, 1, 2, 3))
        q[0] = 1.0
        args = (Tensor(q), Tensor(q), Tensor(np.asarray(np.inf)), Tensor(np.zeros((3, 3))))
        with np.errstate(invalid=invalid):
            if invalid == "raise":
                with pytest.raises(FloatingPointError):
                    attention_scores(*args, c_beta=4)
            else:
                out = attention_scores(*args, c_beta=4)
                assert len(idents) == 2
                assert np.isposinf(out.data[0]).all() and np.isnan(out.data[1]).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_per_sample_blocks_nudge_a_later_sample(self, dtype, monkeypatch):
        # only sample 2 saturates the tanh, at entry (0, 0); alpha lies between
        # half an ulp and one ulp of M = 1 there, so alpha + 1 rounds up to
        # 1 + ulp, out of band, and the nudge has to act in block 2
        monkeypatch.setattr(attention, "SCORE_BLOCK_ELEMENTS", 0)
        blocks = record_blocks(monkeypatch)
        scans = record_scans(monkeypatch)
        q = np.zeros((3, 1, 1, 4, 2), dtype=dtype)
        q[2, 0, 0, :, 0] = 10.0
        alpha = np.asarray(0.6 * np.finfo(dtype).eps, dtype=dtype)
        m = np.ones((2, 2), dtype=dtype)
        assert np.abs(alpha + m - m)[0, 0] > alpha
        upstream = np.random.default_rng(0).normal(size=(3, 2, 2)).astype(dtype)
        args = (q, q.copy(), Parameter("alpha", alpha), Parameter("m", m), upstream)
        fused, fused_grads = scores_and_grads(attention_scores, *args, c_beta=4)
        assert len(blocks[0]) == 3 and any(scans)
        ref, ref_grads = scores_and_grads(composed_attention_scores, *args, c_beta=4)
        assert fused.data.tobytes() == ref.data.tobytes()
        assert (fused.data == 1).all()
        for got, want in zip(fused_grads, ref_grads):
            assert got.tobytes() == want.tobytes()

    def test_out_of_band_entry_is_nudged_into_band(self, monkeypatch):
        # tanh saturates to exactly 1 at entry (0, 0), and 1 + 7e-8 rounds up
        # to the next float32 after 1, 1.19e-7 away from M: out of band
        scans = record_scans(monkeypatch)
        q = np.zeros((1, 1, 4, 2), dtype=np.float32)
        q[0, 0, :, 0] = 10.0
        alpha = np.asarray(7e-8, dtype=np.float32)
        m = np.ones((2, 2), dtype=np.float32)
        raw = alpha * np.float32(1.0) + m
        assert np.abs(raw - m)[0, 0] > alpha
        upstream = np.random.default_rng(0).normal(size=(2, 2)).astype(np.float32)
        args = (q, q.copy(), Parameter("alpha", alpha), Parameter("m", m), upstream)
        fused, fused_grads = scores_and_grads(attention_scores, *args, c_beta=4)
        assert scans == [True]
        ref, ref_grads = scores_and_grads(composed_attention_scores, *args, c_beta=4)
        assert fused.data.tobytes() == ref.data.tobytes()
        assert (np.abs(fused.data - m) <= alpha).all()
        assert fused.data[0, 0] == np.float32(1.0)
        for got, want in zip(fused_grads, ref_grads):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("operands", ["python-float-m", "float-alpha-f64-m",
                                          "f32-alpha-f64-m"])
    def test_refuses_operands_outside_the_contract(self, operands, monkeypatch):
        # alpha and M must be Tensors of the Gram matrix's dtype (float32
        # here). "float-alpha-f64-m" is a float alpha that the float32 cast
        # rounds up, with a float64 M: its saturated entry lies ~2^26 float64
        # ulps out of band, which an ulp-by-ulp nudge would take that long to
        # close, so the refusal has to come before any scan
        def no_scan(out, center, radius):
            raise AssertionError("the full band scan ran")

        monkeypatch.setattr(attention, "_scan_band", no_scan)
        q = np.zeros((1, 1, 4, 2), dtype=np.float32)
        q[0, 0, :, 0] = 10.0
        m64 = Parameter("m", np.zeros((2, 2)))
        alpha, m = {"python-float-m": (Parameter("alpha", np.float32(7e-8)), 1.0),
                    "float-alpha-f64-m": (1 + 0.9 * 2.0 ** -23, m64),
                    "f32-alpha-f64-m": (Parameter("alpha", np.float32(1)), m64)}[operands]
        with pytest.raises(UsageError, match="0-d Tensor"):
            attention_scores(Parameter("q", q), Parameter("k", q), alpha, m, c_beta=4)

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
        # U = 400 and N = 2: each (2, U, U) map is worked a sample at a time
        blocks = record_blocks(monkeypatch)
        fused = readme_blocks_train_step(dtype)
        assert blocks and all(b == [slice(0, 1), slice(1, 2)] for b in blocks)
        monkeypatch.setattr(attention, "attention_scores", composed_attention_scores)
        assert readme_blocks_train_step(dtype) == fused

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_readme_blocks_train_step_runs_no_full_scan(self, dtype, monkeypatch):
        # at init M = 0 and no tanh comes within a few ulps of 1, so the
        # bound clears every sample block
        blocks, scans = record_blocks(monkeypatch), record_scans(monkeypatch)
        readme_blocks_train_step(dtype)
        assert len(blocks) == 4 and scans == []

    @given(case=st.fixed_dictionaries(dict(
        seed=st.integers(0, 2 ** 32 - 1),
        dtype=st.sampled_from([np.float32, np.float64]),
        gram_sign=st.sampled_from(["mixed", "positive", "negative"]),
        gram_scale=st.floats(-3, 1.5),
        alpha_scale=st.floats(-3, 0.3),
        subnormal_alpha=st.sampled_from([None, None, None, 1, 3, 8, 61]),
        alpha_sign=st.sampled_from([1.0, -1.0]),
        m_over_alpha=st.floats(0, 1),
        n=st.integers(2, 4),
        u=st.integers(2, 6))))
    # a one-subnormal alpha in each dtype: products alpha * t round up onto
    # alpha itself for t > 0.5, the case the bound's eta term covers
    @example(case=dict(seed=0, dtype=np.float32, gram_sign="positive", gram_scale=0.0,
                       alpha_scale=0.0, subnormal_alpha=1, alpha_sign=1.0,
                       m_over_alpha=0.3, n=4, u=6))
    @example(case=dict(seed=0, dtype=np.float64, gram_sign="positive", gram_scale=0.0,
                       alpha_scale=0.0, subnormal_alpha=1, alpha_sign=1.0,
                       m_over_alpha=0.3, n=4, u=6))
    @settings(max_examples=300, deadline=None)
    def test_per_sample_blocks_equal_composed_chain_property(self, case):
        """Every sample is its own block, so the max|tanh| pre-test decides
        each one. The Gram matrix runs from linear (1e-3) to saturated (30,
        where tanh rounds to exactly +-1) and can be all of one sign;
        |alpha| is 1e-3 to 2, or a few subnormals of the dtype (where a
        product can round up to alpha itself), with either sign; max|M|
        runs from 1e-3 |alpha| up to |alpha| / (0.6 eps), where the rounding
        of + M alone can leave the band. q, k, alpha and M share the dtype.
        The blocks run on two threads, so the samples and the rows split
        unevenly for odd N and U."""
        rng = np.random.default_rng(case["seed"])
        dtype = case["dtype"]
        shape = (case["n"], 2, 2, 2, case["u"])
        q, k = rng.normal(size=shape), rng.normal(size=shape)
        if case["gram_sign"] != "mixed":
            q, k = np.abs(q), np.abs(k) * (1.0 if case["gram_sign"] == "positive" else -1.0)
        gram_scale = 10.0 ** (case["gram_scale"] / 2)
        alpha = float(dtype(case["alpha_sign"] * (
            10.0 ** case["alpha_scale"] if case["subnormal_alpha"] is None else
            case["subnormal_alpha"] * np.finfo(dtype).smallest_subnormal)))
        lowest = np.log10(1.0 / (0.6 * np.finfo(dtype).eps))
        m = rng.normal(size=(case["u"], case["u"])) * abs(alpha) * 10.0 ** (
            -3 + case["m_over_alpha"] * (lowest + 3))
        upstream = rng.normal(size=(case["n"], case["u"], case["u"]))
        args = (np.asarray(q * gram_scale, dtype), np.asarray(k * gram_scale, dtype),
                Parameter("alpha", alpha, dtype=dtype), Parameter("m", m, dtype=dtype),
                np.asarray(upstream, dtype))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(attention, "SCORE_BLOCK_ELEMENTS", 0)
            mp.setattr(attention, "THREADS", 2)
            fused, fused_grads = scores_and_grads(attention_scores, *args, c_beta=8)
        ref, ref_grads = scores_and_grads(composed_attention_scores, *args, c_beta=8)
        assert fused.dtype == ref.dtype == dtype
        assert fused.data.tobytes() == ref.data.tobytes()
        for got, want in zip(fused_grads, ref_grads):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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
        engine.backward(engine.tensor_sum(engine.mul(out, out)))
        for i, t in enumerate((xt, wt, bt)):
            fd = fd_grad(lambda a, bb, c: float(
                (temporal_aggregate(Tensor(a), Tensor(bb), Tensor(c), k_t=3).data ** 2).sum()),
                [x, w, b], wrt=i)
            assert rel_err(fd, t.grad) <= 1e-4


class TestBlockForward:
    def test_single_token_degenerate(self):
        cfg, params = make_block(u=1)
        x = Tensor(np.random.default_rng(8).normal(size=(4, 2, 2, 1)))
        out = tsa_block_forward(x, params, mode="infer")
        assert out.shape == (4, 2, 2, 1)
        assert np.isfinite(out.data).all()

    @pytest.mark.parametrize("c_out", [4, 8])
    def test_output_shape(self, c_out):
        cfg, params = make_block(c_out=c_out)
        x = Tensor(np.random.default_rng(9).normal(size=(4, 2, 2, 4)))
        out = tsa_block_forward(x, params, mode="infer")
        assert out.shape == (c_out, 2, 2, 4)

    def test_batched_output_shape(self):
        cfg, params = make_block(c_out=8)
        x = Tensor(np.random.default_rng(10).normal(size=(3, 4, 2, 2, 4)))
        out = tsa_block_forward(x, params, mode="train")
        assert out.shape == (3, 8, 2, 2, 4)

    def test_determinism(self):
        cfg, params = make_block()
        x = Tensor(np.random.default_rng(11).normal(size=(4, 2, 2, 4)))
        a = tsa_block_forward(x, params, mode="infer").data
        b = tsa_block_forward(x, params, mode="infer").data
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
        out = tsa_block_forward(Tensor(x), params, mode="infer")
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
        out = tsa_block_forward(x, params, mode="train")
        engine.backward(engine.tensor_sum(engine.mul(out, out)))
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
            res = tsa_block_forward(Tensor(x4), params, mode="train")
            out = float((res.data ** 2).sum())
            p.data = old
            return out

        out = tsa_block_forward(Tensor(x4), params, mode="train")
        engine.backward(engine.tensor_sum(engine.mul(out, out)))
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
