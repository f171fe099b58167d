import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from istanet import attention, engine
from istanet.attention import (TSABlockConfig, TSABlockParams, attention_scores,
                               multi_head_attention, positional_encoding, qkv_project,
                               tsa_block_forward)
from istanet.data import SkeletonSequence
from istanet.engine import ConfigurationError, Parameter, Tensor, UsageError
from istanet.model import ISTANet, NesterovSGD, ce_label_smoothing

from helpers import (composed_attention_scores, fd_grad, mul, ordered_alpha_m_grads,
                     per_head_attention, pin_ordered_alpha_m_grads, readme_config,
                     record_threads, rel_err, tensor_sum)


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


def block_inputs(rng, dtype, lead=(2,), c_in=4, heads=2, c_qkv=2, u=5):
    """Block parameters with random alpha and M, an input x and an upstream
    gradient of the block's attention output."""
    params = TSABlockParams(TSABlockConfig(c_in=c_in, c_out=c_in, heads=heads, c_qkv=c_qkv),
                            u, rng, dtype=dtype)
    for alpha, m in zip(params.alphas, params.ms):
        alpha.data = np.asarray(rng.normal(), dtype)
        m.data = rng.normal(size=(u, u)).astype(dtype)
    x = rng.normal(size=lead + (c_in, 2, 2, u)).astype(dtype)
    return params, x, rng.normal(size=x.shape).astype(dtype)


def attention_and_grads(fn, params, x, upstream):
    """Output, score_sink and the gradients of sum(out * upstream) for x and
    for every parameter of fn(x, params, score_sink), multi_head_attention
    or the per-head chain."""
    leaf, sink = Parameter("x", x), []
    for p in params.parameters():
        p.grad = None
    out = fn(leaf, params, sink)
    engine.backward(tensor_sum(mul(out, Tensor(upstream))))
    return out, sink, leaf.grad, {p.name: p.grad for p in params.parameters() if p.grad is not None}


def check_attention_equals_per_head_chain(params, x, upstream):
    """multi_head_attention gives the per-head chain's output, scores and
    parameter gradients byte for byte, but for a per-sample head's alpha
    and M gradients, an ordered sum and one GEMM, which must have the bytes
    of ordered_alpha_m_grads instead (pin_ordered_alpha_m_grads). x's
    gradient sums the projected channels in another order, so it is equal
    to within rounding."""
    with pytest.MonkeyPatch.context() as mp:
        pinned = pin_ordered_alpha_m_grads(mp)
        out, sink, gx, grads = attention_and_grads(multi_head_attention, params, x, upstream)
    ref, ref_sink, ref_gx, ref_grads = attention_and_grads(per_head_attention, params, x, upstream)
    assert out.dtype == ref.dtype == x.dtype and out.data.tobytes() == ref.data.tobytes()
    assert [a.tobytes() for a in sink] == [a.tobytes() for a in ref_sink]
    assert grads.keys() == ref_grads.keys() == {p.name for p in params.parameters()[:6 * len(sink)]}
    by_sample = x.ndim == 5 and attention._per_sample(x.shape[:1] + (x.shape[-1],) * 2)
    assert pinned == ([len(x)] * len(sink) if by_sample else [])
    for name, got in grads.items():
        if by_sample and name.endswith((".alpha", ".m")):
            continue
        want = ref_grads[name]
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                         want.tobytes()), name
    assert gx.dtype == ref_gx.dtype
    eps = np.finfo(x.dtype).eps
    assert np.abs(gx - ref_gx).max() <= 64 * eps * np.abs(ref_gx).max()


class TestQKVProject:
    def test_zero_input_isolates_positional_encoding(self):
        cfg, params = make_block()
        xpe, w, qk = qkv_project(Tensor(np.zeros((4, 2, 2, 4))), params)
        pe = positional_encoding(4, 2, 2, 4)
        assert xpe.tobytes() == pe.reshape(4, -1).tobytes()
        for h in range(cfg.heads):
            for j, weight in enumerate((params.q_weights[h], params.k_weights[h])):
                assert w[(2 * h + j) * 2:(2 * h + j + 1) * 2].tobytes() == weight.data.tobytes()
                expect = np.einsum("oi,itsu->otsu", weight.data, pe)
                np.testing.assert_allclose(qk[(2 * h + j) * 2:(2 * h + j + 1) * 2], expect,
                                           rtol=1e-12)

    def test_values_are_unprojected_input_slice(self):
        # alpha = 0 and M = I: each head's scores are the identity, so its
        # values are its channel slice of x, and the gradient of x is the
        # upstream gradient, V's, as the zero Gram gradient adds nothing
        cfg, params = make_block()
        for alpha, m in zip(params.alphas, params.ms):
            alpha.data, m.data = np.zeros(()), np.eye(4)
        rng = np.random.default_rng(1)
        for lead in ((), (3,)):
            x = rng.normal(size=lead + (4, 2, 2, 4))
            upstream = rng.normal(size=x.shape)
            out, _, gx, _ = attention_and_grads(multi_head_attention, params, x, upstream)
            assert out.data.tobytes() == x.tobytes() and gx.tobytes() == upstream.tobytes()

    def test_projection_gradients(self):
        cfg, params = make_block()
        rng = np.random.default_rng(2)
        x, upstream = rng.normal(size=(2, 4, 2, 2, 4)), rng.normal(size=(2, 4, 2, 2, 4))
        _, _, _, grads = attention_and_grads(multi_head_attention, params, x, upstream)
        for p in (params.q_weights[0], params.k_biases[1]):
            p0 = p.data.copy()

            def loss_np(value, p=p):
                p.data = value
                return float((multi_head_attention(Tensor(x), params).data * upstream).sum())

            fd = fd_grad(loss_np, [p0], wrt=0)
            p.data = p0
            assert rel_err(fd, grads[p.name]) <= 1e-4

    def test_channel_mismatch_is_refused(self):
        cfg, params = make_block()
        with pytest.raises(engine.DimensionError, match="c_in=4"):
            multi_head_attention(Tensor(np.zeros((2, 2, 2, 4))), params)


class TestAttentionScores:
    def test_alpha_zero_returns_m(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(2, 2, 2, 3))
        k = rng.normal(size=(2, 2, 2, 3))
        m = rng.normal(size=(3, 3))
        out, _ = attention_scores(q, k, np.zeros(()), m, c_beta=8)
        np.testing.assert_array_equal(out, m)

    def test_scores_within_alpha_of_m(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            q = rng.normal(size=(2, 2, 2, 3)) * 10
            k = rng.normal(size=(2, 2, 2, 3)) * 10
            m = rng.normal(size=(3, 3))
            alpha = np.asarray(rng.normal(size=()))
            out, _ = attention_scores(q, k, alpha, m, c_beta=8)
            assert (np.abs(out - m) <= np.abs(alpha)).all()

    def test_dominant_token_diagonal(self):
        # two tokens, all feature mass on token 0
        q = np.zeros((1, 1, 4, 2))
        q[0, 0, :, 0] = 2.0  # squared norm 16
        c_beta = 4.0
        out, t = attention_scores(q, q, np.ones(()), np.zeros((2, 2)), c_beta=c_beta)
        np.testing.assert_allclose(out[0, 0], np.tanh(16 / np.sqrt(c_beta)))
        np.testing.assert_allclose(out[1, 1], 0.0)
        assert t.tobytes() == out.tobytes()  # alpha = 1, M = 0


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


def scores_and_grads(q, k, alpha, m, upstream, c_beta=12):
    """One head's score step and its gradient code as multi_head_attention
    runs them: the scores, and the gradients of sum(scores * upstream) for
    q, k, alpha and M.

    A batched map over attention.SCORE_BLOCK_ELEMENTS entries runs through the
    per-sample head (attention._head_by_sample) with identity values, V = I
    of U rows: its output is then scores^T, and the gradient it passes to
    the scores for an upstream g of the output is g^T, exactly, since each
    entry of the GEMM adds one product g * 1 to products with 0. So
    g = upstream^T gives the score step the gradient `upstream`."""
    if not attention._per_sample(upstream.shape):
        scores, t = attention_scores(q, k, alpha, m, c_beta)
        g_gram, g_alpha, g_m = attention._attention_scores_grads(upstream, t, alpha, c_beta)
        return scores, list(engine._contract_grads(q, k, g_gram)) + [g_alpha, g_m]
    n, u = upstream.shape[:2]
    eye = np.tile(np.eye(u, dtype=q.dtype), (n, 1, 1)).reshape(n, u, 1, 1, u)
    scores = np.empty_like(upstream)
    attention._head_by_sample(q, k, eye, alpha, m, c_beta, np.empty_like(eye), scores)
    g = np.ascontiguousarray(upstream.swapaxes(-1, -2)).reshape(eye.shape)
    gq, gk, _, g_alpha, g_m = attention._head_by_sample_grads(q, k, eye, alpha, m, c_beta, g)
    return scores, [gq, gk, g_alpha, g_m]


def composed_scores_and_grads(q, k, alpha, m, upstream, c_beta=12):
    """The same from the composed chain of engine ops (composed_attention_scores)."""
    leaves = [Parameter(name, a) for name, a in zip("qkam", (q, k, alpha, m))]
    out = composed_attention_scores(*leaves, c_beta=c_beta)
    engine.backward(tensor_sum(mul(out, Tensor(upstream))))
    return out.data, [leaf.grad for leaf in leaves]


def check_near_float64_chain(grads, q, k, alpha, m, upstream, c_beta):
    """A per-sample head's g_alpha and g_M lie within 4 eps of the float64
    composed chain's, in units of the largest sum of their terms'
    magnitudes: sum |g t| for g_alpha, sum over samples of |g| for an entry
    of g_M, since a sum of terms of both signs can cancel to far less."""
    args = [a.astype(np.float64) for a in (q, k, alpha, m, upstream)]
    _, ref_grads = composed_scores_and_grads(*args, c_beta)
    _, t = attention_scores(*args[:4], c_beta)
    sizes = np.abs(args[4] * t).sum(), np.abs(args[4]).sum(axis=0).max()
    eps = np.finfo(q.dtype).eps
    for got, want, size in zip(grads, ref_grads[2:], sizes):
        assert np.abs(got - want).max() <= 4 * eps * size


def check_scores_equal_composed_chain(q, k, alpha, m, upstream, c_beta=12):
    """The score step and its gradients give the composed chain's bytes.
    A per-sample head's alpha and M gradients are an ordered sum and one
    GEMM instead of the chain's sums over the batch axis: they have the
    bytes of ordered_alpha_m_grads (with V = I, see scores_and_grads) and
    lie near the float64 chain's (check_near_float64_chain)."""
    fused, fused_grads = scores_and_grads(q, k, alpha, m, upstream, c_beta)
    ref, ref_grads = composed_scores_and_grads(q, k, alpha, m, upstream, c_beta)
    assert fused.dtype == ref.dtype == q.dtype
    assert fused.tobytes() == ref.tobytes()
    if attention._per_sample(upstream.shape):
        n, u = upstream.shape[:2]
        eye = np.tile(np.eye(u, dtype=q.dtype), (n, 1, 1))
        ref_grads[2:] = ordered_alpha_m_grads(q, k, eye, alpha, m, c_beta,
                                              upstream.swapaxes(-1, -2))
        check_near_float64_chain(fused_grads[2:], q, k, alpha, m, upstream, c_beta)
    for got, want in zip(fused_grads, ref_grads):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    return fused


def record_heads(monkeypatch):
    """Make the per-sample head, attention._head_by_sample and its backward
    _head_by_sample_grads, record the name and sample count of every call;
    returns the list of records."""
    calls = []

    def spy(name, fn):
        def recorded(q, *args):
            calls.append((name, len(q)))
            return fn(q, *args)
        return recorded

    for name in ("_head_by_sample", "_head_by_sample_grads"):
        monkeypatch.setattr(attention, name, spy(name, getattr(attention, name)))
    return calls


# a per-sample head's forward and backward calls on N samples
def head_calls(n):
    return [("_head_by_sample", n), ("_head_by_sample_grads", n)]


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


# the work that the per-sample head and its backward hand to attention._in_threads
SCORE_WORK = "_head_by_sample"


def tape_nodes(out):
    """Op nodes (tensors with parents) reachable from `out`."""
    seen, stack = set(), [out]
    while stack:
        t = stack.pop()
        if id(t) not in seen and t._parents:
            seen.add(id(t))
            stack.extend(t._parents)
    return len(seen)


def readme_blocks_train_step(dtype):
    """Loss bytes and gradients of one train step of the README blocks at
    window (1,1,1), so U = 400, on two random samples."""
    rng = np.random.default_rng(3)
    seqs = [SkeletonSequence(rng.normal(size=(3, 40, 5, 2)), label=c) for c in (0, 1)]
    model = ISTANet(readme_config((1, 1, 1)), rng=np.random.default_rng(0), dtype=dtype)
    tokens = np.stack([model.tokenize_sample(s) for s in seqs])
    loss = ce_label_smoothing(model.forward_tokens(tokens, "train"), [0, 1],
                              smoothing=0.1, temperature=1.0)
    engine.backward(loss)
    return loss.data.tobytes(), {p.name: p.grad for p in model.parameters()}


class TestFusedScoreNode:
    """A block's attention is one tape node (multi_head_attention). Its score
    step and the gradient code of each head must give the bytes of the
    composed primitive chain (composed_attention_scores), and the node the
    bytes of the per-head chain (per_head_attention), forward and backward,
    on a whole map and a sample at a time (attention._head_by_sample)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rank", [4, 5])
    def test_bytes_equal_composed_chain(self, dtype, rank):
        q, k, alpha, m, upstream = score_inputs(np.random.default_rng(rank), dtype, rank)
        check_scores_equal_composed_chain(q, k, alpha, m, upstream)
        lead = (2,) if rank == 5 else ()
        check_attention_equals_per_head_chain(
            *block_inputs(np.random.default_rng(rank), dtype, lead, c_in=6, heads=3))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_per_sample_blocks_equal_composed_chain(self, dtype, monkeypatch):
        # a map larger than SCORE_BLOCK_ELEMENTS is worked a sample at a time,
        # forward and backward
        monkeypatch.setattr(attention, "SCORE_BLOCK_ELEMENTS", 3 * 5 * 5)
        calls = record_heads(monkeypatch)
        q, k, alpha, m, upstream = score_inputs(np.random.default_rng(5), dtype, 5, n=4)
        check_scores_equal_composed_chain(q, k, alpha, m, upstream)
        assert calls == head_calls(4)
        check_attention_equals_per_head_chain(*block_inputs(np.random.default_rng(5), dtype,
                                                            (4,)))
        # the node's two heads, forward then backward
        assert calls[2:] == [("_head_by_sample", 4)] * 2 + [("_head_by_sample_grads", 4)] * 2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_threaded_blocks_equal_composed_chain(self, dtype, threads, n, monkeypatch):
        # every sample is its own block, and THREADS is set here, not read
        # from the host, so a one-CPU host runs the pool too (the pool may
        # run its ranges on one worker); a one-sample head stays on the
        # calling thread, and N = 5 splits unevenly. A short switch interval
        # makes the threads interleave within each block
        monkeypatch.setattr(attention, "SCORE_BLOCK_ELEMENTS", 0)
        monkeypatch.setattr(attention, "THREADS", threads)
        idents = record_threads(monkeypatch, SCORE_WORK)
        q, k, alpha, m, upstream = score_inputs(np.random.default_rng(n), dtype, 5, u=7, n=n)
        block = block_inputs(np.random.default_rng(n), dtype, (n,), u=7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            check_scores_equal_composed_chain(q, k, alpha, m, upstream)
            check_attention_equals_per_head_chain(*block)
        finally:
            sys.setswitchinterval(interval)
        assert (len(idents) > 1) == (threads > 1 and n > 1)

    def test_alpha_gradient_adds_the_samples_in_order(self, monkeypatch):
        # at N = 16, ndarray.sum would add the samples' g_alpha terms in its
        # unrolled pairwise order, not first to last
        monkeypatch.setattr(attention, "SCORE_BLOCK_ELEMENTS", 0)
        monkeypatch.setattr(attention, "THREADS", 2)
        q, k, alpha, m, upstream = score_inputs(np.random.default_rng(16), np.float32, 5, n=16)
        check_scores_equal_composed_chain(q, k, alpha, m, upstream)

    def test_per_sample_score_sink_has_the_whole_map_bytes(self, monkeypatch):
        params, x, _ = block_inputs(np.random.default_rng(6), np.float32, (3,))
        whole, split = [], []
        multi_head_attention(Tensor(x), params, whole)
        monkeypatch.setattr(attention, "SCORE_BLOCK_ELEMENTS", 0)
        calls = record_heads(monkeypatch)
        multi_head_attention(Tensor(x), params, split)
        assert calls == [("_head_by_sample", 3)] * 2
        assert [(a.shape, a.tobytes()) for a in split] == [(a.shape, a.tobytes()) for a in whole]

    @pytest.mark.parametrize("window", [(10, 1, 2), (1, 1, 1)])
    def test_backward_replays_after_an_optimizer_step(self, window):
        # NesterovSGD.step rebinds each parameter's data. The node's backward
        # reads the alpha and M arrays its forward read, so a replay after a
        # step, as the benchmark's tracer makes, keeps its bytes; at window
        # (1,1,1), U = 400, the heads run a sample at a time
        rng = np.random.default_rng(3)
        model = ISTANet(readme_config(window), rng=np.random.default_rng(0))
        seqs = [SkeletonSequence(rng.normal(size=(3, 40, 5, 2)), label=c) for c in (0, 1)]
        logits = model.forward_tokens(np.stack([model.tokenize_sample(s) for s in seqs]),
                                      "train")
        nodes, stack = [], [logits]
        while stack:
            node = stack.pop()
            if node._backward is not None and node._backward.__qualname__.startswith(
                    "multi_head_attention"):
                nodes.append(node)
            stack.extend(node._parents)
        g = rng.normal(size=nodes[0].shape).astype(nodes[0].dtype)
        before = [a.tobytes() for a in nodes[0]._backward(g)]
        engine.backward(ce_label_smoothing(logits, [0, 1], smoothing=0.1, temperature=1.0))
        alpha = model.blocks[0].alphas[0].data
        NesterovSGD(model.parameters()).step(0.5)
        assert model.blocks[0].alphas[0].data != alpha
        assert [a.tobytes() for a in nodes[0]._backward(g)] == before

    @pytest.mark.parametrize("invalid", ["raise", "ignore"])
    def test_workers_keep_the_callers_errstate(self, invalid, monkeypatch):
        # alpha = inf: sample 0's tanh is positive, so alpha * t = inf, but
        # sample 1's q is zero, so alpha * tanh(0) = inf * 0 is invalid, on
        # the worker's sample only. Under numpy's default state the worker
        # would warn, which this suite's filters make an error. V is all
        # ones, so sample 0's +inf scores apply without an invalid step
        monkeypatch.setattr(attention, "THREADS", 2)
        idents = record_threads(monkeypatch, SCORE_WORK)
        q = np.zeros((2, 1, 1, 2, 3))
        q[0] = 1.0
        v = np.ones((2, 2, 1, 1, 3))
        args = (q, q, v, np.asarray(np.inf), np.zeros((3, 3)), 4, np.empty_like(v))
        with np.errstate(invalid=invalid):
            if invalid == "raise":
                with pytest.raises(FloatingPointError):
                    attention._head_by_sample(*args)
            else:
                scores = np.empty((2, 3, 3))
                attention._head_by_sample(*args, scores)
                assert len(idents) == 2
                assert np.isposinf(scores[0]).all() and np.isnan(scores[1]).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_per_sample_blocks_nudge_a_later_sample(self, dtype, monkeypatch):
        # only sample 2 saturates the tanh, at entry (0, 0); alpha lies between
        # half an ulp and one ulp of M = 1 there, so alpha + 1 rounds up to
        # 1 + ulp, out of band, and the nudge has to act in block 2
        monkeypatch.setattr(attention, "SCORE_BLOCK_ELEMENTS", 0)
        calls = record_heads(monkeypatch)
        scans = record_scans(monkeypatch)
        q = np.zeros((3, 1, 1, 4, 2), dtype=dtype)
        q[2, 0, 0, :, 0] = 10.0
        alpha = np.asarray(0.6 * np.finfo(dtype).eps, dtype=dtype)
        m = np.ones((2, 2), dtype=dtype)
        assert np.abs(alpha + m - m)[0, 0] > alpha
        upstream = np.random.default_rng(0).normal(size=(3, 2, 2)).astype(dtype)
        fused = check_scores_equal_composed_chain(q, q.copy(), alpha, m, upstream, c_beta=4)
        assert calls == head_calls(3) and any(scans)
        assert (fused == 1).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_band_pretest_of_a_non_finite_m_proves_nothing_but_at_radius_inf(self, dtype):
        # a NaN or inf max|M| makes the bound NaN or inf, so the scan runs;
        # at radius inf the bound holds, and a scan there nudges nothing
        for bad in (np.nan, np.inf, -np.inf):
            m = np.array([[0.0, bad]], dtype=dtype)
            assert attention._band_pretest(dtype, m, 1.0)(0.5) is False
            assert attention._band_pretest(dtype, m, np.inf)(0.5) is not np.isnan(bad)
            out = np.array([[1.0, -3.0]], dtype=dtype)
            attention._scan_band(out, m, np.inf)
            assert out.tolist() == [[1.0, -3.0]]

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
        fused = check_scores_equal_composed_chain(q, q.copy(), alpha, m, upstream, c_beta=4)
        assert scans == [True]
        assert (np.abs(fused - m) <= alpha).all()
        assert fused[0, 0] == np.float32(1.0)

    @pytest.mark.parametrize("operands", ["python-float-m", "float-alpha-f64-m",
                                          "f32-alpha-f64-m"])
    def test_refuses_operands_outside_the_contract(self, operands, monkeypatch):
        # alpha and M must be arrays of q's dtype (float32 here).
        # "float-alpha-f64-m" is a float alpha that the float32 cast rounds
        # up, with a float64 M: its saturated entry lies ~2^26 float64 ulps
        # out of band, which an ulp-by-ulp nudge would take that long to
        # close, so the refusal has to come before any scan
        def no_scan(out, center, radius):
            raise AssertionError("the full band scan ran")

        monkeypatch.setattr(attention, "_scan_band", no_scan)
        q = np.zeros((1, 1, 4, 2), dtype=np.float32)
        q[0, 0, :, 0] = 10.0
        m64 = np.zeros((2, 2))
        alpha, m = {"python-float-m": (np.asarray(7e-8, np.float32), 1.0),
                    "float-alpha-f64-m": (1 + 0.9 * 2.0 ** -23, m64),
                    "f32-alpha-f64-m": (np.float32(1), m64)}[operands]
        with pytest.raises(UsageError, match="0-d array"):
            attention_scores(q, q, alpha, m, c_beta=4)

    def test_block_attention_is_one_tape_node(self):
        params, x, _ = block_inputs(np.random.default_rng(1), np.float32)
        leaf = Parameter("x", x)
        out = multi_head_attention(leaf, params)
        assert tape_nodes(out) == 1
        assert list(map(id, out._parents)) == list(map(id, [leaf] + params.parameters()[:12]))
        # per head: PE add, two projections, V slice, Gram matrix, the five
        # composed score steps and their band node, application; then concat
        assert tape_nodes(per_head_attention(Parameter("x", x), params)) == 2 * 11 + 1

    def test_gradients_match_central_differences(self):
        q, k, alpha, m, upstream = score_inputs(np.random.default_rng(2), np.float64, 5)

        def loss(q_, alpha_, m_):
            return float((attention_scores(q_, k, alpha_, m_, c_beta=12)[0] * upstream).sum())

        _, grads = scores_and_grads(q, k, alpha, m, upstream)
        for i, grad in enumerate((grads[0], grads[2], grads[3])):
            assert rel_err(fd_grad(loss, [q, alpha, m], wrt=i), grad) <= 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_readme_blocks_train_step_equals_composed_chain(self, dtype, monkeypatch):
        # U = 400 and N = 2: each (2, U, U) map is worked a sample at a time.
        # The loss and the gradients of the last block and the classifier
        # are the per-head chain's bytes; the gradients before the last
        # block's attention see its x-gradient, whose sums are ordered
        # differently, and are equal to within rounding of the largest
        # gradient (some, such as a bias before a batchnorm, are all rounding).
        # So are the alpha and M gradients of the per-sample heads, which
        # have the bytes of ordered_alpha_m_grads on their own inputs
        calls = record_heads(monkeypatch)
        pinned = pin_ordered_alpha_m_grads(monkeypatch)
        loss, grads = readme_blocks_train_step(dtype)
        assert calls and all(n == 2 for _, n in calls) and pinned == [2] * 4
        monkeypatch.setattr(attention, "multi_head_attention", per_head_attention)
        ref_loss, ref_grads = readme_blocks_train_step(dtype)
        assert loss == ref_loss
        scale = np.finfo(dtype).eps * max(np.abs(g).max() for g in ref_grads.values())
        for name, got in grads.items():
            want = ref_grads[name]
            assert got.dtype == want.dtype and got.shape == want.shape
            if name.startswith(("blocks.1.", "fc.")) and not name.endswith((".alpha", ".m")):
                assert got.tobytes() == want.tobytes(), name
            else:
                assert np.abs(got - want).max() <= 16 * scale, name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_readme_blocks_train_step_runs_no_full_scan(self, dtype, monkeypatch):
        # at init M = 0 and no tanh comes within a few ulps of 1, so the
        # bound clears every sample block; four heads, forward and backward
        calls, scans = record_heads(monkeypatch), record_scans(monkeypatch)
        readme_blocks_train_step(dtype)
        assert len(calls) == 8 and scans == []

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
        The blocks run on two threads, so the samples split unevenly for
        odd N."""
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
        args = [np.asarray(a, dtype) for a in (q * gram_scale, k * gram_scale, alpha, m,
                                               upstream)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(attention, "SCORE_BLOCK_ELEMENTS", 0)
            mp.setattr(attention, "THREADS", 2)
            assert check_scores_equal_composed_chain(*args, c_beta=8).dtype == dtype


def temporal_aggregate(x, w, b, k_t):
    """The block's temporal step, conv_T(x) + x, as infer mode runs it: one
    convolution through the fold, here with identity running stats and eps 0,
    so that s = 1 and t = 0 and the fold adds only the centre-tap identity."""
    state = engine.BatchNormState("ta_norm", w.shape[0], dtype=x.dtype)
    state.eps = 0.0
    return engine.conv_batchnorm(engine.conv3d_axis, x, w, b, state, "infer", residual=True,
                                 axis="T", k=k_t)


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
        engine.backward(tensor_sum(mul(out, out)))
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
        engine.backward(tensor_sum(mul(out, out)))
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
