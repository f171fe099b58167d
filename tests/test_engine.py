import numpy as np
import pytest

from istanet import engine
from istanet.engine import (BatchNormState, ConfigurationError, DimensionError,
                            Tensor, UsageError, apply_scores,
                            attention_contract, batchnorm, conv3d_axis,
                            leaky_relu, pointwise_conv3d)

from helpers import check_op_gradients, div, fd_grad, rel_err, sqrt, sub, tanh


class TestPointwiseConv:
    def test_identity_weight_passes_input_through(self):
        x = np.random.default_rng(0).normal(size=(3, 2, 4, 5))
        out = pointwise_conv3d(Tensor(x), Tensor(np.eye(3)), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, x)

    def test_hand_matrix_vector_product(self):
        x = Tensor(np.array([1.0, 2.0]).reshape(2, 1, 1, 1))
        w = Tensor(np.array([[1.0, 1.0], [2.0, 0.0]]))
        out = pointwise_conv3d(x, w, Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data.reshape(-1), [3.0, 2.0])

    def test_weight_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 2, 4))
        w = rng.normal(size=(3, 2))
        b = rng.normal(size=3)
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        pointwise_conv3d(xt, wt, bt).sum().backward()
        fd = fd_grad(lambda x_, w_, b_: float(
            pointwise_conv3d(Tensor(x_), Tensor(w_), Tensor(b_)).data.sum()),
            [x, w, b], wrt=1)
        assert rel_err(fd, wt.grad) <= 1e-6

    def test_shape_mismatch_names_axis(self):
        x = Tensor(np.zeros((3, 1, 1, 1)))
        with pytest.raises(DimensionError, match="channel"):
            pointwise_conv3d(x, Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)))

    def test_batched_input_supported(self):
        x = np.random.default_rng(2).normal(size=(4, 3, 2, 2, 3))
        w, b = np.eye(3), np.zeros(3)
        out = pointwise_conv3d(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_array_equal(out.data, x)


class TestConvAxis:
    def test_k1_equals_pointwise(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 2, 4))
        w = rng.normal(size=(3, 2))
        b = rng.normal(size=3)
        a = conv3d_axis(Tensor(x), Tensor(w[:, :, None]), Tensor(b), axis="U", k=1)
        p = pointwise_conv3d(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(a.data, p.data)

    def test_hand_convolution_with_zero_padding(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]).reshape(1, 1, 1, 3))
        w = Tensor(np.ones((1, 1, 3)))
        out = conv3d_axis(x, w, Tensor(np.zeros(1)), axis="U", k=3)
        np.testing.assert_allclose(out.data.reshape(-1), [3.0, 6.0, 5.0])

    def test_even_kernel_rejected(self):
        x = Tensor(np.zeros((1, 2, 2, 2)))
        with pytest.raises(ConfigurationError, match="odd"):
            conv3d_axis(x, Tensor(np.zeros((1, 1, 2))), Tensor(np.zeros(1)), axis="T", k=2)

    def test_bad_axis_rejected(self):
        x = Tensor(np.zeros((1, 2, 2, 2)))
        with pytest.raises(ConfigurationError, match="axis"):
            conv3d_axis(x, Tensor(np.zeros((1, 1, 1))), Tensor(np.zeros(1)), axis="Q", k=1)

    @pytest.mark.parametrize("axis", ["T", "S", "U"])
    def test_gradients_match_finite_differences(self, axis):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 3, 3))
        w = rng.normal(size=(2, 2, 3))
        b = rng.normal(size=2)
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        conv3d_axis(xt, wt, bt, axis=axis, k=3).sum().backward()
        for i, t in enumerate((xt, wt, bt)):
            fd = fd_grad(lambda x_, w_, b_: float(
                conv3d_axis(Tensor(x_), Tensor(w_), Tensor(b_), axis=axis, k=3).data.sum()),
                [x, w, b], wrt=i)
            assert rel_err(fd, t.grad) <= 1e-6


def conv_axis_reference(x, w, b, axis, k):
    """Loop-over-taps cross-correlation with zero same-padding: the oracle
    for conv3d_axis's im2col matmul."""
    ax = {"T": -3, "S": -2, "U": -1}[axis]
    xm = np.moveaxis(x, ax, -1)
    length, p = xm.shape[-1], (k - 1) // 2
    out = np.zeros(xm.shape[:-4] + (w.shape[0],) + xm.shape[-3:])
    for d in range(k):
        for l in range(length):
            src = l + d - p
            if 0 <= src < length:
                out[..., l] += np.einsum("oi,...iab->...oab", w[:, :, d], xm[..., src])
    out += b[:, None, None, None]
    return np.moveaxis(out, -1, ax)


class TestConvAxisIm2col:
    # (shape, axis, k): every axis at k in {1, 3, 5} on distinct T/S/U
    # lengths, plus kernels longer than their axis
    CASES = [((3, 4, 3, 5), axis, k) for axis in "TSU" for k in (1, 3, 5)] + [
        ((3, 3, 2, 4), "S", 5), ((2, 1, 3, 2), "T", 3), ((2, 3, 2, 2), "S", 7),
        ((2, 2, 2, 3), "U", 7)]

    @pytest.mark.parametrize("shape,axis,k", CASES)
    def test_forward_matches_reference_and_gradients_match_fd(self, shape, axis, k):
        rng = np.random.default_rng(12)
        x = rng.normal(size=shape)
        w = rng.normal(size=(2, shape[0], k))
        b = rng.normal(size=2)
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = conv3d_axis(xt, wt, bt, axis=axis, k=k)
        np.testing.assert_allclose(out.data, conv_axis_reference(x, w, b, axis, k),
                                   rtol=1e-12, atol=1e-12)
        upstream = rng.normal(size=out.shape)
        (out * Tensor(upstream)).sum().backward()
        # the loss is linear in each input, so a wide step adds no truncation
        # error and keeps rounding error small
        for i, t in enumerate((xt, wt, bt)):
            fd = fd_grad(lambda x_, w_, b_: float((conv3d_axis(
                Tensor(x_), Tensor(w_), Tensor(b_), axis=axis, k=k).data * upstream).sum()),
                [x, w, b], wrt=i, eps=1e-2)
            assert rel_err(fd, t.grad) <= 1e-8


def composed_batchnorm(x, state, channel_axis, mode="train"):
    """Batchnorm built from engine primitives: the reference the fused op must
    match bit for bit. The normalisation takes nine tape nodes in train mode,
    and two in infer mode, where the running stats are constants."""
    axes = tuple(i for i in range(x.ndim) if i != channel_axis)
    bshape = [1] * x.ndim
    bshape[channel_axis] = state.channels
    if mode == "train":
        mu = engine.tensor_mean(x, axis=axes, keepdims=True)
        xc = sub(x, mu)
        var = engine.tensor_mean(engine.mul(xc, xc), axis=axes, keepdims=True)
        xhat = div(xc, sqrt(engine.add(var, state.eps)))
    else:
        inv = Tensor(1.0 / np.sqrt(state.running_var.reshape(bshape) + state.eps))
        xhat = engine.mul(sub(x, Tensor(state.running_mean.reshape(bshape))), inv)
    return engine.add(engine.mul(engine.reshape(state.scale, bshape), xhat),
                      engine.reshape(state.shift, bshape))


def tape_nodes(out):
    """Number of op nodes (tensors with a backward) reachable from `out`."""
    seen, stack = set(), [out]
    while stack:
        t = stack.pop()
        if id(t) not in seen and t._backward is not None:
            seen.add(id(t))
            stack.extend(t._parents)
    return len(seen)


class TestFusedBatchNorm:
    # rank 4 normalises over (T,S,U) with channel axis 0, rank 5 over
    # (N,T,S,U) with channel axis 1
    SHAPES = {4: ((3, 2, 3, 4), 0), 5: ((2, 3, 2, 2, 3), 1)}

    def _state(self, rng, dtype):
        state = BatchNormState("bn", 3, dtype=dtype)
        state.scale.data = (rng.normal(size=3) + 1.0).astype(dtype)
        state.shift.data = rng.normal(size=3).astype(dtype)
        state.running_mean = rng.normal(size=3).astype(dtype)
        state.running_var = rng.uniform(0.5, 2.0, size=3).astype(dtype)
        return state

    @staticmethod
    def _gradients(out, upstream, tensors):
        (out * Tensor(upstream)).sum().backward()
        return [t.grad.tobytes() for t in tensors]

    @pytest.mark.parametrize("rank", [4, 5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_forward_is_bit_identical_to_composition(self, rank, dtype):
        shape, channel_axis = self.SHAPES[rank]
        rng = np.random.default_rng(13)
        x = Tensor((rng.normal(size=shape) * 3.0 + 1.0).astype(dtype), requires_grad=True)
        state = self._state(rng, dtype)
        fused = batchnorm(x, state, mode="train")
        reference = composed_batchnorm(x, state, channel_axis)
        assert fused.dtype == reference.dtype
        assert fused.data.tobytes() == reference.data.tobytes()

    @pytest.mark.parametrize("rank", [4, 5])
    def test_input_gradient_matches_finite_differences(self, rank):
        shape, _ = self.SHAPES[rank]
        rng = np.random.default_rng(14)
        x = rng.normal(size=shape)
        state = self._state(rng, np.float64)
        upstream = rng.normal(size=shape)
        xt = Tensor(x, requires_grad=True)
        (batchnorm(xt, state, mode="train") * Tensor(upstream)).sum().backward()
        fd = fd_grad(lambda a: float(
            (batchnorm(Tensor(a), state, mode="train").data * upstream).sum()),
            [x], wrt=0, eps=1e-5)
        np.testing.assert_allclose(xt.grad, fd, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("rank", [4, 5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_affine_gradients_are_bit_identical_to_composition(self, rank, dtype):
        shape, channel_axis = self.SHAPES[rank]
        rng = np.random.default_rng(16)
        x = Tensor((rng.normal(size=shape) * 3.0 + 1.0).astype(dtype), requires_grad=True)
        state = self._state(rng, dtype)
        upstream = rng.normal(size=shape).astype(dtype)
        affine = (state.scale, state.shift)
        fused = self._gradients(batchnorm(x, state, mode="train"), upstream, affine)
        reference = self._gradients(composed_batchnorm(x, state, channel_axis), upstream, affine)
        assert fused == reference

    @pytest.mark.parametrize("rank", [4, 5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_infer_mode_is_one_node_bit_identical_to_composition(self, rank, dtype):
        shape, channel_axis = self.SHAPES[rank]
        rng = np.random.default_rng(17)
        x = Tensor((rng.normal(size=shape) * 3.0 + 1.0).astype(dtype), requires_grad=True)
        state = self._state(rng, dtype)
        upstream = rng.normal(size=shape).astype(dtype)
        tensors = (x, state.scale, state.shift)
        fused = batchnorm(x, state, mode="infer")
        reference = composed_batchnorm(x, state, channel_axis, mode="infer")
        assert tape_nodes(fused) == 1 and tape_nodes(reference) == 6
        assert fused.dtype == reference.dtype == np.dtype(dtype)
        assert fused.data.tobytes() == reference.data.tobytes()
        assert (self._gradients(fused, upstream, tensors)
                == self._gradients(reference, upstream, tensors))

    def test_train_mode_normalisation_is_one_tape_node(self):
        shape, channel_axis = self.SHAPES[5]
        rng = np.random.default_rng(15)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        state = self._state(rng, np.float64)
        # normalisation and affine in one node
        assert tape_nodes(batchnorm(x, state, mode="train")) == 1
        assert tape_nodes(composed_batchnorm(x, state, channel_axis)) == 13


class TestBatchNorm:
    def test_infer_with_identity_stats_is_identity(self):
        state = BatchNormState("bn", 3, eps=1e-12, dtype=np.float64)
        x = np.random.default_rng(5).normal(size=(2, 3, 2, 2, 2))
        out = batchnorm(Tensor(x), state, mode="infer")
        np.testing.assert_allclose(out.data, x, rtol=1e-6)

    def test_train_normalizes_two_values(self):
        state = BatchNormState("bn", 1, eps=1e-12, dtype=np.float64)
        x = np.array([1.0, 3.0]).reshape(2, 1, 1, 1, 1)
        out = batchnorm(Tensor(x), state, mode="train")
        np.testing.assert_allclose(out.data.reshape(-1), [-1.0, 1.0], atol=1e-5)

    def test_constant_input_yields_shift(self):
        state = BatchNormState("bn", 2, dtype=np.float64)
        state.shift.data = np.array([0.5, -0.25])
        x = np.full((3, 2, 1, 1, 1), 7.0)
        out = batchnorm(Tensor(x), state, mode="train")
        np.testing.assert_allclose(out.data.reshape(3, 2), np.broadcast_to([0.5, -0.25], (3, 2)),
                                   atol=1e-6)

    def test_running_stats_update_and_infer(self):
        state = BatchNormState("bn", 1, momentum=1.0, eps=1e-12, dtype=np.float64)
        x = np.array([0.0, 2.0]).reshape(2, 1, 1, 1, 1)
        batchnorm(Tensor(x), state, mode="train")
        np.testing.assert_allclose(state.running_mean, [1.0])
        np.testing.assert_allclose(state.running_var, [1.0])
        out = batchnorm(Tensor(x), state, mode="infer")
        np.testing.assert_allclose(out.data.reshape(-1), [-1.0, 1.0], atol=1e-5)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 3, 2, 2, 2))

        def run(xt, scale, shift):
            state = BatchNormState("bn", 3, dtype=np.float64)
            state.scale = scale if isinstance(scale, engine.Parameter) else state.scale
            # plug raw tensors in directly for the oracle path
            state.scale, state.shift = scale, shift
            return batchnorm(xt, state, mode="train")

        scale0 = rng.normal(size=3) + 1.0
        shift0 = rng.normal(size=3)
        xt = Tensor(x, requires_grad=True)
        st = Tensor(scale0, requires_grad=True)
        ht = Tensor(shift0, requires_grad=True)
        (run(xt, st, ht) * run(xt, st, ht)).sum().backward()
        # x-gradients through normalization nearly cancel, so allow a small
        # absolute slack on top of the relative tolerance
        for i, t in enumerate((xt, st, ht)):
            fd = fd_grad(lambda a, b, c: float(
                (run(Tensor(a), Tensor(b), Tensor(c)).data ** 2).sum()),
                [x, scale0, shift0], wrt=i, eps=1e-5)
            np.testing.assert_allclose(fd, t.grad, rtol=1e-4, atol=1e-7)


class TestLeakyRelu:
    def test_definition(self):
        out = leaky_relu(Tensor(np.array([3.0, -2.0])), gamma=0.1)
        np.testing.assert_allclose(out.data, [3.0, -0.2])

    def test_gamma_zero_is_relu(self):
        x = np.array([-1.0, 0.0, 2.0])
        out = leaky_relu(Tensor(x), gamma=0.0)
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])

    def test_gradient_away_from_kink(self):
        x = np.array([1.5, -2.5, 0.75])
        xt = Tensor(x, requires_grad=True)
        leaky_relu(xt, 0.1).sum().backward()
        fd = fd_grad(lambda a: float(leaky_relu(Tensor(a), 0.1).data.sum()), [x], wrt=0)
        assert rel_err(fd, xt.grad) <= 1e-8

    def test_negative_slope_rejected(self):
        with pytest.raises(ConfigurationError):
            leaky_relu(Tensor(np.zeros(2)), gamma=-0.1)

    @staticmethod
    def _edge_values(dtype):
        """Signed zeros, infinities, quiet NaNs of both signs, a signaling
        NaN, subnormals, the extremes and a few ordinary values."""
        f = np.finfo(dtype)
        bits = np.uint32 if dtype == np.float32 else np.uint64
        signaling = (np.array(np.inf, dtype=dtype).view(bits) | bits(1)).view(dtype)
        values = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, f.tiny, -f.tiny,
                  f.smallest_subnormal, -f.smallest_subnormal, f.tiny / 3, -f.tiny / 3,
                  f.max, -f.max, f.eps, -f.eps, 1.0, -1.0, 3.5, -7.25]
        return np.append(np.array(values, dtype=dtype), signaling)

    @pytest.mark.parametrize("gamma", [0.0, 0.1, 1.0, 2.5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_select_form_at_edge_values(self, gamma, dtype):
        x = self._edge_values(dtype)
        g = np.roll(x, 3)
        with np.errstate(invalid="ignore", over="ignore"):
            xt = Tensor(x, requires_grad=True)
            out = leaky_relu(xt, gamma)
            grad, = out._backward(g)
            assert out.dtype == grad.dtype == np.dtype(dtype)
            assert out.data.tobytes() == np.where(x >= 0, x, gamma * x).tobytes()
            assert grad.tobytes() == np.where(x >= 0, g, gamma * g).tobytes()


class TestAttentionContract:
    def test_one_hot_tokens_give_identity_gram(self):
        q = np.zeros((3, 1, 1, 3))
        for u in range(3):
            q[u, 0, 0, u] = 1.0
        out = attention_contract(Tensor(q), Tensor(q))
        np.testing.assert_array_equal(out.data, np.eye(3))

    def test_hand_dot_products(self):
        q = np.array([[1.0, 0.0], [0.0, 1.0]]).reshape(2, 1, 1, 2)
        k = np.array([[2.0, 1.0], [0.0, 1.0]]).reshape(2, 1, 1, 2)
        out = attention_contract(Tensor(q), Tensor(k))
        np.testing.assert_allclose(out.data, [[2.0, 1.0], [0.0, 1.0]])

    def test_gram_transpose_relation(self):
        rng = np.random.default_rng(7)
        q = rng.normal(size=(2, 3, 2, 4))
        k = rng.normal(size=(2, 3, 2, 4))
        a = attention_contract(Tensor(q), Tensor(k)).data
        b = attention_contract(Tensor(k), Tensor(q)).data
        np.testing.assert_allclose(a.T, b)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            attention_contract(Tensor(np.zeros((1, 1, 1, 2))),
                               Tensor(np.zeros((1, 1, 1, 3))))


class TestApplyScores:
    def test_identity_scores(self):
        v = np.random.default_rng(8).normal(size=(2, 2, 2, 3))
        out = apply_scores(Tensor(np.eye(3)), Tensor(v))
        np.testing.assert_array_equal(out.data, v)

    def test_uniform_mixing(self):
        v = np.random.default_rng(9).normal(size=(1, 1, 1, 2))
        out = apply_scores(Tensor(np.ones((2, 2))), Tensor(v))
        total = v.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(out.data, np.broadcast_to(total, v.shape))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        s = rng.normal(size=(3, 3))
        v = rng.normal(size=(2, 2, 2, 3))
        st, vt = Tensor(s, requires_grad=True), Tensor(v, requires_grad=True)
        apply_scores(st, vt).sum().backward()
        for i, t in enumerate((st, vt)):
            fd = fd_grad(lambda a, b: float(
                apply_scores(Tensor(a), Tensor(b)).data.sum()), [s, v], wrt=i)
            assert rel_err(fd, t.grad) <= 1e-6


# (C, T, S, U) with fewer rows C*T*S than tokens U, where a @ s^T runs as
# (s @ a^T)^T (T = S = 1 gives a transposed view), rank 4 and 5, and one
# with more rows
CONTRACTION_SHAPES = [(2, 1, 1, 6), (1, 2, 2, 5), (3, 2, 1, 1, 7), (2, 1, 2, 1, 5), (3, 2, 2, 4)]


@pytest.mark.parametrize("shape", CONTRACTION_SHAPES)
def test_contractions_match_einsum_and_finite_differences(shape):
    rng = np.random.default_rng(12)
    q, k, v = (rng.normal(size=shape) for _ in range(3))
    s = rng.normal(size=shape[:-4] + (shape[-1], shape[-1]))
    gram = attention_contract(Tensor(q), Tensor(k)).data
    mixed = apply_scores(Tensor(s), Tensor(v)).data
    np.testing.assert_allclose(gram, np.einsum("...ctsu,...ctsw->...uw", q, k), rtol=1e-12)
    np.testing.assert_allclose(mixed, np.einsum("...uw,...ctsw->...ctsu", s, v), rtol=1e-12)
    assert mixed.flags.c_contiguous
    check_op_gradients(attention_contract, [q, k])
    check_op_gradients(apply_scores, [s, v])
    qt, kt = Tensor(q, requires_grad=True), Tensor(k, requires_grad=True)
    attention_contract(qt, kt).sum().backward()
    assert qt.grad.flags.c_contiguous and kt.grad.flags.c_contiguous


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6, dtype=np.float64), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones(6))

    def test_quadratic(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, -4.0])

    def test_non_scalar_rejected(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(UsageError):
            (x * 2.0).backward()

    def test_gradients_sum_over_paths(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x + x * 3.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [7.0])  # 2x + 3


class TestEngineProperties:
    """Finite differences vs reverse mode over many seeded random inputs."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_op_chains_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 2, 2, 3))
        w = rng.normal(size=(3, 2))
        b = rng.normal(size=3)
        wu = rng.normal(size=(3, 3, 3))
        bu = rng.normal(size=3)

        def net(xt, wt, bt, wut, but):
            h = pointwise_conv3d(xt, wt, bt)
            h = tanh(h)
            h = conv3d_axis(h, wut, but, axis="U", k=3)
            h = leaky_relu(h, 0.2)
            g = attention_contract(h, h)
            return apply_scores(g, h)

        check_op_gradients(net, [x, w, b, wu, bu], tol=1e-4)

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(99)
        x = rng.normal(size=(2, 3, 2, 4))
        w = rng.normal(size=(4, 2))
        b = rng.normal(size=4)
        a = pointwise_conv3d(Tensor(x), Tensor(w), Tensor(b)).data
        c = pointwise_conv3d(Tensor(x), Tensor(w), Tensor(b)).data
        assert a.tobytes() == c.tobytes()

    def test_chain_rule_composition(self):
        # gradient of tanh(2x) built from two ops equals the fused derivative
        x = np.linspace(-1.0, 1.0, 7)
        xt = Tensor(x, requires_grad=True)
        tanh(xt * 2.0).sum().backward()
        fused = 2.0 * (1.0 - np.tanh(2.0 * x) ** 2)
        np.testing.assert_allclose(xt.grad, fused, rtol=1e-12)


# op, per-sample input shapes (given a leading batch axis), shared input shapes
ONE_BODY_CASES = {
    "pointwise_conv3d": (pointwise_conv3d, [(3, 2, 2, 4)], [(5, 3), (5,)]),
    "conv3d_axis-T": (lambda x, w, b: conv3d_axis(x, w, b, axis="T", k=3),
                      [(3, 2, 2, 4)], [(5, 3, 3), (5,)]),
    "conv3d_axis-U": (lambda x, w, b: conv3d_axis(x, w, b, axis="U", k=3),
                      [(3, 2, 2, 4)], [(5, 3, 3), (5,)]),
    "conv3d_axis-S": (lambda x, w, b: conv3d_axis(x, w, b, axis="S", k=3),
                      [(3, 2, 2, 4)], [(5, 3, 3), (5,)]),
    "conv3d_axis-U-k5": (lambda x, w, b: conv3d_axis(x, w, b, axis="U", k=5),
                         [(3, 2, 2, 4)], [(5, 3, 5), (5,)]),
    "attention_contract": (attention_contract, [(3, 2, 2, 4), (3, 2, 2, 4)], []),
    "apply_scores": (apply_scores, [(4, 4), (3, 2, 2, 4)], []),
}


@pytest.mark.parametrize("case", sorted(ONE_BODY_CASES))
def test_batch_equals_per_sample_slices(case):
    """A rank-5 batch runs the same body as rank 4: outputs and input
    gradients match slice by slice, shared weight gradients are the sum."""
    op, batched_shapes, shared_shapes = ONE_BODY_CASES[case]
    rng = np.random.default_rng(11)
    n = 3
    batched = [rng.normal(size=(n,) + s) for s in batched_shapes]
    shared = [rng.normal(size=s) for s in shared_shapes]
    tensors = [Tensor(a, requires_grad=True) for a in batched + shared]
    out = op(*tensors)
    upstream = rng.normal(size=out.shape)
    (out * Tensor(upstream)).sum().backward()

    shared_sums = [np.zeros_like(a) for a in shared]
    for i in range(n):
        ts = [Tensor(a[i], requires_grad=True) for a in batched]
        ts += [Tensor(a, requires_grad=True) for a in shared]
        o = op(*ts)
        (o * Tensor(upstream[i])).sum().backward()
        np.testing.assert_allclose(out.data[i], o.data, rtol=1e-12)
        for bt, st in zip(tensors, ts[:len(batched)]):
            np.testing.assert_allclose(bt.grad[i], st.grad, rtol=1e-12)
        for total, st in zip(shared_sums, ts[len(batched):]):
            total += st.grad
    for t, total in zip(tensors[len(batched):], shared_sums):
        np.testing.assert_allclose(t.grad, total, rtol=1e-10)


# sub and div are the tests' reference primitives; the composed batchnorm is
# compared with the fused node bit for bit, so they must follow the engine's
# rule too
@pytest.mark.parametrize("op", [engine.add, sub, engine.mul, div],
                         ids=["add", "sub", "mul", "div"])
@pytest.mark.parametrize("scalar", [0.5, np.float64(0.5), np.asarray(0.5)],
                         ids=["python-float", "np-float64", "0-d-float64"])
def test_scalar_operand_takes_the_tensor_dtype(op, scalar):
    """A float64 scalar must not promote a float32 tensor, on either side of
    the op, forward or backward."""
    for order in ("tensor-first", "scalar-first"):
        x = Tensor(np.array([1.0, 2.0, 4.0], dtype=np.float32), requires_grad=True)
        out = op(x, scalar) if order == "tensor-first" else op(scalar, x)
        assert out.dtype == np.float32, order
        out.sum().backward()
        assert x.grad.dtype == np.float32, order


@pytest.mark.parametrize("op", [engine.add, sub, engine.mul, div],
                         ids=["add", "sub", "mul", "div"])
@pytest.mark.parametrize("other", [np.ones(3), [1.0, 2.0, 4.0], np.ones((1, 1))],
                         ids=["ndarray", "list", "1x1-ndarray"])
def test_non_scalar_non_tensor_operand_is_refused(op, other):
    """Only a scalar constant is wrapped; an array must come as a Tensor."""
    x = Tensor(np.array([1.0, 2.0, 4.0], dtype=np.float32))
    for operands in ((x, other), (other, x)):
        with pytest.raises(UsageError, match="Tensors and scalar constants"):
            op(*operands)


@pytest.mark.parametrize("op", [engine.add, sub, engine.mul, div],
                         ids=["add", "sub", "mul", "div"])
@pytest.mark.parametrize("const", [0, 1], ids=["constant-first", "constant-second"])
def test_constant_operand_gets_no_gradient(op, const):
    """A binary op returns None for an operand without requires_grad, and for
    the other operand the bytes it gives when both operands require grad."""
    rng = np.random.default_rng(0)
    data = [rng.uniform(0.5, 2.0, size=(2, 3)), rng.uniform(0.5, 2.0, size=3)]
    g = rng.normal(size=(2, 3))
    operands = [Tensor(a, requires_grad=i != const) for i, a in enumerate(data)]
    slots = op(*operands)._backward(g)
    assert slots[const] is None
    both = op(*(Tensor(a, requires_grad=True) for a in data))._backward(g)
    assert slots[1 - const].tobytes() == both[1 - const].tobytes()


class TestNoGrad:
    @staticmethod
    def _model_and_tokens(dtype):
        from istanet.attention import TSABlockConfig
        from istanet.model import ISTANet, ModelConfig
        cfg = ModelConfig(window=(2, 1, 2), in_channels=3, frames=4, joints=2, entities=2,
                          embed_channels=4, gamma=0.1,
                          blocks=[TSABlockConfig(c_in=4, c_out=8, heads=2, c_qkv=2)],
                          num_classes=3)
        model = ISTANet(cfg, rng=np.random.default_rng(0), dtype=dtype)
        rng = np.random.default_rng(1)
        for _, buf in model.buffers():
            buf[...] = rng.uniform(0.5, 2.0, size=buf.shape)
        return model, rng.normal(size=(3, 3, 2, 2, 4)).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_logits_are_byte_equal_to_taped_infer_logits(self, dtype):
        model, tokens = self._model_and_tokens(dtype)
        taped = model.forward_tokens(tokens, "infer")
        assert taped._parents
        with engine.no_grad():
            free = model.forward_tokens(tokens, "infer")
        assert free.dtype == taped.dtype == np.dtype(dtype)
        assert free.data.tobytes() == taped.data.tobytes()

    def test_output_records_no_tape(self):
        model, tokens = self._model_and_tokens(np.float32)
        with engine.no_grad():
            out = model.forward_tokens(tokens, "infer")
        assert out._parents == () and out._backward is None
        assert not out.requires_grad

    def test_state_restored_after_an_exception(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ZeroDivisionError):
            with engine.no_grad():
                1 / 0
        assert (x * 2.0)._parents

    def test_state_restored_after_nested_blocks(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with engine.no_grad():
            with engine.no_grad():
                pass
            assert not (x * 2.0)._parents
        assert (x * 2.0)._parents

    def test_backward_on_a_loss_built_without_tape_sets_no_gradient(self):
        from istanet.model import ce_label_smoothing
        model, tokens = self._model_and_tokens(np.float64)
        with engine.no_grad():
            loss = ce_label_smoothing(model.forward_tokens(tokens, "train"), [0, 1, 2],
                                      smoothing=0.1, temperature=1.0)
        loss.backward()
        assert all(p.grad is None for p in model.parameters())
