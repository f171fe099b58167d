import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from istanet import attention, engine
from istanet.attention import TSABlockConfig, TSABlockParams, multi_head_attention
from istanet.engine import (BatchNormState, ConfigurationError, DimensionError,
                            Parameter, Tensor, UsageError, apply_scores,
                            attention_contract, batchnorm, conv3d_axis,
                            leaky_relu, pointwise_conv3d)

from helpers import (add, check_op_gradients, composed_mean_pool, div, fd_grad,
                     full_im2col_conv3d_axis, mul, out_of_place_batchnorm,
                     pin_ordered_alpha_m_grads, readme_config, record_threads, rel_err,
                     reshape, sqrt, sub, tanh, tensor_mean, tensor_sum,
                     where_leaky_relu_grad, zero_fill_conv3d_axis_input_grad)


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
        engine.backward(tensor_sum(pointwise_conv3d(xt, wt, bt)))
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
        engine.backward(tensor_sum(conv3d_axis(xt, wt, bt, axis=axis, k=3)))
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
        engine.backward(tensor_sum(mul(out, Tensor(upstream))))
        # the loss is linear in each input, so a wide step adds no truncation
        # error and keeps rounding error small
        for i, t in enumerate((xt, wt, bt)):
            fd = fd_grad(lambda x_, w_, b_: float((conv3d_axis(
                Tensor(x_), Tensor(w_), Tensor(b_), axis=axis, k=k).data * upstream).sum()),
                [x, w, b], wrt=i, eps=1e-2)
            assert rel_err(fd, t.grad) <= 1e-8

    @given(case=st.fixed_dictionaries(dict(
        seed=st.integers(0, 2 ** 32 - 1),
        rank=st.sampled_from([4, 5]),
        axis=st.sampled_from(["T", "S", "U"]),
        length=st.integers(0, 4),
        k=st.sampled_from([1, 3, 5, 7]),
        c_in=st.integers(1, 3),
        c_out_extra=st.integers(1, 2))))
    @settings(max_examples=200, deadline=None)
    def test_input_grad_is_the_adjoint(self, case):
        """<conv(x), g> == <x, x's gradient at g>, the identity that makes
        the flipped, channel-swapped kernel the input gradient, checked with
        no reference copy over every live-tap count (axes of length 0 to 4
        against kernels of 1 to 7 taps). C_in != C_out, so a kernel whose
        channel axes are not swapped cannot pass; integer values keep both
        sums exact."""
        rng = np.random.default_rng(case["seed"])
        c_in, c_out = case["c_in"], case["c_in"] + case["c_out_extra"]
        shape = [c_in, 2, 3, 2]
        shape["TSU".index(case["axis"]) + 1] = case["length"]
        shape = ((2,) if case["rank"] == 5 else ()) + tuple(shape)
        x = rng.integers(-8, 9, size=shape).astype(np.float64)
        w = rng.integers(-8, 9, size=(c_out, c_in, case["k"])).astype(np.float64)
        out = conv3d_axis(Tensor(x, requires_grad=True), Tensor(w), Tensor(np.zeros(c_out)),
                          axis=case["axis"], k=case["k"])
        g = rng.integers(-8, 9, size=out.shape).astype(np.float64)
        assert (out.data * g).sum() == (x * out._backward(g)[0]).sum()


def composed_batchnorm(x, state, channel_axis, mode="train"):
    """Batchnorm built from engine primitives: the reference the fused train
    op must match bit for bit, and in infer mode, where the running stats are
    constants, the reference of the fold (TestBatchNormFold). The
    normalisation takes nine tape nodes in train mode and two in infer mode."""
    axes = tuple(i for i in range(x.ndim) if i != channel_axis)
    bshape = [1] * x.ndim
    bshape[channel_axis] = state.channels
    if mode == "train":
        mu = tensor_mean(x, axis=axes, keepdims=True)
        xc = sub(x, mu)
        var = tensor_mean(mul(xc, xc), axis=axes, keepdims=True)
        xhat = div(xc, sqrt(add(var, state.eps)))
    else:
        inv = Tensor(1.0 / np.sqrt(state.running_var.reshape(bshape) + state.eps))
        xhat = mul(sub(x, Tensor(state.running_mean.reshape(bshape))), inv)
    return engine.add(mul(reshape(state.scale, bshape), xhat),
                      reshape(state.shift, bshape))


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
    # (N,T,S,U) with channel axis 1; "readme" is the README batch, whose N,
    # T and U axes are at least 8 long, where numpy's unrolled pairwise
    # summation starts, and "one-per-channel" has one element a channel,
    # where _unbroadcast sums nothing and returns its argument
    SHAPES = {4: ((3, 2, 3, 4), 0), 5: ((2, 3, 2, 2, 3), 1),
              "readme": ((32, 16, 10, 2, 20), 1), "one-per-channel": ((1, 3, 1, 1, 1), 1)}

    def _state(self, rng, dtype, channels=3):
        state = BatchNormState("bn", channels, dtype=dtype)
        state.scale.data = (rng.normal(size=channels) + 1.0).astype(dtype)
        state.shift.data = rng.normal(size=channels).astype(dtype)
        state.running_mean = rng.normal(size=channels).astype(dtype)
        state.running_var = rng.uniform(0.5, 2.0, size=channels).astype(dtype)
        return state

    @staticmethod
    def _gradients(out, upstream, tensors):
        engine.backward(tensor_sum(mul(out, Tensor(upstream))))
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
        out = batchnorm(xt, state, mode="train")
        engine.backward(tensor_sum(mul(out, Tensor(upstream))))
        fd = fd_grad(lambda a: float(
            (batchnorm(Tensor(a), state, mode="train").data * upstream).sum()),
            [x], wrt=0, eps=1e-5)
        np.testing.assert_allclose(xt.grad, fd, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("rank", [4, 5, "readme", "one-per-channel"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_affine_gradients_are_bit_identical_to_composition(self, rank, dtype):
        shape, channel_axis = self.SHAPES[rank]
        rng = np.random.default_rng(16)
        x = Tensor((rng.normal(size=shape) * 3.0 + 1.0).astype(dtype), requires_grad=True)
        state = self._state(rng, dtype, channels=shape[channel_axis])
        upstream = rng.normal(size=shape).astype(dtype)
        affine = (state.scale, state.shift)
        fused = self._gradients(batchnorm(x, state, mode="train"), upstream, affine)
        reference = self._gradients(composed_batchnorm(x, state, channel_axis), upstream, affine)
        assert fused == reference

    @pytest.mark.parametrize("shape", [(32, 16, 10, 2, 20), (32, 32, 10, 2, 20), (16, 10, 2, 20)],
                             ids=["C16", "C32", "rank4"])
    def test_input_gradient_is_accurate_and_projected_at_trained_size(self, shape):
        # x's float32 gradient against the float64 chain's on the same
        # inputs: within 8 eps of its largest entry (it reads 0.8-1.0 eps).
        # The closed form takes out g's per-channel mean and its xhat
        # component, so per channel sum(dx) and sum(dx * xhat) are 0 up to
        # rounding: within 8 eps of sum(|dx|) and sum(|dx * xhat|) (they
        # read at most 0.31 and 1.85 eps)
        channel_axis, eps = len(shape) - 4, np.finfo(np.float32).eps
        axes = tuple(i for i in range(len(shape)) if i != channel_axis)
        rng = np.random.default_rng(19)
        x = (rng.normal(size=shape) * 3.0 + 1.0).astype(np.float32)
        g = rng.normal(size=shape).astype(np.float32)
        state = self._state(rng, np.float32, channels=shape[channel_axis])
        dx = batchnorm(Tensor(x, requires_grad=True), state, mode="train")._backward(g)[0]
        state64 = BatchNormState("bn", state.channels, dtype=np.float64)
        state64.scale.data = state.scale.data.astype(np.float64)
        state64.shift.data = state.shift.data.astype(np.float64)
        x64 = Tensor(x.astype(np.float64), requires_grad=True)
        engine.backward(tensor_sum(mul(
            composed_batchnorm(x64, state64, channel_axis), Tensor(g.astype(np.float64)))))
        assert dx.dtype == np.float32
        assert np.abs(dx - x64.grad).max() <= 8 * eps * np.abs(x64.grad).max()

        xc = x64.data - x64.data.mean(axis=axes, keepdims=True)
        xhat = xc / np.sqrt((xc * xc).mean(axis=axes, keepdims=True) + state.eps)
        dx = dx.astype(np.float64)
        for projection in (dx, dx * xhat):
            assert (np.abs(projection.sum(axis=axes))
                    <= 8 * eps * np.abs(projection).sum(axis=axes)).all()

    @pytest.mark.parametrize("mode", ["infer", "eval"])
    def test_modes_but_train_are_refused(self, mode):
        # infer mode folds into the convolution before it (conv_batchnorm)
        shape, _ = self.SHAPES[5]
        state = self._state(np.random.default_rng(17), np.float64)
        with pytest.raises(UsageError, match="train mode only"):
            batchnorm(Tensor(np.ones(shape)), state, mode=mode)

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
        state = BatchNormState("bn", 3, dtype=np.float64)
        state.eps = 1e-12
        x = np.random.default_rng(5).normal(size=(2, 3, 2, 2, 2))
        out = composed_batchnorm(Tensor(x), state, 1, mode="infer")
        np.testing.assert_allclose(out.data, x, rtol=1e-6)

    def test_train_normalizes_two_values(self):
        state = BatchNormState("bn", 1, dtype=np.float64)
        state.eps = 1e-12
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
        state = BatchNormState("bn", 1, dtype=np.float64)
        state.momentum, state.eps = 1.0, 1e-12
        x = np.array([0.0, 2.0]).reshape(2, 1, 1, 1, 1)
        batchnorm(Tensor(x), state, mode="train")
        np.testing.assert_allclose(state.running_mean, [1.0])
        np.testing.assert_allclose(state.running_var, [1.0])
        out = composed_batchnorm(Tensor(x), state, 1, mode="infer")
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
        engine.backward(tensor_sum(mul(run(xt, st, ht), run(xt, st, ht))))
        # x-gradients through normalization nearly cancel, so allow a small
        # absolute slack on top of the relative tolerance
        for i, t in enumerate((xt, st, ht)):
            fd = fd_grad(lambda a, b, c: float(
                (run(Tensor(a), Tensor(b), Tensor(c)).data ** 2).sum()),
                [x, scale0, shift0], wrt=i, eps=1e-5)
            np.testing.assert_allclose(fd, t.grad, rtol=1e-4, atol=1e-7)


class TestBatchNormFold:
    """Infer mode folds batchnorm into the convolution before it. At each of
    the model's three sites (the embedding's pointwise convolution, a block's
    U-axis convolution, and its T-axis convolution with the identity
    residual), the forward must match the unfolded chain, conv, then the
    residual, then composed_batchnorm in infer mode, within a first-order
    rounding bound: each side is within n*eps of the exact value relative to
    the sum of the magnitudes of the terms it adds up, n being the longest
    sum, so they differ by at most twice that. The magnitudes are the fold's
    own outputs in float64 on absolute values, where every term adds."""

    # (conv, conv arguments, residual): the sites of embed and tsa_block_forward
    SITES = {"embed": (pointwise_conv3d, {}, False),
             "token-conv": (conv3d_axis, {"axis": "U", "k": 3}, False),
             "temporal": (conv3d_axis, {"axis": "T", "k": 3}, True)}
    SHAPE = (2, 3, 3, 2, 5)  # (N, C_in, T, S, U)

    def _inputs(self, site, dtype, rng):
        conv, args, residual = self.SITES[site]
        c_in = self.SHAPE[1]
        c_out = c_in if residual else 4
        taps = (args["k"],) if args else ()
        state = BatchNormState("bn", c_out, dtype=dtype)
        state.scale.data = (rng.normal(size=c_out) + 1.0).astype(dtype)
        state.shift.data = rng.normal(size=c_out).astype(dtype)
        state.running_mean = rng.normal(size=c_out).astype(dtype)
        state.running_var = rng.uniform(0.5, 2.0, size=c_out).astype(dtype)
        x = Tensor(rng.normal(size=self.SHAPE).astype(dtype), requires_grad=True)
        w = Tensor(rng.normal(size=(c_out, c_in) + taps).astype(dtype), requires_grad=True)
        b = Tensor(rng.normal(size=c_out).astype(dtype), requires_grad=True)
        return x, w, b, state

    @pytest.mark.parametrize("site", sorted(SITES))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fold_matches_the_unfolded_chain_within_rounding(self, site, dtype):
        conv, args, residual = self.SITES[site]
        x, w, b, state = self._inputs(site, dtype, np.random.default_rng(18))
        folded = engine.conv_batchnorm(conv, x, w, b, state, "infer", residual=residual,
                                       **args).data
        out = conv(x, w, b, **args)
        out = engine.add(out, x) if residual else out
        reference = composed_batchnorm(out, state, 1, mode="infer").data

        # the same computation on absolute values in float64: rm -> -|rm| so
        # that b - rm adds too
        a = [Tensor(np.abs(t.data).astype(np.float64)) for t in (x, w, b)]
        abs_state = BatchNormState("bn", state.channels, dtype=np.float64)
        abs_state.eps = state.eps
        abs_state.scale.data = np.abs(state.scale.data).astype(np.float64)
        abs_state.shift.data = np.abs(state.shift.data).astype(np.float64)
        abs_state.running_mean = -np.abs(state.running_mean).astype(np.float64)
        abs_state.running_var = state.running_var.astype(np.float64)
        magnitude = engine.conv_batchnorm(conv, *a, abs_state, "infer", residual=residual,
                                          **args).data

        bound_scale = 2 * (w.data[0].size + 8) * np.finfo(dtype).eps
        assert folded.dtype == reference.dtype == np.dtype(dtype)
        assert (np.abs(folded.astype(np.float64) - reference) <= bound_scale * magnitude).all()

    def test_fold_adds_no_tape_node(self):
        x, w, b, state = self._inputs("temporal", np.float64, np.random.default_rng(19))
        out = engine.conv_batchnorm(conv3d_axis, x, w, b, state, "infer", residual=True,
                                    axis="T", k=3)
        assert tape_nodes(out) == 1  # the convolution, of x and two constants
        assert not any(p.requires_grad for p in out._parents[1:])

    def test_bad_mode_is_refused(self):
        x, w, b, state = self._inputs("embed", np.float64, np.random.default_rng(20))
        with pytest.raises(UsageError, match="'train' or 'infer'"):
            engine.conv_batchnorm(pointwise_conv3d, x, w, b, state, "eval")

    def test_state_of_another_width_is_refused(self):
        x, w, b, _ = self._inputs("embed", np.float64, np.random.default_rng(21))
        with pytest.raises(DimensionError, match="state expects 3"):
            engine.fold_batchnorm(w, b, BatchNormState("bn", 3, dtype=np.float64))


def spy_batchnorm(monkeypatch):
    """Count the calls of engine.batchnorm under every istanet name it has;
    returns the list of the modes it was called with."""
    modes, original = [], engine.batchnorm

    def spy(x, state, mode):
        modes.append(mode)
        return original(x, state, mode)

    for name, module in list(sys.modules.items()):
        if name == "istanet" or name.startswith("istanet."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, spy)
    return modes


def test_infer_forward_calls_no_batchnorm_and_a_train_step_five(monkeypatch):
    from istanet.model import ISTANet, ce_label_smoothing
    model = ISTANet(readme_config(), rng=np.random.default_rng(0))
    tokens = np.random.default_rng(1).normal(size=(4, 3, 10, 2, 20)).astype(np.float32)
    modes = spy_batchnorm(monkeypatch)
    # infer mode records no tape with grad enabled, and calls no batchnorm
    assert model.forward_tokens(tokens, "infer")._parents == ()
    assert modes == []
    loss = ce_label_smoothing(model.forward_tokens(tokens, "train"), [0, 1, 2, 3],
                              smoothing=0.1, temperature=1.0)
    engine.backward(loss)
    assert modes == ["train"] * 5  # the embedding's, and two per block


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
        engine.backward(tensor_sum(leaky_relu(xt, 0.1)))
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


class TestPassesEqualOutOfPlaceForms:
    """leaky_relu's bitwise-select backward and the in-place batchnorm give
    the bytes of the out-of-place forms in tests/helpers.py, batchnorm's x
    gradient being (g - xhat * mean(g * xhat) - mean(g)) * (scale / std) in
    that order, from the scale and shift gradients' own sums;
    conv3d_axis's flipped-kernel input gradient gives the zero fill's on
    exact sums."""

    @pytest.mark.parametrize("gamma", [0.0, 0.1, 1.0, 2.5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaky_relu_grad_equals_select(self, gamma, dtype):
        rng = np.random.default_rng(30)
        x = rng.normal(size=(4, 16, 10, 2, 20)).astype(dtype)
        x[0, 0, 0, 0, :4] = [0.0, -0.0, np.inf, -np.inf]
        g = rng.normal(size=x.shape).astype(dtype)
        g[1, 0, 0, 0, :3] = [-0.0, np.nan, np.inf]
        g_before = g.tobytes()
        with np.errstate(invalid="ignore"):
            grad, = leaky_relu(Tensor(x, requires_grad=True), gamma)._backward(g)
            assert grad.tobytes() == where_leaky_relu_grad(x, g, gamma).tobytes()
        assert g.tobytes() == g_before

    # (shape, axis): T, S and U at rank 4 and 5, and rank 5 with t_w = 1 and
    # S = 2, axes shorter than k = 3 and 5
    CONV_CASES = [((3, 4, 3, 5), a) for a in "TSU"] + [((2, 3, 4, 3, 5), a) for a in "TSU"] + [
        ((2, 3, 1, 2, 5), a) for a in "TS"]

    @pytest.mark.parametrize("shape,axis", CONV_CASES)
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv3d_axis_input_grad_equals_zero_fill(self, shape, axis, k, dtype):
        # x's gradient is one GEMM of the flipped kernel with g's im2col: the
        # zero fill's sums in another order. On integers in [-8, 8] every sum
        # is exact, so the bytes are equal; on normal draws the two round
        # apart by a few ulps of the largest entry
        rng = np.random.default_rng(31)
        for exact in (True, False):
            draw = ((lambda size: rng.integers(-8, 9, size=size)) if exact
                    else (lambda size: rng.normal(size=size)))
            x = Tensor(draw(shape).astype(dtype), requires_grad=True)
            w = Tensor(draw((4, shape[-4], k)).astype(dtype), requires_grad=True)
            out = conv3d_axis(x, w, Tensor(draw(4).astype(dtype)), axis=axis, k=k)
            g = draw(out.shape).astype(dtype)
            gx = out._backward(g)[0]
            reference = zero_fill_conv3d_axis_input_grad(x.shape, w.data, g, axis, k)
            assert gx.dtype == reference.dtype
            if exact:
                assert gx.tobytes() == reference.tobytes()
            else:
                bound = 8 * np.finfo(dtype).eps * np.abs(reference).max()
                assert np.abs(gx - reference).max() <= bound

    @pytest.mark.parametrize("rank", [4, 5])
    @pytest.mark.parametrize("axis", ["T", "S", "U"])
    @pytest.mark.parametrize("length", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv3d_axis_without_dead_taps_equals_full_im2col(self, rank, axis, length, k,
                                                              dtype):
        # a tap whose shift is at least the axis length reads only padding:
        # both side taps at length 1, the outer two of k = 5 at length 2.
        # conv3d_axis leaves them out of both im2cols and their GEMMs; the
        # output keeps its bytes and a dead tap's weight gradient is +0.0,
        # as the full im2col's zero columns gave. The narrower GEMMs, whose
        # kernels OpenBLAS may choose otherwise, may round otherwise: the
        # live taps' weight gradient, and x's in f64, where the zero columns
        # sat inside the full GEMM's inner dimension. On integer draws every
        # sum is exact, so every byte is equal
        shape = [3, 4, 3, 5]
        shape["TSU".index(axis) + 1] = length
        shape = ((2,) if rank == 5 else ()) + tuple(shape)
        rng = np.random.default_rng(33)
        x, w, b = (rng.normal(size=s).astype(dtype) for s in (shape, (6, 3, k), (6,)))
        out = conv3d_axis(*(Tensor(a, requires_grad=True) for a in (x, w, b)), axis=axis, k=k)
        ref, ref_bwd = full_im2col_conv3d_axis(x, w, b, axis, k)
        assert out.data.tobytes() == ref.tobytes()
        g = rng.normal(size=ref.shape).astype(dtype)
        (gx, gw, gb), (ref_gx, ref_gw, ref_gb) = out._backward(g), ref_bwd(g)
        assert [a.dtype for a in (gx, gw, gb)] == [np.dtype(dtype)] * 3
        assert gb.tobytes() == ref_gb.tobytes()
        if dtype == np.float32:
            assert gx.tobytes() == ref_gx.tobytes()
        else:
            assert np.abs(gx - ref_gx).max() <= 4 * np.finfo(dtype).eps * np.abs(ref_gx).max()
        live = min(k, 2 * length - 1)
        taps = np.arange(k)
        dead = np.abs(taps - (k - 1) // 2) >= length
        assert dead.sum() == k - live
        assert (gw[..., dead] == 0).all() and not np.signbit(gw[..., dead]).any()
        want = ref_gw[..., ~dead]
        assert np.abs(gw[..., ~dead] - want).max() <= 1e-6 * np.abs(want).max()

        x, w, b, g = (rng.integers(-8, 9, size=s).astype(dtype)
                      for s in (shape, (6, 3, k), (6,), ref.shape))
        out = conv3d_axis(*(Tensor(a, requires_grad=True) for a in (x, w, b)), axis=axis, k=k)
        ref, ref_bwd = full_im2col_conv3d_axis(x, w, b, axis, k)
        assert [a.tobytes() for a in (out.data,) + out._backward(g)] == [
            a.tobytes() for a in (ref,) + ref_bwd(g)]

    @pytest.mark.parametrize("axis", ["T", "S", "U"])
    def test_conv3d_axis_on_an_empty_axis_equals_full_im2col(self, axis):
        # every tap of an empty axis is dead; the op keeps the centre one
        shape = [2, 3, 4, 3, 5]
        shape["TSU".index(axis) + 2] = 0
        rng = np.random.default_rng(34)
        x, w, b = (rng.normal(size=s) for s in (shape, (6, 3, 3), (6,)))
        out = conv3d_axis(*(Tensor(a, requires_grad=True) for a in (x, w, b)), axis=axis, k=3)
        ref, ref_bwd = full_im2col_conv3d_axis(x, w, b, axis, 3)
        assert out.shape == ref.shape
        g = rng.normal(size=ref.shape)
        assert [a.tobytes() for a in out._backward(g)] == [a.tobytes() for a in ref_bwd(g)]

    @pytest.mark.parametrize("rank", [4, 5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batchnorm_equals_out_of_place(self, rank, dtype):
        shape = (16, 10, 2, 20) if rank == 4 else (4, 16, 10, 2, 20)
        rng = np.random.default_rng(32)
        x = (rng.normal(size=shape) * 3.0 + 1.0).astype(dtype)
        states = [BatchNormState("bn", 16, dtype=dtype) for _ in range(2)]
        for state in states:
            state.scale.data = np.linspace(0.5, 2.0, 16, dtype=dtype)
            state.shift.data = np.linspace(-1.0, 1.0, 16, dtype=dtype)
        out = batchnorm(Tensor(x, requires_grad=True), states[0], mode="train")
        reference, reference_bwd = out_of_place_batchnorm(x, states[1])
        assert out.data.tobytes() == reference.tobytes()
        assert states[0].running_mean.tobytes() == states[1].running_mean.tobytes()
        assert states[0].running_var.tobytes() == states[1].running_var.tobytes()
        g = rng.normal(size=shape).astype(dtype)
        grads = out._backward(g)
        assert [a.dtype for a in grads] == [np.dtype(dtype)] * 3
        assert [a.tobytes() for a in grads] == [a.tobytes() for a in reference_bwd(g)]


def _saved_arrays(fn):
    """The arrays a backward closure reads: the ndarrays and Tensors' data in
    its cells, and in the tuples and lists there."""
    found, stack = [], [cell.cell_contents for cell in fn.__closure__ or ()]
    while stack:
        v = stack.pop()
        if isinstance(v, np.ndarray):
            found.append(v)
        elif isinstance(v, Tensor):
            found.append(v.data)
        elif isinstance(v, (tuple, list)):
            stack.extend(v)
    return found


@pytest.mark.parametrize("window, tokens_shape", [((10, 1, 2), (4, 3, 10, 2, 20)),
                                                  ((1, 1, 1), (2, 3, 1, 1, 400))])
def test_every_backward_of_a_train_step_is_pure(window, tokens_shape):
    # engine.backward hands one gradient to several parents (add), and the
    # benchmark's tracer replays a backward closure several times, so no
    # backward may write into its upstream array or what its forward saved.
    # At window (1,1,1), U = 400, each head runs a sample at a time
    from istanet.model import ISTANet, ce_label_smoothing
    model = ISTANet(readme_config(window), rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    tokens = rng.normal(size=tokens_shape).astype(np.float32)
    loss = ce_label_smoothing(model.forward_tokens(tokens, "train"),
                              list(range(tokens_shape[0])), smoothing=0.1, temperature=1.0)
    nodes, seen, stack = [], {id(loss)}, [loss]
    while stack:
        node = stack.pop()
        nodes.append(node)
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    ops = [n for n in nodes if n._backward is not None]
    kinds = {n._backward.__qualname__.split(".")[0] for n in ops}
    assert {"leaky_relu", "batchnorm", "conv3d_axis", "add"} <= kinds
    for node in ops:
        name = node._backward.__qualname__
        g = rng.normal(size=node.shape).astype(node.dtype)
        inputs = _saved_arrays(node._backward) + [p.data for p in node._parents] + [g]
        before = [a.tobytes() for a in inputs]
        first, second = ([None if a is None else a.tobytes() for a in node._backward(g)]
                         for _ in range(2))
        assert first == second, name
        assert [a.tobytes() for a in inputs] == before, name


@pytest.mark.parametrize("sink", [None, []])
def test_per_sample_attention_backward_keeps_no_batched_map(sink, monkeypatch):
    # a head run a sample at a time recomputes each sample's maps in its
    # backward, so the node holds no array of N*U*U entries, even when a
    # score sink takes the scores
    monkeypatch.setattr(attention, "SCORE_BLOCK_ELEMENTS", 0)
    n, u = 3, 20
    rng = np.random.default_rng(0)
    params = TSABlockParams(TSABlockConfig(c_in=4, c_out=4, heads=2, c_qkv=2), u, rng)
    x = Parameter("x", rng.normal(size=(n, 4, 1, 1, u)).astype(np.float32))
    out = multi_head_attention(x, params, sink)
    sizes = [a.size for a in _saved_arrays(out._backward)]
    assert sizes and max(sizes) < n * u * u
    assert sink is None or [a.shape for a in sink] == [(n, u, u)] * 2


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
        engine.backward(tensor_sum(apply_scores(st, vt)))
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
    engine.backward(tensor_sum(attention_contract(qt, kt)))
    assert qt.grad.flags.c_contiguous and kt.grad.flags.c_contiguous


def head_bytes(shape, dtype):
    """Output, score_sink and gradient bytes of multi_head_attention with two
    heads on a random x of `shape`, (N,4,T,S,U) or (4,T,S,U), with random
    alpha and M, under a random upstream gradient."""
    rng = np.random.default_rng(13)
    params = TSABlockParams(TSABlockConfig(c_in=4, c_out=4, heads=2, c_qkv=2), shape[-1], rng,
                            dtype=dtype)
    for alpha, m in zip(params.alphas, params.ms):
        alpha.data = np.asarray(rng.normal(), dtype)
        m.data = rng.normal(size=m.shape).astype(dtype)
    x, sink = Parameter("x", rng.normal(size=shape).astype(dtype)), []
    out = multi_head_attention(x, params, sink)
    upstream = Tensor(rng.normal(size=shape).astype(dtype))
    engine.backward(tensor_sum(mul(out, upstream)))
    return [a.tobytes() for a in [out.data, *sink, x.grad] + [
        p.grad for p in params.parameters()[:12]]]


class TestContractionsBySample:
    """A head whose batched (N,U,U) map has more than SCORE_BLOCK_ELEMENTS
    entries runs a sample at a time (attention._head_by_sample), its samples
    split over attention.THREADS threads, forward and backward; the node's
    bytes must be those of the whole-map path, which calls the
    attention_contract and apply_scores ops, but for the alpha and M
    gradients, which are an ordered sum and one GEMM
    (helpers.ordered_alpha_m_grads)."""

    # (T, S) = (1, 1) gives 2 rows per head against U = 7, which take
    # a @ s^T in the transposed order, (2, 2) 8 rows, the direct one; rank
    # 4 is never split
    SHAPES = [(n, 4) + ts + (7,) for ts in ((1, 1), (2, 2)) for n in (1, 2, 3, 5)] + [
        (4,) + ts + (7,) for ts in ((1, 1), (2, 2))]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_bytes_do_not_depend_on_threads(self, dtype, threads, shape, monkeypatch):
        # THREADS is set here, not read from the host, so a one-CPU host
        # runs the pool too, and a short switch interval makes the threads
        # interleave
        whole = head_bytes(shape, dtype)
        monkeypatch.setattr(attention, "SCORE_BLOCK_ELEMENTS", 0)
        pinned = pin_ordered_alpha_m_grads(monkeypatch)
        split = {}
        for count in {1, threads}:
            monkeypatch.setattr(attention, "THREADS", count)
            idents = record_threads(monkeypatch, "_head_by_sample")
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                split[count] = head_bytes(shape, dtype)
            finally:
                sys.setswitchinterval(interval)
        assert split[threads] == split[1]
        # the alpha and M gradients of the two heads (the 5th and 6th of each
        # head's parameters) are pinned to the ordered reference; every other
        # array has the whole-map path's bytes
        by_sample = len(shape) == 5
        sums = {4 + 4, 4 + 5, 4 + 10, 4 + 11} if by_sample else set()
        assert [a for i, a in enumerate(split[threads]) if i not in sums] == [
            a for i, a in enumerate(whole) if i not in sums]
        assert pinned == ([shape[0]] * 2 * len({1, threads}) if by_sample else [])
        assert (len(idents) > 1) == (by_sample and threads > 1 and shape[0] > 1)

    @pytest.mark.parametrize("shape, threshold, splits", [
        ((3, 4, 1, 1, 7), 3 * 7 * 7, False),
        ((3, 4, 1, 1, 7), 3 * 7 * 7 - 1, True),
        ((4, 1, 1, 7), 0, False)])
    def test_only_a_batched_map_over_the_threshold_leaves_the_calling_thread(
            self, shape, threshold, splits, monkeypatch):
        # a map at the threshold, or a rank-4 input at any threshold, runs
        # the whole-map path and never reaches _in_threads
        monkeypatch.setattr(attention, "SCORE_BLOCK_ELEMENTS", threshold)
        monkeypatch.setattr(attention, "THREADS", 2)
        idents = record_threads(monkeypatch)
        head_bytes(shape, np.float32)
        if splits:
            assert threading.get_ident() in idents and len(idents) > 1
        else:
            assert idents == set()


class TestMeanPool:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(4, 3, 2, 5), (3, 4, 3, 2, 5), (32, 32, 10, 2, 20)],
                             ids=["rank4", "rank5", "readme-head"])
    def test_node_has_the_bytes_of_the_composed_chain(self, dtype, shape):
        # one node in the chain's steps: the pooled features and x's gradient
        # keep the bytes of tensor_sum then mul by 1/n
        rng = np.random.default_rng(0)
        x = rng.normal(size=shape).astype(dtype)
        fused_in, chain_in = (Tensor(x, requires_grad=True) for _ in range(2))
        fused, chain = engine.mean_pool(fused_in), composed_mean_pool(chain_in)
        assert fused.shape == shape[:-3] and fused.dtype == np.dtype(dtype)
        assert fused.data.tobytes() == chain.data.tobytes()
        upstream = rng.normal(size=fused.shape).astype(dtype)
        engine.backward(tensor_sum(mul(chain, Tensor(upstream))))
        (grad,) = fused._backward(upstream)
        assert grad.dtype == np.dtype(dtype) and grad.tobytes() == chain_in.grad.tobytes()

    def test_gradient_matches_finite_differences(self):
        x = np.random.default_rng(1).normal(size=(2, 3, 2, 2, 3))
        check_op_gradients(engine.mean_pool, [x])

    def test_rank_three_is_refused(self):
        with pytest.raises(DimensionError, match="mean_pool"):
            engine.mean_pool(Tensor(np.zeros((3, 2, 2))))


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6, dtype=np.float64), requires_grad=True)
        engine.backward(tensor_sum(x))
        np.testing.assert_array_equal(x.grad, np.ones(6))

    def test_quadratic(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        engine.backward(tensor_sum(mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, -4.0])

    def test_non_scalar_rejected(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(UsageError):
            engine.backward(mul(x, 2.0))

    def test_gradients_sum_over_paths(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = engine.add(mul(x, x), mul(x, 3.0))
        engine.backward(tensor_sum(y))
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
        engine.backward(tensor_sum(tanh(mul(xt, 2.0))))
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
    engine.backward(tensor_sum(mul(out, Tensor(upstream))))

    shared_sums = [np.zeros_like(a) for a in shared]
    for i in range(n):
        ts = [Tensor(a[i], requires_grad=True) for a in batched]
        ts += [Tensor(a, requires_grad=True) for a in shared]
        o = op(*ts)
        engine.backward(tensor_sum(mul(o, Tensor(upstream[i]))))
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
@pytest.mark.parametrize("op", [add, sub, mul, div],
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
        engine.backward(tensor_sum(out))
        assert x.grad.dtype == np.float32, order


@pytest.mark.parametrize("op", [add, sub, mul, div],
                         ids=["add", "sub", "mul", "div"])
@pytest.mark.parametrize("other", [np.ones(3), [1.0, 2.0, 4.0], np.ones((1, 1))],
                         ids=["ndarray", "list", "1x1-ndarray"])
def test_non_scalar_non_tensor_operand_is_refused(op, other):
    """Only a scalar constant is wrapped; an array must come as a Tensor."""
    x = Tensor(np.array([1.0, 2.0, 4.0], dtype=np.float32))
    for operands in ((x, other), (other, x)):
        with pytest.raises(UsageError, match="Tensors and scalar constants"):
            op(*operands)


@pytest.mark.parametrize("op", [add, sub, mul, div],
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
    def test_infer_logits_record_no_tape_and_equal_classify_logits(self, dtype):
        from istanet.data import SkeletonSequence
        model, _ = self._model_and_tokens(dtype)
        rng = np.random.default_rng(2)
        seqs = [SkeletonSequence(rng.normal(size=(3, 4, 2, 2)), label=0) for _ in range(3)]
        out = model.forward_tokens(np.stack([model.tokenize_sample(s) for s in seqs]), "infer")
        assert out._parents == () and out._backward is None
        assert not out.requires_grad
        assert out.dtype == np.dtype(dtype)
        single = np.stack([model.forward_classify(s, mode="infer").data for s in seqs])
        assert out.data.tobytes() == single.tobytes()
        assert out.data.tobytes() == model.classify_batch(seqs).tobytes()

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
        assert mul(x, 2.0)._parents

    def test_state_restored_after_nested_blocks(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with engine.no_grad():
            with engine.no_grad():
                pass
            assert not mul(x, 2.0)._parents
        assert mul(x, 2.0)._parents

    def test_backward_on_a_loss_built_without_tape_sets_no_gradient(self):
        from istanet.model import ce_label_smoothing
        model, tokens = self._model_and_tokens(np.float64)
        with engine.no_grad():
            loss = ce_label_smoothing(model.forward_tokens(tokens, "train"), [0, 1, 2],
                                      smoothing=0.1, temperature=1.0)
        engine.backward(loss)
        assert all(p.grad is None for p in model.parameters())
