import dataclasses
import hashlib
import json
import math
import os
import re
import stat
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from istanet import attention, engine, gradcheck
from istanet import model as model_module
from istanet.attention import TSABlockConfig
from istanet.checkpoint import load_checkpoint, save_checkpoint
from istanet.data import SkeletonSequence, ValidationError
from istanet.engine import ConfigurationError, Parameter, Tensor, UsageError
from istanet.gradcheck import miniature_config, run_gradcheck
from istanet.model import (ISTANet, ModelConfig, NesterovSGD, TrainConfig,
                           ce_label_smoothing, evaluate_topk, lr_schedule, state_elements,
                           topk_accuracy)
from istanet.tokenizer import tokenize

from helpers import (BYTE_EDITS, CHECKPOINT_CORRUPTIONS, MINIATURE_V1_CHECKPOINT,
                     apply_byte_edits, check_op_gradients, composed_ce_label_smoothing, mul,
                     readme_config, record_threads, write_corrupt_checkpoint)


def tiny_config(num_classes=3):
    return ModelConfig(
        window=(2, 1, 2), in_channels=3, frames=4, joints=2, entities=2,
        embed_channels=4, gamma=0.1,
        blocks=[TSABlockConfig(c_in=4, c_out=4, heads=2, c_qkv=2)],
        num_classes=num_classes)


def random_sequence(rng, config):
    return SkeletonSequence(
        rng.normal(size=(config.in_channels, config.frames,
                         config.joints, config.entities)), label=1)


class TestForward:
    def test_logits_shape(self):
        cfg = tiny_config(num_classes=5)
        model = ISTANet(cfg, rng=np.random.default_rng(0))
        seq = random_sequence(np.random.default_rng(1), cfg)
        logits = model.forward_classify(seq, mode="infer")
        assert logits.shape == (5,)

    def test_zero_fc_weight_isolates_bias(self):
        cfg = tiny_config()
        model = ISTANet(cfg, rng=np.random.default_rng(0))
        model.fc_weight.data[:] = 0.0
        model.fc_bias.data = np.array([1.0, -2.0, 0.5], dtype=np.float32)
        for seed in range(3):
            seq = random_sequence(np.random.default_rng(seed), cfg)
            logits = model.forward_classify(seq, mode="infer")
            np.testing.assert_allclose(logits.data, [1.0, -2.0, 0.5], rtol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tokenize_sample_applies_no_er(self, dtype):
        # ER is a step of train(); tokenize_sample only checks, tokenizes
        # and casts
        cfg = tiny_config()
        model = ISTANet(cfg, rng=np.random.default_rng(0), dtype=dtype)
        seq = random_sequence(np.random.default_rng(2), cfg)
        want = tokenize(seq.data, cfg.window)[0].astype(dtype)
        got = model.tokenize_sample(seq)
        assert got.dtype == np.dtype(dtype)
        assert got.tobytes() == want.tobytes()

    def test_dim_mismatch_rejected(self):
        cfg = tiny_config()
        model = ISTANet(cfg, rng=np.random.default_rng(0))
        bad = SkeletonSequence(np.zeros((3, 5, 2, 2)), label=0)
        with pytest.raises(ValidationError):
            model.forward_classify(bad, mode="infer")

    def test_gap_linearity(self):
        # scaling all token activations scales the (N,C) pooled features linearly
        feats = np.random.default_rng(4).normal(size=(2, 4, 3, 2, 5))
        pooled1 = engine.mean_pool(Tensor(feats))
        pooled2 = engine.mean_pool(Tensor(3.0 * feats))
        assert pooled1.shape == (2, 4)
        np.testing.assert_allclose(pooled2.data, 3.0 * pooled1.data, rtol=1e-12)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**16),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_batched_logits_equal_per_sample_logits(n, seed, dtype):
    cfg = tiny_config()
    model = ISTANet(cfg, rng=np.random.default_rng(seed), dtype=dtype)
    rng = np.random.default_rng(seed + 1)
    for _, buf in model.buffers():
        buf[...] = rng.uniform(0.5, 2.0, size=buf.shape)
    tokens = [model.tokenize_sample(random_sequence(rng, cfg))
              for _ in range(n)]
    batched = model.forward_tokens(np.stack(tokens), "infer").data
    single = np.stack([model.forward_tokens(t, "infer").data for t in tokens])
    rtol = 1e-5 if dtype == np.float32 else 1e-10
    np.testing.assert_allclose(batched, single, rtol=rtol)


def wide_config():
    """More channels and classes than tiny_config, so the classifier's dot
    products are long enough for BLAS kernels to round differently."""
    return ModelConfig(
        window=(2, 1, 2), in_channels=3, frames=4, joints=2, entities=2,
        embed_channels=8, gamma=0.1,
        blocks=[TSABlockConfig(c_in=8, c_out=16, heads=2, c_qkv=2)],
        num_classes=5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batched_logits_are_bit_equal_to_per_sample_logits(dtype):
    # batched evaluation may replace per-sample evaluation only if the two
    # give the same logits, bit for bit
    cfg = wide_config()
    for seed in range(20):
        model = ISTANet(cfg, rng=np.random.default_rng(seed), dtype=dtype)
        rng = np.random.default_rng(seed + 1)
        for _, buf in model.buffers():
            buf[...] = rng.uniform(0.5, 2.0, size=buf.shape)
        tokens = [model.tokenize_sample(random_sequence(rng, cfg))
                  for _ in range(2 + seed % 5)]
        batched = model.forward_tokens(np.stack(tokens), "infer").data
        single = np.stack([model.forward_tokens(t, "infer").data for t in tokens])
        np.testing.assert_array_equal(batched, single, err_msg=f"seed {seed}")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_infer_forward_classify_records_no_tape(dtype):
    cfg = wide_config()
    model = ISTANet(cfg, rng=np.random.default_rng(0), dtype=dtype)
    rng = np.random.default_rng(1)
    for _, buf in model.buffers():
        buf[...] = rng.uniform(0.5, 2.0, size=buf.shape)
    seq = random_sequence(rng, cfg)
    logits = model.forward_classify(seq, mode="infer")
    assert isinstance(logits, Tensor)
    assert logits._parents == () and logits._backward is None
    from_tokens = model.forward_tokens(model.tokenize_sample(seq), "infer")
    assert from_tokens._parents == () and not from_tokens.requires_grad
    assert logits.dtype == from_tokens.dtype == np.dtype(dtype)
    assert logits.data.tobytes() == from_tokens.data.tobytes()
    assert logits.data.tobytes() == model.classify_batch([seq])[0].tobytes()
    assert model.forward_classify(seq, mode="train")._parents


def reachable(out):
    """Every tensor on the tape behind `out`, leaves included."""
    seen, stack, found = set(), [out], []
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            found.append(t)
            stack.extend(t._parents)
    return found


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_model_computes_in_its_parameter_dtype(dtype):
    cfg = wide_config()
    model = ISTANet(cfg, rng=np.random.default_rng(0), dtype=dtype)
    rng = np.random.default_rng(1)
    tokens = np.stack([model.tokenize_sample(random_sequence(rng, cfg))
                       for _ in range(3)])
    loss = ce_label_smoothing(model.forward_tokens(tokens, "train"), [0, 1, 2],
                              smoothing=0.1, temperature=2.0)
    model.zero_grad()
    engine.backward(loss)
    assert {t.dtype for t in reachable(loss)} == {np.dtype(dtype)}
    assert {p.grad.dtype for p in model.parameters()} == {np.dtype(dtype)}
    for x in (tokens, tokens[0]):
        logits = model.forward_tokens(x, "infer")
        assert {t.dtype for t in reachable(logits)} == {np.dtype(dtype)}


# SHA-256 over (name, NUL, raw bytes) of each initial parameter in
# parameters() order, for ISTANet(config, rng=default_rng(0)): this pins the
# init draws, their order and the checkpoint blob order together
INIT_DIGESTS = {
    ("miniature", "float32"): "95f2612e2e6b818dda0509b762de840d278fa2036c52f2299dc772f755ab3daf",
    ("miniature", "float64"): "321611c9e6cfd9e2a2160a824156e4dc4552740c1f59df65ac7ed485bf9286cf",
    ("wide", "float32"): "24de06c51f51d02bde9274e1ea0cda4d928b85da3e44a2f3f540363430c66e8f",
    ("wide", "float64"): "615b608fac7cc341804b6ce0ba70ffd9fa28ae71b31fb6aca023980c39324557",
}


@pytest.mark.parametrize("config,dtype", sorted(INIT_DIGESTS))
def test_initial_parameters_are_pinned(config, dtype):
    cfg = miniature_config() if config == "miniature" else wide_config()
    model = ISTANet(cfg, rng=np.random.default_rng(0), dtype=np.dtype(dtype))
    digest = hashlib.sha256()
    for p in model.parameters():
        digest.update(p.name.encode() + b"\0" + p.data.tobytes())
    assert digest.hexdigest() == INIT_DIGESTS[config, dtype]


# SHA-256 over (shape, NUL, raw bytes) of each array, for the committed v1
# fixture on three fixed samples: the infer logits and the score_sink maps,
# of sample 0 alone (N=1) and of the three as one batch (classify_batch's
# logits). A change that moves any inference byte fails here
INFER_DIGESTS = {
    "logits-n1": "350abe17e3423affd510b0af30ed7c5193d22a427e6e977f71de1d7d06795723",
    "scores-n1": "bca16752c79f9b0f295311e0d0da286697b2bee33d0488545613326af4206655",
    "logits-batch": "98924c7eab706798326b716c6bc1b213c9b735e8aa2fd2243d0aecc1e0d703c0",
    "scores-batch": "1ac95bdaf997cecd804299870fce914a9c4034d259596691a237569b31aaa8ff",
}


def test_inference_bytes_are_pinned():
    def digest(arrays):
        d = hashlib.sha256()
        for a in arrays:
            d.update(str(a.shape).encode() + b"\0" + np.ascontiguousarray(a).tobytes())
        return d.hexdigest()

    model = load_checkpoint(MINIATURE_V1_CHECKPOINT)[0]
    rng = np.random.default_rng(27)
    seqs = [SkeletonSequence(rng.normal(size=(3, 4, 2, 2)), label=0) for _ in range(3)]
    tokens = [model.tokenize_sample(s) for s in seqs]
    one, batch = [], []
    logits = model.forward_tokens(tokens[0], "infer", score_sink=one).data
    model.forward_tokens(np.stack(tokens), "infer", score_sink=batch)
    assert {"logits-n1": digest([logits]),
            "scores-n1": digest([a for block in one for a in block]),
            "logits-batch": digest([model.classify_batch(seqs)]),
            "scores-batch": digest([a for block in batch for a in block])} == INFER_DIGESTS


def test_building_a_large_model_allocates_no_more_than_it_keeps():
    # the README config at frames 4000: U = 2000, so each of the four heads
    # keeps a 15.3 MiB float32 M; a float64 zero M cast to float32 would lift
    # the peak by half of what the model holds
    cfg = ModelConfig(window=(10, 1, 2), in_channels=3, frames=4000, joints=5, entities=2,
                      embed_channels=16, gamma=0.1,
                      blocks=[TSABlockConfig(c_in=16, c_out=16, heads=2, c_qkv=4),
                              TSABlockConfig(c_in=16, c_out=32, heads=2, c_qkv=4)],
                      num_classes=4)
    tracemalloc.start()
    try:
        model = ISTANet(cfg, rng=np.random.default_rng(0))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(p.data.nbytes for p in model.parameters()) > 60 * 2 ** 20
    assert peak < 1.05 * held, (peak, held)


def attribute_parameters(obj, seen=None):
    """Every Parameter reachable from obj's attributes, lists and nested
    objects, by identity."""
    seen = {} if seen is None else seen
    if isinstance(obj, Parameter):
        seen[id(obj)] = obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            attribute_parameters(item, seen)
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        for value in vars(obj).values():
            attribute_parameters(value, seen)
    return seen


@pytest.mark.parametrize("cfg", [tiny_config(), wide_config(), miniature_config()])
def test_parameters_lists_every_attribute_parameter_once(cfg):
    model = ISTANet(cfg, rng=np.random.default_rng(0))
    listed = [id(p) for p in model.parameters()]
    assert len(listed) == len(set(listed))
    assert set(listed) == set(attribute_parameters(model))


class TestEntityOrder:
    """With windows (t_w, 1, E) every token holds all E entities on its S
    axis, and no op mixes along S in an order-dependent way (the convolutions
    run along U and T, the Gram matrix sums over S, batchnorm and pooling are
    per channel): the logits do not depend on entity order beyond rounding.
    With e_w < E the entities sit in different tokens, and order matters.
    The error is normwise, max|a - b| / max|a| over the logit row: a logit
    near zero would make an element-wise relative error read rounding as a
    large change."""

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2 ** 16),
           perm=st.sampled_from([2, 3]).flatmap(lambda e: st.permutations(range(e)).filter(
               lambda p: list(p) != sorted(p))))
    @example(seed=53343, perm=[2, 1, 0])  # a logit of 6.5e-6 in the row
    def test_logits_invariant_iff_one_window_spans_every_entity(self, seed, perm):
        entities = len(perm)
        rng = np.random.default_rng(seed)
        seq = SkeletonSequence(rng.normal(size=(3, 40, 5, entities)), label=0)
        permuted = SkeletonSequence(seq.data[..., perm], label=0)
        for e_w in (entities, 1):
            config = ModelConfig(
                window=(10, 1, e_w), in_channels=3, frames=40, joints=5, entities=entities,
                embed_channels=8, gamma=0.1,
                blocks=[TSABlockConfig(c_in=8, c_out=8, heads=2, c_qkv=2),
                        TSABlockConfig(c_in=8, c_out=16, heads=2, c_qkv=2)],
                num_classes=4)
            model = ISTANet(config, rng=np.random.default_rng(seed), dtype=np.float64)
            logits, permuted_logits = model.classify_batch([seq, permuted])
            err = np.abs(logits - permuted_logits).max() / np.abs(logits).max()
            if e_w == entities:
                assert err <= 1e-12
            else:
                assert err > 1e-6


class TestLoss:
    def test_uniform_logits_give_log_k(self):
        loss = ce_label_smoothing(Tensor(np.zeros((1, 2))), [0], 0.0, 1.0)
        assert math.isclose(loss.item(), math.log(2), rel_tol=1e-12)
        loss = ce_label_smoothing(Tensor(np.zeros((1, 2))), [1], 0.0, 1.0)
        assert math.isclose(loss.item(), math.log(2), rel_tol=1e-12)

    def test_hand_softmax(self):
        loss = ce_label_smoothing(Tensor(np.array([[math.log(3), 0.0]])), [0], 0.0, 1.0)
        assert math.isclose(loss.item(), -math.log(0.75), rel_tol=1e-12)

    def test_smoothing_invariant_at_uniform_prediction(self):
        loss = ce_label_smoothing(Tensor(np.zeros((1, 2))), [0], 0.1, 1.0)
        assert math.isclose(loss.item(), math.log(2), rel_tol=1e-12)

    def test_temperature_flattens(self):
        logits = Tensor(np.array([[2.0, 0.0]]))
        sharp = ce_label_smoothing(logits, [1], 0.0, 0.5).item()
        flat = ce_label_smoothing(logits, [1], 0.0, 4.0).item()
        assert sharp > flat > math.log(2) * 0.2

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            logits = Tensor(rng.normal(size=(1, 4)))
            loss = ce_label_smoothing(logits, [int(rng.integers(4))], 0.1, 1.0)
            assert loss.item() >= 0.0

    def test_bad_label_rejected(self):
        with pytest.raises(UsageError):
            ce_label_smoothing(Tensor(np.zeros((1, 3))), [3], 0.0, 1.0)

    def test_ndarray_logits_match_tensor_logits(self):
        rng = np.random.default_rng(6)
        for dtype in (np.float32, np.float64):
            logits = rng.normal(size=(5, 4)).astype(dtype)
            labels = np.array([0, 3, 1, 2, 3])
            from_array = ce_label_smoothing(logits, labels, 0.1, 1.5).data
            from_tensor = ce_label_smoothing(Tensor(logits), labels, 0.1, 1.5).data
            assert from_array.dtype == dtype
            assert from_array.tobytes() == from_tensor.tobytes()


@pytest.mark.parametrize("smoothing", [0.0, 0.1])
@pytest.mark.parametrize("temperature", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("n", [1, 3, 32])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_loss_node_has_the_bytes_of_the_composed_chain(dtype, n, temperature, smoothing):
    # one node in the chain's steps: the loss and the logits' gradient keep
    # the bytes of mul, log_softmax, mul, tensor_sum and tensor_mean
    rng = np.random.default_rng(n)
    logits = rng.normal(scale=3.0, size=(n, 5)).astype(dtype)
    labels = rng.integers(0, 5, size=n)
    fused_in, chain_in = (Tensor(logits, requires_grad=True) for _ in range(2))
    fused = ce_label_smoothing(fused_in, labels, smoothing, temperature)
    chain = composed_ce_label_smoothing(chain_in, labels, smoothing, temperature)
    assert fused.dtype == np.dtype(dtype) and fused._parents == (fused_in,)
    assert fused.data.tobytes() == chain.data.tobytes()
    engine.backward(fused)
    engine.backward(chain)
    assert fused_in.grad.dtype == np.dtype(dtype)
    assert fused_in.grad.tobytes() == chain_in.grad.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_loss_backward_of_an_upstream_gradient_has_the_chain_bytes(dtype):
    rng = np.random.default_rng(7)
    logits = rng.normal(scale=3.0, size=(6, 4)).astype(dtype)
    labels = rng.integers(0, 4, size=6)
    chain_in = Tensor(logits, requires_grad=True)
    chain = composed_ce_label_smoothing(chain_in, labels, 0.1, 1.5)
    engine.backward(mul(chain, 0.37))
    fused = ce_label_smoothing(Tensor(logits, requires_grad=True), labels, 0.1, 1.5)
    (grad,) = fused._backward(np.asarray(0.37, dtype=dtype))
    assert grad.tobytes() == chain_in.grad.tobytes()


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    labels = rng.integers(0, 5, size=4)
    check_op_gradients(lambda x: ce_label_smoothing(x, labels, 0.1, 0.7),
                       [rng.normal(size=(4, 5))], loss="sum")


class TestNesterov:
    def test_hand_single_step(self):
        p = Parameter("w", np.array([1.0]), dtype=np.float64)
        opt = NesterovSGD([p], momentum=0.9)
        p.grad = np.array([0.5])
        opt.step(lr=0.1)
        np.testing.assert_allclose(opt.velocity["w"], [0.5])
        np.testing.assert_allclose(p.data, [0.905])

    def test_zero_momentum_is_plain_sgd(self):
        p = Parameter("w", np.array([2.0]), dtype=np.float64)
        opt = NesterovSGD([p], momentum=0.0)
        p.grad = np.array([0.25])
        opt.step(lr=0.2)
        np.testing.assert_allclose(p.data, [1.95])

    def test_stationary_with_zero_grad(self):
        p = Parameter("w", np.array([1.5]), dtype=np.float64)
        opt = NesterovSGD([p], momentum=0.9)
        p.grad = np.zeros(1)
        opt.step(lr=0.1)
        np.testing.assert_allclose(p.data, [1.5])

    def test_missing_grad_rejected(self):
        p = Parameter("w", np.array([1.0]))
        with pytest.raises(UsageError):
            NesterovSGD([p]).step(lr=0.1)

    def test_ten_step_trace_matches_closed_form(self):
        # quadratic loss 0.5*w^2 so grad == w; closed form tracked separately
        p = Parameter("w", np.array([1.0]), dtype=np.float64)
        opt = NesterovSGD([p], momentum=0.9)
        w, v = 1.0, 0.0
        lr, mu = 0.05, 0.9
        for _ in range(10):
            g = w
            p.grad = np.array([float(p.data[0])])
            opt.step(lr=lr)
            v = mu * v + g
            w = w - lr * (g + mu * v)
            assert abs(float(p.data[0]) - w) <= 1e-12


class TestSchedule:
    def test_step_decay(self):
        tc = TrainConfig(lr=0.1, lr_decay=0.1, decay_epochs=(60, 90))
        assert lr_schedule(0, tc) == pytest.approx(0.1)
        assert lr_schedule(59, tc) == pytest.approx(0.1)
        assert lr_schedule(60, tc) == pytest.approx(0.01)
        assert lr_schedule(90, tc) == pytest.approx(0.001)
        assert lr_schedule(109, tc) == pytest.approx(0.001)


class TestTopK:
    def _fixed_model(self, logits_by_label):
        class Fake:
            config = tiny_config(num_classes=3)

            def classify_batch(self, seqs):
                return np.array([logits_by_label[seq.label] for seq in seqs], dtype=float)
        return Fake()

    def _manifest(self, labels, tmp_path):
        from istanet.data import serialize_iskel, load_manifest
        lines = []
        for i, lab in enumerate(labels):
            seq = SkeletonSequence(np.zeros((3, 4, 2, 2)), label=lab)
            (tmp_path / f"s{i}.iskel").write_text(serialize_iskel(seq))
            lines.append(f"s{i}.iskel {lab} val")
        (tmp_path / "m.txt").write_text("\n".join(lines) + "\n")
        return load_manifest(tmp_path / "m.txt", num_classes=3)

    def test_all_correct(self, tmp_path):
        man = self._manifest([0, 1, 2], tmp_path)
        model = self._fixed_model({0: [9, 0, 0], 1: [0, 9, 0], 2: [0, 0, 9]})
        acc, _ = evaluate_topk(model, man, man.split("val"), k=1)
        assert acc == 1.0

    def test_k_equals_num_classes(self, tmp_path):
        man = self._manifest([0, 1, 2], tmp_path)
        model = self._fixed_model({0: [0, 9, 1], 1: [9, 0, 1], 2: [9, 1, 0]})
        acc, _ = evaluate_topk(model, man, man.split("val"), k=3)
        assert acc == 1.0

    def test_three_of_four(self, tmp_path):
        man = self._manifest([0, 0, 1, 2], tmp_path)
        model = self._fixed_model({0: [9, 0, 0], 1: [0, 9, 0], 2: [9, 0, 1]})
        acc, per_class = evaluate_topk(model, man, man.split("val"), k=1)
        assert acc == 0.75
        assert per_class[2].tolist() == [0, 1]

    def test_empty_split_rejected(self, tmp_path):
        man = self._manifest([0], tmp_path)
        with pytest.raises(UsageError):
            evaluate_topk(self._fixed_model({0: [1, 0, 0]}), man, [], k=1)


class TestChunkedEvaluation:
    @pytest.mark.parametrize("window,frames,rows", [((10, 1, 2), 40, 20), ((1, 1, 1), 40, 20),
                                                    ((10, 1, 2), 4000, 1), ((1, 1, 1), 400, 2)])
    def test_chunk_rows_of_the_readme_blocks(self, window, frames, rows):
        # one 32-channel activation, 12,800 elements at U=20 and at U=400,
        # bounds the chunk; at frames 4000 (U=2000) it leaves one row, and
        # at window (1,1,1) and frames 400 (U=4000) two, as the per-sample
        # heads keep no (rows, U, U) map. eval_chunk_rows reads the config
        # only, so no (U, U) M is allocated here
        cfg = dataclasses.replace(readme_config(window), frames=frames)
        assert ISTANet.eval_chunk_rows(types.SimpleNamespace(config=cfg)) == rows

    # with EVAL_CHUNK_ELEMENTS at 128 * rows: both windows give 4 channels *
    # 32 elements = 128, so `rows` rows
    @pytest.mark.parametrize("window,rows", [((1, 1, 1), 1), ((4, 1, 2), 8)])
    @pytest.mark.parametrize("k", [1, 2])
    def test_accuracy_equals_per_sample_reference(self, monkeypatch, window, rows, k):
        monkeypatch.setattr(model_module, "EVAL_CHUNK_ELEMENTS", 128 * rows)
        cfg = ModelConfig(window=window, in_channels=3, frames=8, joints=2, entities=2,
                          embed_channels=4, gamma=0.1,
                          blocks=[TSABlockConfig(c_in=4, c_out=4, heads=2, c_qkv=2)],
                          num_classes=4)
        model = ISTANet(cfg, rng=np.random.default_rng(0))
        assert model.eval_chunk_rows() == rows
        rng = np.random.default_rng(1)
        for _, buf in model.buffers():
            buf[...] = rng.uniform(0.5, 2.0, size=buf.shape)
        labels = rng.integers(0, 4, size=20)
        seqs = [SkeletonSequence(rng.normal(size=(3, 8, 2, 2)), label=int(y)) for y in labels]

        hits, per_class, single = 0, np.zeros((4, 2), dtype=int), []
        for seq in seqs:
            logits = model.forward_classify(seq, mode="infer").data.reshape(-1)
            single.append(logits)
            hit = int(seq.label in np.argsort(logits)[::-1][:k])
            hits += hit
            per_class[seq.label] += (hit, 1)
        assert 0 < hits < len(seqs)

        assert model.classify_batch(seqs).tobytes() == np.stack(single).tobytes()
        acc, got_per_class = topk_accuracy(model, seqs, labels, k=k)
        assert acc == hits / len(seqs)
        assert got_per_class.tolist() == per_class.tolist()

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("case", ["readme-u400", "threshold-zero"])
    def test_threaded_heads_give_the_bytes_of_forward_classify(self, monkeypatch, case,
                                                               threads):
        # classify_batch's chunks run each head a sample at a time on THREADS
        # threads (attention._head_by_sample): the README blocks at U=400
        # under the default threshold, or a small model with no threshold in
        # chunks of 3, 3 and 1 rows. forward_classify's rank-4 input takes
        # the whole-map path, and each row must have its bytes
        if case == "threshold-zero":
            monkeypatch.setattr(attention, "SCORE_BLOCK_ELEMENTS", 0)
            # 4 channels * 32 elements = 128 per row at U=32
            monkeypatch.setattr(model_module, "EVAL_CHUNK_ELEMENTS", 128 * 3)
            cfg = ModelConfig(window=(1, 1, 1), in_channels=3, frames=8, joints=2, entities=2,
                              embed_channels=4, gamma=0.1,
                              blocks=[TSABlockConfig(c_in=4, c_out=4, heads=2, c_qkv=2)],
                              num_classes=4)
        else:
            cfg = readme_config((1, 1, 1))
        monkeypatch.setattr(attention, "THREADS", threads)
        idents = record_threads(monkeypatch, "_head_by_sample")
        model = ISTANet(cfg, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for _, buf in model.buffers():
            buf[...] = rng.uniform(0.5, 2.0, size=buf.shape)
        shape = (cfg.in_channels, cfg.frames, cfg.joints, cfg.entities)
        seqs = [SkeletonSequence(rng.normal(size=shape), label=0) for _ in range(7)]
        single = [model.forward_classify(seq, mode="infer").data for seq in seqs]
        assert not idents
        assert model.classify_batch(seqs).tobytes() == np.stack(single).tobytes()
        assert (len(idents) > 1) == (threads > 1) and idents


class TestCheckpoint:
    def test_round_trip_reproduces_logits(self, tmp_path):
        cfg = tiny_config()
        model = ISTANet(cfg, rng=np.random.default_rng(0))
        seq = random_sequence(np.random.default_rng(1), cfg)
        before = model.forward_classify(seq, mode="infer").data
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, train_config=TrainConfig(), epoch=3)
        loaded, tc, epoch, *_ = load_checkpoint(path)
        after = loaded.forward_classify(seq, mode="infer").data
        assert before.tobytes() == after.tobytes()
        assert epoch == 3
        assert tc.epochs == TrainConfig().epochs

    def test_save_load_save_is_byte_identical(self, tmp_path):
        model = ISTANet(tiny_config(), rng=np.random.default_rng(0))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, model, train_config=TrainConfig(), epoch=1)
        loaded, tc, epoch, *_ = load_checkpoint(p1)
        save_checkpoint(p2, loaded, train_config=tc, epoch=epoch)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_and_save_allocate_little_beyond_the_model(self, tmp_path):
        # the README model at window (1,1,1): U = 400, so the four heads'
        # (U, U) M take most of its 2.5 MiB. A load reads each blob into the
        # model's own array, and a save writes each one from it.
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ISTANet(readme_config(window=(1, 1, 1)),
                                      rng=np.random.default_rng(0)))
        tracemalloc.start()
        try:
            model = load_checkpoint(path)[0]
            load_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held_before_save = tracemalloc.get_traced_memory()[0]
            save_checkpoint(path, model)
            save_peak = tracemalloc.get_traced_memory()[1] - held_before_save
        finally:
            tracemalloc.stop()
        held = (sum(p.data.nbytes for p in model.parameters())
                + sum(buf.nbytes for _, buf in model.buffers()))
        assert held > 2 * 2 ** 20
        assert load_peak <= 1.25 * held, (load_peak, held)
        assert save_peak <= 0.25 * held, (save_peak, held)

    @pytest.mark.parametrize("change,message", [(lambda raw: raw[:-4], "shrank"),
                                                (lambda raw: raw + bytes(4), "grew")],
                             ids=["shrinks", "grows"])
    def test_file_that_changes_size_while_it_is_read_is_refused(self, tmp_path, monkeypatch,
                                                                change, message):
        # the file is rewritten after its size was checked and before its
        # blobs are read, while the model is built; its payload is larger
        # than what the reader buffered with the header
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ISTANet(readme_config(), rng=np.random.default_rng(0)))
        raw = path.read_bytes()

        def build(config):
            path.write_bytes(change(raw))
            return ISTANet(config)

        monkeypatch.setattr("istanet.checkpoint.ISTANet", build)
        with pytest.raises(UsageError, match=f"the file {message} while it was read"):
            load_checkpoint(path)

    def test_running_stats_round_trip(self, tmp_path):
        cfg = tiny_config()
        model = ISTANet(cfg, rng=np.random.default_rng(0))
        seq = random_sequence(np.random.default_rng(1), cfg)
        tokens = model.tokenize_sample(seq)
        model.forward_tokens(tokens, mode="train")  # update running stats
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        loaded, *_ = load_checkpoint(path)
        a = model.forward_tokens(tokens, mode="infer").data
        b = loaded.forward_tokens(tokens, mode="infer").data
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("failing", ["fsync", "replace"])
    def test_failed_save_leaves_previous_file(self, tmp_path, monkeypatch, failing):
        cfg = tiny_config()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ISTANet(cfg, rng=np.random.default_rng(0)))
        before = path.read_bytes()

        def disk_full(*args):
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(os, failing, disk_full)
            with pytest.raises(OSError, match="disk full"):
                save_checkpoint(path, ISTANet(cfg, rng=np.random.default_rng(1)))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.ckpt"]

    def test_save_syncs_file_then_renames_then_syncs_directory(self, tmp_path, monkeypatch):
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append("fsync-dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync-file")
            real_fsync(fd)

        def replace(src, dst):
            calls.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        save_checkpoint(tmp_path / "m.ckpt", ISTANet(tiny_config(), rng=np.random.default_rng(0)))
        assert calls == ["fsync-file", "replace", "fsync-dir"]

    def test_loaded_model_is_float32(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ISTANet(tiny_config(), rng=np.random.default_rng(0),
                                      dtype=np.float64))
        for source in (path, MINIATURE_V1_CHECKPOINT):
            model = load_checkpoint(source)[0]
            dtypes = ({p.data.dtype for p in model.parameters()}
                      | {buf.dtype for _, buf in model.buffers()})
            assert dtypes == {np.dtype(np.float32)}, source

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT\n{}\n")
        with pytest.raises(UsageError):
            load_checkpoint(path)

    def test_committed_v1_checkpoint_saves_back_without_training_state(self, tmp_path):
        # pins the header layout that both config serialisers write: the
        # re-saved fixture is the fixture without its rng_state key and its
        # opt.* blobs, which come last in its payload
        model, tc, epoch, *_ = load_checkpoint(MINIATURE_V1_CHECKPOINT)
        assert model.config.frozen_entities == (1,) and epoch == 1
        assert tc.decay_epochs == (2,) and tc.er_enabled is False
        path = tmp_path / "again.ckpt"
        save_checkpoint(path, model, train_config=tc, epoch=epoch)
        magic, header, payload = MINIATURE_V1_CHECKPOINT.read_bytes().split(b"\n", 2)
        doc = json.loads(header)
        del doc["rng_state"]
        first = next(i for i, b in enumerate(doc["blobs"]) if b["name"].startswith("opt."))
        assert all(b["name"].startswith("opt.") for b in doc["blobs"][first:])
        cut = doc["blobs"][first]["offset"] * 4
        del doc["blobs"][first:]
        header = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        assert path.read_bytes() == b"\n".join([magic, header, payload[:cut]])

    @pytest.mark.parametrize("case", sorted(CHECKPOINT_CORRUPTIONS))
    def test_malformed_checkpoint_raises_usage_error(self, tmp_path, case):
        path = tmp_path / "m.ckpt"
        message = write_corrupt_checkpoint(path, case)
        with pytest.raises(UsageError, match=message):
            load_checkpoint(path)

    def test_header_model_larger_than_its_payload_is_refused_before_it_is_built(self, tmp_path):
        # frames 4 -> 4000 makes U 4000, so each head's (U, U) M 16e6
        # elements; the payload still holds the miniature model
        raw = MINIATURE_V1_CHECKPOINT.read_bytes()
        assert raw.count(b'"frames":4,') == 1
        path = tmp_path / "big.ckpt"
        path.write_bytes(raw.replace(b'"frames":4,', b'"frames":4000,'))
        tracemalloc.start()
        try:
            with pytest.raises(UsageError, match="cannot build the model"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20, peak

    @given(BYTE_EDITS)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_byte_mutations_raise_only_usage_error(self, tmp_path, edits):
        path = tmp_path / "m.ckpt"
        path.write_bytes(apply_byte_edits(MINIATURE_V1_CHECKPOINT.read_bytes(), edits))
        try:
            load_checkpoint(path)
        except UsageError:
            pass


@st.composite
def model_configs(draw):
    """Small valid ModelConfigs: zero to three blocks, each keeping or
    doubling its input channels."""
    dims = [draw(st.integers(1, n)) for n in (6, 3, 2)]
    window = tuple(draw(st.integers(1, n)) for n in dims)
    in_channels = draw(st.integers(2, 3))
    c = embed_channels = draw(st.integers(in_channels, 6))
    blocks = []
    for _ in range(draw(st.integers(0, 3))):
        c_out = draw(st.sampled_from([c, 2 * c]))
        blocks.append(TSABlockConfig(
            c_in=c, c_out=c_out, heads=draw(st.sampled_from([h for h in range(1, c + 1)
                                                             if c % h == 0])),
            c_qkv=draw(st.integers(1, 3)), k_u=draw(st.sampled_from([1, 3, 5])),
            k_t=draw(st.sampled_from([1, 3, 5]))))
        c = c_out
    return ModelConfig(window=window, in_channels=in_channels, frames=dims[0], joints=dims[1],
                       entities=dims[2], embed_channels=embed_channels, gamma=0.1,
                       blocks=blocks, num_classes=draw(st.integers(2, 5)))


@given(model_configs())
@example(tiny_config())
@example(dataclasses.replace(tiny_config(), blocks=[]))
@example(dataclasses.replace(tiny_config(), blocks=[
    TSABlockConfig(c_in=4, c_out=8, heads=2, c_qkv=2),
    TSABlockConfig(c_in=8, c_out=8, heads=4, c_qkv=1)]))
@settings(max_examples=60, deadline=None)
def test_state_elements_counts_every_parameter_and_buffer(config):
    model = ISTANet(config, rng=np.random.default_rng(0))
    held = (sum(p.data.size for p in model.parameters())
            + sum(buf.size for _, buf in model.buffers()))
    assert state_elements(config) == held


class TestFullModelGradients:
    def test_miniature_gradcheck_passes(self):
        report, offenders = run_gradcheck()
        assert not offenders
        assert max(report.values()) <= 1e-4

    def test_gradcheck_builds_a_float64_model(self, monkeypatch):
        seen = []
        real = gradcheck.finite_difference_check

        def spy(model, tokens, label):
            seen.append({p.data.dtype for p in model.parameters()}
                        | {buf.dtype for _, buf in model.buffers()} | {tokens.dtype})
            return real(model, tokens, label)

        monkeypatch.setattr(gradcheck, "finite_difference_check", spy)
        run_gradcheck()
        assert seen == [{np.dtype(np.float64)}]

    def test_channel_doubling_chain_gradcheck_passes(self):
        # a block fed by another block, and the residual projection that
        # only a channel-doubling block has
        cfg = ModelConfig(
            window=(2, 1, 2), in_channels=3, frames=4, joints=2, entities=2,
            embed_channels=4, gamma=0.1,
            blocks=[TSABlockConfig(c_in=4, c_out=4, heads=2, c_qkv=2),
                    TSABlockConfig(c_in=4, c_out=8, heads=2, c_qkv=2)],
            num_classes=3)
        report, offenders = run_gradcheck(cfg, seed=0, tolerance=1e-4)
        assert {"blocks.1.res.weight", "blocks.1.res.bias"} <= set(report)
        assert len(report) == 52
        assert not offenders


# class -> fields of a valid config whose every floor can sit at its bound
CONFIG_BASES = {
    ModelConfig: dict(window=(1, 1, 1), in_channels=3, frames=4, joints=2, entities=2,
                      embed_channels=4, gamma=0.1, blocks=[], num_classes=3),
    TrainConfig: {},
    TSABlockConfig: dict(c_in=4, c_out=4, heads=2, c_qkv=2),
}

# every (class, field, low, below) floor: a value >= low, and < below when
# below is not None; embed_channels' low is the base's in_channels
CONFIG_FLOORS = [
    (ModelConfig, "in_channels", 1, None), (ModelConfig, "frames", 1, None),
    (ModelConfig, "joints", 1, None), (ModelConfig, "entities", 1, None),
    (ModelConfig, "embed_channels", 3, None), (ModelConfig, "num_classes", 2, None),
    (ModelConfig, "gamma", 0, None),
    (TrainConfig, "batch_size", 1, None), (TrainConfig, "epochs", 1, None),
    (TrainConfig, "seed", 0, None), (TrainConfig, "checkpoint_interval", 0, None),
    (TrainConfig, "lr", 0, None), (TrainConfig, "lr_decay", 0, None),
    (TrainConfig, "label_smoothing", 0, 1), (TrainConfig, "momentum", 0, 1),
    (TSABlockConfig, "heads", 1, None), (TSABlockConfig, "c_qkv", 1, None),
    (TSABlockConfig, "k_u", 1, None), (TSABlockConfig, "k_t", 1, None),
    (TSABlockConfig, "gamma", 0, None),
]


class TestConfigs:
    def test_block_chain_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(window=(2, 1, 2), in_channels=3, frames=4, joints=2,
                        entities=2, embed_channels=4, gamma=0.1,
                        blocks=[TSABlockConfig(c_in=8, c_out=8, heads=2, c_qkv=2)],
                        num_classes=3)

    @pytest.mark.parametrize("field,value,message", [
        ("embed_channels", 2, "embed_channels must be an integer >= 3, got 2"),
        ("gamma", -0.1, "gamma must be a number >= 0, got -0.1"),
        ("window", (0, 1, 2), r"window \[0, 1, 2\] must be three lengths"),
        ("window", (1, 2), r"window \[1, 2\] must be three lengths"),
        ("window", (5, 1, 2), r"at most its axis in \(T, J, E\) = \(4, 2, 2\)"),
    ], ids=["embed-narrower-than-input", "gamma-negative", "window-zero", "window-two-values",
            "window-longer-than-frames"])
    def test_model_config_refuses_a_bad_field(self, field, value, message):
        fields = dict(window=(2, 1, 2), in_channels=3, frames=4, joints=2, entities=2,
                      embed_channels=4, gamma=0.1,
                      blocks=[TSABlockConfig(c_in=4, c_out=4, heads=2, c_qkv=2)],
                      num_classes=3)
        with pytest.raises(ConfigurationError, match=message):
            ModelConfig(**{**fields, field: value})

    @pytest.mark.parametrize("cls,field,low,below", CONFIG_FLOORS,
                             ids=[f"{c.__name__}.{f}" for c, f, *_ in CONFIG_FLOORS])
    def test_each_floor_refuses_values_outside_it_and_accepts_its_bounds(self, cls, field, low,
                                                                          below):
        base = CONFIG_BASES[cls]
        integer = cls.__dataclass_fields__[field].type is int
        kind = "an integer" if integer else "a number"
        bound = f">= {low}" if below is None else f"in [{low}, {below})"
        outside = [low - 1 if integer else math.nextafter(low, -math.inf)]
        inside = [low]
        if below is not None:
            outside.append(below)
            inside.append(math.nextafter(below, low))
        for value in outside:
            message = f"{field} must be {kind} {bound}, got {value!r}"
            with pytest.raises(ConfigurationError, match=re.escape(message)):
                cls(**{**base, field: value})
        for value in inside:
            assert getattr(cls(**{**base, field: value}), field) == value

    def test_block_field_types_checked(self):
        with pytest.raises(ConfigurationError, match="heads must be an integer"):
            TSABlockConfig(c_in=4, c_out=4, heads="2", c_qkv=2)
        with pytest.raises(ConfigurationError, match="gamma must be a number"):
            TSABlockConfig(c_in=4, c_out=4, heads=2, c_qkv=2, gamma=True)

    def test_train_config_validation(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(label_smoothing=1.0)
        with pytest.raises(ConfigurationError):
            TrainConfig(temperature=0.0)
        with pytest.raises(ConfigurationError):
            TrainConfig(momentum=1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_float_fields_must_be_finite(self, bad):
        with pytest.raises(ConfigurationError, match="gamma must be a finite number"):
            TSABlockConfig(c_in=4, c_out=4, heads=2, c_qkv=2, gamma=bad)
        with pytest.raises(ConfigurationError, match="lr_decay must be a finite number"):
            TrainConfig(lr_decay=bad)

    def test_checkpoint_interval_zero_allowed_negative_refused(self):
        assert TrainConfig(checkpoint_interval=0).checkpoint_interval == 0
        with pytest.raises(ConfigurationError, match="checkpoint_interval must be"):
            TrainConfig(checkpoint_interval=-2)
