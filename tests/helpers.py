"""Shared test utilities: the README model config, a finite-difference
oracle kept independent of the reverse-mode path it checks, reference
primitives (add and mul with a scalar constant on either side, sub, div,
sqrt, reshape, tanh, tensor_sum, tensor_mean, log_softmax, getitem,
concat), the classifier tail's pooling and loss as chains of them
(composed_mean_pool, composed_ce_label_smoothing), the out-of-place forms
of leaky_relu's backward and train-mode batchnorm that the engine's passes
must match, conv3d_axis's input gradient scattered back tap by tap onto
zeros, conv3d_axis with every tap in its im2col, dead ones included, the
inverse of the tokenizer's partition, the attention score map composed of
primitive ops and a block's attention as a chain of them per head, the
alpha and M gradients of a per-sample head as an ordered sum and one GEMM,
a recorder of the threads that run the engine's per-sample work, malformed
checkpoints, byte mutations of input files, and the committed v1
checkpoint fixture."""

import json
import math
import pathlib
import threading

import numpy as np
from hypothesis import strategies as st

from istanet import attention, engine
from istanet.attention import TSABlockConfig, positional_encoding
from istanet.checkpoint import save_checkpoint
from istanet.model import ISTANet, ModelConfig


def readme_config(window=(10, 1, 2)):
    """The README run config's model: U = 20 tokens at its window (10,1,2),
    400 at window (1,1,1)."""
    return ModelConfig(
        window=window, in_channels=3, frames=40, joints=5, entities=2,
        embed_channels=16, gamma=0.1,
        blocks=[TSABlockConfig(c_in=16, c_out=16, heads=2, c_qkv=4),
                TSABlockConfig(c_in=16, c_out=32, heads=2, c_qkv=4)],
        num_classes=4)


def fd_grad(fn, arrays, wrt, eps=1e-6):
    """Central-difference gradient of scalar fn(*arrays) w.r.t. arrays[wrt].

    fn receives plain numpy arrays and must return a float.
    """
    base = [np.array(a, dtype=np.float64) for a in arrays]
    target = base[wrt]
    grad = np.zeros_like(target)
    flat = target.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(*base)
        flat[i] = orig - eps
        lo = fn(*base)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def rel_err(a, b, floor=1e-6):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def check_op_gradients(op, arrays, eps=1e-6, tol=1e-4, loss="sumsq"):
    """Compare reverse-mode gradients of sum(op(...)^2) (or plain sum) against
    central differences for every input; returns the worst relative error."""
    tensors = [engine.Tensor(np.array(a, dtype=np.float64), requires_grad=True)
               for a in arrays]
    out = op(*tensors)
    scalar = tensor_sum(mul(out, out) if loss == "sumsq" else out)
    engine.backward(scalar)

    def forward_np(*arrs):
        res = op(*[engine.Tensor(a) for a in arrs]).data
        return float((res * res).sum() if loss == "sumsq" else res.sum())

    worst = 0.0
    for i, t in enumerate(tensors):
        fd = fd_grad(forward_np, arrays, wrt=i, eps=eps)
        worst = max(worst, rel_err(fd, t.grad))
    assert worst <= tol, f"gradient mismatch: rel err {worst:.3e} > {tol}"
    return worst


def _operands(a, b):
    """The operands of a reference binary op as Tensors. Each is a Tensor or
    a scalar constant (a Python float, a NumPy scalar or a 0-d array), which
    takes the dtype of the other operand when that is a Tensor, so that a
    constant such as 1/n or eps never promotes float32 to float64."""
    for x in (a, b):
        if not isinstance(x, engine.Tensor) and np.ndim(x) != 0:
            raise engine.UsageError(f"add and mul take Tensors and scalar constants, "
                                    f"got a {type(x).__name__} of shape {np.shape(x)}")
    dtype = next((x.dtype for x in (a, b) if isinstance(x, engine.Tensor)), None)
    return tuple(x if isinstance(x, engine.Tensor) else engine.Tensor(np.asarray(x), dtype=dtype)
                 for x in (a, b))


def _binary_grads(a, b, grad_a, grad_b):
    """Gradient slots of a reference binary op. grad_a/grad_b compute the
    broadcast gradient of each operand; an operand that needs none (a
    constant) gets None and its gradient is never computed."""
    return (engine._unbroadcast(grad_a(), a.shape) if a.requires_grad else None,
            engine._unbroadcast(grad_b(), b.shape) if b.requires_grad else None)


def add(a, b):
    """engine.add with a scalar constant on either side (_operands)."""
    return engine.add(*_operands(a, b))


def mul(a, b):
    """a * b as a tape node, with the scalar-constant rule (_operands)."""
    a, b = _operands(a, b)

    def bwd(g):
        return _binary_grads(a, b, lambda: g * b.data, lambda: g * a.data)

    return engine._make(a.data * b.data, (a, b), bwd)


def tensor_sum(a, axis=None, keepdims=False):
    in_shape = a.shape

    def bwd(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, in_shape).copy(),)

    return engine._make(a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)


def tensor_mean(a, axis=None, keepdims=False):
    """tensor_sum, then mul by the constant 1/n."""
    axes = range(a.ndim) if axis is None else axis if isinstance(axis, tuple) else (axis,)
    n = math.prod(a.shape[ax] for ax in axes)
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def log_softmax(a, axis=-1):
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    sm = np.exp(out)
    return engine._make(out, (a,), lambda g: (g - sm * g.sum(axis=axis, keepdims=True),))


def composed_mean_pool(x):
    """Reference for engine.mean_pool: tensor_mean over (T, S, U), two nodes."""
    return tensor_mean(x, axis=(-3, -2, -1))


def composed_ce_label_smoothing(logits, labels, smoothing, temperature):
    """Reference for model.ce_label_smoothing on a Tensor of (N, K) logits:
    the chain of mul (1/T), log_softmax, mul (-target), tensor_sum over K and
    tensor_mean over N, six nodes."""
    n, k = logits.shape
    target = np.full((n, k), smoothing / k, dtype=logits.dtype)
    target[np.arange(n), labels] += 1.0 - smoothing
    logp = log_softmax(mul(logits, 1.0 / temperature), axis=-1)
    return tensor_mean(tensor_sum(mul(logp, engine.Tensor(-target)), axis=-1))


def sub(a, b):
    """a - b as a tape node, with the scalar-constant rule (_operands)."""
    a, b = _operands(a, b)

    def bwd(g):
        return _binary_grads(a, b, lambda: g, lambda: -g)

    return engine._make(a.data - b.data, (a, b), bwd)


def div(a, b):
    """a / b as a tape node, with the scalar-constant rule (_operands)."""
    a, b = _operands(a, b)

    def bwd(g):
        return _binary_grads(a, b, lambda: g / b.data,
                             lambda: -g * a.data / (b.data * b.data))

    return engine._make(a.data / b.data, (a, b), bwd)


def sqrt(a):
    out = np.sqrt(a.data)
    return engine._make(out, (a,), lambda g: (g * 0.5 / out,))


def reshape(a, shape):
    in_shape = a.shape
    return engine._make(a.data.reshape(shape), (a,), lambda g: (g.reshape(in_shape),))


def tanh(a):
    out = np.tanh(a.data)
    return engine._make(out, (a,), lambda g: (g * (1.0 - out * out),))


def where_leaky_relu_grad(x, g, gamma):
    """Reference for leaky_relu's backward: the per-element select."""
    return np.where(x >= 0, g, gamma * g)


def zero_fill_conv3d_axis_input_grad(x_shape, weight, g, axis, k):
    """Reference for conv3d_axis's input gradient: the column gradient
    scattered back by adding each tap's shifted copy, in tap order, onto
    zeros. x_shape is the input's shape, weight the (C_out, C_in, k) weight
    array and g the output's gradient."""
    ax = {"T": -3, "S": -2, "U": -1}[axis]
    g2 = g.reshape(g.shape[:-3] + (-1,))
    w2 = weight.reshape(weight.shape[0], -1)
    gcols = (w2.T @ g2).reshape(x_shape[:-3] + (k,) + x_shape[-3:])
    gx = np.zeros(x_shape, dtype=g.dtype)
    for d, out_sl, in_sl, _ in engine._conv_taps(ax, x_shape[ax], k):
        gx[in_sl] += gcols[..., d, :, :, :][out_sl]
    return gx


def full_im2col_conv3d_axis(x, weight, bias, axis, k):
    """Reference for conv3d_axis on arrays: im2col over all k taps, the dead
    ones included (a shift of at least the axis length, which reads only
    padding), one GEMM, and x's gradient as the flipped-kernel GEMM over all
    k taps of g's im2col. Returns the output and the backward,
    g -> (x, weight, bias gradients)."""
    ax = {"T": -3, "S": -2, "U": -1}[axis]
    cols = engine._im2col(x, ax, k)
    out2 = weight.reshape(weight.shape[0], -1) @ cols
    out2 += bias[:, None]

    def bwd(g):
        w_flip = weight[:, :, ::-1].transpose(1, 0, 2).reshape(weight.shape[1], -1)
        gx = (w_flip @ engine._im2col(g, ax, k)).reshape(x.shape)
        gw, gb = engine._weight_bias_grads(g.reshape(g.shape[:-3] + (-1,)), cols)
        return gx, gw.reshape(weight.shape), gb

    return out2.reshape(x.shape[:-4] + (weight.shape[0],) + x.shape[-3:]), bwd


def out_of_place_batchnorm(x, state):
    """Reference for train-mode batchnorm on the array x: each step a new
    array. Updates state's running stats; returns the output and the
    backward, g -> (x, scale, shift gradients)."""
    bshape = [1] * x.ndim
    bshape[-4] = state.channels
    axes = tuple(i for i in range(x.ndim) if i != x.ndim - 4)
    inv_n = np.asarray(1.0 / int(np.prod([x.shape[ax] for ax in axes])), dtype=x.dtype)
    mu = x.sum(axis=axes, keepdims=True) * inv_n
    xc = x - mu
    var = (xc * xc).sum(axis=axes, keepdims=True) * inv_n
    std = np.sqrt(var + np.asarray(state.eps, dtype=x.dtype))
    xhat = xc / std
    m = state.momentum
    state.running_mean = ((1 - m) * state.running_mean
                          + m * mu.reshape(-1).astype(state.running_mean.dtype))
    state.running_var = ((1 - m) * state.running_var
                         + m * var.reshape(-1).astype(state.running_var.dtype))
    scale = state.scale.data.reshape(bshape)
    out = scale * xhat + state.shift.data.reshape(bshape)

    def bwd(g):
        g_scale = engine._unbroadcast(g * xhat, bshape)
        g_shift = engine._unbroadcast(g, bshape)
        return ((g - xhat * (g_scale * inv_n) - g_shift * inv_n) * (scale / std),
                g_scale.reshape(-1), g_shift.reshape(-1))

    return out, bwd


def unpartition(tokens, window, dims):
    """Inverse of tokenizer.partition for padded dims (T',J',E')."""
    t_w, j_w, e_w = window
    t, j, e = dims
    c = tokens.shape[0]
    nt, nj, ne = t // t_w, j // j_w, e // e_w
    expected = (c, t_w, j_w * e_w, nt * nj * ne)
    if tokens.shape != expected:
        raise engine.DimensionError(
            f"unpartition: token shape {tokens.shape} does not match layout {expected}")
    out = tokens.reshape(c, t_w, j_w, e_w, nt, nj, ne)
    out = out.transpose(0, 4, 1, 5, 2, 6, 3)
    return np.ascontiguousarray(out.reshape(c, t, j, e))


def record_threads(monkeypatch, owner=""):
    """Make attention._in_threads record the thread that runs each range of the
    work whose __qualname__ starts with `owner`, a prefix or a tuple of them
    (say "_head_by_sample" for a per-sample head's; any work by default);
    returns the set of thread idents. It stays empty when no such work
    reaches _in_threads."""
    idents, in_threads = set(), attention._in_threads

    def spy(work, count):
        if not work.__qualname__.startswith(owner):
            return in_threads(work, count)

        def recorded(lo, hi):
            idents.add(threading.get_ident())
            return work(lo, hi)
        return in_threads(recorded, count)

    monkeypatch.setattr(attention, "_in_threads", spy)
    return idents


def composed_attention_scores(q, k, alpha, m, c_beta):
    """Reference for attention.attention_scores: the chain of primitive engine
    ops (contract, scale, tanh, alpha, + M) and an ulp nudge of entries
    outside the |score - M| <= |alpha| band, as a node of its own."""
    gram = engine.attention_contract(q, k)
    scaled = mul(gram, 1.0 / np.sqrt(c_beta))
    raw = add(mul(tanh(scaled), alpha), m)
    center = m.data if isinstance(m, engine.Tensor) else np.asarray(m)
    radius = abs(float(alpha.data if isinstance(alpha, engine.Tensor) else alpha))
    data = np.array(raw.data)
    over = np.abs(data - center) > radius
    while over.any():
        data[over] = np.nextafter(data[over], np.broadcast_to(center, data.shape)[over])
        over = np.abs(data - center) > radius
    return engine._make(data, (raw,), lambda g: (g,))


def ordered_alpha_m_grads(q, k, v, alpha, m, c_beta, g):
    """Reference for the alpha and M gradients of a per-sample head
    (attention._head_by_sample_grads) under the upstream gradient g of its
    output: g_alpha adds each sample's term np.vdot(g^T v, t), with t the
    whole-map tanh map, first to last, and g_M is one GEMM G^T V over the
    samples' stacked rows of g and v."""
    n, u = len(q), q.shape[-1]
    _, t = attention.attention_scores(q, k, alpha, m, c_beta)
    gf, vf = (np.ascontiguousarray(a).reshape(n, -1, u) for a in (g, v))
    g_alpha = np.vdot(gf[0].T @ vf[0], t[0])
    for b in range(1, n):
        g_alpha = g_alpha + np.vdot(gf[b].T @ vf[b], t[b])
    return g_alpha, gf.reshape(-1, u).T @ vf.reshape(-1, u)


def pin_ordered_alpha_m_grads(monkeypatch):
    """Make every call of attention._head_by_sample_grads assert that its
    g_alpha and g_M have the bytes of ordered_alpha_m_grads on its own
    inputs; returns the list of the checked calls' sample counts."""
    checked, head_grads = [], attention._head_by_sample_grads

    def pinned(q, k, v, alpha, m, c_beta, g):
        grads = head_grads(q, k, v, alpha, m, c_beta, g)
        want = ordered_alpha_m_grads(q, k, v, alpha, m, c_beta, g)
        assert [(a.dtype, a.shape, a.tobytes()) for a in grads[3:]] == [
            (a.dtype, a.shape, a.tobytes()) for a in want]
        checked.append(len(q))
        return grads

    monkeypatch.setattr(attention, "_head_by_sample_grads", pinned)
    return checked


def getitem(a, idx):
    """a[idx] as a tape node, copied contiguous."""
    in_shape, in_dtype = a.shape, a.data.dtype

    def bwd(g):
        full = np.zeros(in_shape, dtype=in_dtype)
        full[idx] = g
        return (full,)

    return engine._make(np.ascontiguousarray(a.data[idx]), (a,), bwd)


def concat(tensors, axis):
    """np.concatenate of Tensors as a tape node."""
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return engine._make(np.concatenate([t.data for t in tensors], axis=axis), tensors, bwd)


def per_head_attention(x, params, score_sink=None):
    """Reference for attention.multi_head_attention: the per-head chain of
    engine ops, each head a PE add, Q and K pointwise projections, a V
    slice, the Gram matrix, the composed score map (composed_attention_scores)
    and the score application, then the heads' concat."""
    c, t_w, s, u = x.shape[-4:]
    c_beta = t_w * s * params.config.c_qkv
    pe = engine.Tensor(positional_encoding(c, t_w, s, u, dtype=x.dtype))
    vc = params.config.v_channels
    heads = []
    for h in range(params.config.heads):
        xpe = engine.add(x, pe)
        q = engine.pointwise_conv3d(xpe, params.q_weights[h], params.q_biases[h])
        k = engine.pointwise_conv3d(xpe, params.k_weights[h], params.k_biases[h])
        v = getitem(x, np.s_[..., h * vc:(h + 1) * vc, :, :, :])
        scores = composed_attention_scores(q, k, params.alphas[h], params.ms[h], c_beta)
        if score_sink is not None:
            score_sink.append(np.array(scores.data))
        heads.append(engine.apply_scores(scores, v))
    return concat(heads, axis=-4) if len(heads) > 1 else heads[0]


def _edit_header(edit):
    """Corruption that replaces a checkpoint's header line by edit(line)."""
    def corrupt(raw):
        magic, header, payload = raw.split(b"\n", 2)
        return b"\n".join([magic, edit(header), payload])
    return corrupt


def _edit_json(edit):
    """Corruption that applies edit(doc) to the decoded header in place."""
    def rewrite(header):
        doc = json.loads(header)
        edit(doc)
        return json.dumps(doc).encode()
    return _edit_header(rewrite)


def _blob(doc, name):
    return next(b for b in doc["blobs"] if b["name"] == name)


def _swap_offsets(a, b):
    """Header edit that swaps the offsets of two same-shaped blobs, so the
    payload length and every bound still check out."""
    def edit(doc):
        first, second = _blob(doc, a), _blob(doc, b)
        first["offset"], second["offset"] = second["offset"], first["offset"]
    return edit


# the miniature config with frozen_entities (1,), trained one Nesterov step
# (lr 0.1) on one synthetic sample and saved in the v1 format with a
# non-default TrainConfig and epoch 1. It predates model-only checkpoints, so
# it also holds the optimizer velocities (its last blobs, named "opt.*") and
# an "rng_state" header key, which loading ignores.
MINIATURE_V1_CHECKPOINT = pathlib.Path(__file__).parent / "data" / "miniature_v1.ckpt"

# case -> (corruption of a saved checkpoint's bytes, expected error text)
CHECKPOINT_CORRUPTIONS = {
    "header-not-json": (_edit_header(lambda h: h[:-1]), "corrupt checkpoint header"),
    "header-not-object": (_edit_header(lambda h: b"[1, 2]"), "not a JSON object"),
    "header-without-model-config": (_edit_json(lambda d: d.pop("model_config")),
                                    "no 'model_config'"),
    "header-without-blobs": (_edit_json(lambda d: d.pop("blobs")), "no 'blobs'"),
    "model-config-not-object": (_edit_json(lambda d: d.update(model_config=[1])),
                                "bad config in checkpoint header"),
    "header-integer-over-digit-limit": (_edit_header(lambda h: h.replace(
        b'"epoch":0', b'"epoch":' + b"1" * 5000)), "corrupt checkpoint header"),
    "model-config-gamma-too-big-for-float": (_edit_json(lambda d: d["model_config"].update(
        gamma=10 ** 400)), "gamma must be a finite number"),
    "model-config-block-gamma-too-big-for-float": (_edit_json(
        lambda d: d["model_config"]["blocks"][0].update(gamma=-10 ** 400)),
        "gamma must be a finite number"),
    "train-config-lr-too-big-for-float": (_edit_json(lambda d: d.update(
        train_config={"lr": 10 ** 400})), "lr must be a finite number"),
    "model-config-window-longer-than-frames": (_edit_json(lambda d: d["model_config"].update(
        window=[5, 1, 2])), "at most its axis"),
    "model-config-in-channels-zero": (_edit_json(lambda d: d["model_config"].update(
        in_channels=0)), "in_channels must be an integer >= 1"),
    "model-config-num-classes-huge": (_edit_json(lambda d: d["model_config"].update(
        num_classes=2 ** 70)), "cannot build the model"),
    "model-config-joints-huge": (_edit_json(lambda d: d["model_config"].update(
        joints=2 ** 70)), "cannot build the model"),
    "model-config-c-qkv-huge": (_edit_json(lambda d: d["model_config"]["blocks"][0].update(
        c_qkv=2 ** 70)), "cannot build the model"),
    "header-without-end": (lambda raw: raw[:raw.index(b"\n", raw.index(b"\n") + 1)],
                           "no end of header"),
    "blob-entry-malformed": (_edit_json(lambda d: d["blobs"][0].pop("offset")),
                             "malformed checkpoint blob entry"),
    "truncated-payload": (lambda raw: raw[:-4], "runs past the end of the file"),
    "trailing-bytes": (lambda raw: raw + bytes(4), "payload is .* bytes, manifest describes"),
    "missing-buffer": (_edit_json(lambda d: _blob(d, "embed.norm.running_var").update(
        name="embed.norm.running_vax")), "missing buffer 'embed.norm.running_var'"),
    "buffer-wrong-shape": (_edit_json(lambda d: _blob(d, "embed.norm.running_var").update(
        shape=[1, d["model_config"]["embed_channels"]])),
        "buffer 'embed.norm.running_var' has shape"),
    "blob-offsets-swapped": (_edit_json(_swap_offsets("embed.norm.scale", "embed.norm.shift")),
                             "blob 'embed.norm.scale' starts at element"),
    "blob-offset-aliased": (_edit_json(lambda d: _blob(d, "embed.norm.shift").update(
        offset=_blob(d, "embed.norm.scale")["offset"])),
        "blob 'embed.norm.shift' starts at element"),
}


def write_corrupt_checkpoint(path, case):
    """Save a small model to `path`, then corrupt the file as `case` says;
    returns the error text load_checkpoint should give."""
    config = ModelConfig(
        window=(2, 1, 2), in_channels=3, frames=4, joints=2, entities=2,
        embed_channels=4, gamma=0.1,
        blocks=[TSABlockConfig(c_in=4, c_out=4, heads=2, c_qkv=2)], num_classes=3)
    save_checkpoint(path, ISTANet(config, rng=np.random.default_rng(0)))
    corrupt, message = CHECKPOINT_CORRUPTIONS[case]
    path.write_bytes(corrupt(path.read_bytes()))
    return message


# 1 to 8 edits of a file's bytes, each (kind, position, byte) for apply_byte_edits
BYTE_EDITS = st.lists(st.tuples(st.sampled_from(["flip", "insert", "delete"]),
                                st.integers(0, 10 ** 6), st.integers(0, 255)),
                      min_size=1, max_size=8)


def apply_byte_edits(raw, edits):
    """raw with each edit applied in turn: a flip xors the byte at the
    position with `byte` (0x80 for 0), an insert puts `byte` there, a delete
    drops it; positions wrap around the current length. Eight deletes cannot
    empty a file of more than eight bytes."""
    raw = bytearray(raw)
    for kind, pos, byte in edits:
        if kind == "insert":
            raw.insert(pos % (len(raw) + 1), byte)
        elif kind == "flip":
            raw[pos % len(raw)] ^= byte or 0x80
        else:
            del raw[pos % len(raw)]
    return bytes(raw)
