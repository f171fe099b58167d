"""Minimal dense tensor engine with reverse-mode automatic differentiation.

Everything is backed by contiguous numpy arrays (float32 for training,
float64 for gradient checking). Each operation records its parents and a
backward closure; ``backward()`` on a scalar runs the tape in reverse
topological order and accumulates gradients over all paths.

Shape convention for the model-facing ops: each op has one body that
works on the trailing four axes (C, T, S, U), so the channel axis is always
-4; an optional leading batch axis N rides along, giving (N, C, T, S, U).
"""

import numpy as np


class DimensionError(ValueError):
    """Raised when tensor shapes are inconsistent for an operation."""


class ConfigurationError(ValueError):
    """Raised for invalid static configuration (kernel sizes, axes, ...)."""


class UsageError(RuntimeError):
    """Raised when an operation is called outside its contract."""


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=dtype)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"

    # operator sugar -------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, *shape):
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def backward(self, accumulate=False):
        backward(self, accumulate=accumulate)


class Parameter(Tensor):
    """A named trainable tensor; names are unique within a model and encode
    the module/block path so checkpoints can round-trip."""

    __slots__ = ("name",)

    def __init__(self, name, data, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


def astensor(x, dtype=None):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x), dtype=dtype)


def _unbroadcast(grad, shape):
    """Reduce `grad` back to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, (g, s) in enumerate(zip(grad.shape, shape)):
        if s == 1 and g != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _make(data, parents, backward_fn):
    req = any(p.requires_grad for p in parents)
    if not req:
        return Tensor(data)
    return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=backward_fn)


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = astensor(a), astensor(b)
    out = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(out, (a, b), bwd)


def sub(a, b):
    a, b = astensor(a), astensor(b)
    out = a.data - b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(out, (a, b), bwd)


def mul(a, b):
    a, b = astensor(a), astensor(b)
    out = a.data * b.data

    def bwd(g):
        return (_unbroadcast(g * b.data, a.shape),
                _unbroadcast(g * a.data, b.shape))

    return _make(out, (a, b), bwd)


def div(a, b):
    a, b = astensor(a), astensor(b)
    out = a.data / b.data

    def bwd(g):
        return (_unbroadcast(g / b.data, a.shape),
                _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make(out, (a, b), bwd)


def sqrt(a):
    a = astensor(a)
    out = np.sqrt(a.data)

    def bwd(g):
        return (g * 0.5 / out,)

    return _make(out, (a,), bwd)


def tanh(a):
    a = astensor(a)
    out = np.tanh(a.data)

    def bwd(g):
        return (g * (1.0 - out * out),)

    return _make(out, (a,), bwd)


def leaky_relu(a, gamma):
    """out = x if x >= 0 else gamma*x; the subgradient at 0 is taken as 1."""
    if gamma < 0:
        raise ConfigurationError(f"leaky_relu slope must be >= 0, got {gamma}")
    a = astensor(a)
    pos = a.data >= 0
    out = np.where(pos, a.data, gamma * a.data)

    def bwd(g):
        return (np.where(pos, g, gamma * g),)

    return _make(out, (a,), bwd)


def reshape(a, shape):
    a = astensor(a)
    out = a.data.reshape(shape)
    in_shape = a.shape

    def bwd(g):
        return (g.reshape(in_shape),)

    return _make(out, (a,), bwd)


def transpose(a, axes):
    a = astensor(a)
    out = np.ascontiguousarray(a.data.transpose(axes))
    inv = np.argsort(axes)

    def bwd(g):
        return (g.transpose(inv),)

    return _make(out, (a,), bwd)


def getitem(a, idx):
    a = astensor(a)
    out = a.data[idx]
    in_shape, in_dtype = a.shape, a.data.dtype

    def bwd(g):
        full = np.zeros(in_shape, dtype=in_dtype)
        full[idx] = g
        return (full,)

    return _make(np.ascontiguousarray(out), (a,), bwd)


def concat(tensors, axis):
    tensors = [astensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _make(out, tensors, bwd)


def tensor_sum(a, axis=None, keepdims=False):
    a = astensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    in_shape = a.shape

    def bwd(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, in_shape).copy(),)

    return _make(out, (a,), bwd)


def tensor_mean(a, axis=None, keepdims=False):
    a = astensor(a)
    if axis is None:
        n = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = int(np.prod([a.shape[ax] for ax in axes]))
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def log_softmax(a, axis=-1):
    a = astensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    sm = np.exp(out)

    def bwd(g):
        return (g - sm * g.sum(axis=axis, keepdims=True),)

    return _make(out, (a,), bwd)


def linear(x, weight, bias):
    """Affine map over the last axis: out = x @ weight.T + bias.

    x: (..., C_in), weight: (C_out, C_in), bias: (C_out).
    """
    x, weight, bias = astensor(x), astensor(weight), astensor(bias)
    if x.shape[-1] != weight.shape[1]:
        raise DimensionError(
            f"linear: input feature axis {x.shape[-1]} != weight fan-in {weight.shape[1]}")
    out = x.data @ weight.data.T + bias.data

    def bwd(g):
        gx = g @ weight.data
        gw = g.reshape(-1, g.shape[-1]).T @ x.data.reshape(-1, x.shape[-1])
        gb = g.reshape(-1, g.shape[-1]).sum(axis=0)
        return gx, gw, gb

    return _make(out, (x, weight, bias), bwd)


# ---------------------------------------------------------------------------
# model-facing ops on (C,T,S,U) / (N,C,T,S,U)
# ---------------------------------------------------------------------------

def _check_rank(x, opname):
    if x.ndim not in (4, 5):
        raise DimensionError(f"{opname}: expected rank 4 (C,T,S,U) or rank 5 (N,C,T,S,U), got rank {x.ndim}")


def _flat(a):
    """View the leading axes as one batch axis, so weight gradients can sum
    over it (einsum does not reduce over an ellipsis)."""
    return a.reshape((-1,) + a.shape[-4:])


def pointwise_conv3d(x, weight, bias):
    """1x1x1 convolution: full channel mixing at every (t,s,u) site.

    out[o,t,s,u] = bias[o] + sum_i weight[o,i] * x[i,t,s,u]
    """
    x, weight, bias = astensor(x), astensor(weight), astensor(bias)
    _check_rank(x, "pointwise_conv3d")
    if weight.ndim != 2:
        raise DimensionError(f"pointwise_conv3d: weight must be rank 2 (C_out,C_in), got rank {weight.ndim}")
    if x.shape[-4] != weight.shape[1]:
        raise DimensionError(
            f"pointwise_conv3d: channel axis mismatch, input C={x.shape[-4]} vs weight C_in={weight.shape[1]}")
    if bias.shape != (weight.shape[0],):
        raise DimensionError(
            f"pointwise_conv3d: bias axis {bias.shape} != (C_out,)=({weight.shape[0]},)")

    out = np.einsum("oi,...itsu->...otsu", weight.data, x.data)
    out += bias.data[:, None, None, None]

    def bwd(g):
        gx = np.einsum("oi,...otsu->...itsu", weight.data, g)
        gf = _flat(g)
        gw = np.einsum("notsu,nitsu->oi", gf, _flat(x.data))
        gb = gf.sum(axis=(0, 2, 3, 4))
        return gx, gw, gb

    return _make(out, (x, weight, bias), bwd)


_AXIS_NAMES = {"T": -3, "S": -2, "U": -1}


def conv3d_axis(x, weight, bias, axis, k):
    """Cross-correlation along one of the T/S/U axes with full channel mixing.

    weight: (C_out, C_in, k), k odd; stride 1, zero same-padding (k-1)/2, so
    the convolved axis keeps its length.
    """
    if axis not in _AXIS_NAMES:
        raise ConfigurationError(f"conv3d_axis: axis must be one of T/S/U, got {axis!r}")
    if k % 2 == 0 or k < 1:
        raise ConfigurationError(f"conv3d_axis: kernel length must be odd and >= 1, got {k}")
    x, weight, bias = astensor(x), astensor(weight), astensor(bias)
    _check_rank(x, "conv3d_axis")
    if weight.ndim != 3 or weight.shape[2] != k:
        raise DimensionError(
            f"conv3d_axis: weight must be (C_out,C_in,{k}), got {weight.shape}")
    if x.shape[-4] != weight.shape[1]:
        raise DimensionError(
            f"conv3d_axis: channel axis mismatch, input C={x.shape[-4]} vs weight C_in={weight.shape[1]}")
    if bias.shape != (weight.shape[0],):
        raise DimensionError(
            f"conv3d_axis: bias axis {bias.shape} != (C_out,)=({weight.shape[0]},)")

    ax = _AXIS_NAMES[axis]
    p = (k - 1) // 2
    pads = [(0, 0)] * x.ndim
    pads[ax] = (p, p)
    xp = np.pad(x.data, pads)
    # move the convolved axis last so slicing is uniform
    xm = np.moveaxis(xp, ax, -1)
    length = x.shape[ax]
    out_m = None
    for d in range(k):
        term = np.einsum("oi,...iabl->...oabl", weight.data[:, :, d], xm[..., d:d + length])
        out_m = term if out_m is None else out_m + term
    out = np.moveaxis(out_m, -1, ax)
    out = out + bias.data[:, None, None, None]

    def bwd(g):
        gm = np.moveaxis(g, ax, -1)
        gxp = np.zeros_like(xm)
        gw = np.zeros_like(weight.data)
        gmf = _flat(gm)
        for d in range(k):
            gxp[..., d:d + length] += np.einsum("oi,...oabl->...iabl", weight.data[:, :, d], gm)
            gw[:, :, d] = np.einsum("noabl,niabl->oi", gmf, _flat(xm[..., d:d + length]))
        gx = np.moveaxis(gxp, -1, ax)
        sl = [slice(None)] * x.ndim
        sl[ax] = slice(p, p + length)
        gx = np.ascontiguousarray(gx[tuple(sl)])
        gb = _flat(g).sum(axis=(0, 2, 3, 4))
        return gx, gw, gb

    return _make(out, (x, weight, bias), bwd)


def attention_contract(q, k):
    """Token Gram matrix: out[u,v] = sum_{c,t,s} q[c,t,s,u] * k[c,t,s,v]."""
    q, k = astensor(q), astensor(k)
    if q.shape != k.shape:
        raise DimensionError(f"attention_contract: q shape {q.shape} != k shape {k.shape}")
    _check_rank(q, "attention_contract")
    flat_shape = q.shape[:-4] + (-1, q.shape[-1])
    qf = q.data.reshape(flat_shape)
    kf = k.data.reshape(flat_shape)
    out = np.einsum("...fu,...fv->...uv", qf, kf)

    def bwd(g):
        gq = np.einsum("...uv,...fv->...fu", g, kf).reshape(q.shape)
        gk = np.einsum("...uv,...fu->...fv", g, qf).reshape(k.shape)
        return gq, gk

    return _make(out, (q, k), bwd)


def apply_scores(scores, v):
    """Mix tokens by a score matrix: out[c,t,s,u] = sum_w scores[u,w] * v[c,t,s,w]."""
    scores, v = astensor(scores), astensor(v)
    _check_rank(v, "apply_scores")
    expected = v.shape[:-4] + (v.shape[-1], v.shape[-1])
    if scores.shape != expected:
        raise DimensionError(
            f"apply_scores: scores shape {scores.shape} != (...,U,U)={expected}")
    out = np.einsum("...uw,...ctsw->...ctsu", scores.data, v.data)

    def bwd(g):
        gs = np.einsum("...ctsu,...ctsw->...uw", g, v.data)
        gv = np.einsum("...uw,...ctsu->...ctsw", scores.data, g)
        return gs, gv

    return _make(out, (scores, v), bwd)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

class BatchNormState:
    """Per-channel affine parameters plus running statistics.

    scale/shift are trainable; running mean/var are plain buffers updated
    in train mode and consumed in infer mode.
    """

    def __init__(self, name, channels, momentum=0.1, eps=1e-5, dtype=np.float32):
        self.name = name
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.scale = Parameter(f"{name}.scale", np.ones(channels), dtype=dtype)
        self.shift = Parameter(f"{name}.shift", np.zeros(channels), dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def parameters(self):
        return [self.scale, self.shift]

    def buffers(self):
        return [(f"{self.name}.running_mean", self.running_mean),
                (f"{self.name}.running_var", self.running_var)]


def batchnorm(x, state, mode, channel_axis=None):
    """Normalize over all non-channel axes.

    Train mode uses batch statistics and updates running stats; infer mode
    uses the stored running stats (initialized to mean 0 / var 1).
    """
    if mode not in ("train", "infer"):
        raise UsageError(f"batchnorm mode must be 'train' or 'infer', got {mode!r}")
    x = astensor(x)
    if channel_axis is None:
        channel_axis = 1 if x.ndim >= 5 else 0
    c = x.shape[channel_axis]
    if c != state.channels:
        raise DimensionError(
            f"batchnorm: channel axis {channel_axis} has {c} channels, state expects {state.channels}")
    bshape = [1] * x.ndim
    bshape[channel_axis] = c
    axes = tuple(i for i in range(x.ndim) if i != channel_axis)

    if mode == "train":
        mu = tensor_mean(x, axis=axes, keepdims=True)
        xc = sub(x, mu)
        var = tensor_mean(mul(xc, xc), axis=axes, keepdims=True)
        m = state.momentum
        state.running_mean = ((1 - m) * state.running_mean
                              + m * mu.data.reshape(c).astype(state.running_mean.dtype))
        state.running_var = ((1 - m) * state.running_var
                             + m * var.data.reshape(c).astype(state.running_var.dtype))
        xhat = div(xc, sqrt(add(var, state.eps)))
    else:
        rm = state.running_mean.reshape(bshape)
        rv = state.running_var.reshape(bshape)
        xhat = mul(sub(x, rm), 1.0 / np.sqrt(rv + state.eps))

    scale = reshape(state.scale, bshape)
    shift = reshape(state.shift, bshape)
    return add(mul(scale, xhat), shift)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------

def backward(loss, accumulate=False):
    """Run reverse-mode accumulation from a scalar loss.

    Gradients of all reachable requires_grad tensors are populated; existing
    grads are overwritten unless ``accumulate`` is set.
    """
    if not isinstance(loss, Tensor):
        raise UsageError("backward expects a Tensor")
    if loss.data.size != 1:
        raise UsageError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is not None:
            parent_grads = node._backward(g)
            for p, pg in zip(node._parents, parent_grads):
                if not p.requires_grad:
                    continue
                key = id(p)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg
        if not node._parents:
            if accumulate and node.grad is not None:
                node.grad = node.grad + g
            else:
                node.grad = g
