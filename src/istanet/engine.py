"""Minimal dense tensor engine with reverse-mode automatic differentiation.

Everything is backed by contiguous numpy arrays (float32 for training,
float64 for gradient checking). Each operation records its parents and a
backward closure; ``backward()`` on a scalar runs the tape in reverse
topological order and accumulates gradients over all paths.

Operands are Tensors; an array becomes one through ``Tensor(...)``. Only add
and mul also take a constant. Dtype rule: a model computes in the dtype of
its parameters, forward and backward. In add and mul a scalar constant (a
Python float, a NumPy scalar or a 0-d array) takes the other operand's
dtype, so a constant such as 1/n or eps never promotes float32 to float64.

Shape convention for the model-facing ops: each op has one body that
works on the trailing four axes (C, T, S, U), so the channel axis is always
-4; an optional leading batch axis N rides along, giving (N, C, T, S, U).

The contractions (pointwise and axis convolutions, the attention Gram matrix
and score application) view their operands as (..., rows, sites) matrices
and run as BLAS matmuls, forward and backward; the axis convolution stacks
its taps with im2col. The products of a (..., rows, U) matrix with a
transposed (U,U) one (score application's forward, the Gram matrix's
q-gradient) run in the faster order for their shape, with the same bytes:
as (S @ a^T)^T when rows < U, else as a @ S^T. The transposed result is
made contiguous before it is reshaped (_matmul_transposed). Batchnorm is
one tape node in both modes, its per-channel affine included; in train
mode its backward is closed-form.

Inside ``with no_grad():`` every op returns a plain Tensor with no parents
and no backward closure, so a forward records no tape; evaluation and
infer-mode ``forward_classify`` run that way. ``mode="infer"`` alone selects
batchnorm's running statistics and still records a tape whenever a
parameter requires grad.
"""

import contextlib
import dataclasses
import sys

import numpy as np


class DimensionError(ValueError):
    """Raised when tensor shapes are inconsistent for an operation."""


class ConfigurationError(ValueError):
    """Raised for invalid static configuration (kernel sizes, axes, ...)."""


_FIELD_KINDS = {int: (int, "an integer"), float: ((int, float), "a number"),
                bool: (bool, "a boolean"), tuple[int, ...]: (int, "a list of integers")}


def check_field_types(config):
    """Raise ConfigurationError unless each int, float, bool or tuple[int, ...]
    field of the dataclass `config` holds that type. An int passes as a float;
    a bool passes only as a bool; a float field must be finite, and an int
    there must fit in a float."""
    for f in dataclasses.fields(config):
        if f.type not in _FIELD_KINDS:
            continue
        kind, name = _FIELD_KINDS[f.type]
        value = getattr(config, f.name)
        items = value if f.type == tuple[int, ...] else (value,)
        if not all(isinstance(v, kind) and isinstance(v, bool) == (f.type is bool) for v in items):
            raise ConfigurationError(f"{f.name} must be {name}, got {value!r}")
        if f.type is float and not abs(value) <= sys.float_info.max:
            raise ConfigurationError(f"{f.name} must be a finite number, got {value!r}")


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

    # operator sugar -------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, *shape):
        return reshape(self, shape)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def backward(self):
        backward(self)


class Parameter(Tensor):
    """A named trainable tensor; names are unique within a model and encode
    the module/block path so checkpoints can round-trip."""

    __slots__ = ("name",)

    def __init__(self, name, data, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.name = name


def uniform_init(rng, c_out, c_in, k=None):
    """Weights drawn from U(-b, b), b = 1/sqrt(fan_in), shaped (c_out, c_in)
    or, for a k-tap convolution, (c_out, c_in, k) with fan_in = c_in * k."""
    bound = 1.0 / np.sqrt(c_in * (k or 1))
    return rng.uniform(-bound, bound, size=(c_out, c_in, k) if k else (c_out, c_in))


def astensor(x, dtype=None):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x), dtype=dtype)


def _operands(a, b):
    """The operands of add or mul as Tensors. Each is a Tensor or a scalar
    constant, which takes the dtype of the other operand when that is a
    Tensor (astensor leaves Tensors as they are)."""
    for x in (a, b):
        if not isinstance(x, Tensor) and np.ndim(x) != 0:
            raise UsageError(f"add and mul take Tensors and scalar constants, "
                             f"got a {type(x).__name__} of shape {np.shape(x)}")
    if isinstance(b, Tensor):
        a = astensor(a, dtype=b.dtype)
    if isinstance(a, Tensor):
        b = astensor(b, dtype=a.dtype)
    return astensor(a), astensor(b)


def _unbroadcast(grad, shape):
    """Reduce `grad` back to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, (g, s) in enumerate(zip(grad.shape, shape)):
        if s == 1 and g != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block; the previous state is restored on
    exit, also after an exception or a nested block."""
    global _grad_enabled
    saved, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = saved


def _make(data, parents, backward_fn):
    if not (_grad_enabled and any(p.requires_grad for p in parents)):
        return Tensor(data)
    return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=backward_fn)


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def _binary_grads(a, b, grad_a, grad_b):
    """Gradient slots of a binary op. grad_a/grad_b compute the broadcast
    gradient of each operand; an operand that needs none (a constant) gets
    None and its gradient is never computed."""
    return (_unbroadcast(grad_a(), a.shape) if a.requires_grad else None,
            _unbroadcast(grad_b(), b.shape) if b.requires_grad else None)


def add(a, b):
    a, b = _operands(a, b)
    out = a.data + b.data

    def bwd(g):
        return _binary_grads(a, b, lambda: g, lambda: g)

    return _make(out, (a, b), bwd)


def mul(a, b):
    a, b = _operands(a, b)
    out = a.data * b.data

    def bwd(g):
        return _binary_grads(a, b, lambda: g * b.data, lambda: g * a.data)

    return _make(out, (a, b), bwd)


def leaky_relu(a, gamma):
    """out = x if x >= 0 else gamma*x; the subgradient at 0 is taken as 1.

    For gamma > 0 the forward is max(gamma*x, x), min for gamma > 1: the
    bytes of the select, signed zeros, infinities and NaNs included (gamma*x
    goes first, so a NaN comes out as gamma*x quiets it). At gamma = 0,
    gamma*(+inf) is NaN, so that case keeps the select.
    """
    if gamma < 0:
        raise ConfigurationError(f"leaky_relu slope must be >= 0, got {gamma}")
    if gamma == 0:
        out = np.where(a.data >= 0, a.data, gamma * a.data)
    else:
        out = (np.maximum if gamma <= 1 else np.minimum)(gamma * a.data, a.data)

    def bwd(g):
        return (np.where(a.data >= 0, g, gamma * g),)

    return _make(out, (a,), bwd)


def reshape(a, shape):
    out = a.data.reshape(shape)
    in_shape = a.shape

    def bwd(g):
        return (g.reshape(in_shape),)

    return _make(out, (a,), bwd)


def getitem(a, idx):
    out = a.data[idx]
    in_shape, in_dtype = a.shape, a.data.dtype

    def bwd(g):
        full = np.zeros(in_shape, dtype=in_dtype)
        full[idx] = g
        return (full,)

    return _make(np.ascontiguousarray(out), (a,), bwd)


def concat(tensors, axis):
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _make(out, tensors, bwd)


def tensor_sum(a, axis=None, keepdims=False):
    out = a.data.sum(axis=axis, keepdims=keepdims)
    in_shape = a.shape

    def bwd(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, in_shape).copy(),)

    return _make(out, (a,), bwd)


def tensor_mean(a, axis=None, keepdims=False):
    if axis is None:
        n = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = int(np.prod([a.shape[ax] for ax in axes]))
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def log_softmax(a, axis=-1):
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    sm = np.exp(out)

    def bwd(g):
        return (g - sm * g.sum(axis=axis, keepdims=True),)

    return _make(out, (a,), bwd)


def linear(x, weight, bias):
    """Affine map over the last axis: out = x @ weight.T + bias.

    x: (..., C_in), weight: (C_out, C_in), bias: (C_out). The forward
    reduces each row on its own rather than in one matmul, whose kernel
    (gemv for one row, gemm for several) and so rounding would depend on the
    number of rows: a batch gives bit-for-bit the logits of its samples.
    """
    if x.shape[-1] != weight.shape[1]:
        raise DimensionError(
            f"linear: input feature axis {x.shape[-1]} != weight fan-in {weight.shape[1]}")
    out = (x.data[..., None, :] * weight.data).sum(axis=-1) + bias.data

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


def _weight_bias_grads(g2, a2):
    """Gradients of W and b in out2 = W @ a2 + b over (..., rows, sites)
    views: per-sample g2 @ a2^T products and site sums, summed over the
    leading batch axes. Batched matmuls read a2 transposed in place, which
    tensordot over (batch, site) would first copy."""
    gw = g2 @ a2.swapaxes(-1, -2)
    gb = g2.sum(axis=-1)
    return (gw.reshape((-1,) + gw.shape[-2:]).sum(axis=0),
            gb.reshape(-1, gb.shape[-1]).sum(axis=0))


def pointwise_conv3d(x, weight, bias):
    """1x1x1 convolution: full channel mixing at every (t,s,u) site.

    out[o,t,s,u] = bias[o] + sum_i weight[o,i] * x[i,t,s,u]
    """
    _check_rank(x, "pointwise_conv3d")
    if weight.ndim != 2:
        raise DimensionError(f"pointwise_conv3d: weight must be rank 2 (C_out,C_in), got rank {weight.ndim}")
    if x.shape[-4] != weight.shape[1]:
        raise DimensionError(
            f"pointwise_conv3d: channel axis mismatch, input C={x.shape[-4]} vs weight C_in={weight.shape[1]}")
    if bias.shape != (weight.shape[0],):
        raise DimensionError(
            f"pointwise_conv3d: bias axis {bias.shape} != (C_out,)=({weight.shape[0]},)")

    x2 = x.data.reshape(x.shape[:-3] + (-1,))
    out2 = weight.data @ x2
    out2 += bias.data[:, None]

    def bwd(g):
        g2 = g.reshape(out2.shape)
        gx = (weight.data.T @ g2).reshape(x.shape)
        return (gx,) + _weight_bias_grads(g2, x2)

    out = out2.reshape(x.shape[:-4] + (weight.shape[0],) + x.shape[-3:])
    return _make(out, (x, weight, bias), bwd)


_AXIS_NAMES = {"T": -3, "S": -2, "U": -1}


def conv3d_axis(x, weight, bias, axis, k):
    """Cross-correlation along one of the T/S/U axes with full channel mixing.

    weight: (C_out, C_in, k), k odd; stride 1, zero same-padding (k-1)/2, so
    the convolved axis keeps its length.

    im2col: the k shifted copies of the input are stacked next to the channel
    axis, cols[..., i, d, t, s, u] = x[..., i, (t, s, u) + d - (k-1)/2 along
    the axis] (zero outside it), so the convolution is one
    (C_out, C_in*k) @ (C_in*k, T*S*U) matmul; the backward pass scatters the
    column gradient back with k shifted adds (col2im).
    """
    if axis not in _AXIS_NAMES:
        raise ConfigurationError(f"conv3d_axis: axis must be one of T/S/U, got {axis!r}")
    if k % 2 == 0 or k < 1:
        raise ConfigurationError(f"conv3d_axis: kernel length must be odd and >= 1, got {k}")
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
    length = x.shape[ax]

    def along_axis(lo, hi):
        sl = [slice(None)] * 3
        sl[ax] = slice(lo, hi)
        return (...,) + tuple(sl)

    taps = []  # (d, output sites, input sites): output l reads input l + shift
    for d in range(k):
        shift = d - (k - 1) // 2
        lo = max(0, -shift)
        hi = max(lo, length - max(0, shift))
        taps.append((d, along_axis(lo, hi), along_axis(lo + shift, hi + shift)))

    cols = np.zeros(x.shape[:-3] + (k,) + x.shape[-3:], dtype=x.dtype)
    for d, out_sl, in_sl in taps:
        cols[..., d, :, :, :][out_sl] = x.data[in_sl]
    cols = cols.reshape(x.shape[:-4] + (x.shape[-4] * k, -1))
    w2 = weight.data.reshape(weight.shape[0], -1)
    out2 = w2 @ cols
    out2 += bias.data[:, None]

    def bwd(g):
        g2 = g.reshape(g.shape[:-3] + (-1,))
        gcols = (w2.T @ g2).reshape(x.shape[:-3] + (k,) + x.shape[-3:])
        gx = np.zeros(x.shape, dtype=x.dtype)
        for d, out_sl, in_sl in taps:
            gx[in_sl] += gcols[..., d, :, :, :][out_sl]
        gw, gb = _weight_bias_grads(g2, cols)
        return gx, gw.reshape(weight.shape).astype(weight.dtype, copy=False), gb

    out = out2.reshape(x.shape[:-4] + (weight.shape[0],) + x.shape[-3:])
    return _make(out, (x, weight, bias), bwd)


def _matmul_transposed(a, s):
    """a @ s^T for a (..., rows, U) and s (..., U, U), as a contiguous array.

    With fewer rows than tokens, OpenBLAS computes (s @ a^T)^T about twice
    as fast, and with more rows about half as fast, so the order follows the
    shape. Both orders give the same bytes. The transposed result is made
    contiguous: reshaped as a strided view, it would make the GEMMs that
    read it round differently.
    """
    if a.shape[-2] < a.shape[-1]:
        return np.ascontiguousarray((s @ a.swapaxes(-1, -2)).swapaxes(-1, -2))
    return a @ s.swapaxes(-1, -2)


def attention_contract(q, k):
    """Token Gram matrix: out[u,v] = sum_{c,t,s} q[c,t,s,u] * k[c,t,s,v]."""
    if q.shape != k.shape:
        raise DimensionError(f"attention_contract: q shape {q.shape} != k shape {k.shape}")
    _check_rank(q, "attention_contract")
    flat_shape = q.shape[:-4] + (-1, q.shape[-1])
    qf = q.data.reshape(flat_shape)
    kf = k.data.reshape(flat_shape)
    out = qf.swapaxes(-1, -2) @ kf

    def bwd(g):
        gq = _matmul_transposed(kf, g).reshape(q.shape)
        gk = (qf @ g).reshape(k.shape)
        return gq, gk

    return _make(out, (q, k), bwd)


def apply_scores(scores, v):
    """Mix tokens by a score matrix: out[c,t,s,u] = sum_w scores[u,w] * v[c,t,s,w]."""
    _check_rank(v, "apply_scores")
    expected = v.shape[:-4] + (v.shape[-1], v.shape[-1])
    if scores.shape != expected:
        raise DimensionError(
            f"apply_scores: scores shape {scores.shape} != (...,U,U)={expected}")
    flat_shape = v.shape[:-4] + (-1, v.shape[-1])
    vf = v.data.reshape(flat_shape)
    out = _matmul_transposed(vf, scores.data).reshape(v.shape)

    def bwd(g):
        gf = g.reshape(flat_shape)
        gs = gf.swapaxes(-1, -2) @ vf
        gv = (gf @ scores.data).reshape(v.shape)
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


def _batch_normalize(x, axes, state):
    """Train-mode xhat = (x - mean) / sqrt(var + eps) over `axes`, updating
    the running stats; returns xhat and the backward of xhat.

    The forward takes the same steps in the same dtypes as a chain of mean,
    subtract, multiply, add, sqrt and divide nodes would (1/n and eps in x's
    dtype), so it is bit-identical to that chain. The backward is the closed
    form inv * (g - mean(g) - xhat * mean(g * xhat)), inv = 1/sqrt(var + eps).
    """
    inv_n = np.asarray(1.0 / int(np.prod([x.shape[ax] for ax in axes])), dtype=x.dtype)
    mu = x.data.sum(axis=axes, keepdims=True) * inv_n
    xc = x.data - mu
    var = (xc * xc).sum(axis=axes, keepdims=True) * inv_n
    std = np.sqrt(var + np.asarray(state.eps, dtype=x.dtype))
    xhat = xc / std
    m = state.momentum
    state.running_mean = ((1 - m) * state.running_mean
                          + m * mu.reshape(-1).astype(state.running_mean.dtype))
    state.running_var = ((1 - m) * state.running_var
                         + m * var.reshape(-1).astype(state.running_var.dtype))

    def bwd(g):
        gmean = g.sum(axis=axes, keepdims=True) * inv_n
        gxmean = (g * xhat).sum(axis=axes, keepdims=True) * inv_n
        return (g - gmean - xhat * gxmean) / std

    return xhat, bwd


def batchnorm(x, state, mode):
    """Normalize over all axes but the channel axis -4, then apply the
    per-channel affine scale * xhat + shift, as one tape node.

    Train mode uses batch statistics and updates running stats; infer mode
    uses the stored running stats (initialized to mean 0 / var 1) as
    constants. Forward and backward take the steps of the chain of
    normalisation, reshape, mul and add nodes, so the bytes are the chain's.
    """
    if mode not in ("train", "infer"):
        raise UsageError(f"batchnorm mode must be 'train' or 'infer', got {mode!r}")
    _check_rank(x, "batchnorm")
    c = x.shape[-4]
    if c != state.channels:
        raise DimensionError(
            f"batchnorm: channel axis has {c} channels, state expects {state.channels}")
    bshape = [1] * x.ndim
    bshape[-4] = c
    axes = tuple(i for i in range(x.ndim) if i != x.ndim - 4)

    if mode == "train":
        xhat, normalize_bwd = _batch_normalize(x, axes, state)
    else:
        inv = 1.0 / np.sqrt(state.running_var.reshape(bshape) + state.eps)
        xhat = (x.data - state.running_mean.reshape(bshape)) * inv
        normalize_bwd = lambda g: g * inv

    scale = state.scale.data.reshape(bshape)
    out = scale * xhat + state.shift.data.reshape(bshape)

    def bwd(g):
        return (normalize_bwd(g * scale), _unbroadcast(g * xhat, bshape).reshape(-1),
                _unbroadcast(g, bshape).reshape(-1))

    return _make(out, (x, state.scale, state.shift), bwd)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------

def backward(loss):
    """Run reverse-mode accumulation from a scalar loss.

    Gradients of all reachable requires_grad tensors are populated,
    overwriting existing grads.
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
            node.grad = g
