"""Minimal dense tensor engine with reverse-mode automatic differentiation.

Everything is backed by contiguous numpy arrays (float32 for training,
float64 for gradient checking). The ops are this module's functions; a
Tensor holds data and tape links and has no op methods. Each op records its
parents and a backward closure; ``backward(loss)`` on a scalar runs the tape
in reverse topological order and accumulates gradients over all paths.

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
made contiguous before it is reshaped (_matmul_transposed). Train-mode
batchnorm is one tape node, its per-channel affine included, with a
closed-form backward. Infer mode has no batchnorm op: conv_batchnorm folds
the running stats into the convolution before it (fold_batchnorm), so a
convolution, its residual add and its batchnorm are one convolution.

Threads: the Gram matrix (attention_contract) and score application
(apply_scores) split the samples of a batched (N,U,U) map of more than
SCORE_BLOCK_ELEMENTS entries over THREADS threads, forward and backward,
the calling thread and a pool's (_in_threads). Each thread runs the same
per-sample GEMMs on its own samples and writes only its slices of
preallocated outputs, so the bytes do not depend on THREADS. A smaller map,
or a rank-4 input, runs as one numpy call on the calling thread. The score
step between them (attention.attention_scores) and its backward split
their per-sample blocks by the same rule. THREADS is the number of CPUs in
the process's affinity mask (`taskset -c 0` gives one), apart from the BLAS
thread count, which the package sets to one unless the user sets it
(istanet/__init__.py): BLAS threads of their own compete with these.

A block's multi-head attention is one node (attention.multi_head_attention)
that calls attention_contract and apply_scores on constant Tensors, which
record no tape, and takes their gradients from _contract_grads and
_apply_scores_grads, the code of the ops' own backwards. It reads each
head's values in place and writes the heads into one array, so the engine
has no slicing or concatenation op.

Inside ``with no_grad():`` every op returns a plain Tensor with no parents
and no backward closure, so a forward records no tape; an infer-mode
forward (ISTANet.forward_tokens) always runs that way.
"""

import contextlib
import contextvars
import dataclasses
import functools
import math
import os
import sys

import numpy as np


# A score map of at most this many entries is worked whole on the calling
# thread, a larger batched one a sample at a time, its samples split over
# THREADS threads (_per_sample).
SCORE_BLOCK_ELEMENTS = 1 << 18

# Threads that work a call's samples, the calling thread included.
THREADS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)
_pool = None  # executor of THREADS - 1 workers, made on first use


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


@functools.lru_cache(maxsize=256)
def _conv_taps(ax, length, k):
    """(d, output sites, input sites, zero sites) index tuples of each tap d
    of a k-tap convolution along axis ax (-3, -2 or -1) of `length`: output
    l reads input l + d - (k-1)/2, and the output sites where that lies
    outside the axis are zero."""
    def along_axis(lo, hi):
        sl = [slice(None)] * 3
        sl[ax] = slice(lo, hi)
        return (...,) + tuple(sl)

    taps = []
    for d in range(k):
        shift = d - (k - 1) // 2
        lo = max(0, -shift)
        hi = max(lo, length - max(0, shift))
        zero = tuple(along_axis(a, b) for a, b in ((0, lo), (hi, length)) if a < b)
        taps.append((d, along_axis(lo, hi), along_axis(lo + shift, hi + shift), zero))
    return tuple(taps)


def conv3d_axis(x, weight, bias, axis, k):
    """Cross-correlation along one of the T/S/U axes with full channel mixing.

    weight: (C_out, C_in, k), k odd; stride 1, zero same-padding (k-1)/2, so
    the convolved axis keeps its length.

    im2col: the k shifted copies of the input are stacked next to the channel
    axis, cols[..., i, d, t, s, u] = x[..., i, (t, s, u) + d - (k-1)/2 along
    the axis] (zero outside it), so the convolution is one
    (C_out, C_in*k) @ (C_in*k, T*S*U) matmul; the backward pass scatters the
    column gradient back with k shifted adds (col2im). cols is written once:
    each tap's shifted copy and its out-of-axis zeros (_conv_taps).
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
    taps = _conv_taps(ax, x.shape[ax], k)
    cols = np.empty(x.shape[:-3] + (k,) + x.shape[-3:], dtype=x.dtype)
    for d, out_sl, in_sl, zero_sls in taps:
        tap = cols[..., d, :, :, :]
        tap[out_sl] = x.data[in_sl]
        for zero_sl in zero_sls:
            tap[zero_sl] = 0
    cols = cols.reshape(x.shape[:-4] + (x.shape[-4] * k, -1))
    w2 = weight.data.reshape(weight.shape[0], -1)
    out2 = w2 @ cols
    out2 += bias.data[:, None]

    def bwd(g):
        g2 = g.reshape(g.shape[:-3] + (-1,))
        gcols = (w2.T @ g2).reshape(x.shape[:-3] + (k,) + x.shape[-3:])
        gx = np.zeros(x.shape, dtype=x.dtype)
        for d, out_sl, in_sl, _ in taps:
            gx[in_sl] += gcols[..., d, :, :, :][out_sl]
        gw, gb = _weight_bias_grads(g2, cols)
        return gx, gw.reshape(weight.shape).astype(weight.dtype, copy=False), gb

    out = out2.reshape(x.shape[:-4] + (weight.shape[0],) + x.shape[-3:])
    return _make(out, (x, weight, bias), bwd)


def _per_sample(shape):
    """Whether the ops on a score map of `shape`, (U,U) or (N,U,U), work it a
    sample at a time on THREADS threads: a batched map of more than
    SCORE_BLOCK_ELEMENTS entries."""
    return len(shape) == 3 and math.prod(shape) > SCORE_BLOCK_ELEMENTS


def _in_threads(work, count):
    """work(lo, hi) over min(THREADS, count) contiguous ranges that cover
    range(count): the first on the calling thread, the others on the pool,
    each in a copy of the caller's context, so that its np.errstate holds
    there too. Returns when every range is done, raising the error of the
    first range that failed. `work` calls numpy only: the benchmark's tracer,
    which wraps the engine ops, keeps one thread's call stack."""
    global _pool
    parts = min(THREADS, count)
    if parts == 1:
        return work(0, count)
    import concurrent.futures
    if _pool is None:
        _pool = concurrent.futures.ThreadPoolExecutor(THREADS - 1)
    ends = [count * p // parts for p in range(parts + 1)]
    futures = [_pool.submit(contextvars.copy_context().run, work, lo, hi)
               for lo, hi in zip(ends[1:-1], ends[2:])]
    try:
        work(0, ends[1])
    finally:
        concurrent.futures.wait(futures)
    for future in futures:
        future.result()


def _matmul_by_sample(a, b):
    """a @ b with the samples of the leading batch axis, which a and b share,
    on THREADS threads (_in_threads), each writing its own slice of one
    preallocated output with the GEMMs of the whole call."""
    out = np.empty(a.shape[:-1] + b.shape[-1:], np.result_type(a, b))
    _in_threads(lambda lo, hi: np.matmul(a[lo:hi], b[lo:hi], out=out[lo:hi]), len(out))
    return out


def _matmul_for(map_shape):
    """The matmul of the ops on a score map of `map_shape`: _matmul_by_sample
    when _per_sample splits it, else np.matmul, the one numpy call."""
    return _matmul_by_sample if _per_sample(map_shape) else np.matmul


def _matmul_transposed(a, s, matmul):
    """a @ s^T for a (..., rows, U) and s (..., U, U), as a contiguous array
    computed with `matmul` (np.matmul or _matmul_by_sample).

    With fewer rows than tokens, OpenBLAS computes (s @ a^T)^T about twice
    as fast, and with more rows about half as fast, so the order follows the
    shape. Both orders give the same bytes. The transposed result is made
    contiguous: reshaped as a strided view, it would make the GEMMs that
    read it round differently.
    """
    if a.shape[-2] < a.shape[-1]:
        return np.ascontiguousarray(matmul(s, a.swapaxes(-1, -2)).swapaxes(-1, -2))
    return matmul(a, s.swapaxes(-1, -2))


def attention_contract(q, k):
    """Token Gram matrix: out[u,v] = sum_{c,t,s} q[c,t,s,u] * k[c,t,s,v]."""
    if q.shape != k.shape:
        raise DimensionError(f"attention_contract: q shape {q.shape} != k shape {k.shape}")
    _check_rank(q, "attention_contract")
    flat_shape = q.shape[:-4] + (-1, q.shape[-1])
    matmul = _matmul_for(q.shape[:-4] + (q.shape[-1], q.shape[-1]))
    out = matmul(q.data.reshape(flat_shape).swapaxes(-1, -2), k.data.reshape(flat_shape))
    return _make(out, (q, k), lambda g: _contract_grads(q.data, k.data, g))


def _contract_grads(q, k, g):
    """Gradients (gq, gk) of attention_contract for the q and k arrays and
    the gradient g of the Gram matrix."""
    flat_shape = q.shape[:-4] + (-1, q.shape[-1])
    qf, kf = q.reshape(flat_shape), k.reshape(flat_shape)
    matmul = _matmul_for(g.shape)
    return _matmul_transposed(kf, g, matmul).reshape(q.shape), matmul(qf, g).reshape(k.shape)


def apply_scores(scores, v):
    """Mix tokens by a score matrix: out[c,t,s,u] = sum_w scores[u,w] * v[c,t,s,w]."""
    _check_rank(v, "apply_scores")
    expected = v.shape[:-4] + (v.shape[-1], v.shape[-1])
    if scores.shape != expected:
        raise DimensionError(
            f"apply_scores: scores shape {scores.shape} != (...,U,U)={expected}")
    vf = v.data.reshape(v.shape[:-4] + (-1, v.shape[-1]))
    out = _matmul_transposed(vf, scores.data, _matmul_for(scores.shape)).reshape(v.shape)
    return _make(out, (scores, v), lambda g: _apply_scores_grads(scores.data, v.data, g))


def _apply_scores_grads(scores, v, g):
    """Gradients (g_scores, gv) of apply_scores for the scores and v arrays
    and the gradient g of its output. v and g may be channel slices of
    larger arrays: each sample's rows are read in place."""
    flat_shape = v.shape[:-4] + (-1, v.shape[-1])
    vf, gf = v.reshape(flat_shape), g.reshape(flat_shape)
    matmul = _matmul_for(scores.shape)
    return matmul(gf.swapaxes(-1, -2), vf), matmul(gf, scores).reshape(v.shape)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

class BatchNormState:
    """Per-channel affine parameters plus running statistics.

    scale/shift are trainable; running mean/var are plain buffers that
    train-mode batchnorm updates and fold_batchnorm reads.
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


def batchnorm(x, state, mode):
    """Train-mode batchnorm as one tape node: xhat = (x - mean) / sqrt(var +
    eps) with the batch statistics over all axes but the channel axis -4,
    which also update the running stats, then the per-channel affine
    scale * xhat + shift.

    The forward takes the same steps in the same dtypes as a chain of mean,
    subtract, multiply, add, sqrt, divide, reshape, mul and add nodes would
    (1/n and eps in x's dtype), so it is bit-identical to that chain. The
    backward is the closed form inv * (gs - mean(gs) - xhat * mean(gs * xhat)),
    gs = g * scale and inv = 1/sqrt(var + eps), for x, and the chain's sums
    for scale and shift.

    Infer mode has no batchnorm call: conv_batchnorm folds the running stats
    into the convolution before it (fold_batchnorm). `mode` stays a
    parameter, and refuses anything but "train", because the benchmark's
    tracer (perfbench/tracer.py, _signature and replay_backward_ms) passes it.
    """
    if mode != "train":
        raise UsageError(f"batchnorm runs in train mode only (infer mode folds it into "
                         f"the convolution before it), got mode {mode!r}")
    _check_rank(x, "batchnorm")
    c = x.shape[-4]
    if c != state.channels:
        raise DimensionError(
            f"batchnorm: channel axis has {c} channels, state expects {state.channels}")
    bshape = [1] * x.ndim
    bshape[-4] = c
    axes = tuple(i for i in range(x.ndim) if i != x.ndim - 4)

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
    scale = state.scale.data.reshape(bshape)
    out = scale * xhat + state.shift.data.reshape(bshape)

    def bwd(g):
        gs = g * scale
        gmean = gs.sum(axis=axes, keepdims=True) * inv_n
        gxmean = (gs * xhat).sum(axis=axes, keepdims=True) * inv_n
        return ((gs - gmean - xhat * gxmean) / std, _unbroadcast(g * xhat, bshape).reshape(-1),
                _unbroadcast(g, bshape).reshape(-1))

    return _make(out, (x, state.scale, state.shift), bwd)


def fold_batchnorm(weight, bias, state, residual=False):
    """The weight and bias arrays of one convolution whose output is
    infer-mode batchnorm (the running stats) of conv(x, weight, bias), plus x
    before the batchnorm when `residual`.

    With s = scale / sqrt(running_var + eps) and t = shift - running_mean * s
    per output channel, the folded weight is s * W, or s * (W + I) with the
    identity at the centre tap of a (C, C, k) weight for the residual, and the
    folded bias is s * b + t, both in the weight's dtype. The fold is forward
    only: it is not differentiated. Nothing is cached: training moves the
    running stats, and load_checkpoint writes them in place.
    """
    if weight.shape[0] != state.channels:
        raise DimensionError(f"fold_batchnorm: weight {weight.shape} has {weight.shape[0]} "
                             f"output channels, state expects {state.channels}")
    dtype = weight.dtype
    mean = np.asarray(state.running_mean, dtype)
    inv = 1 / np.sqrt(np.asarray(state.running_var, dtype) + np.asarray(state.eps, dtype))
    s = state.scale.data * inv
    w = weight.data
    if residual:
        c, c_in, k = w.shape
        if c_in != c:
            raise DimensionError(f"fold_batchnorm: a residual needs a (C,C,k) weight, "
                                 f"got {w.shape}")
        w = w.copy()
        w[np.arange(c), np.arange(c), (k - 1) // 2] += 1
    s_w = s.reshape((-1,) + (1,) * (w.ndim - 1))
    return s_w * w, s * bias.data + (state.shift.data - mean * s)


def conv_batchnorm(conv, x, weight, bias, state, mode, residual=False, **conv_args):
    """batchnorm(conv(x, weight, bias, **conv_args), plus x when `residual`):
    `conv` is pointwise_conv3d or conv3d_axis. Train mode runs the
    convolution, the residual add and the batchnorm node; infer mode runs one
    convolution with fold_batchnorm's weight and bias as constants, and no
    batchnorm or add, so no gradient reaches weight, bias, scale or shift.
    The fold rounds differently from the chain it replaces, by a few units in
    the last place of the output's magnitude."""
    if mode == "train":
        out = conv(x, weight, bias, **conv_args)
        return batchnorm(add(out, x) if residual else out, state, mode)
    if mode != "infer":
        raise UsageError(f"mode must be 'train' or 'infer', got {mode!r}")
    folded_w, folded_b = fold_batchnorm(weight, bias, state, residual)
    return conv(x, Tensor(folded_w), Tensor(folded_b), **conv_args)


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
