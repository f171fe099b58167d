"""Token self-attention blocks.

Each block runs, per head: Q/K pointwise projections of the input plus a
sinusoidal positional encoding over the token index, values taken as an
unprojected channel slice of the input, and a bounded score map

    scores = alpha * tanh(Q K^T / sqrt(c_beta)) + M

with trainable per-head alpha and (U,U) matrix M. After the Gram matrix
Q K^T, the score map is one tape node: scale, tanh, alpha and M in one
forward, the band |scores - M| <= |alpha| made exact in floating point, and
a closed-form backward. The node takes the model's own operands, alpha a
0-d Tensor and M a Tensor, both in the Gram matrix's dtype (UsageError
otherwise), and works through the map in blocks, so that each pass reads
a block from cache: the whole (N,U,U) map when it has at most
SCORE_BLOCK_ELEMENTS entries (up to 655 samples at U=20, one at U=400),
else one sample's (U,U) map at a time. A whole map is always scanned for
entries out of band; a per-sample block is scanned only when a rounding
bound from its max|tanh|, |alpha| and max|M| cannot prove it in band
(attention_scores gives the bound). Per-sample blocks run on THREADS
threads, the calling one and a pool's: the forward splits the samples, the
backward the rows of the (U,U) map. THREADS is the number of CPUs in the
process's affinity mask (`taskset -c 0` gives one), apart from the BLAS
thread count, and the bytes do not depend on it. Head outputs are
concatenated, passed through a token-axis convolution (kernel k_u) and a
pointwise FFN with residual connections, and finished by temporal
aggregation (kernel k_t along the within-window time axis, plus residual).
"""

import contextvars
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import (BatchNormState, ConfigurationError, Parameter,
                     UsageError, apply_scores, attention_contract, batchnorm,
                     check_field_types, concat, conv3d_axis, leaky_relu,
                     pointwise_conv3d, uniform_init)

# A score map of at most this many entries is worked as one block, a larger
# one a sample at a time (see attention_scores).
SCORE_BLOCK_ELEMENTS = 1 << 18

# Threads that work a call's per-sample blocks, the calling thread included.
THREADS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)
_pool = None  # executor of THREADS - 1 workers, made on first use


@dataclass(frozen=True)
class TSABlockConfig:
    c_in: int
    c_out: int
    heads: int
    c_qkv: int
    k_u: int = 3
    k_t: int = 3
    gamma: float = 0.1

    def __post_init__(self):
        check_field_types(self)
        if self.c_out not in (self.c_in, 2 * self.c_in):
            raise ConfigurationError(
                f"block output channels must equal or double the input: "
                f"c_in={self.c_in}, c_out={self.c_out}")
        if self.heads < 1 or self.c_in % self.heads:
            raise ConfigurationError(
                f"heads ({self.heads}) must divide input channels ({self.c_in})")
        if self.c_qkv < 1:
            raise ConfigurationError(f"c_qkv must be >= 1, got {self.c_qkv}")
        for k in (self.k_u, self.k_t):
            if k < 1 or k % 2 == 0:
                raise ConfigurationError(f"conv kernels must be odd and >= 1, got {k}")
        if self.gamma < 0:
            raise ConfigurationError(f"gamma (activation slope) must be >= 0, got {self.gamma}")

    @property
    def v_channels(self):
        return self.c_in // self.heads


@functools.lru_cache(maxsize=64)
def positional_encoding(c, t_w, s, u, dtype=np.float64):
    """Sinusoid over the token index, channel-dependent wavelength, constant
    over the within-token axes. pe[c] = sin(u/10000^(c/C)) for even c,
    cos(u/10000^((c-1)/C)) for odd c.

    Every head of every block at every step reads the same table, so it is
    built once per (c, t_w, s, u, dtype) and returned read-only."""
    pe = np.zeros((c, u), dtype=np.float64)
    pos = np.arange(u, dtype=np.float64)
    for ch in range(c):
        exponent = (ch if ch % 2 == 0 else ch - 1) / c
        angle = pos / (10000.0 ** exponent)
        pe[ch] = np.sin(angle) if ch % 2 == 0 else np.cos(angle)
    table = np.broadcast_to(pe[:, None, None, :], (c, t_w, s, u)).astype(dtype)
    table.flags.writeable = False
    return table


class TSABlockParams:
    """Trainable state of one block; parameter names encode block and head
    indices for checkpoint round-trips. parameters() lists them in the
    order they are made, which is the order of the init draws."""

    def __init__(self, config, num_tokens, rng, dtype=np.float32, name="block"):
        self.config = cfg = config
        self._params = []
        init = functools.partial(uniform_init, rng)
        zeros = functools.partial(np.zeros, dtype=dtype)

        def param(suffix, data):
            self._params.append(Parameter(f"{name}.{suffix}", data, dtype=dtype))
            return self._params[-1]

        def norm(suffix):
            state = BatchNormState(f"{name}.{suffix}", cfg.c_out, dtype=dtype)
            self._params += state.parameters()
            return state

        self.q_weights, self.q_biases, self.k_weights, self.k_biases = [], [], [], []
        self.alphas, self.ms = [], []
        for h in range(cfg.heads):
            self.q_weights.append(param(f"head{h}.q_weight", init(cfg.c_qkv, cfg.c_in)))
            self.q_biases.append(param(f"head{h}.q_bias", zeros(cfg.c_qkv)))
            self.k_weights.append(param(f"head{h}.k_weight", init(cfg.c_qkv, cfg.c_in)))
            self.k_biases.append(param(f"head{h}.k_bias", zeros(cfg.c_qkv)))
            # tanh-dominated start: zero M, unit balance factor
            self.alphas.append(param(f"head{h}.alpha", np.ones(())))
            self.ms.append(param(f"head{h}.m", zeros((num_tokens, num_tokens))))

        self.ffn_conv_weight = param("ffn_conv.weight", init(cfg.c_out, cfg.c_in, cfg.k_u))
        self.ffn_conv_bias = param("ffn_conv.bias", zeros(cfg.c_out))
        self.ffn_norm = norm("ffn_norm")
        self.ffn_pw_weight = param("ffn_pw.weight", init(cfg.c_out, cfg.c_out))
        self.ffn_pw_bias = param("ffn_pw.bias", zeros(cfg.c_out))
        self.res_weight = self.res_bias = None
        if cfg.c_out != cfg.c_in:
            self.res_weight = param("res.weight", init(cfg.c_out, cfg.c_in))
            self.res_bias = param("res.bias", zeros(cfg.c_out))
        self.ta_weight = param("ta.weight", init(cfg.c_out, cfg.c_out, cfg.k_t))
        self.ta_bias = param("ta.bias", zeros(cfg.c_out))
        self.ta_norm = norm("ta_norm")

    def parameters(self):
        return list(self._params)

    def buffers(self):
        return self.ffn_norm.buffers() + self.ta_norm.buffers()


def qkv_project(x, params, h):
    """Per-head Q/K projections of (input + positional encoding); V is the
    h-th unprojected channel slice of the input."""
    c, t_w, s, u = x.shape[-4:]
    pe = positional_encoding(c, t_w, s, u, dtype=x.dtype)
    xpe = engine.add(x, engine.Tensor(pe))
    q = pointwise_conv3d(xpe, params.q_weights[h], params.q_biases[h])
    k = pointwise_conv3d(xpe, params.k_weights[h], params.k_biases[h])
    vc = params.config.v_channels
    v = engine.getitem(x, np.s_[..., h * vc:(h + 1) * vc, :, :, :])
    return q, k, v


def _score_blocks(shape):
    """Index of each block of a (U,U) or (N,U,U) score map in the order the
    score node works through them: the whole map when it has at most
    SCORE_BLOCK_ELEMENTS entries, else one sample's (1,U,U) slice at a time."""
    if len(shape) == 2 or math.prod(shape) <= SCORE_BLOCK_ELEMENTS:
        return [slice(None)]
    return [slice(b, b + 1) for b in range(shape[0])]


def _scan_band(out, center, radius):
    """The full band scan of one block: every entry of `out` more than
    `radius` from `center` is stepped toward it by ulps until
    |out - center| <= radius holds in floating point."""
    dev = out - center
    if np.abs(dev, out=dev).max(initial=0) > radius:
        over = dev > radius
        while over.any():
            out[over] = np.nextafter(out[over], np.broadcast_to(center, out.shape)[over])
            over = np.abs(out - center) > radius


def _band_pretest(dtype, m, radius):
    """The pre-test of a per-sample block (see attention_scores): tau ->
    True when the rounding bound proves every |fl(fl(fl(alpha * t) + M) - M)|
    of a block whose max|t| is tau within radius = |alpha|; None, so that
    every block is scanned, when M is not finite."""
    fi = np.finfo(dtype)
    mu = max(float(m.max()), -float(m.min()))
    if not math.isfinite(mu):
        return None
    u = float(fi.eps)

    def in_band(tau):
        a = radius * tau * (1 + u)
        return (a + u * (a + mu)) * (1 + u) <= radius

    return in_band


def _in_threads(work, count):
    """work(lo, hi) over min(THREADS, count) contiguous ranges that cover
    range(count): the first on the calling thread, the others on the pool,
    each in a copy of the caller's context, so that its np.errstate holds
    there too. Returns when every range is done, raising the error of the
    first range that failed."""
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


def attention_scores(q, k, alpha, m, c_beta):
    """scores = alpha * tanh(QK^T / sqrt(c_beta)) + M, as one tape node over
    (QK^T, alpha, M) after the attention_contract node.

    alpha must be a 0-d Tensor and M a Tensor, both in the Gram matrix's
    dtype as the model's Parameters are (else UsageError), so every step
    runs in that one dtype, in the order of the composed steps: the forward
    is bit-identical to mul, tanh, mul and add. The tanh range keeps every
    entry within +-|alpha| of M; an entry the final rounding puts outside is
    nudged toward M by ulps until the bound holds exactly in floating point
    (identity for gradients). The backward is the closed form
    g_QK = g * alpha * (1 - t*t) / sqrt(c_beta), g_alpha = sum(g * t),
    g_M = g, in the chain's rounding order.

    Forward and backward run block by block (_score_blocks): the whole map
    when it has at most SCORE_BLOCK_ELEMENTS entries, else one sample's
    (U,U) map at a time, so that every pass over a block reads it from
    cache. Each entry takes the same steps either way, and the sums over
    samples for g_alpha and g_M start from the first block and add the
    others in order, the order of the chain's sum over the batch axis: the
    bytes do not depend on the blocking.

    Per-sample blocks run on THREADS threads (_in_threads), each writing
    only its own slices. The forward gives each thread a range of samples,
    so every block takes the steps above whole. The backward gives each a
    range of rows of the (U,U) map, which it works through the samples in
    order, so each entry of the g_alpha and g_M sums still adds its blocks
    first to last: the bytes do not depend on THREADS either. A whole map
    stays on the calling thread.

    The band check (_scan_band: out - M, abs, max, then the nudge) runs on
    every whole-map block. A per-sample block first takes
    tau = max(max t, -min t), two reductions while it is in cache, and
    skips the scan when

        (a + u*(a + mu)) * (1 + u) <= |alpha|,    a = |alpha| * tau * (1 + u),

    with mu = max|M| (once per call) and u the eps of the dtype
    (_band_pretest). A NaN tau makes the bound NaN, and a NaN or inf mu
    takes no bound, so the scan runs.

    The bound holds for every entry the scan would see. With eps = u/2 the
    unit roundoff, p = fl(alpha t), s = fl(p + M) and d = fl(s - M): a sum
    or difference rounds by at most a relative eps, and not at all when its
    result is subnormal, so |s - M| <= |p| + eps (|p| + mu) and
    |d| <= |s - M| (1 + eps). Rounding is monotone and |alpha t| <=
    |alpha| tau, so |p| <= P = fl(|alpha| tau) <= |alpha| in the chain's one
    dtype; a normal P is at most |alpha| tau (1 + eps). Each u term is twice
    what that needs, which absorbs the rounding of the bound's own float64
    evaluation when the chain rounds in float32. In a float64 chain that
    margin is of the order of the evaluation's own rounding, and monotone
    rounding carries the proof instead: a is at least P, and the steps
    after it round to floats no smaller than the bound on |s - M| they
    stand for, so |d| = fl(|s - M|) is at most the bound. Below the
    smallest normal, tiny, rounding is absolute, up to eta/2 with eta the
    smallest subnormal: a float32 a can fall eta/2 short of a subnormal P,
    and u (a + mu) can round down. If a + mu >= tiny, the spare
    eps (a + mu) >= eta/2 covers that; else every p and M is a multiple of
    eta below 2 tiny, so s and d are exact and |d| = |p| <= |alpha|.
    """
    gram = attention_contract(q, k)
    if not (isinstance(alpha, engine.Tensor) and isinstance(m, engine.Tensor)
            and alpha.ndim == 0 and alpha.dtype == m.dtype == gram.dtype):
        raise UsageError(f"alpha must be a 0-d Tensor and M a Tensor, both {gram.dtype}")
    radius = abs(float(alpha.data))
    scale = np.asarray(1.0 / np.sqrt(c_beta), dtype=gram.dtype)
    t = np.empty_like(gram.data)
    out = np.empty_like(t)
    blocks = _score_blocks(t.shape)
    in_band = _band_pretest(t.dtype, m.data, radius) if len(blocks) > 1 else None

    def forward(lo, hi):
        for blk in blocks[lo:hi]:
            t_b, out_b = t[blk], out[blk]
            np.tanh(np.multiply(gram.data[blk], scale, out=t_b), out=t_b)
            np.multiply(t_b, alpha.data, out=out_b)
            out_b += m.data
            if in_band is None or not in_band(float(max(t_b.max(), -t_b.min()))):
                _scan_band(out_b, m.data, radius)

    _in_threads(forward, len(blocks))

    def bwd(g):
        g_gram = np.empty_like(t)
        many = len(blocks) > 1
        # per-sample blocks sum g*t and g into one (1,U,U) array each, which
        # the first block fills and the others add to in block order
        g_alpha, g_m = np.empty((2,) + t[:1].shape, t.dtype) if many else (g * t, g)

        def rows(lo, hi):
            r = np.s_[..., lo:hi, :]
            scratch = np.empty(t[blocks[0]][r].shape, t.dtype)  # 1 - t*t, then g*t
            for i, blk in enumerate(blocks):
                g_b, t_b = g[blk][r], t[blk][r]
                g_gram_b = np.multiply(g_b, alpha.data, out=g_gram[blk][r])
                np.subtract(1.0, np.multiply(t_b, t_b, out=scratch), out=scratch)
                g_gram_b *= scratch
                g_gram_b *= scale
                if many and i == 0:
                    np.multiply(g_b, t_b, out=g_alpha[r])
                    g_m[r] = g_b
                elif many:
                    g_alpha[r] += np.multiply(g_b, t_b, out=scratch)
                    g_m[r] += g_b

        if many:
            _in_threads(rows, t.shape[-2])
        else:
            rows(0, t.shape[-2])
        return g_gram, engine._unbroadcast(g_alpha, alpha.shape), engine._unbroadcast(g_m, m.shape)

    return engine._make(out, (gram, alpha, m), bwd)


def temporal_aggregate(x, weight, bias, k_t):
    """Convolution along the within-window time axis plus identity residual."""
    return engine.add(conv3d_axis(x, weight, bias, axis="T", k=k_t), x)


def tsa_block_forward(x, params, mode, score_sink=None):
    """One block: multi-head scores on values, head concat, token-axis FFN
    with residuals, then temporal aggregation. Takes a (C,T_w,S,U) or a
    batched (N,C,T_w,S,U) Tensor; output has c_out channels, other axes kept.

    If `score_sink` is a list, the per-head score arrays are appended to it
    (for attention export).
    """
    # per-head feature length: T_w * J_w * E_w * c_qkv, with S = J_w*E_w
    cb = x.shape[-3] * x.shape[-2] * params.config.c_qkv

    heads = []
    for h in range(params.config.heads):
        q, k, v = qkv_project(x, params, h)
        scores = attention_scores(q, k, params.alphas[h], params.ms[h], cb)
        if score_sink is not None:
            score_sink.append(np.array(scores.data))
        heads.append(apply_scores(scores, v))
    xh = concat(heads, axis=-4) if len(heads) > 1 else heads[0]

    # token-axis convolution, normalized and activated
    xhat = conv3d_axis(xh, params.ffn_conv_weight, params.ffn_conv_bias,
                       axis="U", k=params.config.k_u)
    xhat = leaky_relu(batchnorm(xhat, params.ffn_norm, mode), params.config.gamma)

    if params.res_weight is not None:
        res = pointwise_conv3d(x, params.res_weight, params.res_bias)
    else:
        res = x
    ffn_in = engine.add(xhat, res)
    xacc = engine.add(pointwise_conv3d(ffn_in, params.ffn_pw_weight, params.ffn_pw_bias), res)

    out = temporal_aggregate(xacc, params.ta_weight, params.ta_bias, params.config.k_t)
    return leaky_relu(batchnorm(out, params.ta_norm, mode), params.config.gamma)
