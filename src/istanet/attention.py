"""Token self-attention blocks.

A block's multi-head attention is one tape node (multi_head_attention).
Q and K of every head come from one pointwise projection of the input plus
a sinusoidal positional encoding over the token index, its weight packed
from the heads' Parameters (qkv_project); each head's values are its
unprojected channel slice of the input, read in place; and each head's
bounded score map is

    scores = alpha * tanh(Q K^T / sqrt(c_beta)) + M

with trainable per-head alpha and (U,U) matrix M. The score step
(attention_scores) takes the Gram matrix Q K^T from the engine's
attention_contract, then runs scale, tanh, alpha and M in one pass, with
the band |scores - M| <= |alpha| made exact in floating point; the node's
backward is in closed form. The step takes alpha and M as arrays of q's
dtype (UsageError otherwise), and works through the map in blocks, so that
each pass reads a block from cache: the whole (N,U,U) map when it has at
most engine.SCORE_BLOCK_ELEMENTS entries (up to 655 samples at U=20, one at
U=400), else one sample's (U,U) map at a time. A whole map is always
scanned for entries out of band; a per-sample block is scanned only when a
rounding bound from its max|tanh|, |alpha| and max|M| cannot prove it in
band (attention_scores gives the bound).

Threads: at a map over that threshold, each head's three map-sized steps
split their work over engine.THREADS threads, the calling one and a pool's
(engine._in_threads), forward and backward. The Gram matrix
(attention_contract) and score application (apply_scores) split the
samples; the score step splits the samples and its backward
(_attention_scores_grads) the rows of the (U,U) map. THREADS is the number
of CPUs in the process's affinity mask (`taskset -c 0` gives one), apart
from the BLAS thread count, and the bytes do not depend on it. A whole map
stays on the calling thread.

The heads' values, written into one array, are passed through a
token-axis convolution (kernel k_u) and a pointwise FFN with residual
connections, and finished by temporal aggregation (kernel k_t along the
within-window time axis, plus residual). The token-axis and temporal
convolutions, each followed by a batchnorm, run through
engine.conv_batchnorm, which in infer mode folds the batchnorm, and the
temporal residual, into the convolution's weight and bias.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import (BatchNormState, ConfigurationError, DimensionError, Parameter,
                     UsageError, apply_scores, attention_contract,
                     check_field_types, conv3d_axis, conv_batchnorm,
                     leaky_relu, pointwise_conv3d, uniform_init)

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

    Every block at every step reads the same table, so it is built once per
    (c, t_w, s, u, dtype) and returned read-only, C-contiguous, so that
    adding it to an activation reads both in memory order."""
    pe = np.zeros((c, u), dtype=np.float64)
    pos = np.arange(u, dtype=np.float64)
    for ch in range(c):
        exponent = (ch if ch % 2 == 0 else ch - 1) / c
        angle = pos / (10000.0 ** exponent)
        pe[ch] = np.sin(angle) if ch % 2 == 0 else np.cos(angle)
    table = np.broadcast_to(pe[:, None, None, :], (c, t_w, s, u)).astype(dtype, order="C")
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


def qkv_project(x, params):
    """Q and K of every head from one GEMM on x + PE, the positional encoding,
    with a (2*H*c_qkv, C) weight and bias packed at each call from the heads'
    Parameters, head h's Q rows then its K rows. Returns x + PE as
    (..., C, T*S*U) sites, the packed weight and the (..., 2*H*c_qkv, T, S, U)
    projection. Each row has the bytes of its head's own projection, but at
    c_qkv = 1, whose one-row product numpy runs as a matrix-vector one."""
    c, t_w, s, u = x.shape[-4:]
    xpe = x.data + positional_encoding(c, t_w, s, u, dtype=x.dtype)
    xpe = xpe.reshape(x.shape[:-3] + (-1,))
    heads = range(params.config.heads)
    w = np.concatenate([p.data for h in heads for p in (params.q_weights[h], params.k_weights[h])])
    b = np.concatenate([p.data for h in heads for p in (params.q_biases[h], params.k_biases[h])])
    qk = w @ xpe
    qk += b[:, None]
    return xpe, w, qk.reshape(x.shape[:-4] + (-1,) + x.shape[-3:])


def _score_blocks(shape):
    """Index of each block of a (U,U) or (N,U,U) score map in the order the
    score step works through them: one sample's (1,U,U) slice at a time when
    the engine's contraction works the map a sample at a time
    (engine._per_sample), else the whole map."""
    if not engine._per_sample(shape):
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


def attention_scores(q, k, alpha, m, c_beta):
    """The score step of one head: scores = alpha * tanh(QK^T / sqrt(c_beta))
    + M from the q and k arrays, with the Gram matrix QK^T from
    attention_contract. Returns the scores and the tanh map t, which the
    backward (_attention_scores_grads) reads; t is written over the Gram
    matrix, which nothing else keeps.

    alpha must be a 0-d array or a numpy scalar and M an array, both in q's
    dtype as the model's Parameters are (else UsageError), so every step
    runs in that one dtype, in the order of the composed steps: the forward
    is bit-identical to mul, tanh, mul and add. The tanh range keeps every
    entry within +-|alpha| of M; an entry the final rounding puts outside is
    nudged toward M by ulps until the bound holds exactly in floating point
    (identity for gradients). The backward is the closed form
    g_QK = g * alpha * (1 - t*t) / sqrt(c_beta), g_alpha = sum(g * t),
    g_M = g, in the chain's rounding order.

    Forward and backward run block by block (_score_blocks): the whole map
    when it has at most engine.SCORE_BLOCK_ELEMENTS entries, else one sample's
    (U,U) map at a time, so that every pass over a block reads it from
    cache. Each entry takes the same steps either way, and the sums over
    samples for g_alpha and g_M start from the first block and add the
    others in order, the order of the chain's sum over the batch axis: the
    bytes do not depend on the blocking.

    Per-sample blocks run on engine.THREADS threads (engine._in_threads),
    as the contraction before them does, each writing only its own slices.
    The forward gives each thread a range of samples, so every block takes
    the steps above whole. The backward gives each a range of rows of the
    (U,U) map, which it works through the samples in order, so each entry
    of the g_alpha and g_M sums still adds its blocks first to last: the
    bytes do not depend on THREADS either. A whole map stays on the calling
    thread.

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
    if not (isinstance(alpha, (np.ndarray, np.generic)) and isinstance(m, np.ndarray)
            and alpha.ndim == 0 and alpha.dtype == m.dtype == q.dtype):
        raise UsageError(f"alpha must be a 0-d array and M an array, both {q.dtype}")
    t = attention_contract(engine.Tensor(q), engine.Tensor(k)).data
    radius = abs(float(alpha))
    scale = np.asarray(1.0 / math.sqrt(c_beta), dtype=t.dtype)
    out = np.empty_like(t)
    blocks = _score_blocks(t.shape)
    in_band = _band_pretest(t.dtype, m, radius) if len(blocks) > 1 else None

    def forward(lo, hi):
        for blk in blocks[lo:hi]:
            t_b, out_b = t[blk], out[blk]
            np.tanh(np.multiply(t_b, scale, out=t_b), out=t_b)
            np.multiply(t_b, alpha, out=out_b)
            out_b += m
            if in_band is None or not in_band(float(max(t_b.max(), -t_b.min()))):
                _scan_band(out_b, m, radius)

    engine._in_threads(forward, len(blocks))
    return out, t


def _attention_scores_grads(g, t, alpha, c_beta):
    """Gradients (g_gram, g_alpha, g_M) of attention_scores for the upstream
    gradient g of its scores and its tanh map t, blocked and threaded as its
    forward is (see attention_scores)."""
    scale = np.asarray(1.0 / math.sqrt(c_beta), dtype=t.dtype)
    blocks = _score_blocks(t.shape)
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
            g_gram_b = np.multiply(g_b, alpha, out=g_gram[blk][r])
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
        engine._in_threads(rows, t.shape[-2])
    else:
        rows(0, t.shape[-2])
    return g_gram, engine._unbroadcast(g_alpha, ()), engine._unbroadcast(g_m, t.shape[-2:])


def _channels(lo, hi):
    """Index of channels lo..hi-1 of a (C,T,S,U) or (N,C,T,S,U) array."""
    return np.s_[..., lo:hi, :, :, :]


def multi_head_attention(x, params, score_sink=None):
    """A block's heads as one tape node: x, (C,T_w,S,U) or (N,C,T_w,S,U), to
    the heads' values in one array of x's shape, head h's in its V channels.

    The forward projects Q and K with one GEMM (qkv_project), reads each
    head's V as its channel slice of x, and runs each head's
    attention_scores and apply_scores. The backward takes each head's
    gradients with the code of those steps, V's into its slice of x's, and
    the packed projection's in one pass, so x's gradient sums the projected
    channels of all heads in one GEMM. If `score_sink` is a list, a copy of
    each head's scores is appended.
    """
    cfg = params.config
    if x.ndim not in (4, 5) or x.shape[-4] != cfg.c_in:
        raise DimensionError(f"multi_head_attention: expected a rank 4 or 5 input with "
                             f"c_in={cfg.c_in} channels on axis -4, got shape {x.shape}")
    # per-head feature length: T_w * J_w * E_w * c_qkv, with S = J_w*E_w
    c_beta = x.shape[-3] * x.shape[-2] * cfg.c_qkv
    c, vc = cfg.c_qkv, cfg.v_channels
    # head h's Q, K and V channels: of the projection, then of x
    idx = [(_channels(2 * h * c, (2 * h + 1) * c), _channels((2 * h + 1) * c, (2 * h + 2) * c),
            _channels(h * vc, (h + 1) * vc)) for h in range(cfg.heads)]
    xpe, w, qk = qkv_project(x, params)
    out = np.empty(x.shape, x.dtype)
    maps = []  # each head's (scores, t)
    for (qi, ki, vi), alpha, m in zip(idx, params.alphas, params.ms):
        scores, t = attention_scores(qk[qi], qk[ki], alpha.data, m.data, c_beta)
        if score_sink is not None:
            score_sink.append(np.array(scores))
        out[vi] = apply_scores(engine.Tensor(scores), engine.Tensor(x.data[vi])).data
        maps.append((scores, t))

    def bwd(g):
        g_qk, g_v = np.empty_like(qk), np.empty_like(out)
        g_maps = []
        for (qi, ki, vi), alpha, (scores, t) in zip(idx, params.alphas, maps):
            g_scores, g_v[vi] = engine._apply_scores_grads(scores, x.data[vi], g[vi])
            g_gram, g_alpha, g_m = _attention_scores_grads(g_scores, t, alpha.data, c_beta)
            g_qk[qi], g_qk[ki] = engine._contract_grads(qk[qi], qk[ki], g_gram)
            g_maps.append((g_alpha, g_m))
        g2 = g_qk.reshape(xpe.shape[:-2] + (-1, xpe.shape[-1]))
        gx = (w.T @ g2).reshape(x.shape)
        gx += g_v
        gw, gb = engine._weight_bias_grads(g2, xpe)
        gw, gb = gw.reshape(cfg.heads, 2, c, -1), gb.reshape(cfg.heads, 2, c)
        return (gx,) + tuple(g for h, g_map in enumerate(g_maps)
                             for g in (gw[h, 0], gb[h, 0], gw[h, 1], gb[h, 1]) + g_map)

    parents = [x]
    for h in range(cfg.heads):
        parents += [params.q_weights[h], params.q_biases[h], params.k_weights[h],
                    params.k_biases[h], params.alphas[h], params.ms[h]]
    return engine._make(out, parents, bwd)


def tsa_block_forward(x, params, mode, score_sink=None):
    """One block: multi-head attention (one node, multi_head_attention),
    token-axis FFN with residuals, then temporal aggregation. Takes a
    (C,T_w,S,U) or a batched (N,C,T_w,S,U) Tensor; output has c_out
    channels, other axes kept.

    If `score_sink` is a list, the per-head score arrays are appended to it
    (for attention export).
    """
    xh = multi_head_attention(x, params, score_sink)

    # token-axis convolution, normalized and activated
    xhat = conv_batchnorm(conv3d_axis, xh, params.ffn_conv_weight, params.ffn_conv_bias,
                          params.ffn_norm, mode, axis="U", k=params.config.k_u)
    xhat = leaky_relu(xhat, params.config.gamma)

    if params.res_weight is not None:
        res = pointwise_conv3d(x, params.res_weight, params.res_bias)
    else:
        res = x
    ffn_in = engine.add(xhat, res)
    xacc = engine.add(pointwise_conv3d(ffn_in, params.ffn_pw_weight, params.ffn_pw_bias), res)

    # temporal aggregation: time-axis convolution plus identity residual
    out = conv_batchnorm(conv3d_axis, xacc, params.ta_weight, params.ta_bias, params.ta_norm,
                         mode, residual=True, axis="T", k=params.config.k_t)
    return leaky_relu(out, params.config.gamma)
