"""Token self-attention blocks.

A block's multi-head attention is one tape node (multi_head_attention).
Q and K of every head come from one pointwise projection of the input plus
a sinusoidal positional encoding over the token index, its weight packed
from the heads' Parameters (qkv_project); each head's values are its
unprojected channel slice of the input, read in place; and each head's
bounded score map is

    scores = alpha * tanh(Q K^T / sqrt(c_beta)) + M

with trainable per-head alpha and (U,U) matrix M. The score step runs
scale, tanh, alpha and M in one pass, with the band |scores - M| <= |alpha|
made exact in floating point; the node's backward is in closed form. The
step takes alpha and M as arrays of q's dtype (UsageError otherwise).

A head runs one of two ways, chosen by the size of its (N,U,U) map
(_per_sample). With at most SCORE_BLOCK_ELEMENTS entries (up to 655
samples at U=20), it runs on the whole map on the calling thread: the
engine's attention_contract, the score step (attention_scores) and the
engine's apply_scores, each once, and the node keeps the scores and tanh
maps for its backward. With more (two samples or more at U=400), it runs a
sample at a time in (U,U) scratch maps that stay in cache
(_head_by_sample) and keeps no map: its backward recomputes each sample's
Gram GEMM and score step (_head_by_sample_grads), FlashAttention's
recompute (Dao et al., 2022, arXiv:2205.14135) at sample granularity. The
two ways share the score step's elementwise code (_score_step,
_score_grad_step) and run the same GEMMs, so they give the same bytes but
for alpha's and M's gradients: a per-sample head adds its samples' g_alpha
terms in order and takes g_M as one GEMM, which round differently from the
whole map's sums over the batch axis. A whole map is always scanned for
entries out of band; a per-sample block only when a rounding bound from
its max|tanh|, |alpha| and max|M| cannot prove it in band (attention_scores
gives the bound).

Threads: a head run a sample at a time is one _in_threads task per
direction, its samples split over THREADS threads, the calling one and a
pool's. Each thread writes only its own samples, and the sums over
samples run on the calling thread, so the bytes do not depend on THREADS.
The tasks call numpy and this module's private helpers only, no traced op.
THREADS is the number of CPUs in the process's affinity mask (`taskset -c
0` gives one); BLAS threads would compete with these, so the package gives
BLAS one unless the user sets its count (istanet/__init__.py).

The heads' values, written into one array, are passed through a
token-axis convolution (kernel k_u) and a pointwise FFN with residual
connections, and finished by temporal aggregation (kernel k_t along the
within-window time axis, plus residual). The token-axis and temporal
convolutions, each followed by a batchnorm, run through
engine.conv_batchnorm, which in infer mode folds the batchnorm, and the
temporal residual, into the convolution's weight and bias.
"""

import contextvars
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import (BatchNormState, ConfigurationError, DimensionError, Parameter,
                     UsageError, apply_scores, attention_contract,
                     check_field_types, conv3d_axis, conv_batchnorm,
                     leaky_relu, pointwise_conv3d, uniform_init)

# A head whose score map has at most this many entries runs whole on the
# calling thread, one with a larger batched map a sample at a time, its
# samples split over THREADS threads (_per_sample).
SCORE_BLOCK_ELEMENTS = 1 << 18

# Threads that work a call's samples, the calling thread included.
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
        check_field_types(self, floors=(
            ("heads", 1), ("c_qkv", 1), ("k_u", 1), ("k_t", 1), ("gamma", 0)))
        if self.c_out not in (self.c_in, 2 * self.c_in):
            raise ConfigurationError(
                f"block output channels must equal or double the input: "
                f"c_in={self.c_in}, c_out={self.c_out}")
        if self.c_in % self.heads:
            raise ConfigurationError(
                f"heads ({self.heads}) must divide input channels ({self.c_in})")
        for k in (self.k_u, self.k_t):
            if k % 2 == 0:
                raise ConfigurationError(f"conv kernels must be odd, got {k}")

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
    of a block whose max|t| is tau within radius = |alpha|. A NaN or inf max|M|
    makes the bound NaN or inf, so it proves nothing but at radius inf, where
    the scan nudges nothing."""
    fi = np.finfo(dtype)
    mu = max(float(m.max()), -float(m.min()))
    u = float(fi.eps)

    def in_band(tau):
        a = radius * tau * (1 + u)
        return (a + u * (a + mu)) * (1 + u) <= radius

    return in_band


def _score_scale(q, alpha, m, c_beta):
    """1/sqrt(c_beta) in q's dtype, once alpha and M are checked: alpha must
    be a 0-d array or a numpy scalar and M an array, both in q's dtype
    (else UsageError)."""
    if not (isinstance(alpha, (np.ndarray, np.generic)) and isinstance(m, np.ndarray)
            and alpha.ndim == 0 and alpha.dtype == m.dtype == q.dtype):
        raise UsageError(f"alpha must be a 0-d array and M an array, both {q.dtype}")
    return np.asarray(1.0 / math.sqrt(c_beta), dtype=q.dtype)


def _score_step(t, out, alpha, m, scale, in_band=None):
    """The score step's elementwise passes over one block, a whole map or
    one sample's: the Gram matrix t becomes tanh(t * scale) in place, out
    becomes alpha * t + M, and then the band scan (_scan_band) runs, unless
    in_band, given for a per-sample block, proves the block in band from
    its max|t|."""
    np.tanh(np.multiply(t, scale, out=t), out=t)
    np.multiply(t, alpha, out=out)
    out += m
    if in_band is None or not in_band(float(max(t.max(), -t.min()))):
        _scan_band(out, m, abs(float(alpha)))


def _score_grad_step(g, t, alpha, scale, out, scratch):
    """The Gram matrix's gradient g * alpha * (1 - t*t) * scale of one
    block, in the chain's rounding order, into `out`; scratch is a work
    array of t's shape."""
    np.multiply(g, alpha, out=out)
    np.subtract(1.0, np.multiply(t, t, out=scratch), out=scratch)
    out *= scratch
    out *= scale
    return out


def attention_scores(q, k, alpha, m, c_beta):
    """The score step of one head on a whole map: scores = alpha *
    tanh(QK^T / sqrt(c_beta)) + M from the q and k arrays, with the Gram
    matrix QK^T from attention_contract. Returns the scores and the tanh map
    t, which the backward (_attention_scores_grads) reads; t is written over
    the Gram matrix, which nothing else keeps.

    alpha must be a 0-d array or a numpy scalar and M an array, both in q's
    dtype as the model's Parameters are (else UsageError), so every step
    runs in that one dtype, in the order of the composed steps: the forward
    is bit-identical to mul, tanh, mul and add. The tanh range keeps every
    entry within +-|alpha| of M; an entry the final rounding puts outside is
    nudged toward M by ulps until the bound holds exactly in floating point
    (identity for gradients). The backward is the closed form
    g_QK = g * alpha * (1 - t*t) / sqrt(c_beta), g_alpha = sum(g * t),
    g_M = g, in the chain's rounding order.

    The band check (_scan_band: out - M, abs, max, then the nudge) runs on
    every whole map. A per-sample block first takes tau = max(max t, -min t),
    two reductions while it is in cache, and skips the scan when

        (a + u*(a + mu)) * (1 + u) <= |alpha|,    a = |alpha| * tau * (1 + u),

    with mu = max|M| (once per call) and u the eps of the dtype
    (_band_pretest). A NaN tau or mu makes the bound NaN, and an inf mu makes
    it inf, so the scan runs unless |alpha| is inf, where it nudges nothing.

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
    scale = _score_scale(q, alpha, m, c_beta)
    t = attention_contract(engine.Tensor(q), engine.Tensor(k)).data
    out = np.empty_like(t)
    _score_step(t, out, alpha, m, scale)
    return out, t


def _attention_scores_grads(g, t, alpha, c_beta):
    """Gradients (g_gram, g_alpha, g_M) of attention_scores for the upstream
    gradient g of its scores and its tanh map t."""
    scale = np.asarray(1.0 / math.sqrt(c_beta), dtype=t.dtype)
    g_gram = _score_grad_step(g, t, alpha, scale, np.empty_like(t), np.empty_like(t))
    return g_gram, engine._unbroadcast(g * t, ()), engine._unbroadcast(g, t.shape[-2:])


def _per_sample(shape):
    """Whether a head with a score map of `shape`, (U,U) or (N,U,U), runs a
    sample at a time on THREADS threads: a batched map of more than
    SCORE_BLOCK_ELEMENTS entries."""
    return len(shape) == 3 and math.prod(shape) > SCORE_BLOCK_ELEMENTS


def _in_threads(work, count):
    """work(lo, hi) over min(THREADS, count) contiguous ranges that cover
    range(count): the first on the calling thread, the others on the pool,
    each in a copy of the caller's context, so that its np.errstate holds
    there too. Returns when every range is done, raising the error of the
    first range that failed. `work` calls numpy and private helpers only: the
    benchmark's tracer, which wraps the public ops, keeps one thread's call
    stack."""
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


def _head_by_sample(q, k, v, alpha, m, c_beta, out, scores=None):
    """One head whose batched (N,U,U) map has more than SCORE_BLOCK_ELEMENTS
    entries, a sample at a time: q and k are (N,c,T,S,U) arrays, v and
    `out` (N,c_v,T',S',U) ones, and out, whose samples must each be
    contiguous (as in a channel slice of a C-ordered array), is written in
    place, as is an (N,U,U) `scores` if given; nothing else of N*U*U size
    is made.

    Each sample takes attention_contract's Gram GEMM, the score step
    (_score_step, with the band pre-test of attention_scores) and
    apply_scores' GEMM in the product order of _matmul_transposed, in two
    (U,U) scratch maps of its thread (_in_threads). These are the GEMMs the
    ops run on each sample of a batch, so the bytes are those of the
    whole-map path, whatever THREADS is.
    """
    scale = _score_scale(q, alpha, m, c_beta)
    n, u = q.shape[0], q.shape[-1]
    qf, kf = q.reshape(n, -1, u), k.reshape(n, -1, u)
    in_band = _band_pretest(q.dtype, m, abs(float(alpha)))

    def samples(lo, hi):
        t, s = np.empty((u, u), q.dtype), np.empty((u, u), q.dtype)
        for b in range(lo, hi):
            np.matmul(qf[b].T, kf[b], out=t)
            sb = s if scores is None else scores[b]
            _score_step(t, sb, alpha, m, scale, in_band)
            engine._matmul_transposed(v[b].reshape(-1, u), sb, out=out[b].reshape(-1, u))

    _in_threads(samples, n)


def _head_by_sample_grads(q, k, v, alpha, m, c_beta, g):
    """Gradients (gq, gk, gv, g_alpha, g_M) of _head_by_sample for the
    upstream gradient g of its output and the alpha and M its forward read.

    Each sample, in three (U,U) scratch maps of its thread, recomputes its
    Gram GEMM and score step, so t and the scores are the forward's; then
    it takes apply_scores' gradient GEMMs, its g_alpha term
    np.vdot(g_scores, t), the score step's closed form (_score_grad_step,
    in place) and attention_contract's gradient GEMMs. On the calling
    thread, g_alpha then adds the terms first to last, and g_M is one GEMM
    G^T V over the rows of g and v stacked by sample; so the bytes do not
    depend on THREADS. These two round differently from the whole-map
    path's sums over the batch axis; every other gradient has its bytes.
    """
    scale = _score_scale(q, alpha, m, c_beta)
    n, u = q.shape[0], q.shape[-1]
    gq, gk, gv = np.empty_like(q), np.empty_like(k), np.empty_like(v)
    qf, kf, gqf, gkf = (a.reshape(n, -1, u) for a in (q, k, gq, gk))
    in_band = _band_pretest(q.dtype, m, abs(float(alpha)))
    terms = [None] * n  # each sample's g_alpha term, added in order below

    def samples(lo, hi):
        t, s, g_scores = (np.empty((u, u), q.dtype) for _ in range(3))
        for b in range(lo, hi):
            np.matmul(qf[b].T, kf[b], out=t)
            _score_step(t, s, alpha, m, scale, in_band)
            gf = g[b].reshape(-1, u)
            np.matmul(gf.T, v[b].reshape(-1, u), out=g_scores)
            np.matmul(gf, s, out=gv[b].reshape(-1, u))
            terms[b] = np.vdot(g_scores, t)
            _score_grad_step(g_scores, t, alpha, scale, out=g_scores, scratch=t)
            engine._matmul_transposed(kf[b], g_scores, out=gqf[b])
            np.matmul(qf[b], g_scores, out=gkf[b])

    _in_threads(samples, n)
    g_m = np.ascontiguousarray(g).reshape(-1, u).T @ np.ascontiguousarray(v).reshape(-1, u)
    return gq, gk, gv, functools.reduce(np.add, terms), g_m


def _channels(lo, hi):
    """Index of channels lo..hi-1 of a (C,T,S,U) or (N,C,T,S,U) array."""
    return np.s_[..., lo:hi, :, :, :]


def multi_head_attention(x, params, score_sink=None):
    """A block's heads as one tape node: x, (C,T_w,S,U) or (N,C,T_w,S,U), to
    the heads' values in one array of x's shape, head h's in its V channels.

    The forward projects Q and K with one GEMM (qkv_project), reads each
    head's V as its channel slice of x, and runs each head's
    attention_scores and apply_scores on a whole map, or _head_by_sample
    when its batched map has more than SCORE_BLOCK_ELEMENTS entries
    (_per_sample). The backward takes each head's gradients with the code
    of those steps, V's into its slice of x's, and the packed projection's
    in one pass, so x's gradient sums the projected channels of all heads in
    one GEMM. If `score_sink` is a list, a copy of
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
    by_sample = _per_sample(x.shape[:-4] + (x.shape[-1],) * 2)
    saved = []  # each head's alpha and M arrays, and on the whole-map path (scores, t)
    for (qi, ki, vi), alpha, m in zip(idx, params.alphas, params.ms):
        if by_sample:
            scores = None if score_sink is None else np.empty(x.shape[:1] + m.shape, x.dtype)
            _head_by_sample(qk[qi], qk[ki], x.data[vi], alpha.data, m.data, c_beta, out[vi],
                            scores)
            saved.append((alpha.data, m.data))
        else:
            scores, t = attention_scores(qk[qi], qk[ki], alpha.data, m.data, c_beta)
            out[vi] = apply_scores(engine.Tensor(scores), engine.Tensor(x.data[vi])).data
            saved.append((alpha.data, m.data, scores, t))
        if score_sink is not None:
            score_sink.append(scores if by_sample else np.array(scores))

    def bwd(g):
        g_qk, g_v = np.empty_like(qk), np.empty_like(out)
        g_maps = []
        for (qi, ki, vi), (alpha, m, *maps) in zip(idx, saved):
            if by_sample:
                g_qk[qi], g_qk[ki], g_v[vi], g_alpha, g_m = _head_by_sample_grads(
                    qk[qi], qk[ki], x.data[vi], alpha, m, c_beta, g[vi])
            else:
                scores, t = maps
                g_scores, g_v[vi] = engine._apply_scores_grads(scores, x.data[vi], g[vi])
                g_gram, g_alpha, g_m = _attention_scores_grads(g_scores, t, alpha, c_beta)
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
