"""Token self-attention blocks.

Each block runs, per head: Q/K pointwise projections of the input plus a
sinusoidal positional encoding over the token index, values taken as an
unprojected channel slice of the input, and a bounded score map

    scores = alpha * tanh(Q K^T / sqrt(c_beta)) + M

with trainable per-head alpha and (U,U) matrix M. After the Gram matrix
Q K^T, the score map is one tape node: scale, tanh, alpha and M in one
forward, the band |scores - M| <= |alpha| made exact in floating point, and
a closed-form backward. Head outputs are concatenated, passed through a
token-axis convolution (kernel k_u) and a pointwise FFN with residual
connections, and finished by temporal aggregation (kernel k_t along the
within-window time axis, plus residual).
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import (BatchNormState, ConfigurationError, Parameter,
                     apply_scores, attention_contract, batchnorm,
                     check_field_types, concat, conv3d_axis, leaky_relu,
                     pointwise_conv3d, uniform_init)


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
            raise ConfigurationError(f"activation slope must be >= 0, got {self.gamma}")

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
            self.q_biases.append(param(f"head{h}.q_bias", np.zeros(cfg.c_qkv)))
            self.k_weights.append(param(f"head{h}.k_weight", init(cfg.c_qkv, cfg.c_in)))
            self.k_biases.append(param(f"head{h}.k_bias", np.zeros(cfg.c_qkv)))
            # tanh-dominated start: zero M, unit balance factor
            self.alphas.append(param(f"head{h}.alpha", np.ones(())))
            self.ms.append(param(f"head{h}.m", np.zeros((num_tokens, num_tokens))))

        self.ffn_conv_weight = param("ffn_conv.weight", init(cfg.c_out, cfg.c_in, cfg.k_u))
        self.ffn_conv_bias = param("ffn_conv.bias", np.zeros(cfg.c_out))
        self.ffn_norm = norm("ffn_norm")
        self.ffn_pw_weight = param("ffn_pw.weight", init(cfg.c_out, cfg.c_out))
        self.ffn_pw_bias = param("ffn_pw.bias", np.zeros(cfg.c_out))
        self.res_weight = self.res_bias = None
        if cfg.c_out != cfg.c_in:
            self.res_weight = param("res.weight", init(cfg.c_out, cfg.c_in))
            self.res_bias = param("res.bias", np.zeros(cfg.c_out))
        self.ta_weight = param("ta.weight", init(cfg.c_out, cfg.c_out, cfg.k_t))
        self.ta_bias = param("ta.bias", np.zeros(cfg.c_out))
        self.ta_norm = norm("ta_norm")

    def parameters(self):
        return list(self._params)

    def buffers(self):
        return self.ffn_norm.buffers() + self.ta_norm.buffers()

    def c_beta(self, t_w, s):
        # per-head feature length: T_w * J_w * E_w * c_qkv, with S = J_w*E_w
        return t_w * s * self.config.c_qkv


def qkv_project(x, params, h):
    """Per-head Q/K projections of (input + positional encoding); V is the
    h-th unprojected channel slice of the input."""
    x = engine.astensor(x)
    c, t_w, s, u = x.shape[-4:]
    pe = positional_encoding(c, t_w, s, u, dtype=x.dtype)
    xpe = engine.add(x, engine.Tensor(pe))
    q = pointwise_conv3d(xpe, params.q_weights[h], params.q_biases[h])
    k = pointwise_conv3d(xpe, params.k_weights[h], params.k_biases[h])
    vc = params.config.v_channels
    v = x[..., h * vc:(h + 1) * vc, :, :, :]
    return q, k, v


def attention_scores(q, k, alpha, m, c_beta):
    """scores = alpha * tanh(QK^T / sqrt(c_beta)) + M, as one tape node over
    (QK^T, alpha, M) after the attention_contract node.

    The forward takes the composed steps in the same dtypes (the scale in
    the Gram matrix's dtype, alpha and M by the engine's operand rule), so
    it is bit-identical to mul, tanh, mul and add. The tanh range keeps
    every entry within +-|alpha| of M; an entry the final rounding puts
    outside is nudged toward M by ulps until the bound holds exactly in
    floating point (identity for gradients). The backward is the closed
    form g_QK = g * alpha * (1 - t*t) / sqrt(c_beta), g_alpha = sum(g * t),
    g_M = g, in the chain's rounding order.
    """
    gram = attention_contract(q, k)
    radius = abs(float(alpha.data if isinstance(alpha, engine.Tensor) else alpha))
    scale = np.asarray(1.0 / np.sqrt(c_beta), dtype=gram.dtype)
    t = np.tanh(gram.data * scale)
    alpha = engine._operands(gram, alpha)[1]
    scaled_t = t * alpha.data
    m = engine._operands(engine.Tensor(scaled_t), m)[1]
    out = scaled_t + m.data
    dev = out - m.data
    if np.abs(dev, out=dev).max(initial=0) > radius:
        over = dev > radius
        while over.any():
            out[over] = np.nextafter(out[over], np.broadcast_to(m.data, out.shape)[over])
            over = np.abs(out - m.data) > radius

    def bwd(g):
        g_t = engine._unbroadcast(g, t.shape)
        return (g_t * alpha.data * (1.0 - t * t) * scale if gram.requires_grad else None,
                engine._unbroadcast(g_t * t, alpha.shape) if alpha.requires_grad else None,
                engine._unbroadcast(g, m.shape) if m.requires_grad else None)

    return engine._make(out, (gram, alpha, m), bwd)


def temporal_aggregate(x, weight, bias, k_t):
    """Convolution along the within-window time axis plus identity residual."""
    return engine.add(conv3d_axis(x, weight, bias, axis="T", k=k_t), x)


def tsa_block_forward(x, params, config, mode, score_sink=None):
    """One block: multi-head scores on values, head concat, token-axis FFN
    with residuals, then temporal aggregation. Accepts (C,T_w,S,U) or a
    batched (N,C,T_w,S,U) input; output has c_out channels, other axes kept.

    If `score_sink` is a list, the per-head score arrays are appended to it
    (for attention export).
    """
    x = engine.astensor(x)
    cb = params.c_beta(x.shape[-3], x.shape[-2])

    heads = []
    for h in range(config.heads):
        q, k, v = qkv_project(x, params, h)
        scores = attention_scores(q, k, params.alphas[h], params.ms[h], cb)
        if score_sink is not None:
            score_sink.append(np.array(scores.data))
        heads.append(apply_scores(scores, v))
    xh = concat(heads, axis=-4) if len(heads) > 1 else heads[0]

    # token-axis convolution, normalized and activated
    xhat = conv3d_axis(xh, params.ffn_conv_weight, params.ffn_conv_bias,
                       axis="U", k=config.k_u)
    xhat = leaky_relu(batchnorm(xhat, params.ffn_norm, mode), config.gamma)

    if params.res_weight is not None:
        res = pointwise_conv3d(x, params.res_weight, params.res_bias)
    else:
        res = x
    ffn_in = engine.add(xhat, res)
    xacc = engine.add(pointwise_conv3d(ffn_in, params.ffn_pw_weight, params.ffn_pw_bias), res)

    out = temporal_aggregate(xacc, params.ta_weight, params.ta_bias, config.k_t)
    return leaky_relu(batchnorm(out, params.ta_norm, mode), config.gamma)
