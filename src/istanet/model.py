"""Full network assembly: tokenizer embedding, a chain of token
self-attention blocks, global average pooling and a linear classifier,
plus the loss, optimizer step and schedule used for training.
"""

import contextlib
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import engine
from .attention import TSABlockConfig, TSABlockParams, tsa_block_forward
from .data import ValidationError, named
from .engine import (ConfigurationError, Parameter, UsageError,
                     check_field_types, linear, uniform_init)
from .tokenizer import EmbedParams, check_window, embed, tokenize, u_layout


@dataclass
class ModelConfig:
    window: tuple[int, ...]
    in_channels: int
    frames: int
    joints: int
    entities: int
    embed_channels: int
    gamma: float
    blocks: list
    num_classes: int
    frozen_entities: tuple[int, ...] = ()

    def __post_init__(self):
        self.window = tuple(self.window)
        self.frozen_entities = tuple(self.frozen_entities)
        check_field_types(self, floors=(
            ("in_channels", 1), ("frames", 1), ("joints", 1), ("entities", 1),
            ("embed_channels", self.in_channels), ("num_classes", 2), ("gamma", 0)))
        check_window(self.window, (self.frames, self.joints, self.entities))
        if not all(0 <= e < self.entities for e in self.frozen_entities):
            raise ConfigurationError(f"frozen_entities must be entity indices in "
                                     f"[0,{self.entities}), got {list(self.frozen_entities)}")
        blocks = []
        for i, b in enumerate(self.blocks):
            try:
                blocks.append(b if isinstance(b, TSABlockConfig) else TSABlockConfig(**b))
            except ConfigurationError as e:
                raise ConfigurationError(f"blocks[{i}]: {e}") from None
        self.blocks = blocks
        prev = self.embed_channels
        for i, b in enumerate(self.blocks):
            if b.c_in != prev:
                raise ConfigurationError(
                    f"block {i} expects c_in={b.c_in} but the chain provides {prev}")
            prev = b.c_out

    def check_sample(self, seq):
        """seq, when its (C, T, J, E) are this config's; else ValidationError."""
        dims = (self.in_channels, self.frames, self.joints, self.entities)
        if seq.data.shape != dims:
            raise ValidationError(
                f"sequence dims {seq.data.shape} do not match model config {dims}")
        return seq

    def u_layout(self):
        return u_layout((self.frames, self.joints, self.entities), self.window)

    def num_tokens(self):
        nt, nj, ne = self.u_layout()
        return nt * nj * ne

    to_dict = asdict

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


@dataclass
class TrainConfig:
    lr: float = 0.1
    momentum: float = 0.9
    lr_decay: float = 0.1
    decay_epochs: tuple[int, ...] = (60, 90)
    batch_size: int = 32
    epochs: int = 110
    label_smoothing: float = 0.1
    temperature: float = 1.0
    er_enabled: bool = True
    seed: int = 0
    checkpoint_interval: int = 1

    def __post_init__(self):
        self.decay_epochs = tuple(self.decay_epochs)
        check_field_types(self, floors=(
            ("batch_size", 1), ("epochs", 1), ("seed", 0), ("checkpoint_interval", 0),
            ("lr", 0), ("lr_decay", 0), ("label_smoothing", 0, 1), ("momentum", 0, 1)))
        if not self.temperature * float(np.finfo(np.float32).max) >= 1:
            raise ConfigurationError(f"temperature must be at least 1/(float32 max), about "
                                     f"2.939e-39, got {self.temperature}")

    to_dict = asdict

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


# Elements of one evaluation chunk's activation at the widest channel count.
# With the README blocks this gives 20 rows at U=20 and at U=400, where
# chunks of 12 to 20 and of 16 to 32 rows ran fastest; fewer rows pay more
# per-op overhead per sample. Attention keeps no batched score map of more
# than attention.SCORE_BLOCK_ELEMENTS entries, so this bounds the activation
# only.
EVAL_CHUNK_ELEMENTS = 1 << 18


def state_elements(config):
    """Elements of the parameters and buffers ISTANet(config) holds, counted
    from the config without allocating them."""
    c_e, u = config.embed_channels, config.num_tokens()
    total = c_e * (config.in_channels + 5)  # conv weight and bias, batchnorm's four
    for b in config.blocks:
        total += b.heads * (2 * b.c_qkv * (b.c_in + 1) + 1 + u * u)  # q, k, alpha, M
        # ffn conv, ffn pointwise and ta conv weights; their biases and both batchnorms
        total += b.c_out * (b.c_in * b.k_u + b.c_out * (1 + b.k_t) + 11)
        if b.c_out != b.c_in:
            total += b.c_out * (b.c_in + 1)
    c_last = config.blocks[-1].c_out if config.blocks else c_e
    return total + config.num_classes * (c_last + 1)


class ISTANet:
    """The network: embed -> L TSA blocks -> GAP over (T_w,S,U) -> FC."""

    def __init__(self, config, rng=None, dtype=np.float32):
        """A size that numpy refuses to allocate, or that does not fit in
        memory, raises ConfigurationError."""
        self.config = config
        self.dtype = np.dtype(dtype).type
        rng = rng if rng is not None else np.random.default_rng(0)
        try:
            u = config.num_tokens()
            self.embed_params = EmbedParams(config.in_channels, config.embed_channels,
                                            config.gamma, rng, dtype=dtype)
            self.blocks = [TSABlockParams(b, u, rng, dtype=dtype, name=f"blocks.{i}")
                           for i, b in enumerate(config.blocks)]
            c_last = config.blocks[-1].c_out if config.blocks else config.embed_channels
            self.fc_weight = Parameter("fc.weight", uniform_init(rng, config.num_classes, c_last),
                                       dtype=dtype)
            self.fc_bias = Parameter("fc.bias", np.zeros(config.num_classes), dtype=dtype)
        except ValueError as e:
            raise ConfigurationError(f"cannot build the model ({e}): {config}") from None
        except MemoryError:
            raise ConfigurationError(
                f"cannot build the model: its {state_elements(config)} parameter and "
                f"buffer elements do not fit in memory: {config}") from None

    def parameters(self):
        params = self.embed_params.parameters()
        for b in self.blocks:
            params += b.parameters()
        params += [self.fc_weight, self.fc_bias]
        names = [p.name for p in params]
        assert len(names) == len(set(names)), "duplicate parameter names"
        return params

    def buffers(self):
        bufs = list(self.embed_params.buffers())
        for b in self.blocks:
            bufs += b.buffers()
        return bufs

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    def tokenize_sample(self, seq):
        """seq -> raw (C,T_w,S,U) token array in the model's dtype."""
        tokens, _ = tokenize(self.config.check_sample(seq).data, self.config.window)
        return tokens.astype(self.dtype)

    def forward_tokens(self, tokens, mode, score_sink=None):
        """Raw token array (or batch) -> logits Tensor. Infer mode runs under
        engine.no_grad(), so its logits record no tape."""
        with engine.no_grad() if mode == "infer" else contextlib.nullcontext():
            x = embed(engine.Tensor(tokens), self.embed_params, mode)
            for params in self.blocks:
                sink = None
                if score_sink is not None:
                    sink = []
                    score_sink.append(sink)
                x = tsa_block_forward(x, params, mode, score_sink=sink)
            return linear(engine.mean_pool(x), self.fc_weight, self.fc_bias)

    def forward_classify(self, seq, mode):
        """Single sequence -> logits (num_classes,). Applies no entity
        rearrangement (train() does that); infer mode records no tape."""
        return self.forward_tokens(self.tokenize_sample(seq), mode)

    def eval_chunk_rows(self):
        """Rows per classify_batch chunk, at least one: EVAL_CHUNK_ELEMENTS
        over one (C, t_w, S, U) activation at the widest channel count."""
        cfg = self.config
        width = max([cfg.embed_channels] + [b.c_out for b in cfg.blocks])
        return max(1, EVAL_CHUNK_ELEMENTS // (width * math.prod(cfg.window) * cfg.num_tokens()))

    def classify_batch(self, seqs):
        """Sequences -> infer-mode logits (len(seqs), num_classes) as an
        ndarray, forwarded in chunks with no tape. Each row's logits equal
        forward_classify's bit for bit."""
        tokens = [self.tokenize_sample(seq) for seq in seqs]
        rows = self.eval_chunk_rows()
        return np.concatenate([self.forward_tokens(np.stack(tokens[i:i + rows]), "infer").data
                               for i in range(0, len(tokens), rows)])


def ce_label_smoothing(logits, labels, smoothing, temperature):
    """Mean cross entropy with smoothed targets over tempered softmax, for
    (N,K) logits, a Tensor or an ndarray, and N integer labels: one node with
    a closed-form gradient, as PyTorch's cross_entropy(label_smoothing=...).
    Both directions take the steps of a chain of 1/T scale, log-softmax,
    target product and sum nodes, 1/T and 1/N in the logits' dtype, for its
    bytes, which the textbook (softmax - target) / (N T) would not give."""
    logits = engine.astensor(logits)
    labels = np.asarray(labels)
    n, k = logits.shape
    if (labels < 0).any() or (labels >= k).any():
        raise UsageError(f"labels must lie in [0,{k}), got {labels}")
    inv_t, inv_n = (np.asarray(1.0 / d, dtype=logits.dtype) for d in (temperature, n))
    z = logits.data * inv_t
    shifted = z - z.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    neg_target = -np.full((n, k), smoothing / k, dtype=logits.dtype)
    neg_target[np.arange(n), labels] -= 1.0 - smoothing

    def bwd(g):
        gl = (g * inv_n) * neg_target  # the gradient of logp, then of z and the logits
        return ((gl - np.exp(logp) * gl.sum(axis=-1, keepdims=True)) * inv_t,)

    return engine._make((logp * neg_target).sum(axis=-1).sum() * inv_n, (logits,), bwd)


class NesterovSGD:
    """SGD with Nesterov momentum:  v <- mu*v + g;  w <- w - lr*(g + mu*v)."""

    def __init__(self, params, momentum=0.9):
        self.params = list(params)
        self.momentum = momentum
        self.velocity = {p.name: np.zeros_like(p.data) for p in self.params}

    def step(self, lr):
        """Steps every parameter. A step that overflows is not warned about:
        train() checks the stepped parameters and aborts on a non-finite one."""
        mu = self.momentum
        with np.errstate(over="ignore", invalid="ignore"):
            for p in self.params:
                if p.grad is None:
                    raise UsageError(f"parameter {p.name} has no gradient; run backward first")
                g = p.grad.astype(p.data.dtype, copy=False)
                v = mu * self.velocity[p.name] + g
                self.velocity[p.name] = v
                p.data = p.data - lr * (g + mu * v)


def lr_schedule(epoch, train_config):
    """Step decay: initial lr times decay^(milestones passed)."""
    passed = sum(1 for m in train_config.decay_epochs if epoch >= m)
    return train_config.lr * (train_config.lr_decay ** passed)


def topk_accuracy(model, seqs, labels, k=1):
    """Top-k accuracy of infer-mode predictions over preprocessed sequences,
    and per-class [hits, total] counts."""
    if not seqs:
        raise UsageError("cannot evaluate an empty split")
    topk = np.argsort(model.classify_batch(seqs), axis=-1)[:, ::-1][:, :k]
    per_class = np.zeros((model.config.num_classes, 2), dtype=int)  # [hits, total]
    for label, row in zip(labels, topk):
        per_class[label] += (int(label in row), 1)
    return int(per_class[:, 0].sum()) / len(seqs), per_class


def evaluate_topk(model, manifest, entries, k=1, preprocess=None):
    """Top-k accuracy of infer-mode predictions over manifest entries: load
    and preprocess every entry and check that it fits the model, then score
    them with topk_accuracy. An error of preprocess or of the check names the
    entry's file."""
    seqs = [manifest.load(entry) for entry in entries]
    check = model.config.check_sample
    fit = check if preprocess is None else lambda seq: check(preprocess(seq))
    seqs = [named(manifest.path(e), fit, seq) for e, seq in zip(entries, seqs)]
    return topk_accuracy(model, seqs, [entry.label for entry in entries], k)
