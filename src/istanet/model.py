"""Full network assembly: tokenizer embedding, a chain of token
self-attention blocks, global average pooling and a linear classifier,
plus the loss, optimizer step and schedule used for training.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import engine
from .attention import TSABlockConfig, TSABlockParams, tsa_block_forward
from .engine import (ConfigurationError, Parameter, UsageError,
                     check_field_types, log_softmax, linear, uniform_init)
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
        check_field_types(self)
        for name, low in (("in_channels", 1), ("frames", 1), ("joints", 1), ("entities", 1),
                          ("embed_channels", self.in_channels), ("num_classes", 2)):
            if getattr(self, name) < low:
                raise ConfigurationError(
                    f"{name} must be an integer >= {low}, got {getattr(self, name)!r}")
        if self.gamma < 0:
            raise ConfigurationError(f"gamma (activation slope) must be >= 0, got {self.gamma}")
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
        check_field_types(self)
        for name, low in (("batch_size", 1), ("epochs", 1), ("seed", 0),
                          ("checkpoint_interval", 0)):
            if getattr(self, name) < low:
                raise ConfigurationError(
                    f"{name} must be an integer >= {low}, got {getattr(self, name)!r}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ConfigurationError(
                f"label smoothing must be in [0,1), got {self.label_smoothing}")
        if self.temperature <= 0:
            raise ConfigurationError(f"temperature must be > 0, got {self.temperature}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0,1), got {self.momentum}")

    to_dict = asdict

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


# Elements of the largest array of one evaluation chunk: one head's (rows, U, U)
# score map, or one activation at the widest channel count. At U=400, chunks
# of 16 or more rows push the score maps out of L2 and run slower than one
# sample at a time; the activation term keeps a chunk's memory bounded at
# small U, where the score maps alone would allow thousands of rows.
EVAL_CHUNK_ELEMENTS = 1 << 20


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
        """A size that numpy refuses to allocate raises ConfigurationError."""
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
        cfg = self.config
        c, t, j, e = seq.data.shape
        if (c, t, j, e) != (cfg.in_channels, cfg.frames, cfg.joints, cfg.entities):
            raise ConfigurationError(
                f"sequence dims {(c, t, j, e)} do not match model config "
                f"{(cfg.in_channels, cfg.frames, cfg.joints, cfg.entities)}")
        tokens, _ = tokenize(seq.data, cfg.window)
        return tokens.astype(self.dtype)

    def forward_tokens(self, tokens, mode, score_sink=None):
        """Raw token array (or batch) -> logits Tensor."""
        x = embed(engine.Tensor(tokens), self.embed_params, mode)
        for params in self.blocks:
            sink = None
            if score_sink is not None:
                sink = []
                score_sink.append(sink)
            x = tsa_block_forward(x, params, mode, score_sink=sink)
        pooled = engine.tensor_mean(x, axis=(-3, -2, -1))
        return linear(pooled, self.fc_weight, self.fc_bias)

    def forward_classify(self, seq, mode):
        """Single sequence -> logits (num_classes,). Applies no entity
        rearrangement (train() does that); infer mode records no tape."""
        tokens = self.tokenize_sample(seq)
        if mode == "train":
            return self.forward_tokens(tokens, mode)
        with engine.no_grad():
            return self.forward_tokens(tokens, mode)

    def eval_chunk_rows(self):
        """Rows per classify_batch chunk: EVAL_CHUNK_ELEMENTS over the larger
        of one head's (U, U) score map and one (C, t_w, S, U) activation at
        the widest channel count."""
        cfg = self.config
        u = cfg.num_tokens()
        width = max([cfg.embed_channels] + [b.c_out for b in cfg.blocks])
        return max(1, EVAL_CHUNK_ELEMENTS // max(u * u, width * math.prod(cfg.window) * u))

    def classify_batch(self, seqs):
        """Sequences -> infer-mode logits (len(seqs), num_classes) as an
        ndarray, forwarded in chunks with no tape. Each row's logits equal
        forward_classify's bit for bit."""
        tokens = [self.tokenize_sample(seq) for seq in seqs]
        rows = self.eval_chunk_rows()
        with engine.no_grad():
            return np.concatenate([self.forward_tokens(np.stack(tokens[i:i + rows]), "infer").data
                                   for i in range(0, len(tokens), rows)])


def ce_label_smoothing(logits, labels, smoothing, temperature):
    """Mean cross entropy with smoothed targets over tempered softmax, for
    (N,K) logits, a Tensor or an ndarray, and N integer labels."""
    logits = engine.astensor(logits)
    labels = np.asarray(labels)
    n, k = logits.shape
    if (labels < 0).any() or (labels >= k).any():
        raise UsageError(f"labels must lie in [0,{k}), got {labels}")
    logp = log_softmax(engine.mul(logits, 1.0 / temperature), axis=-1)
    target = np.full((n, k), smoothing / k, dtype=logits.dtype)
    target[np.arange(n), labels] += 1.0 - smoothing
    per_sample = engine.tensor_sum(engine.mul(logp, engine.Tensor(-target)), axis=-1)
    return engine.tensor_mean(per_sample)


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
    and preprocess every entry, then score them with topk_accuracy."""
    seqs = [manifest.load(entry) for entry in entries]
    if preprocess is not None:
        seqs = [preprocess(seq) for seq in seqs]
    return topk_accuracy(model, seqs, [entry.label for entry in entries], k)
