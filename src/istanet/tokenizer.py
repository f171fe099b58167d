"""Interactive spatiotemporal tokenization with entity rearrangement.

A 3D non-overlapping window of size (t_w, j_w, e_w) slides over the
(T, J, E) axes of a padded skeleton tensor, producing U tokens of shape
(C, t_w, S) with S = j_w * e_w. Token index layout is frozen: the temporal
block is outermost, then the joint block, then the entity block, and
within-token flattening is joint-major / entity-minor. The positional
encoding downstream depends on this ordering.
"""

from dataclasses import dataclass

import numpy as np

from . import engine
from .data import SkeletonSequence, pad_to_windows
from .engine import (BatchNormState, ConfigurationError, DimensionError,
                     Parameter, UsageError, batchnorm, leaky_relu,
                     pointwise_conv3d)


@dataclass(frozen=True)
class WindowSpec:
    t_w: int
    j_w: int
    e_w: int

    def __post_init__(self):
        if min(self.t_w, self.j_w, self.e_w) < 1:
            raise ConfigurationError(f"window lengths must all be >= 1, got {self}")

    def as_tuple(self):
        return (self.t_w, self.j_w, self.e_w)

    def u_layout(self, t, j, e):
        """(temporal blocks, joint blocks, entity blocks) for raw dims."""
        return (-(-t // self.t_w), -(-j // self.j_w), -(-e // self.e_w))


def entity_rearrange(seq, rng, frozen=()):
    """Permute the entity axis uniformly at random (training only).

    Indices listed in `frozen` keep their slots; the remaining entities are
    permuted uniformly among themselves.
    """
    e = seq.data.shape[3]
    perm = np.arange(e)
    movable = [i for i in range(e) if i not in set(frozen)]
    perm[movable] = rng.permutation(movable)
    return SkeletonSequence(data=seq.data[:, :, :, perm], label=seq.label)


def partition(data, window):
    """Split a padded (C,T',J',E') array into (C,T_w,S,U) tokens.

    Bijective on scalar positions: token u = (tau*nJ + jb)*nE + eb for block
    indices (tau, jb, eb); within-token index s = local_j*e_w + local_e.
    """
    w = window if isinstance(window, WindowSpec) else WindowSpec(*window)
    c, t, j, e = data.shape
    for name, n, wlen in (("T", t, w.t_w), ("J", j, w.j_w), ("E", e, w.e_w)):
        if n % wlen:
            raise UsageError(
                f"axis {name} of length {n} is not divisible by window {wlen}; pad first")
    nt, nj, ne = t // w.t_w, j // w.j_w, e // w.e_w
    out = data.reshape(c, nt, w.t_w, nj, w.j_w, ne, w.e_w)
    out = out.transpose(0, 2, 4, 6, 1, 3, 5)
    return np.ascontiguousarray(out.reshape(c, w.t_w, w.j_w * w.e_w, nt * nj * ne))


def unpartition(tokens, window, dims):
    """Inverse of `partition` for padded dims (T',J',E')."""
    w = window if isinstance(window, WindowSpec) else WindowSpec(*window)
    t, j, e = dims
    c = tokens.shape[0]
    nt, nj, ne = t // w.t_w, j // w.j_w, e // w.e_w
    expected = (c, w.t_w, w.j_w * w.e_w, nt * nj * ne)
    if tokens.shape != expected:
        raise DimensionError(
            f"unpartition: token shape {tokens.shape} does not match layout {expected}")
    out = tokens.reshape(c, w.t_w, w.j_w, w.e_w, nt, nj, ne)
    out = out.transpose(0, 4, 1, 5, 2, 6, 3)
    return np.ascontiguousarray(out.reshape(c, t, j, e))


def tokenize(seq_data, window):
    """pad -> partition; returns (tokens, u_layout) for raw (C,T,J,E) data."""
    w = window if isinstance(window, WindowSpec) else WindowSpec(*window)
    _, t, j, e = seq_data.shape
    padded = pad_to_windows(seq_data, w.as_tuple())
    return partition(padded, w), w.u_layout(t, j, e)


class EmbedParams:
    """Token embedding: pointwise conv C -> C', batchnorm, LeakyReLU."""

    def __init__(self, c_in, c_out, gamma, rng=None, dtype=np.float32, name="embed"):
        if c_out < c_in:
            raise ConfigurationError(
                f"embedding must not shrink channels: C'={c_out} < C={c_in}")
        if gamma < 0:
            raise ConfigurationError(f"activation slope must be >= 0, got {gamma}")
        self.c_in = c_in
        self.c_out = c_out
        self.gamma = gamma
        rng = rng if rng is not None else np.random.default_rng(0)
        bound = 1.0 / np.sqrt(c_in)
        self.weight = Parameter(f"{name}.weight",
                                rng.uniform(-bound, bound, size=(c_out, c_in)), dtype=dtype)
        self.bias = Parameter(f"{name}.bias", np.zeros(c_out), dtype=dtype)
        self.norm = BatchNormState(f"{name}.norm", c_out, dtype=dtype)

    def parameters(self):
        return [self.weight, self.bias] + self.norm.parameters()

    def buffers(self):
        return self.norm.buffers()


def embed(tokens, params, mode):
    """Embed raw tokens (C,T_w,S,U) or a batch (N,C,T_w,S,U) to C' channels."""
    x = engine.astensor(tokens)
    out = pointwise_conv3d(x, params.weight, params.bias)
    out = batchnorm(out, params.norm, mode)
    return leaky_relu(out, params.gamma)


def token_rows(tokens, u_layout, window):
    """Iterate (u, t_block, j_block, e_block, s, c, value) over raw tokens;
    drives the inspect-tokens CSV."""
    w = window if isinstance(window, WindowSpec) else WindowSpec(*window)
    _, nj, ne = u_layout
    c_dim, t_w, s_dim, u_dim = tokens.shape
    for u in range(u_dim):
        eb = u % ne
        jb = (u // ne) % nj
        tb = u // (ne * nj)
        for s in range(s_dim):
            for c in range(c_dim):
                for lt in range(t_w):
                    yield u, tb, jb, eb, s, c, tokens[c, lt, s, u]
