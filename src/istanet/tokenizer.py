"""Interactive spatiotemporal tokenization with entity rearrangement.

A 3D non-overlapping window (t_w, j_w, e_w), a plain tuple of three
integers, slides over the (T, J, E) axes of a padded skeleton tensor,
producing U tokens of shape (C, t_w, S) with S = j_w * e_w. The functions
here trust the window: `check_window` holds the rule, which `ModelConfig`
and `inspect tokens` apply, and `data.compute_padding` refuses a length
below 1 for a bare `tokenize` call. Token index layout is frozen: the
temporal block is outermost, then the joint block, then the entity block,
and within-token flattening is joint-major / entity-minor. The positional
encoding downstream depends on this ordering.
"""

import numpy as np

from .data import SkeletonSequence, pad_to_windows
from .engine import (BatchNormState, ConfigurationError, Parameter,
                     UsageError, batchnorm, leaky_relu, pointwise_conv3d,
                     uniform_init)


def check_window(window, dims):
    """Raise ConfigurationError unless window is three lengths, each >= 1 and
    at most its axis length in dims (T, J, E): padding repeats an axis to the
    window's length, which for a huge window asks for gigabytes."""
    if len(window) != 3 or not all(1 <= w <= n for w, n in zip(window, dims)):
        raise ConfigurationError(f"window {list(window)} must be three lengths t,j,e, each >= 1 "
                                 f"and at most its axis in (T, J, E) = {tuple(dims)}")


def u_layout(dims, window):
    """(temporal blocks, joint blocks, entity blocks) for raw dims (T,J,E)."""
    return tuple(-(-n // w) for n, w in zip(dims, window))


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
    t_w, j_w, e_w = window
    c, t, j, e = data.shape
    for name, n, wlen in (("T", t, t_w), ("J", j, j_w), ("E", e, e_w)):
        if n % wlen:
            raise UsageError(
                f"axis {name} of length {n} is not divisible by window {wlen}; pad first")
    nt, nj, ne = t // t_w, j // j_w, e // e_w
    out = data.reshape(c, nt, t_w, nj, j_w, ne, e_w)
    out = out.transpose(0, 2, 4, 6, 1, 3, 5)
    return np.ascontiguousarray(out.reshape(c, t_w, j_w * e_w, nt * nj * ne))


def tokenize(seq_data, window):
    """pad -> partition; returns (tokens, u_layout) for raw (C,T,J,E) data."""
    padded = pad_to_windows(seq_data, window)
    return partition(padded, window), u_layout(seq_data.shape[1:], window)


class EmbedParams:
    """Token embedding: pointwise conv C -> C', batchnorm, LeakyReLU."""

    def __init__(self, c_in, c_out, gamma, rng, dtype=np.float32):
        self.gamma = gamma
        self.weight = Parameter("embed.weight", uniform_init(rng, c_out, c_in), dtype=dtype)
        self.bias = Parameter("embed.bias", np.zeros(c_out), dtype=dtype)
        self.norm = BatchNormState("embed.norm", c_out, dtype=dtype)

    def parameters(self):
        return [self.weight, self.bias] + self.norm.parameters()

    def buffers(self):
        return self.norm.buffers()


def embed(tokens, params, mode):
    """Embed a raw token Tensor (C,T_w,S,U) or (N,C,T_w,S,U) to C' channels."""
    out = pointwise_conv3d(tokens, params.weight, params.bias)
    out = batchnorm(out, params.norm, mode)
    return leaky_relu(out, params.gamma)


def token_rows(tokens, layout):
    """Iterate (u, t_block, j_block, e_block, t_offset, s, c, value) over raw
    tokens, t_offset being the frame within the window; drives the
    inspect-tokens CSV."""
    _, nj, ne = layout
    c_dim, t_w, s_dim, u_dim = tokens.shape
    for u in range(u_dim):
        eb = u % ne
        jb = (u // ne) % nj
        tb = u // (ne * nj)
        for s in range(s_dim):
            for c in range(c_dim):
                for lt in range(t_w):
                    yield u, tb, jb, eb, lt, s, c, tokens[c, lt, s, u]
