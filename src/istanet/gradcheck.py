"""Finite-difference verification of the reverse-mode gradients.

Central differences at 64-bit precision against the analytic gradients of
the full classification loss, reported per named parameter tensor. The
finite-difference side never touches the autodiff tape, so the two routes
stay independent.

A central difference whose step straddles a leaky-ReLU kink averages the two
slopes, so larger configs can fail with no gradient at fault: the README
config at seed 3 fails on 10 parameters, and passes with every slope at 1.0.
"""

import numpy as np

from . import engine
from .attention import TSABlockConfig
from .model import ISTANet, ModelConfig, ce_label_smoothing
from .synth import make_sample


def miniature_config(num_classes=3):
    """Tiny config (L=1, H=2, C'=4, U=4) used for the default gradcheck."""
    return ModelConfig(
        window=(2, 1, 2),
        in_channels=3, frames=4, joints=2, entities=2,
        embed_channels=4, gamma=0.1,
        blocks=[TSABlockConfig(c_in=4, c_out=4, heads=2, c_qkv=2, k_u=3, k_t=3, gamma=0.1)],
        num_classes=num_classes,
    )


def _loss(model, tokens, label):
    """Loss of one (C,T_w,S,U) token array, forwarded as a batch of one."""
    logits = model.forward_tokens(tokens[None], mode="train")
    return ce_label_smoothing(logits, [label], smoothing=0.1, temperature=1.0)


def finite_difference_check(model, tokens, label):
    """Compare analytic and central-difference gradients for every parameter.

    Returns {parameter name: max relative error}. Model must be 64-bit.
    """
    eps = 1e-5
    loss = _loss(model, tokens, label)
    model.zero_grad()
    engine.backward(loss)
    analytic = {p.name: np.array(p.grad, dtype=np.float64) for p in model.parameters()}

    report = {}
    for p in model.parameters():
        flat = p.data.reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = _loss(model, tokens, label).item()
            flat[i] = orig - eps
            lo = _loss(model, tokens, label).item()
            flat[i] = orig
            fd[i] = (hi - lo) / (2 * eps)
        ad = analytic[p.name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(ad)), 1e-6)
        report[p.name] = float(np.max(np.abs(fd - ad) / denom))
    return report


def run_gradcheck(config=None, seed=0, tolerance=1e-4):
    """Build a 64-bit model from `config` (default miniature), check every
    parameter, and return (report, offenders)."""
    config = config or miniature_config()
    rng = np.random.default_rng(seed)
    model = ISTANet(config, rng=rng, dtype=np.float64)
    seq = make_sample(label=0, t=config.frames, j=config.joints,
                      noise=0.05, rng=rng)
    tokens = model.tokenize_sample(seq)
    report = finite_difference_check(model, tokens, label=seq.label)
    offenders = {k: v for k, v in report.items() if v > tolerance}
    return report, offenders
