"""Shared test utilities: a finite-difference oracle kept independent of the
reverse-mode path it checks, reference primitives (sub, div, sqrt, tanh) and
the attention score map composed of primitive ops, malformed checkpoints, and
the committed v1 checkpoint fixture."""

import json
import pathlib

import numpy as np

from istanet import engine
from istanet.attention import TSABlockConfig
from istanet.checkpoint import save_checkpoint
from istanet.model import ISTANet, ModelConfig


def fd_grad(fn, arrays, wrt, eps=1e-6):
    """Central-difference gradient of scalar fn(*arrays) w.r.t. arrays[wrt].

    fn receives plain numpy arrays and must return a float.
    """
    base = [np.array(a, dtype=np.float64) for a in arrays]
    target = base[wrt]
    grad = np.zeros_like(target)
    flat = target.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(*base)
        flat[i] = orig - eps
        lo = fn(*base)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def rel_err(a, b, floor=1e-6):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def check_op_gradients(op, arrays, eps=1e-6, tol=1e-4, loss="sumsq"):
    """Compare reverse-mode gradients of sum(op(...)^2) (or plain sum) against
    central differences for every input; returns the worst relative error."""
    tensors = [engine.Tensor(np.array(a, dtype=np.float64), requires_grad=True)
               for a in arrays]
    out = op(*tensors)
    scalar = (out * out).sum() if loss == "sumsq" else out.sum()
    scalar.backward()

    def forward_np(*arrs):
        res = op(*[engine.Tensor(a) for a in arrs]).data
        return float((res * res).sum() if loss == "sumsq" else res.sum())

    worst = 0.0
    for i, t in enumerate(tensors):
        fd = fd_grad(forward_np, arrays, wrt=i, eps=eps)
        worst = max(worst, rel_err(fd, t.grad))
    assert worst <= tol, f"gradient mismatch: rel err {worst:.3e} > {tol}"
    return worst


def sub(a, b):
    """a - b as a tape node, with the engine's scalar-operand dtype rule."""
    a, b = engine._operands(a, b)

    def bwd(g):
        return engine._binary_grads(a, b, lambda: g, lambda: -g)

    return engine._make(a.data - b.data, (a, b), bwd)


def div(a, b):
    """a / b as a tape node, with the engine's scalar-operand dtype rule."""
    a, b = engine._operands(a, b)

    def bwd(g):
        return engine._binary_grads(a, b, lambda: g / b.data,
                                    lambda: -g * a.data / (b.data * b.data))

    return engine._make(a.data / b.data, (a, b), bwd)


def sqrt(a):
    out = np.sqrt(a.data)
    return engine._make(out, (a,), lambda g: (g * 0.5 / out,))


def tanh(a):
    out = np.tanh(a.data)
    return engine._make(out, (a,), lambda g: (g * (1.0 - out * out),))


def composed_attention_scores(q, k, alpha, m, c_beta):
    """Reference for attention.attention_scores: the chain of primitive engine
    ops (contract, scale, tanh, alpha, + M) and an ulp nudge of entries
    outside the |score - M| <= |alpha| band, as a node of its own."""
    gram = engine.attention_contract(q, k)
    scaled = engine.mul(gram, 1.0 / np.sqrt(c_beta))
    raw = engine.add(engine.mul(tanh(scaled), alpha), m)
    center = m.data if isinstance(m, engine.Tensor) else np.asarray(m)
    radius = abs(float(alpha.data if isinstance(alpha, engine.Tensor) else alpha))
    data = np.array(raw.data)
    over = np.abs(data - center) > radius
    while over.any():
        data[over] = np.nextafter(data[over], np.broadcast_to(center, data.shape)[over])
        over = np.abs(data - center) > radius
    return engine._make(data, (raw,), lambda g: (g,))


def _edit_header(edit):
    """Corruption that replaces a checkpoint's header line by edit(line)."""
    def corrupt(raw):
        magic, header, payload = raw.split(b"\n", 2)
        return b"\n".join([magic, edit(header), payload])
    return corrupt


def _edit_json(edit):
    """Corruption that applies edit(doc) to the decoded header in place."""
    def rewrite(header):
        doc = json.loads(header)
        edit(doc)
        return json.dumps(doc).encode()
    return _edit_header(rewrite)


def _blob(doc, name):
    return next(b for b in doc["blobs"] if b["name"] == name)


# the miniature config with frozen_entities (1,), trained one Nesterov step
# (lr 0.1) on one synthetic sample and saved in the v1 format with a
# non-default TrainConfig, epoch 1, optimizer velocities and RNG state
MINIATURE_V1_CHECKPOINT = pathlib.Path(__file__).parent / "data" / "miniature_v1.ckpt"

# case -> (corruption of a saved checkpoint's bytes, expected error text)
CHECKPOINT_CORRUPTIONS = {
    "header-not-json": (_edit_header(lambda h: h[:-1]), "corrupt checkpoint header"),
    "header-not-object": (_edit_header(lambda h: b"[1, 2]"), "not a JSON object"),
    "header-without-model-config": (_edit_json(lambda d: d.pop("model_config")),
                                    "no 'model_config'"),
    "header-without-blobs": (_edit_json(lambda d: d.pop("blobs")), "no 'blobs'"),
    "model-config-not-object": (_edit_json(lambda d: d.update(model_config=[1])),
                                "bad config or rng state"),
    "rng-state-malformed": (_edit_json(lambda d: d.update(rng_state={"state": 1})),
                            "bad config or rng state"),
    "header-without-end": (lambda raw: raw[:raw.index(b"\n", raw.index(b"\n") + 1)],
                           "no end of header"),
    "blob-entry-malformed": (_edit_json(lambda d: d["blobs"][0].pop("offset")),
                             "malformed checkpoint blob entry"),
    "truncated-payload": (lambda raw: raw[:-4], "runs past the end of the file"),
    "trailing-bytes": (lambda raw: raw + bytes(4), "payload is .* bytes, manifest describes"),
    "missing-buffer": (_edit_json(lambda d: _blob(d, "embed.norm.running_var").update(
        name="embed.norm.running_vax")), "missing buffer 'embed.norm.running_var'"),
    "buffer-wrong-shape": (_edit_json(lambda d: _blob(d, "embed.norm.running_var").update(
        shape=[1, d["model_config"]["embed_channels"]])),
        "buffer 'embed.norm.running_var' has shape"),
}


def write_corrupt_checkpoint(path, case):
    """Save a small model to `path`, then corrupt the file as `case` says;
    returns the error text load_checkpoint should give."""
    config = ModelConfig(
        window=(2, 1, 2), in_channels=3, frames=4, joints=2, entities=2,
        embed_channels=4, gamma=0.1,
        blocks=[TSABlockConfig(c_in=4, c_out=4, heads=2, c_qkv=2)], num_classes=3)
    save_checkpoint(path, ISTANet(config, rng=np.random.default_rng(0)))
    corrupt, message = CHECKPOINT_CORRUPTIONS[case]
    path.write_bytes(corrupt(path.read_bytes()))
    return message
