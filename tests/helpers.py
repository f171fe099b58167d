"""Shared test utilities: a finite-difference oracle kept independent of the
reverse-mode path it checks, and malformed checkpoints."""

import json

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
