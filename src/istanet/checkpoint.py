"""Bit-exact checkpoint format.

Layout:
    line 1: magic "ISTACKPT 1"
    line 2: one-line UTF-8 JSON with the model/train configs, epoch counter,
            rng state and a blob manifest [{name, shape, offset}] where
            offsets count float32 elements into the binary section
    then:   little-endian float32 blobs, concatenated in manifest order.

save(load(x)) is byte-identical; parameter names and shapes are validated
against the config-built model on load.
"""

import json

import numpy as np

from .engine import UsageError
from .model import ISTANet, ModelConfig, TrainConfig

MAGIC = b"ISTACKPT 1"


def _rng_state_to_json(rng):
    state = rng.bit_generator.state
    return json.loads(json.dumps(state, default=int))


def _rng_from_json(state):
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state
    return rng


def save_checkpoint(path, model, train_config=None, optimizer=None, epoch=0, rng=None):
    blobs = []
    for p in model.parameters():
        blobs.append((p.name, p.data))
    for name, buf in model.buffers():
        blobs.append((name, buf))
    if optimizer is not None:
        blobs.extend(optimizer.state_blobs())

    manifest = []
    offset = 0
    payload = []
    for name, arr in blobs:
        arr32 = np.ascontiguousarray(arr, dtype="<f4")
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        payload.append(arr32.tobytes())
        offset += arr32.size

    header = {
        "model_config": model.config.to_dict(),
        "train_config": train_config.to_dict() if train_config else None,
        "epoch": epoch,
        "rng_state": _rng_state_to_json(rng) if rng is not None else None,
        "blobs": manifest,
    }
    with open(path, "wb") as f:
        f.write(MAGIC + b"\n")
        f.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        f.write(b"\n")
        for chunk in payload:
            f.write(chunk)


def load_checkpoint(path, dtype=np.float32):
    """Rebuild the model (and optional train config / rng / epoch) from disk."""
    with open(path, "rb") as f:
        raw = f.read()
    nl1 = raw.find(b"\n")
    if nl1 < 0 or raw[:nl1] != MAGIC:
        raise UsageError(f"{path}: not a checkpoint (bad magic)")
    nl2 = raw.find(b"\n", nl1 + 1)
    header = json.loads(raw[nl1 + 1:nl2].decode("utf-8"))
    binary = raw[nl2 + 1:]

    config = ModelConfig.from_dict(header["model_config"])
    model = ISTANet(config, dtype=dtype)

    values = {}
    for entry in header["blobs"]:
        size = int(np.prod(entry["shape"])) if entry["shape"] else 1
        start = entry["offset"] * 4
        arr = np.frombuffer(binary, dtype="<f4", count=size, offset=start)
        values[entry["name"]] = arr.reshape(entry["shape"])

    for p in model.parameters():
        if p.name not in values:
            raise UsageError(f"checkpoint is missing parameter {p.name!r}")
        stored = values[p.name]
        if tuple(stored.shape) != p.shape:
            raise UsageError(
                f"checkpoint parameter {p.name!r} has shape {stored.shape}, "
                f"model expects {p.shape}")
        p.data = stored.astype(p.data.dtype)

    for name, buf in model.buffers():
        if name in values:
            buf[...] = values[name]

    train_config = (TrainConfig.from_dict(header["train_config"])
                    if header.get("train_config") else None)
    rng = _rng_from_json(header["rng_state"]) if header.get("rng_state") else None
    velocities = {n: v for n, v in values.items() if n.startswith("opt.")}
    return model, train_config, header.get("epoch", 0), rng, velocities

