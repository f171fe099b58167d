"""Bit-exact checkpoint format.

Layout:
    line 1: magic "ISTACKPT 1"
    line 2: one-line UTF-8 JSON with the model/train configs, epoch counter
            and a blob manifest [{name, shape, offset}] where offsets count
            float32 elements into the binary section, each blob starting
            where the one before it ends
    then:   little-endian float32 blobs, concatenated in manifest order: one
            per parameter, then one per batchnorm running statistic.

A checkpoint holds the model only; it carries the network to evaluation and
inspection, and training cannot resume from it. Files written by earlier
versions also hold the optimizer velocities (blobs named "opt.*", after the
model's) and an "rng_state" header key; they load, and those parts are
ignored.

save(load(x)) is byte-identical. A save writes a temporary file in the
target's directory, fsyncs it, renames it over the target and fsyncs the
directory, so the path holds either the old checkpoint or the new one, never
a partial file, and the rename survives a power cut. On load, the blob
manifest is validated against the payload length, a header config whose
model holds more elements than the payload is refused before the model is
built, and parameter and buffer names and shapes are validated against the
config-built model; a malformed file raises UsageError.
"""

import contextlib
import json
import math
import os

import numpy as np

from .engine import UsageError
from .model import ISTANet, ModelConfig, TrainConfig, state_elements

MAGIC = b"ISTACKPT 1"


def save_checkpoint(path, model, train_config=None, epoch=0):
    blobs = [(p.name, p.data) for p in model.parameters()] + model.buffers()

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
        "blobs": manifest,
    }
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC + b"\n")
            f.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"))
            f.write(b"\n")
            for chunk in payload:
                f.write(chunk)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    _fsync_directory(os.path.dirname(os.path.abspath(path)))


def _fsync_directory(path):
    """Make a rename inside `path` durable (POSIX). Where a directory cannot
    be opened (Windows), there is nothing to fsync and this does nothing."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _read_header(path, raw):
    nl1 = raw.find(b"\n")
    if nl1 < 0 or raw[:nl1] != MAGIC:
        raise UsageError(f"{path}: not a checkpoint (bad magic)")
    nl2 = raw.find(b"\n", nl1 + 1)
    if nl2 < 0:
        raise UsageError(f"{path}: truncated checkpoint (no end of header)")
    try:
        header = json.loads(raw[nl1 + 1:nl2].decode("utf-8"))
    except ValueError as e:  # not UTF-8, not JSON, or an integer over Python's digit limit
        raise UsageError(f"{path}: corrupt checkpoint header ({e})") from None
    if not isinstance(header, dict):
        raise UsageError(f"{path}: checkpoint header is not a JSON object")
    for key in ("model_config", "blobs"):
        if key not in header:
            raise UsageError(f"{path}: checkpoint header has no {key!r}")
    return header, raw[nl2 + 1:]


def _read_blobs(path, manifest, binary):
    """Map blob name -> float32 array, checking every blob starts where the
    one before it ends (as save_checkpoint writes them), lies inside the
    payload, and the payload holds exactly the manifest's elements."""
    if not isinstance(manifest, list):
        raise UsageError(f"{path}: checkpoint blob manifest is not a list")
    values = {}
    total = 0
    for entry in manifest:
        try:
            name, shape, offset = entry["name"], tuple(entry["shape"]), entry["offset"]
            ok = isinstance(name, str) and all(
                isinstance(n, int) and n >= 0 for n in shape + (offset,))
        except (TypeError, KeyError):
            ok = False
        if not ok:
            raise UsageError(f"{path}: malformed checkpoint blob entry {entry!r}")
        size = math.prod(shape)
        if offset != total:
            raise UsageError(f"{path}: blob {name!r} starts at element {offset}, "
                             f"but the blobs before it end at element {total}")
        if (offset + size) * 4 > len(binary):
            raise UsageError(
                f"{path}: blob {name!r} runs past the end of the file "
                f"(needs {(offset + size) * 4} payload bytes, file has {len(binary)})")
        values[name] = np.frombuffer(binary, dtype="<f4", count=size,
                                     offset=offset * 4).reshape(shape)
        total += size
    if total * 4 != len(binary):
        raise UsageError(
            f"{path}: payload is {len(binary)} bytes, manifest describes {total * 4}")
    return values


def _stored(path, values, name, shape, kind):
    if name not in values:
        raise UsageError(f"{path}: checkpoint is missing {kind} {name!r}")
    stored = values[name]
    if stored.shape != shape:
        raise UsageError(
            f"{path}: checkpoint {kind} {name!r} has shape {stored.shape}, "
            f"model expects {shape}")
    return stored


def load_checkpoint(path, dtype=np.float32):
    """Rebuild the model from disk; returns (model, train_config or None,
    epoch, None, {}).

    A file that is not a well-formed checkpoint for its own model config
    raises UsageError. Blobs the model has no parameter or buffer for (the
    optimizer velocities of older files) are ignored.
    """
    with open(path, "rb") as f:
        raw = f.read()
    header, binary = _read_header(path, raw)
    values = _read_blobs(path, header["blobs"], binary)
    try:
        config = ModelConfig.from_dict(header["model_config"])
        need, have = state_elements(config), len(binary) // 4
        if need > have:  # refused before a single array of it is allocated
            raise UsageError(f"{path}: cannot build the model in the checkpoint header: "
                             f"it holds {need} elements, the payload {have}")
        model = ISTANet(config, dtype=dtype)
        train_config = (TrainConfig.from_dict(header["train_config"])
                        if header.get("train_config") else None)
    except (TypeError, ValueError) as e:
        raise UsageError(f"{path}: bad config in checkpoint header ({e!r})") from None

    for p in model.parameters():
        p.data = _stored(path, values, p.name, p.shape, "parameter").astype(p.data.dtype)
    for name, buf in model.buffers():
        buf[...] = _stored(path, values, name, buf.shape, "buffer")

    # perfbench/run.py unpacks five values, so the last two stay
    return model, train_config, header.get("epoch", 0), None, {}
