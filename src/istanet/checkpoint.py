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
a partial file, and the rename survives a power cut. A load builds a
float32 model. It refuses a file that is not a regular file (a pipe, a FIFO
or a device) before reading it, and one without the magic before reading
past it; it validates the blob manifest against the file's size before it
reads a payload byte, refuses a header config whose model holds more
elements than the payload before building the model, then checks each of
its parameters and buffers by name and shape. Each blob moves straight
between the file and the model's array; blobs the model does not name are
not read. A malformed file raises UsageError.
"""

import contextlib
import json
import math
import os
import sys

import numpy as np

from .data import open_regular
from .engine import UsageError
from .model import ISTANet, ModelConfig, TrainConfig, state_elements

MAGIC = b"ISTACKPT 1"


def save_checkpoint(path, model, train_config=None, epoch=0):
    blobs = [(p.name, p.data) for p in model.parameters()] + model.buffers()

    manifest = []
    offset = 0
    for name, arr in blobs:
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size

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
            for _, arr in blobs:
                f.write(np.ascontiguousarray(arr, dtype="<f4"))
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


def _read_header(path, f):
    if f.read(len(MAGIC) + 1) != MAGIC + b"\n":
        raise UsageError(f"{path}: not a checkpoint (bad magic)")
    line = f.readline()
    if not line.endswith(b"\n"):
        raise UsageError(f"{path}: truncated checkpoint (no end of header)")
    try:
        header = json.loads(line[:-1].decode("utf-8"))
    except ValueError as e:  # not UTF-8, not JSON, or an integer over Python's digit limit
        raise UsageError(f"{path}: corrupt checkpoint header ({e})") from None
    if not isinstance(header, dict):
        raise UsageError(f"{path}: checkpoint header is not a JSON object")
    for key in ("model_config", "blobs"):
        if key not in header:
            raise UsageError(f"{path}: checkpoint header has no {key!r}")
    return header


def _index_blobs(path, manifest, f):
    """({blob name: (shape, file offset)}, payload elements, payload end) for
    the open file `f`, read up to the payload. Every blob must start where
    the one before it ends (as save_checkpoint writes them) and lie inside
    the payload, and the payload must hold exactly the manifest's elements,
    all checked against the file's size before a payload byte is read."""
    if not isinstance(manifest, list):
        raise UsageError(f"{path}: checkpoint blob manifest is not a list")
    start = f.tell()
    have = os.fstat(f.fileno()).st_size - start  # payload bytes
    index = {}
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
        if (offset + size) * 4 > have:
            raise UsageError(
                f"{path}: blob {name!r} runs past the end of the file "
                f"(needs {(offset + size) * 4} payload bytes, file has {have})")
        index[name] = shape, start + offset * 4
        total += size
    if total * 4 != have:
        raise UsageError(f"{path}: payload is {have} bytes, manifest describes {total * 4}")
    return index, total, start + have


def load_checkpoint(path):
    """Rebuild the float32 model from disk; returns (model, train_config or
    None, epoch, None, {}).

    A file that is not a regular file, not a well-formed checkpoint for its
    own model config, or one whose size changes while it is read raises
    UsageError. Blobs the model has no parameter or buffer for (the optimizer
    velocities of older files) are not read.
    """
    with open_regular(path, "rb", UsageError) as f:
        header = _read_header(path, f)
        index, have, end = _index_blobs(path, header["blobs"], f)
        try:
            config = ModelConfig.from_dict(header["model_config"])
            need = state_elements(config)
            if need > have:  # refused before a single array of it is allocated
                raise UsageError(f"{path}: cannot build the model in the checkpoint header: "
                                 f"it holds {need} elements, the payload {have}")
            model = ISTANet(config)
            train_config = (TrainConfig.from_dict(header["train_config"])
                            if header.get("train_config") else None)
        except (TypeError, ValueError) as e:
            raise UsageError(f"{path}: bad config in checkpoint header ({e!r})") from None

        for kind, name, arr in ([("parameter", p.name, p.data) for p in model.parameters()]
                                + [("buffer", name, buf) for name, buf in model.buffers()]):
            if name not in index:
                raise UsageError(f"{path}: checkpoint is missing {kind} {name!r}")
            shape, offset = index[name]
            if shape != arr.shape:
                raise UsageError(f"{path}: checkpoint {kind} {name!r} has shape {shape}, "
                                 f"model expects {arr.shape}")
            f.seek(offset)
            if f.readinto(arr) != arr.nbytes:
                raise UsageError(f"{path}: the file shrank while it was read")
            if sys.byteorder == "big":
                arr.byteswap(inplace=True)
        f.seek(end)
        if f.read(1):
            raise UsageError(f"{path}: the file grew while it was read")

    # perfbench/run.py unpacks five values, so the last two stay
    return model, train_config, header.get("epoch", 0), None, {}
